"""The document load path: plain-rational parsing, names resolved once, and
position-built components.

``parse_rational`` converts the plain form ``render_spec`` writes with
``int`` and ``Fraction(n, d)``; ``reference_parse_rational`` is the general
path every value took before, and both must give the same value or the same
error.  ``parse_spec`` turns a document's names into PiE chart positions,
and ``assemble_field`` collects each target's terms in one term map;
``reference_assemble`` folds ``Chart.monomial`` and ``+`` over the
document's names, per term, and never reads a position, and both must give
the same components, in the same order, with the same term maps and
coefficient types.  A term out of normal form, or naming no generator of
its kind, is refused by ``parse_spec``, so ``assemble_field`` never sees it.
"""

import json
import re
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalgebroid.builtins import FIXTURES, builtin_spec
from qalgebroid.charts import BundlePresentation, chart_pi_e
from qalgebroid.fields import VectorField
from qalgebroid.gradedpoly import EVEN, ODD, GradedPoly
from qalgebroid.randgen import random_homological_field
from qalgebroid.specdoc import (
    AlgebroidSpec,
    SpecError,
    assemble_field,
    parse_rational,
    parse_spec,
    refused,
    render_spec,
    spec_from_field,
)

from support import mixed_linfinity_algebra

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def reference_parse_rational(raw, where: str) -> Fraction:
    """Every value through ``Fraction(str)`` and a rendering probe; refusals
    render the value through ``refused``, as ``parse_rational`` does."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        exponent = _EXPONENT.search(str(raw))
        if exponent is not None and abs(int(exponent.group(1))) > 2 * limit:
            raise SpecError(f"{where}: the exponent of {refused(raw)} is too large")
        value = Fraction(str(raw))
        str(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{where}: bad rational {refused(raw, exc)}") from None
    return value


def outcome(parse, raw):
    """``("value", value, type)`` or ``("error", message)``."""
    try:
        value = parse(raw, "c")
    except SpecError as exc:
        return ("error", str(exc))
    return ("value", value, type(value))


def assert_parses_as_before(raw):
    assert outcome(parse_rational, raw) == outcome(reference_parse_rational, raw)


DIGITS = st.text("0123456789", min_size=1, max_size=40)
PLAIN = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]), DIGITS, st.none() | DIGITS,
)


class TestParseRational:
    @PROPERTY
    @given(PLAIN)
    def test_plain_strings_parse_as_before(self, raw):
        assert_parses_as_before(raw)
        try:
            expected = Fraction(raw)
        except ZeroDivisionError:
            return
        assert parse_rational(raw, "c") == expected

    @PROPERTY
    @given(st.text(max_size=12) | st.integers() | st.floats(allow_nan=False))
    def test_other_values_parse_as_before(self, raw):
        assert_parses_as_before(raw)

    @pytest.mark.parametrize("raw", [
        "0", "-0", "-0/1", "007", "-007/010", "0/5", "3/0", "-1/0", "0/0", "-0/0",
        "6/4", "-6/4", "+1", " 1", "1 ", "1_000", "１", "1.5", "1e3", "1/2/3", "-", "",
    ])
    def test_edge_cases_parse_as_before(self, raw):
        assert_parses_as_before(raw)

    @pytest.mark.parametrize("digits", [4300, 4301])
    @pytest.mark.parametrize("form", ["{n}", "-{n}", "{n}/7", "7/{n}", "-1/{n}", "{z}"])
    def test_digit_limit_as_before(self, digits, form):
        raw = form.format(n="9" * digits, z="0" * digits)
        assert_parses_as_before(raw)
        failed = outcome(parse_rational, raw)[0] == "error"
        assert failed is (digits > 4300)

    @pytest.mark.parametrize("raw", [
        "9" * 4301, "1/" + "9" * 4301, "x" * 5000, "1e" + "9" * 5000, "1.5e" + "9" * 300])
    def test_long_refusals_stay_short(self, raw):
        kind, message = outcome(parse_rational, raw)
        assert kind == "error" and len(message) < 200, message
        assert repr(raw[:40]) in message and f"({len(raw)} characters)" in message

    def test_short_values_show_whole(self):
        assert outcome(parse_rational, "1/0") == ("error", "c: bad rational '1/0': Fraction(1, 0)")
        assert outcome(parse_rational, "9" * 40)[0] == "value"
        assert outcome(parse_rational, "x" * 40) == (
            "error", f"c: bad rational {'x' * 40!r}: Invalid literal for Fraction")

    def test_an_int_past_the_digit_limit_is_refused_short(self):
        # str() of such an int raises, so it is shown by its bit length
        kind, message = outcome(parse_rational, 10 ** 5000)
        assert kind == "error" and len(message) < 200, message
        assert "<int of 16610 bits>" in message
        assert_parses_as_before(10 ** 5000)


LONG = "z" * 5000


def _so3_with(change):
    doc = json.loads(render_spec(builtin_spec("so3")))
    change(doc)
    return doc


# each puts one long value where parse_spec refuses it and echoes it
LONG_REFUSALS = {
    "target": lambda doc: doc["q_terms"][0].update(target=LONG),
    "fibre symbol": lambda doc: doc["q_terms"][0]["monomial"].__setitem__(0, LONG),
    "base symbol": lambda doc: doc["q_terms"][0].update(base_monomial=[[LONG, 1]]),
    "generator name": lambda doc: doc["fibre"][0].update(name=[LONG]),
    "parity string": lambda doc: doc["fibre"][0].update(parity=LONG),
    "duplicate name": lambda doc: doc.update(fibre=[{"name": LONG, "parity": "even"}] * 2),
    "target of the wrong parity": lambda doc: (
        doc["fibre"][0].update(name=LONG),
        doc.update(q_terms=[{"target": LONG, "coefficient": "1", "monomial": ["s2"]}])),
}


class TestParseSpecRefusals:
    @pytest.mark.parametrize("kind", sorted(LONG_REFUSALS))
    def test_long_values_are_echoed_short(self, kind):
        with pytest.raises(SpecError) as refusal:
            parse_spec(_so3_with(LONG_REFUSALS[kind]))
        message = str(refusal.value)
        assert len(message) < 200, message
        assert re.search(r"\.\.\. \(\d+ characters\)", message), message


def reference_assemble(document: dict) -> VectorField:
    """One ``Chart.monomial`` and one ``+`` per term, read from the
    document's names alone."""
    parity = {"even": EVEN, "odd": ODD}
    base, fibre = document["base"], document["fibre"]
    chart = chart_pi_e(BundlePresentation(tuple(parity[e["parity"]] for e in base),
                                          tuple(parity[e["parity"]] for e in fibre)))
    generator = {e["name"]: f"x{i + 1}" for i, e in enumerate(base)}
    generator.update({e["name"]: f"xi{i + 1}" for i, e in enumerate(fibre)})
    comps: dict[str, GradedPoly] = {}
    for t in document["q_terms"]:
        target = generator[t["target"]]
        expo: dict[str, int] = {}
        for m in t["monomial"]:
            expo[generator[m]] = expo.get(generator[m], 0) + 1
        for bname, exp in t["base_monomial"]:
            expo[generator[bname]] = exp
        term = chart.monomial(expo, Fraction(str(t["coefficient"])))
        comps[target] = comps.get(target, chart.zero()) + term
    return VectorField(chart, {k: v for k, v in comps.items() if not v.is_zero()}, ODD)


def layout(q: VectorField):
    """Component names in order, each with its terms and coefficient types
    in order."""
    return [(name, [(m, c, type(c)) for m, c in comp.terms.items()])
            for name, comp in q.components.items()]


def assert_assembles_as_before(document: dict, spec: AlgebroidSpec | None = None):
    """``assemble_field`` of ``spec`` (the parsed document by default) has
    the chart and layout of the reference fold over the document."""
    new = assemble_field(parse_spec(document) if spec is None else spec)
    old = reference_assemble(document)
    assert new.chart == old.chart
    assert layout(new) == layout(old)


def document_of(q: VectorField, name: str) -> AlgebroidSpec:
    """The document of a field on a PiE chart, named as CI names it."""
    chart = q.chart
    base = tuple((f"b{i + 1}", g.parity)
                 for i, g in enumerate(chart.generators[:chart.n_base]))
    fibre = tuple((f"f{i + 1}", (g.parity + 1) & 1)
                  for i, g in enumerate(chart.generators[chart.n_base:]))
    return spec_from_field(name, base, fibre, q)


def hand_document(*terms) -> dict:
    """A document over two base and three fibre symbols: on its PiE chart
    x1 is even, x2 odd, xi1 and xi2 odd and xi3 even."""
    return {
        "name": "hand",
        "base": [{"name": "b1", "parity": "even"}, {"name": "b2", "parity": "odd"}],
        "fibre": [{"name": "s1", "parity": "even"}, {"name": "s2", "parity": "even"},
                  {"name": "s3", "parity": "odd"}],
        "q_terms": [{"target": t, "coefficient": c, "monomial": m, "base_monomial": b}
                    for t, c, m, b in terms],
    }


class TestAssembleField:
    DOCUMENTS = {**FIXTURES, "mixed-linfinity-algebra": mixed_linfinity_algebra}

    @pytest.mark.parametrize("name", list(DOCUMENTS))
    def test_builtins(self, name):
        spec = self.DOCUMENTS[name]()
        document = json.loads(render_spec(spec))
        assert_assembles_as_before(document)
        assert_assembles_as_before(document, spec)

    def test_random_homological_documents(self):
        rng = Random(2101)
        for k in range(200):
            q = random_homological_field(rng)
            spec = document_of(q, f"random-{k}")
            assert assemble_field(spec) == q
            document = json.loads(render_spec(spec))
            assert_assembles_as_before(document)
            assert_assembles_as_before(document, spec)

    @pytest.mark.parametrize("terms", [
        # base and fibre factors in one monomial, and a fibre symbol twice:
        # s3 is odd, so its xi is even and may repeat
        [("s3", "2", ["s1", "s2"], [["b1", 3], ["b2", 1]]),
         ("s1", "1", ["s3", "s3"], []),
         ("s2", "-1", ["s1", "s3", "s3", "s3"], [["b2", 1]])],
        # duplicate monomials that add up, on one target
        [("b1", "1", ["s2"], [["b1", 2]]), ("b1", "1/2", ["s2"], [["b1", 2]]),
         ("b1", "1", ["s2"], [])],
        # duplicate monomials that cancel, and one that comes back after
        [("s1", "1", ["s3"], []), ("s1", "-1", ["s3"], []),
         ("s1", "2", ["s1", "s2"], []), ("s1", "5", ["s3"], [])],
        # a target whose terms all cancel, between two that do not
        [("s3", "1", ["s1"], []), ("s1", "1/3", ["s3"], []),
         ("s1", "-1/3", ["s3"], []), ("b1", 2, ["s2"], [])],
        # whole and fractional coefficients, as strings and numbers, on one monomial
        [("s2", "3", ["s3"], []), ("s2", 1, ["s3"], []), ("s2", "1/2", ["s3"], []),
         ("s2", "-1/2", ["s3"], []), ("s2", 2.0, ["s3"], []), ("s2", "2.5e-1", ["s3"], [])],
    ], ids=["base-and-fibre", "duplicates", "cancel-and-return", "all-cancel", "mixed-types"])
    def test_hand_made_documents(self, terms):
        assert_assembles_as_before(hand_document(*terms))

    # out of normal form, off the generators or with a bad coefficient: the
    # positions assemble_field trusts are never made from these
    @pytest.mark.parametrize("terms, message", [
        ([("s3", "2", ["s2", "s1"], [["b1", 3], ["b2", 1]])], "monomial is not normal-ordered"),
        ([("s3", "2", ["s1", "s2"], [["b2", 1], ["b1", 3]])], "base_monomial not in document order"),
        ([("s1", "1", ["s1", "s1"], [])], "monomial is not normal-ordered"),
        ([("b1", "1", ["s1"], [["b2", 2]])], "odd base symbol squared"),
        ([("s2", "0", ["s3"], [])], "zero coefficients are not stored"),
        ([("s1", "1", ["s3"], [["b1", 0]])], "base exponent must be a positive integer"),
        ([("s1", "1", ["s3"], [["b1", -1]])], "base exponent must be a positive integer"),
        ([("s9", "1", [], [])], "unknown target 's9'"),
        ([("s1", "1", ["b1"], [])], "unknown fibre symbol 'b1'"),
        ([("s1", "1", [], [["s1", 1]])], "unknown base symbol 's1'"),
        ([("s1", "x", ["s3"], [])], "bad rational 'x'"),
    ], ids=["unsorted-fibre", "unsorted-base", "odd-square", "odd-base-square",
            "zero-coefficient", "zero-exponent", "negative-exponent", "unknown-target",
            "base-in-monomial", "fibre-in-base-monomial", "bad-coefficient"])
    def test_name_form_inputs_are_refused(self, terms, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            parse_spec(hand_document(*terms))

    def test_one_add_per_nonzero_component(self, monkeypatch):
        q = random_homological_field(Random(4), max_rank=7, max_degree=4, shears=8)
        spec = parse_spec(render_spec(document_of(q, "large-seed-4")))
        assert len(spec.q_terms) == 1261
        calls = []
        add = GradedPoly.__add__
        monkeypatch.setattr(GradedPoly, "__add__",
                            lambda self, other: calls.append(1) or add(self, other))
        assembled = assemble_field(spec)
        assert assembled == q
        assert len(calls) == len(assembled.components)
