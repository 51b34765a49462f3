"""The document load path: plain-rational parsing and index-built components.

``parse_rational`` converts the plain form ``render_spec`` writes with
``int`` and ``Fraction(n, d)``; ``reference_parse_rational`` is the general
path every value took before, and both must give the same value or the same
error.  ``assemble_field`` collects each target's terms in one term map;
``reference_assemble`` is the fold of ``Chart.monomial`` and ``+`` per term
that it replaced, and both must give the same components, in the same order,
with the same term maps and coefficient types.
"""

import json
import re
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalgebroid.builtins import FIXTURES, builtin_spec, mixed_linfinity_algebra
from qalgebroid.charts import chart_pi_e
from qalgebroid.fields import VectorField
from qalgebroid.gradedpoly import EVEN, ODD, GradedAlgebraError, GradedPoly
from qalgebroid.randgen import random_homological_field
from qalgebroid.specdoc import (
    AlgebroidSpec,
    QTerm,
    SpecError,
    assemble_field,
    parse_rational,
    parse_spec,
    refused,
    render_spec,
    spec_from_field,
)

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


def reference_assemble(spec: AlgebroidSpec) -> VectorField:
    """One ``Chart.monomial`` and one ``+`` per document term."""
    chart = chart_pi_e(spec.presentation)
    base_name = {n: f"x{i + 1}" for i, (n, _) in enumerate(spec.base)}
    fibre_name = {n: f"xi{i + 1}" for i, (n, _) in enumerate(spec.fibre)}
    comps: dict[str, GradedPoly] = {}
    for t in spec.q_terms:
        target = base_name.get(t.target) or fibre_name[t.target]
        expo: dict[str, int] = {}
        for m in t.monomial:
            g = fibre_name[m]
            expo[g] = expo.get(g, 0) + 1
        for bname, exp in t.base_monomial:
            expo[base_name[bname]] = exp
        comps[target] = comps.get(target, chart.zero()) + chart.monomial(expo, t.coefficient)
    return VectorField(chart, {k: v for k, v in comps.items() if not v.is_zero()}, ODD)


def layout(q: VectorField):
    """Component names in order, each with its terms and coefficient types
    in order."""
    return [(name, [(m, c, type(c)) for m, c in comp.terms.items()])
            for name, comp in q.components.items()]


def assert_assembles_as_before(spec):
    new, old = assemble_field(spec), reference_assemble(spec)
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


class TestAssembleField:
    DOCUMENTS = {**FIXTURES, "mixed-linfinity-algebra": mixed_linfinity_algebra}

    @pytest.mark.parametrize("name", list(DOCUMENTS))
    def test_builtins(self, name):
        spec = self.DOCUMENTS[name]()
        assert_assembles_as_before(spec)
        assert_assembles_as_before(parse_spec(render_spec(spec)))

    def test_random_homological_documents(self):
        rng = Random(2101)
        for k in range(200):
            spec = document_of(random_homological_field(rng), f"random-{k}")
            assert_assembles_as_before(spec)
            assert_assembles_as_before(parse_spec(render_spec(spec)))

    BASE = (("b1", EVEN), ("b2", ODD))
    FIBRE = (("s1", EVEN), ("s2", EVEN), ("s3", ODD))

    def spec(self, *terms):
        return AlgebroidSpec("hand", self.BASE, self.FIBRE,
                             tuple(QTerm(*t) for t in terms))

    # on the PiE chart x1 is even, x2 odd, xi1 and xi2 odd, xi3 even
    @pytest.mark.parametrize("terms", [
        # an unsorted monomial: base symbols after fibre ones, fibre out of order
        [("s3", Fraction(2), ("s2", "s1"), (("b2", 1), ("b1", 3)))],
        # an odd square (s1 is even, so its xi is odd): the term is zero
        [("s1", Fraction(1), ("s1", "s1"), ()), ("s1", Fraction(1), ("s3",), ())],
        # an odd base symbol squared
        [("b1", Fraction(1), ("s1",), (("b2", 2),)), ("b1", Fraction(1), ("s1",), ())],
        # a zero coefficient stores nothing; its target keeps its first place
        [("s2", Fraction(0), ("s3",), ()), ("s1", 1, ("s3",), ()),
         ("s2", Fraction(3, 2), ("s1", "s2"), ()), ("s3", 0, ("s1",), ())],
        # duplicate monomials that cancel, and one that comes back after
        [("s1", Fraction(1), ("s3",), ()), ("s1", Fraction(-1), ("s3",), ()),
         ("s1", Fraction(2), ("s1", "s2"), ()), ("s1", Fraction(5), ("s3",), ())],
        # a target whose terms all cancel, between two that do not
        [("s3", Fraction(1), ("s1",), ()), ("s1", Fraction(1, 3), ("s3",), ()),
         ("s1", Fraction(-1, 3), ("s3",), ()), ("b1", 2, ("s2",), ())],
        # whole Fractions and ints mixed on one monomial
        [("s2", Fraction(3), ("s3",), ()), ("s2", 1, ("s3",), ()),
         ("s2", Fraction(1, 2), ("s3",), ()), ("s2", Fraction(-1, 2), ("s3",), ())],
        # a zero base exponent is left out of the monomial
        [("s1", Fraction(1), ("s3",), (("b1", 0),))],
    ], ids=["unsorted", "odd-square", "odd-base-square", "zero-coefficient",
            "cancel-and-return", "all-cancel", "mixed-types", "zero-exponent"])
    def test_hand_made_specs(self, terms):
        assert_assembles_as_before(self.spec(*terms))

    @pytest.mark.parametrize("terms, error", [
        ([("s1", 1, ("s3",), (("b1", -1),))], GradedAlgebraError),
        # x1 comes before xi1 in chart order, so the negative exponent is
        # refused before the odd square is seen
        ([("s1", 1, ("s1", "s1"), (("b1", -1),))], GradedAlgebraError),
        ([("s9", 1, (), ())], KeyError),
        ([("s1", 1, ("b1",), ())], KeyError),
        ([("s1", 1, (), (("s1", 1),))], KeyError),
        ([("s1", "x", ("s3",), ())], ValueError),
    ], ids=["negative-exponent", "negative-before-odd-square", "unknown-target",
            "base-in-monomial", "fibre-in-base-monomial", "bad-coefficient"])
    def test_refusals_as_before(self, terms, error):
        spec = self.spec(*terms)
        with pytest.raises(error) as new:
            assemble_field(spec)
        with pytest.raises(error) as old:
            reference_assemble(spec)
        assert str(new.value) == str(old.value)

    def test_odd_square_before_negative_exponent_is_zero(self):
        # x1 is odd and squared before x2 (even) meets its exponent -1
        spec = AlgebroidSpec("hand", (("b1", ODD), ("b2", EVEN)), self.FIBRE, (
            QTerm("s3", 1, (), (("b1", 2), ("b2", -1))),
            QTerm("s3", 1, ("s1",), ()),
        ))
        assert_assembles_as_before(spec)

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
