"""Graded vector fields, the supercommutator, canonical brackets and symbols.

The two canonical brackets are fixed by their Darboux normalisation together
with the requirement that the principal symbols intertwine the commutator of
vector fields with them.  Writing (z, z') for a conjugate pair with a = parity
of z, c = parity of the bracket and all derivatives acting from the left, one
rule gives both:

    (f, g) = sum_pairs (-1)^((a+c)(f+1)) d_{z'}f d_z g - (-1)^(a(f+c)) d_z f d_{z'} g

c = 0 is the even bracket {,} on T*(.) with {z', z} = +1; c = 1 is the odd
bracket [[,]] on PiT*(.) with [[z*, z]] = +1.  Both are extended bilinearly
from parity-homogeneous f (the sign only reads the parity of the first
argument).  The property tests pin skew-symmetry, Leibniz, Jacobi and the
symbol identities sigma[X,Y] = {sigma X, sigma Y} and
varsigma[X,Y] = [[varsigma X, varsigma Y]] for this exact formula.

Self-brackets take one product per term instead of two, because the two
halves of a graded-symmetric expression agree up to an exact sign.  When the
same object is passed twice, commutator(X, X) is 0 for even X and has
component 2 X(X^z) for odd X.  For f of one parity p, the two products of a
pair in (f, f) are related by d_z f d_{z'} f = (-1)^((p+a)(p+a+c)) d_{z'} f d_z f
(the parity of z' is a + c), so the pair contributes k d_{z'}f d_z f with

    k = s1 - s2 (-1)^((p+a)(p+a+c)),  s1 = (-1)^((a+c)(p+1)),  s2 = (-1)^(a(p+c))

which is 2 for odd S under {,}, -2(-1)^a for even P under [[,]], and 0 (the
pair is skipped) for an even f under {,} or an odd f under [[,]].  Mixed
parity f, or a distinct g, takes the general formula.

The self-brackets multiply integers.  A self-bracket is quadratic in its one
argument, so with d the lcm of the denominators of X (of all components at
once) or of f, [dX, dX] = d^2 [X, X] and (df, df) = d^2 (f, f): each is
computed on the integer multiple (``gradedpoly._cleared``) and divided by
d^2 once (``gradedpoly._divided``).  That is an equality over the rationals,
so the result is the same polynomial.  On homological input the self-bracket
is empty, and nothing is divided.

Each bracket is a sum of products of a polynomial with a derivative, and
fills one term map through ``gradedpoly._product_into`` with its exact sign
(or 2, or k) as the scale: no summand becomes a polynomial of its own.
"""

from __future__ import annotations

from math import lcm

from .charts import (
    BASE_FIBRE,
    EVEN_COTANGENT,
    ODD_COTANGENT,
    Chart,
    chart_even_cotangent,
    chart_odd_cotangent,
    lift_to_phase,
)
from .gradedpoly import (
    EVEN,
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    _cleared,
    _denominator,
    _derivative,
    _divided,
    _masked,
    _product_into,
    coefficient,
)


class NotHomological(GradedAlgebraError):
    """Raised when a construction requires [Q, Q] = 0 and it fails.

    Carries the offending field and the nonzero commutator as a witness.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class VectorField:
    """A derivation on a chart, one polynomial component per generator.

    Components are keyed by generator name; missing keys mean zero.  Fields
    must be parity-homogeneous: each nonzero component's parity equals the
    field parity plus the generator parity.  An all-zero field defaults to
    odd so that it counts as homological.  A field is never mutated, so it
    keeps its self-commutator once ``square`` has computed it.
    """

    __slots__ = ("chart", "components", "parity", "_square")

    def __init__(self, chart: Chart, components: dict[str, GradedPoly], parity: int | None = None):
        self.chart = chart
        comps: dict[str, GradedPoly] = {}
        inferred = None
        for name, poly in components.items():
            idx = chart.index_of(name)
            if poly.chart != chart:
                raise ChartMismatch(f"component for {name} lives on another chart")
            if poly.is_zero():
                continue
            p = poly.parity()
            if p is None:
                raise ParityMismatch(f"component for {name} has mixed parity")
            fp = (p + chart.generators[idx].parity) & 1
            if inferred is None:
                inferred = fp
            elif inferred != fp:
                raise ParityMismatch("components disagree on the field parity")
            comps[name] = poly
        if parity is None:
            parity = inferred if inferred is not None else ODD
        elif inferred is not None and parity != inferred:
            raise ParityMismatch("declared parity contradicts the components")
        self.components = comps
        self.parity = parity
        self._square = None

    def square(self) -> "VectorField":
        """[X, X], computed on first use and kept: every gate on one field
        (``is_homological``, ``require_homological``, the field engine's
        squared generator) shares one self-commutator."""
        if self._square is None:
            self._square = commutator(self, self)
        return self._square

    def component(self, name: str) -> GradedPoly:
        return self.components.get(name, self.chart.zero())

    def is_zero(self) -> bool:
        return not self.components

    def __call__(self, f: GradedPoly) -> GradedPoly:
        """Derivation action: sum of component * left derivative, over the
        generators that occur in f."""
        if f.chart != self.chart:
            raise ChartMismatch("field and function live on different charts")
        return GradedPoly(self.chart, _apply_into({}, self, f))

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart != other.chart:
            raise ChartMismatch("cannot add fields on different charts")
        if not self.is_zero() and not other.is_zero() and self.parity != other.parity:
            raise ParityMismatch("cannot add fields of different parity")
        comps = {n: c for n, c in self.components.items()}
        for n, c in other.components.items():
            acc = comps.get(n, self.chart.zero()) + c
            if acc.is_zero():
                comps.pop(n, None)
            else:
                comps[n] = acc
        parity = self.parity if not self.is_zero() else other.parity
        return VectorField(self.chart, comps, parity if comps else self.parity)

    def scaled(self, value) -> "VectorField":
        c = coefficient(value)
        return VectorField(
            self.chart,
            {n: comp.scaled(c) for n, comp in self.components.items()},
            self.parity,
        )

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __repr__(self):
        if not self.components:
            return f"<VectorField 0 on {self.chart.space}>"
        parts = [f"({c.render()}) d/d{n}" for n, c in sorted(self.components.items())]
        return f"<VectorField {' + '.join(parts)}>"


def _apply_into(out: dict, x: VectorField, f: GradedPoly, scale: int = 1) -> dict:
    """Add ``scale`` times X(f) into the term map ``out``: one product per
    component along a generator that occurs in f (``f.support()``)."""
    support = f.support()
    odd, index_of = x.chart.odd_flags, x.chart.index_of
    for name, comp in x.components.items():
        idx = index_of(name)
        if idx in support:
            _product_into(out, comp.terms, _masked(_derivative(f.terms, idx, odd), odd), odd, scale)
    return out


def commutator(x: VectorField, y: VectorField) -> VectorField:
    """Graded commutator [X, Y] = X Y - (-1)^(XY) Y X, in components.

    [X, X] of one object is 0 for even X and 2 X(X^z) for odd X.  When
    either field is zero the bracket is the zero field of parity X + Y, by
    bilinearity, with no component visited.
    """
    if x.chart != y.chart:
        raise ChartMismatch("fields live on different charts")
    if x.is_zero() or y.is_zero():
        return VectorField(x.chart, {}, (x.parity + y.parity) & 1)
    chart = x.chart
    comps: dict[str, GradedPoly] = {}
    if x is y:
        if x.parity == ODD:
            d = lcm(*(_denominator(comp.terms) for comp in x.components.values()))
            cleared = VectorField(chart, {z: GradedPoly(chart, _cleared(comp.terms, d)[1])
                                          for z, comp in x.components.items()}, ODD)
            for z, comp in cleared.components.items():
                acc = _apply_into({}, cleared, comp, 2)
                if acc:
                    comps[z] = GradedPoly(chart, _divided(acc, d * d))
        return VectorField(chart, comps, EVEN)
    sign = 1 if (x.parity & y.parity) else -1  # of Y(X^z): -(-1)^(XY)
    xc, yc = x.components, y.components
    for z in sorted(xc.keys() | yc.keys(), key=chart.index_of):
        acc = _apply_into({}, x, yc[z]) if z in yc else {}
        if z in xc:
            _apply_into(acc, y, xc[z], sign)
        if acc:
            comps[z] = GradedPoly(chart, acc)
    return VectorField(chart, comps, (x.parity + y.parity) & 1)


def is_homological(q: VectorField) -> bool:
    """True iff the field is odd and supercommutes with itself exactly."""
    return q.parity == ODD and q.square().is_zero()


def require_homological(q: VectorField):
    if q.parity != ODD:
        raise NotHomological("the field is not odd", witness=q)
    w = q.square()
    if not w.is_zero():
        raise NotHomological(f"[Q, Q] != 0, witness: {w!r}", witness=w)


# ---------------------------------------------------------------------------
# canonical brackets
# ---------------------------------------------------------------------------

def _require_kind(phase: Chart, kind: str):
    if phase.kind != kind:
        raise ChartMismatch(
            f"expected a {kind} chart, got {phase.kind} ({phase.space})"
        )


def _canonical(f: GradedPoly, g: GradedPoly, phase: Chart | None, kind: str,
               c: int) -> GradedPoly:
    """The canonical bracket of parity c on a chart of the given kind.

    A zero operand gives the zero of ``phase`` by bilinearity, once the
    chart checks have passed, so a bad chart raises whatever the operands.
    """
    phase = phase or f.chart
    _require_kind(phase, kind)
    if f.chart != phase or g.chart != phase:
        raise ChartMismatch("arguments must live on the phase chart")
    if f.is_zero() or g.is_zero():
        return phase.zero()
    parts = f.parity_parts()
    if g is f and len(parts) == 1:
        return _self_canonical(f, next(iter(parts)), phase, c)
    sf, sg = f.support(), g.support()
    odd, gens = phase.odd_flags, phase.generators
    out: dict = {}
    for zi, ci in phase.conjugate_pairs():
        # d_{z'}f d_z g needs z' in f and z in g; d_z f d_{z'}g the reverse
        first = zi in sg and ci in sf
        second = zi in sf and ci in sg
        if not (first or second):
            continue
        a = gens[zi].parity
        if first:
            dg_z = _masked(_derivative(g.terms, zi, odd), odd)
        if second:
            dg_c = _masked(_derivative(g.terms, ci, odd), odd)
        for p, fp in parts.items():
            s1, s2 = _pair_signs(a, p, c)
            if first:
                _product_into(out, _derivative(fp.terms, ci, odd), dg_z, odd, s1)
            if second:
                _product_into(out, _derivative(fp.terms, zi, odd), dg_c, odd, -s2)
    return GradedPoly(phase, out)


def _pair_signs(a: int, p: int, c: int) -> tuple[int, int]:
    """(s1, s2) of a conjugate pair with |z| = a, for f of parity p."""
    return (-1 if ((a + c) * (p + 1)) & 1 else 1,
            -1 if (a * (p + c)) & 1 else 1)


def _self_canonical(f: GradedPoly, p: int, phase: Chart, c: int) -> GradedPoly:
    """(f, f) for f of parity p: k d_{z'}f d_z f per pair, k as in the module
    docstring, on d f with integer coefficients, divided by d^2 once."""
    d, terms = _cleared(f.terms)
    f = GradedPoly(phase, terms)
    sf = f.support()
    odd, gens = phase.odd_flags, phase.generators
    out: dict = {}
    for zi, ci in phase.conjugate_pairs():
        if zi not in sf or ci not in sf:
            continue
        a = gens[zi].parity
        s1, s2 = _pair_signs(a, p, c)
        k = s1 + s2 if ((p + a) * (p + a + c)) & 1 else s1 - s2
        if k:
            d_z = f.left_derivative(gens[zi].name)
            _product_into(out, f.left_derivative(gens[ci].name).terms,
                          _masked(d_z.terms, odd), odd, k)
    return GradedPoly(phase, _divided(out, d * d))


def canonical_poisson(f: GradedPoly, g: GradedPoly, phase: Chart | None = None) -> GradedPoly:
    """Even canonical bracket on an even cotangent chart ({p, x} = +1)."""
    return _canonical(f, g, phase, EVEN_COTANGENT, EVEN)


def canonical_schouten(f: GradedPoly, g: GradedPoly, phase: Chart | None = None) -> GradedPoly:
    """Odd canonical bracket on an odd cotangent chart ([[x*, x]] = +1)."""
    return _canonical(f, g, phase, ODD_COTANGENT, ODD)


# ---------------------------------------------------------------------------
# principal symbols
# ---------------------------------------------------------------------------

def even_symbol(x: VectorField, phase: Chart | None = None) -> GradedPoly:
    """sigma X = sum X^z z' as a momentum-linear function on T*(chart)."""
    return _symbol(x, phase, EVEN_COTANGENT, chart_even_cotangent)


def odd_symbol(x: VectorField, phase: Chart | None = None) -> GradedPoly:
    """varsigma X = sum X^z z* on PiT*(chart)."""
    return _symbol(x, phase, ODD_COTANGENT, chart_odd_cotangent)


def _symbol(x: VectorField, phase: Chart | None, kind: str, cotangent) -> GradedPoly:
    if x.chart.kind != BASE_FIBRE:
        raise ChartMismatch("symbols are taken on base-fibre charts")
    phase = phase or cotangent(x.chart)
    _require_kind(phase, kind)
    if phase.parent_chart() != x.chart:
        raise ChartMismatch("phase chart was not built from the field's chart")
    gens = phase.generators
    return GradedPoly.sum(phase, (
        lift_to_phase(x.components[gens[zi].name], phase) * phase.gen(gens[ci].name)
        for zi, ci in phase.conjugate_pairs() if gens[zi].name in x.components
    ))
