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
"""

from __future__ import annotations

from fractions import Fraction

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
    odd so that it counts as homological.
    """

    __slots__ = ("chart", "components", "parity")

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

    def component(self, name: str) -> GradedPoly:
        return self.components.get(name, self.chart.zero())

    def is_zero(self) -> bool:
        return not self.components

    def __call__(self, f: GradedPoly) -> GradedPoly:
        """Derivation action: sum of component * left derivative, over the
        generators that occur in f."""
        if f.chart != self.chart:
            raise ChartMismatch("field and function live on different charts")
        support, index_of = f.support(), self.chart.index_of
        return GradedPoly.sum(self.chart, (
            comp * f.left_derivative(name)
            for name, comp in self.components.items() if index_of(name) in support
        ))

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
        c = Fraction(value)
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


def commutator(x: VectorField, y: VectorField) -> VectorField:
    """Graded commutator [X, Y] = X Y - (-1)^(XY) Y X, in components.

    [X, X] of one object is 0 for even X and 2 X(X^z) for odd X.
    """
    if x.chart != y.chart:
        raise ChartMismatch("fields live on different charts")
    if x is y:
        comps = {}
        if x.parity == ODD:
            for z, comp in x.components.items():
                acc = x(comp)
                if not acc.is_zero():
                    comps[z] = acc.scaled(2)
        return VectorField(x.chart, comps, EVEN)
    sign = -1 if (x.parity & y.parity) else 1
    comps: dict[str, GradedPoly] = {}
    for gen in x.chart.generators:
        z = gen.name
        acc = x(y.component(z)) + y(x.component(z)).scaled(-sign)
        if not acc.is_zero():
            comps[z] = acc
    return VectorField(x.chart, comps, (x.parity + y.parity) & 1)


def is_homological(q: VectorField) -> bool:
    """True iff the field is odd and supercommutes with itself exactly."""
    return q.parity == ODD and commutator(q, q).is_zero()


def require_homological(q: VectorField):
    if q.parity != ODD:
        raise NotHomological("the field is not odd", witness=q)
    w = commutator(q, q)
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
    """The canonical bracket of parity c on a chart of the given kind."""
    phase = phase or f.chart
    _require_kind(phase, kind)
    if f.chart != phase or g.chart != phase:
        raise ChartMismatch("arguments must live on the phase chart")
    parts = f.parity_parts()
    if g is f and len(parts) == 1:
        return _self_canonical(f, next(iter(parts)), phase, c)
    sf, sg = f.support(), g.support()
    summands = []
    gens = phase.generators
    for zi, ci in phase.conjugate_pairs():
        # d_{z'}f d_z g needs z' in f and z in g; d_z f d_{z'}g the reverse
        first = zi in sg and ci in sf
        second = zi in sf and ci in sg
        if not (first or second):
            continue
        a = gens[zi].parity
        zn = gens[zi].name
        cn = gens[ci].name
        dg_z = g.left_derivative(zn) if first else phase.zero()
        dg_c = g.left_derivative(cn) if second else phase.zero()
        for p, fp in parts.items():
            s1, s2 = _pair_signs(a, p, c)
            if not dg_z.is_zero():
                summands.append((fp.left_derivative(cn) * dg_z).scaled(s1))
            if not dg_c.is_zero():
                summands.append((fp.left_derivative(zn) * dg_c).scaled(-s2))
    return GradedPoly.sum(phase, summands)


def _pair_signs(a: int, p: int, c: int) -> tuple[int, int]:
    """(s1, s2) of a conjugate pair with |z| = a, for f of parity p."""
    return (-1 if ((a + c) * (p + 1)) & 1 else 1,
            -1 if (a * (p + c)) & 1 else 1)


def _self_canonical(f: GradedPoly, p: int, phase: Chart, c: int) -> GradedPoly:
    """(f, f) for f of parity p: k d_{z'}f d_z f per pair, k as in the module
    docstring."""
    sf = f.support()
    gens = phase.generators
    summands = []
    for zi, ci in phase.conjugate_pairs():
        if zi not in sf or ci not in sf:
            continue
        a = gens[zi].parity
        s1, s2 = _pair_signs(a, p, c)
        k = s1 + s2 if ((p + a) * (p + a + c)) & 1 else s1 - s2
        if k:
            summands.append(
                (f.left_derivative(gens[ci].name) * f.left_derivative(gens[zi].name)).scaled(k)
            )
    return GradedPoly.sum(phase, summands)


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
