"""From a homological field to its higher Schouten and Poisson structures.

The pipeline: take the even (odd) principal symbol of Q on T*(PiE)
(PiT*(PiE)), then push it through the canonical double-vector-bundle exchange
onto T*(PiE*) (PiT*(E*)).  The exchanges substitute, on function algebras,

    even:  xi^a -> (-1)^{a} pi^a,   pi_a -> eta_a      (x, p fixed)
    odd:   xi^a -> estar^a,         xistar_a -> -e_a   (x, xstar fixed)

where a is the fibre parity.  Both exchanges preserve the respective
canonical brackets, so S = even_exchange(sigma Q) satisfies {S, S} = 0 and
P = odd_exchange(varsigma Q) satisfies [[P, P]] = 0 whenever [Q, Q] = 0.
Every term of S and P has total weight one, homogeneous pieces sitting in
bi-weight (1-n, n); the audit below checks that term by term.

Everything that tells the two sides apart is one ``Flavour`` record in
``FLAVOURS`` (report labels, ambient bracket parity, exchange, symbol, sign
rules), which the build, the CLI and the derived-bracket engines read.

Every invertible change of generators is one record, ``MorphismR``: images
of the domain generators, inverse images of the codomain ones, ``pullback``,
``inverse`` (the two sides swapped), ``conjugate`` (a field transported by
a change of its own chart) and ``bracket_witness`` (whether the change
preserves a canonical bracket, checked on every ordered generator pair, which
is complete).  The exchanges are such records, and so are the constant fibre
changes lifted to a chart by ``FibreChange.on`` and the shears that
``randgen`` conjugates random fields by.  Naturality lifts a fibre change to
the phase charts, compares the two build routes and checks both lifts with
``bracket_witness``.

Both exchanges send each generator to plus or minus one generator of the
same parity, and so do the lifts of identity, permutation and diagonal fibre
changes (up to a scale): their image maps are relabellings
(``gradedpoly.checked_images`` records them as such), so ``pullback``
renames indices and makes no product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .charts import (
    BASE_FIBRE,
    Chart,
    BundlePresentation,
    chart_e_star,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    chart_pi_e_star,
    restrict_to_zero_section,
)
from .fields import (
    VectorField,
    canonical_poisson,
    canonical_schouten,
    even_symbol,
    odd_symbol,
    require_homological,
)
from .gradedpoly import (
    EVEN,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    checked_images,
    coefficient,
    total_weight,
)


@dataclass(frozen=True)
class MorphismR:
    """An invertible change of generators from ``domain`` to ``codomain``.

    ``images`` maps every generator name of ``domain`` to a polynomial on
    ``codomain``; ``inverse_images`` maps every generator of ``codomain`` back
    to a polynomial on ``domain``, and the two substitutions are mutually
    inverse.  ``pullback`` applies ``images`` to functions on ``domain``.

    Both image maps are checked once, when the record is built (ChartMismatch
    or ParityMismatch as ``GradedPoly.substitute`` raises them), so pullbacks
    and conjugations substitute without checking again.
    """

    domain: Chart
    codomain: Chart
    images: dict[str, GradedPoly]
    inverse_images: dict[str, GradedPoly]

    def __post_init__(self):
        object.__setattr__(self, "images",
                           checked_images(self.domain, self.images, self.codomain))
        object.__setattr__(self, "inverse_images",
                           checked_images(self.codomain, self.inverse_images, self.domain))

    def pullback(self, f: GradedPoly) -> GradedPoly:
        if f.chart != self.domain:
            raise ChartMismatch(
                f"pullback expects functions on {self.domain.space}"
            )
        return f.substitute(self.images, self.codomain)

    def bracket_witness(self, bracket) -> tuple[str, str] | None:
        """The first ordered generator pair (a, b) of ``domain`` on which the
        change fails to preserve ``bracket``, or None if it preserves it.

        ``bracket(f, g, chart)`` is a canonical bracket, taken on ``domain``
        and on ``codomain``.  The check is complete, not a sample: the defect
        D(f, g) = {phi*f, phi*g} - phi*{f, g} is bilinear and, because the
        bracket is a biderivation and phi* a parity-preserving algebra map,
        a biderivation along phi* (D(f, gh) = D(f, g) phi*h +- phi*g D(f, h),
        and likewise in f).  It vanishes whenever f or g is a constant, so it
        vanishes on all polynomials once it vanishes on every generator pair.
        """
        domain, codomain = self.domain, self.codomain
        for a in domain.generators:
            for b in domain.generators:
                lhs = bracket(self.images[a.name], self.images[b.name], codomain)
                rhs = self.pullback(bracket(domain.gen(a.name), domain.gen(b.name), domain))
                if lhs != rhs:
                    return a.name, b.name
        return None

    def inverse(self) -> "MorphismR":
        return MorphismR(self.codomain, self.domain, self.inverse_images, self.images)

    def conjugate(self, q: VectorField) -> VectorField:
        """The field transported by a change of its own chart: component z is
        ``inverse_images`` applied to Q(images[z])."""
        if not self.domain == self.codomain == q.chart:
            raise ChartMismatch("conjugation needs a change of the field's own chart")
        comps = {
            g.name: q(self.images[g.name]).substitute(self.inverse_images, q.chart)
            for g in q.chart.generators
        }
        return VectorField(q.chart, comps, q.parity)


def _exchange(domain: Chart, codomain: Chart, rename: dict[str, str], negate) -> MorphismR:
    """Send each generator of ``domain`` to +-1 times the generator of
    ``codomain`` with the same index in the renamed family; ``negate(g)``
    picks the sign, which is its own inverse."""
    images: dict[str, GradedPoly] = {}
    inverse_images: dict[str, GradedPoly] = {}
    for i, g in enumerate(domain.generators):
        name = rename.get(g.family, g.family) + g.name[len(g.family):]
        c = -1 if negate(g) else 1
        images[g.name] = GradedPoly(codomain, {((codomain.index_of(name), 1),): c})
        inverse_images[name] = GradedPoly(domain, {((i, 1),): c})
    return MorphismR(domain, codomain, images, inverse_images)


def even_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on T*(PiE) with functions on T*(PiE*)."""
    # xi^a has parity a + 1, so an odd fibre direction a has an even xi^a
    return _exchange(
        chart_even_cotangent(chart_pi_e(b)), chart_even_cotangent(chart_pi_e_star(b)),
        {"xi": "pi", "pi": "eta"}, lambda g: g.family == "xi" and g.parity == EVEN,
    )


def odd_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on PiT*(PiE) with functions on PiT*(E*)."""
    return _exchange(
        chart_odd_cotangent(chart_pi_e(b)), chart_odd_cotangent(chart_e_star(b)),
        {"xi": "estar", "xistar": "e"}, lambda g: g.family == "xistar",
    )


@dataclass(frozen=True)
class HigherStructure:
    """A self-commuting generating function on a phase space.

    flavor "schouten": an odd function S on T*(PiE*) with {S, S} = 0.
    flavor "poisson": an even function P on PiT*(E*) with [[P, P]] = 0.
    The self-bracket is computed eagerly and cached as evidence.
    """

    value: GradedPoly
    flavor: str
    chart: Chart
    self_bracket: GradedPoly

    @property
    def is_self_commuting(self) -> bool:
        return self.self_bracket.is_zero()

    def restricted(self) -> GradedPoly:
        """The zero-bracket: the structure restricted to the zero section."""
        return restrict_to_zero_section(self.value)

    def render(self) -> str:
        return self.value.render()


def _presentation_of_pi_e(chart: Chart) -> BundlePresentation:
    if chart.kind != BASE_FIBRE or chart.space != "PiE":
        raise ChartMismatch("the homological field must live on a PiE chart")
    base = tuple(g.parity for g in chart.generators[: chart.n_base])
    fibre = tuple((g.parity + 1) & 1 for g in chart.generators[chart.n_base:])
    return BundlePresentation(base, fibre)


@dataclass(frozen=True)
class Flavour:
    """The conventions that tell the schouten and poisson families apart.

    ``letter`` names the structure and ``square`` its self-bracket in
    reports; ``exchange`` and ``symbol`` build it from Q.  Sign rules take
    parity lists and return an exponent of -1: ``sign_exponent`` corrects the
    nested bracket into the user-facing one (None: no correction), and
    ``leibniz_s`` gives s in the multiderivation rule.
    """

    name: str
    letter: str
    square: str
    koszul_shift: int  # the parity of the ambient canonical bracket
    exchange: Callable[[BundlePresentation], MorphismR]
    symbol: Callable[[VectorField, Chart], GradedPoly]
    sign_exponent: Callable[[list[int]], int] | None
    leibniz_s: Callable[[list[int]], int]


def poisson_sign_exponent(parities: list[int]) -> int:
    """Skew-symmetrising exponent F1(r-1) + F2(r-2) + ... + F_{r-1} + r."""
    r = len(parities)
    e = r
    for i, p in enumerate(parities[:-1], start=1):
        e += p * (r - i)
    return e & 1


FLAVOURS = {
    "schouten": Flavour("schouten", "S", "{S,S}", 0, even_dual_exchange, even_symbol,
                        None, leibniz_s=lambda parities: 1),
    "poisson": Flavour("poisson", "P", "[[P,P]]", 1, odd_dual_exchange, odd_symbol,
                       poisson_sign_exponent, leibniz_s=len),
}


def ambient_bracket(flavor: str):
    """The canonical bracket a flavor lives under, looked up per call: even for S, odd for P."""
    return canonical_schouten if FLAVOURS[flavor].koszul_shift else canonical_poisson


def _build(q: VectorField, flavor: str, gated: bool) -> HigherStructure:
    """Symbol, exchange and self-bracket; ``gated`` also requires [Q,Q] = 0
    before and a vanishing self-bracket after."""
    flavour = FLAVOURS[flavor]
    b = _presentation_of_pi_e(q.chart)
    if gated:
        require_homological(q)
    exchange = flavour.exchange(b)
    value = exchange.pullback(flavour.symbol(q, exchange.domain))
    self_bracket = ambient_bracket(flavor)(value, value, exchange.codomain)
    h = HigherStructure(value, flavor, exchange.codomain, self_bracket)
    if gated and not h.is_self_commuting:
        raise GradedAlgebraError(
            f"internal error: {flavour.square} != 0 for a homological field: "
            f"{self_bracket.render()}"
        )
    return h


def build_schouten(q: VectorField) -> HigherStructure:
    """Even symbol then even exchange; verifies [Q,Q] = 0 and {S,S} = 0."""
    return _build(q, "schouten", True)


def build_poisson(q: VectorField) -> HigherStructure:
    """Odd symbol then odd exchange; verifies [Q,Q] = 0 and [[P,P]] = 0."""
    return _build(q, "poisson", True)


def build_schouten_unchecked(q: VectorField) -> HigherStructure:
    """The same pipeline without the homological gate (negative controls)."""
    return _build(q, "schouten", False)


def build_poisson_unchecked(q: VectorField) -> HigherStructure:
    return _build(q, "poisson", False)


# ---------------------------------------------------------------------------
# weight audit and strictness
# ---------------------------------------------------------------------------

@dataclass
class WeightAudit:
    histogram: dict[tuple[int, int], int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def total_weight_audit(h: HigherStructure) -> WeightAudit:
    """Per-term bi-weight histogram; flags any term off the (1-n, n) line."""
    histogram: dict[tuple[int, int], int] = {}
    violations: list[str] = []
    poly = h.value
    for m in poly.terms:
        w = poly.monomial_weight(m)
        histogram[w] = histogram.get(w, 0) + 1
        if total_weight(w) != 1 or w[1] < 0:
            mono = GradedPoly(poly.chart, {m: poly.terms[m]})
            violations.append(f"term {mono.render()} has bi-weight {w}")
    return WeightAudit(dict(sorted(histogram.items())), violations)


def is_strict(q: VectorField) -> bool:
    """True iff every fibre component vanishes along the zero section."""
    if q.chart.kind != BASE_FIBRE:
        raise ChartMismatch("strictness is read off a base-fibre chart")
    fibre = q.chart.fibre_names()
    for name in fibre:
        comp = q.component(name)
        if not comp.drop_generators(fibre).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# constant fibre change and naturality
# ---------------------------------------------------------------------------

def invert_matrix(t: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(t)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(t)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise GradedAlgebraError("fibre change matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class FibreChange:
    """A constant invertible fibre transformation over the identity base map.

    ``matrix[b][a]`` is the coefficient of the old fibre index b in the new
    index a (new_xi^a = xi^b T_b^a).  The matrix must not mix parities.  On
    every chart one rule, read off the first weight of a generator, gives the
    substitution: base coordinates and their momenta (x, p, xstar; weight 0)
    stay fixed because T is constant; primal fibre coordinates (xi, estar,
    and pi on T*(PiE*); weight -1) take column i of T; dual ones (eta, e,
    xistar, and pi on T*(PiE); weight +1) take row i of the inverse of T.
    Because T preserves parity, no sign enters.
    """

    def __init__(self, b: BundlePresentation, matrix):
        n = b.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise GradedAlgebraError("fibre change matrix has the wrong shape")
        self.bundle = b
        self.t = [[Fraction(v) for v in row] for row in matrix]
        for i, pi_ in enumerate(b.fibre_parities):
            for j, pj in enumerate(b.fibre_parities):
                if self.t[i][j] != 0 and pi_ != pj:
                    raise ParityMismatch("fibre change mixes parities")
        self.t_inv = invert_matrix(self.t)

    def on(self, chart: Chart) -> MorphismR:
        """The change lifted to ``chart``, as a record from the chart to itself;
        its inverse images apply the same rule with T and its inverse swapped."""
        return MorphismR(chart, chart, _lifted_images(chart, self.t, self.t_inv),
                         _lifted_images(chart, self.t_inv, self.t))


def _lifted_images(chart: Chart, t, t_inv) -> dict[str, GradedPoly]:
    """Generator images of the fibre change T on ``chart`` (see FibreChange)."""
    images: dict[str, GradedPoly] = {}
    for g in chart.generators:
        if g.weight[0] == 0:
            images[g.name] = chart.gen(g.name)
            continue
        i = int(g.name[len(g.family):]) - 1
        coeffs = [row[i] for row in t] if g.weight[0] < 0 else t_inv[i]
        images[g.name] = GradedPoly(chart, {
            ((chart.index_of(f"{g.family}{b + 1}"), 1),): coefficient(c)
            for b, c in enumerate(coeffs) if c != 0
        })
    return images


@dataclass
class NaturalityReport:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def chart_change_naturality(q: VectorField, change: FibreChange) -> NaturalityReport:
    """Transform Q by a constant fibre change and compare both build routes.

    Checks that building S and P from the transformed field agrees with
    applying the inverse lifted change to the original S and P, and that the
    lifted changes preserve the canonical brackets.  The bracket checks run
    on every ordered pair of generators of the lift's chart
    (``MorphismR.bracket_witness``), which is complete for all polynomials;
    a failure names the generator pair.
    """
    if change.bundle != _presentation_of_pi_e(q.chart):
        raise ChartMismatch("the fibre change is for another bundle")
    checks: list[tuple[str, bool, str]] = []

    q2 = change.on(q.chart).conjugate(q)
    s1 = build_schouten(q)
    p1 = build_poisson(q)
    s2 = build_schouten(q2)
    p2 = build_poisson(q2)

    lifts = [(h, change.on(h.chart)) for h in (s1, p1)]
    for (before, lift), after in zip(lifts, (s2, p2)):
        expected = lift.inverse().pullback(before.value)
        ok = after.value == expected
        checks.append((
            f"{before.flavor} route equality", ok,
            "" if ok else f"got {after.value.render()}, expected {expected.render()}",
        ))

    labels = ("even lift symplectomorphism", "odd lift symplectomorphism")
    for (h, lift), label in zip(lifts, labels):
        pair = lift.bracket_witness(ambient_bracket(h.flavor))
        checks.append((label, pair is None,
                       "" if pair is None else f"failed on generator pair {pair[0]}, {pair[1]}"))
    return NaturalityReport(checks)
