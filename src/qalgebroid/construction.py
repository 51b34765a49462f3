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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    conjugate_field,
    even_symbol,
    odd_symbol,
    require_homological,
)
from .gradedpoly import (
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    total_weight,
)


@dataclass(frozen=True)
class MorphismR:
    """A signed generator substitution between two phase-space charts.

    ``images`` sends each generator name of ``domain`` to (coefficient, name
    on ``codomain``).  ``pullback`` applies it to functions; the map is a
    bijection on generators up to sign, so an exact inverse is available.
    """

    domain: Chart
    codomain: Chart
    images: tuple[tuple[str, Fraction, str], ...]

    def _image_polys(self) -> dict[str, GradedPoly]:
        return {
            src: self.codomain.gen(dst).scaled(c)
            for src, c, dst in self.images
        }

    def pullback(self, f: GradedPoly) -> GradedPoly:
        if f.chart != self.domain:
            raise ChartMismatch(
                f"pullback expects functions on {self.domain.space}"
            )
        return f.substitute(self._image_polys(), self.codomain)

    def inverse(self) -> "MorphismR":
        inv = tuple(
            (dst, Fraction(1) / c, src) for src, c, dst in self.images
        )
        return MorphismR(self.codomain, self.domain, inv)


def even_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on T*(PiE) with functions on T*(PiE*)."""
    domain = chart_even_cotangent(chart_pi_e(b))
    codomain = chart_even_cotangent(chart_pi_e_star(b))
    images: list[tuple[str, Fraction, str]] = []
    for i in range(b.base_dim):
        images.append((f"x{i + 1}", Fraction(1), f"x{i + 1}"))
        images.append((f"p{i + 1}", Fraction(1), f"p{i + 1}"))
    for i, p in enumerate(b.fibre_parities):
        sign = Fraction(-1) if p == ODD else Fraction(1)
        images.append((f"xi{i + 1}", sign, f"pi{i + 1}"))
        images.append((f"pi{i + 1}", Fraction(1), f"eta{i + 1}"))
    return MorphismR(domain, codomain, tuple(images))


def odd_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on PiT*(PiE) with functions on PiT*(E*)."""
    domain = chart_odd_cotangent(chart_pi_e(b))
    codomain = chart_odd_cotangent(chart_e_star(b))
    images: list[tuple[str, Fraction, str]] = []
    for i in range(b.base_dim):
        images.append((f"x{i + 1}", Fraction(1), f"x{i + 1}"))
        images.append((f"xstar{i + 1}", Fraction(1), f"xstar{i + 1}"))
    for i in range(len(b.fibre_parities)):
        images.append((f"xi{i + 1}", Fraction(1), f"estar{i + 1}"))
        images.append((f"xistar{i + 1}", Fraction(-1), f"e{i + 1}"))
    return MorphismR(domain, codomain, tuple(images))


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


def ambient_bracket(flavor: str):
    """The canonical bracket a flavor lives under: even for S, odd for P."""
    return canonical_poisson if flavor == "schouten" else canonical_schouten


def _build(q: VectorField, flavor: str, gated: bool) -> HigherStructure:
    """Symbol, exchange and self-bracket; ``gated`` also requires [Q,Q] = 0
    before and a vanishing self-bracket after."""
    b = _presentation_of_pi_e(q.chart)
    if gated:
        require_homological(q)
    if flavor == "schouten":
        exchange, symbol, square = even_dual_exchange(b), even_symbol, "{S,S}"
    else:
        exchange, symbol, square = odd_dual_exchange(b), odd_symbol, "[[P,P]]"
    value = exchange.pullback(symbol(q, exchange.domain))
    self_bracket = ambient_bracket(flavor)(value, value, exchange.codomain)
    h = HigherStructure(value, flavor, exchange.codomain, self_bracket)
    if gated and not h.is_self_commuting:
        raise GradedAlgebraError(
            f"internal error: {square} != 0 for a homological field: "
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
    every chart one rule gives the substitution: base coordinates and their
    momenta (x, p, xstar) stay fixed because T is constant; primal fibre
    coordinates (xi, estar, and pi on T*(PiE*)) take column i of T; dual ones
    (eta, e, xistar, and pi on T*(PiE)) take row i of the inverse of T.
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

    def inverse(self) -> "FibreChange":
        return FibreChange(self.bundle, self.t_inv)

    def substitution(self, chart: Chart) -> dict[str, GradedPoly]:
        """Generator images implementing the change on a given chart."""
        images: dict[str, GradedPoly] = {}
        for g in chart.generators:
            fam = g.family
            if fam in ("x", "p", "xstar"):
                images[g.name] = chart.gen(g.name)
                continue
            i = int(g.name[len(fam):]) - 1
            if fam in ("xi", "estar") or (fam == "pi" and chart.parent.space != "PiE"):
                coeffs = [row[i] for row in self.t]
            elif fam in ("eta", "e", "xistar", "pi"):
                coeffs = self.t_inv[i]
            else:
                raise GradedAlgebraError(f"no change rule for family {fam!r}")
            images[g.name] = GradedPoly(chart, {
                ((chart.index_of(f"{fam}{b + 1}"), 1),): c
                for b, c in enumerate(coeffs) if c != 0
            })
        return images

    def transform_field(self, q: VectorField) -> VectorField:
        """Conjugate a field by the change: component_z = inv(Q(change(z)))."""
        return conjugate_field(
            q, self.substitution(q.chart), self.inverse().substitution(q.chart)
        )


@dataclass
class NaturalityReport:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def chart_change_naturality(q: VectorField, matrix, rng=None, pairs: int = 25) -> NaturalityReport:
    """Transform Q by a constant fibre change and compare both build routes.

    Checks that building S and P from the transformed field agrees with
    applying the inverse lifted change to the original S and P, and that the
    lifted changes preserve the canonical brackets on random pairs.
    """
    from .randgen import random_poly  # local import to avoid a cycle

    b = _presentation_of_pi_e(q.chart)
    change = FibreChange(b, matrix)
    checks: list[tuple[str, bool, str]] = []

    q2 = change.transform_field(q)
    s1 = build_schouten(q)
    p1 = build_poisson(q)
    s2 = build_schouten(q2)
    p2 = build_poisson(q2)

    inverse = change.inverse()
    for before, after in ((s1, s2), (p1, p2)):
        expected = before.value.substitute(inverse.substitution(before.chart), before.chart)
        ok = after.value == expected
        checks.append((
            f"{before.flavor} route equality", ok,
            "" if ok else f"got {after.value.render()}, expected {expected.render()}",
        ))

    if rng is not None:
        for h, label in ((s1, "even lift symplectomorphism"),
                         (p1, "odd lift symplectomorphism")):
            chart, bracket = h.chart, ambient_bracket(h.flavor)
            sub = change.substitution(chart)
            good = True
            detail = ""
            for _ in range(pairs):
                f = random_poly(rng, chart, max_degree=3, n_terms=3)
                g = random_poly(rng, chart, max_degree=3, n_terms=3)
                lhs = bracket(f.substitute(sub, chart), g.substitute(sub, chart), chart)
                rhs = bracket(f, g, chart).substitute(sub, chart)
                if lhs != rhs:
                    good = False
                    detail = f"failed on {f.render()} , {g.render()}"
                    break
            checks.append((label, good, detail))
    return NaturalityReport(checks)
