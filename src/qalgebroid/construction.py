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

Every change of generators is one record, ``MorphismR``: images of the
domain generators, ``pullback`` and ``bracket_witness`` (whether the change
preserves a canonical bracket, checked on every generator pair, which is
complete).  An invertible record also holds the inverse images of the
codomain generators, and with them ``inverse`` (the two sides swapped) and
``conjugate`` (a field transported by a change of its own chart).  The
exchanges are such records, and so are the constant fibre changes lifted to
a chart by ``FibreChange.on`` and the shears that ``randgen`` conjugates
random fields by.  A build reads only the images, so it pulls back through a
one-way exchange made on the field's own chart; ``even_dual_exchange`` and
``odd_dual_exchange`` give the invertible ones.  Naturality lifts a fibre
change to the phase charts, compares the two build routes and checks both
lifts with ``bracket_witness``.

Both exchanges send each generator to plus or minus one generator of the
same parity, and so do the lifts of identity, permutation and diagonal fibre
changes (up to a scale): their image maps are relabellings
(``gradedpoly.checked_images`` records them as such), so ``pullback``
renames indices and makes no product.
"""

from __future__ import annotations

from collections import namedtuple
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


class MorphismR(namedtuple("MorphismR", "domain codomain images inverse_images")):
    """A change of generators from ``domain`` to ``codomain``.

    ``images`` maps every generator name of ``domain`` to a polynomial on
    ``codomain``, and ``pullback`` applies it to functions on ``domain``.
    ``inverse_images``, when given, maps every generator of ``codomain`` back
    to a polynomial on ``domain``, and the two substitutions are mutually
    inverse; a one-way record (``inverse_images`` None) has no ``inverse``
    and no ``conjugate``, and raises GradedAlgebraError for them.

    The image maps are checked once, when the record is built (ChartMismatch
    or ParityMismatch as ``GradedPoly.substitute`` raises them), so pullbacks
    and conjugations substitute without checking again.
    """

    __slots__ = ()

    def __new__(cls, domain: Chart, codomain: Chart, images: dict[str, GradedPoly],
                inverse_images: dict[str, GradedPoly] | None = None):
        images = checked_images(domain, images, codomain)
        if inverse_images is not None:
            inverse_images = checked_images(codomain, inverse_images, domain)
        return super().__new__(cls, domain, codomain, images, inverse_images)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks as the constructor does
        return cls(*iterable)

    def _require_inverse(self):
        if self.inverse_images is None:
            raise GradedAlgebraError(
                f"the change from {self.domain.space} to {self.codomain.space} is one-way")

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

        Only the pairs (a, b) with a at or before b in generator order are
        bracketed, k(k+1) brackets on k generators instead of 2k^2.  That
        loses nothing: both canonical brackets are graded antisymmetric and
        phi* preserves parity, so {phi*b, phi*a} and phi*{b, a} are the same
        sign times {phi*a, phi*b} and phi*{a, b}, and D(b, a) = +-D(a, b).
        The pair returned is still the first failing one of the ordered
        pairs, rows in generator order: if (a, b) with b before a failed,
        (b, a) would fail too and come earlier, so the first failing ordered
        pair always has a at or before b, and the walk meets it first.
        """
        domain, codomain = self.domain, self.codomain
        names = [g.name for g in domain.generators]
        gens = [domain.gen(name) for name in names]
        images = [self.images[name] for name in names]
        for i, (f, image_f) in enumerate(zip(gens, images)):
            for j in range(i, len(names)):
                lhs = bracket(image_f, images[j], codomain)
                if lhs != self.pullback(bracket(f, gens[j], domain)):
                    return names[i], names[j]
        return None

    def inverse(self) -> "MorphismR":
        self._require_inverse()
        return MorphismR(self.codomain, self.domain, self.inverse_images, self.images)

    def conjugate(self, q: VectorField) -> VectorField:
        """The field transported by a change of its own chart: component z is
        ``inverse_images`` applied to Q(images[z])."""
        self._require_inverse()
        if not self.domain == self.codomain == q.chart:
            raise ChartMismatch("conjugation needs a change of the field's own chart")
        comps = {
            g.name: q(self.images[g.name]).substitute(self.inverse_images, q.chart)
            for g in q.chart.generators
        }
        return VectorField(q.chart, comps, q.parity)


def _exchange(domain: Chart, codomain: Chart, rename: dict[str, str], negate,
              invertible: bool) -> MorphismR:
    """Send each generator of ``domain`` to +-1 times the generator of
    ``codomain`` with the same index in the renamed family; ``negate(g)``
    picks the sign, which is its own inverse.  One-way unless ``invertible``."""
    images: dict[str, GradedPoly] = {}
    inverse_images: dict[str, GradedPoly] | None = {} if invertible else None
    for i, g in enumerate(domain.generators):
        name = rename.get(g.family, g.family) + g.name[len(g.family):]
        c = -1 if negate(g) else 1
        images[g.name] = GradedPoly(codomain, {((codomain.index_of(name), 1),): c})
        if invertible:
            inverse_images[name] = GradedPoly(domain, {((i, 1),): c})
    return MorphismR(domain, codomain, images, inverse_images)


def _even_exchange(pi_e: Chart, b: BundlePresentation, invertible: bool) -> MorphismR:
    """The even exchange from T*(``pi_e``), ``pi_e`` the PiE chart of ``b``."""
    # xi^a has parity a + 1, so an odd fibre direction a has an even xi^a
    return _exchange(
        chart_even_cotangent(pi_e), chart_even_cotangent(chart_pi_e_star(b)),
        {"xi": "pi", "pi": "eta"}, lambda g: g.family == "xi" and g.parity == EVEN,
        invertible,
    )


def _odd_exchange(pi_e: Chart, b: BundlePresentation, invertible: bool) -> MorphismR:
    """The odd exchange from PiT*(``pi_e``), ``pi_e`` the PiE chart of ``b``."""
    return _exchange(
        chart_odd_cotangent(pi_e), chart_odd_cotangent(chart_e_star(b)),
        {"xi": "estar", "xistar": "e"}, lambda g: g.family == "xistar", invertible,
    )


def even_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on T*(PiE) with functions on T*(PiE*)."""
    return _even_exchange(chart_pi_e(b), b, True)


def odd_dual_exchange(b: BundlePresentation) -> MorphismR:
    """Identifies functions on PiT*(PiE) with functions on PiT*(E*)."""
    return _odd_exchange(chart_pi_e(b), b, True)


class HigherStructure(namedtuple("HigherStructure", "value flavor self_bracket")):
    """A self-commuting generating function on a phase space.

    flavor "schouten": an odd function S on T*(PiE*) with {S, S} = 0.
    flavor "poisson": an even function P on PiT*(E*) with [[P, P]] = 0.
    The self-bracket is computed eagerly and cached as evidence.
    """

    __slots__ = ()

    @property
    def chart(self) -> Chart:
        return self.value.chart

    def render(self) -> str:
        return self.value.render()


def _presentation_of_pi_e(chart: Chart) -> BundlePresentation:
    if chart.kind != BASE_FIBRE or chart.space != "PiE":
        raise ChartMismatch("the homological field must live on a PiE chart")
    base = tuple(g.parity for g in chart.generators[: chart.n_base])
    fibre = tuple((g.parity + 1) & 1 for g in chart.generators[chart.n_base:])
    return BundlePresentation(base, fibre)


class Flavour(namedtuple("Flavour", "name letter square koszul_shift exchange symbol "
                                   "sign_exponent leibniz_s")):
    """The conventions that tell the schouten and poisson families apart.

    ``letter`` names the structure and ``square`` its self-bracket in
    reports; ``koszul_shift`` is the parity of the ambient canonical bracket.
    ``exchange`` and ``symbol`` build the structure from Q:
    ``exchange(pi_e, b, invertible)`` is a MorphismR that starts on the
    cotangent chart of the PiE chart ``pi_e`` of ``b``, and ``symbol(q,
    chart)`` a GradedPoly on that chart.  Sign rules take parity lists and
    return an exponent of -1: ``sign_exponent`` corrects the nested bracket
    into the user-facing one (None: no correction), and ``leibniz_s`` gives
    s in the multiderivation rule.
    """

    __slots__ = ()


def poisson_sign_exponent(parities: list[int]) -> int:
    """Skew-symmetrising exponent F1(r-1) + F2(r-2) + ... + F_{r-1} + r."""
    r = len(parities)
    e = r
    for i, p in enumerate(parities[:-1], start=1):
        e += p * (r - i)
    return e & 1


FLAVOURS = {
    "schouten": Flavour("schouten", "S", "{S,S}", 0, _even_exchange, even_symbol,
                        None, leibniz_s=lambda parities: 1),
    "poisson": Flavour("poisson", "P", "[[P,P]]", 1, _odd_exchange, odd_symbol,
                       poisson_sign_exponent, leibniz_s=len),
}


def ambient_bracket(flavor: str):
    """The canonical bracket a flavor lives under, looked up per call: even for S, odd for P."""
    return canonical_schouten if FLAVOURS[flavor].koszul_shift else canonical_poisson


def _build(q: VectorField, flavor: str, gated: bool) -> HigherStructure:
    """Symbol, exchange and self-bracket; ``gated`` also requires [Q,Q] = 0
    before and a vanishing self-bracket after.  The exchange is one-way and
    starts on the cotangent chart of the field's own chart."""
    flavour = FLAVOURS[flavor]
    b = _presentation_of_pi_e(q.chart)
    if gated:
        require_homological(q)
    exchange = flavour.exchange(q.chart, b, False)
    value = exchange.pullback(flavour.symbol(q, exchange.domain))
    self_bracket = ambient_bracket(flavor)(value, value, exchange.codomain)
    if gated and not self_bracket.is_zero():
        raise GradedAlgebraError(
            f"internal error: {flavour.square} != 0 for a homological field: "
            f"{self_bracket.render()}"
        )
    return HigherStructure(value, flavor, self_bracket)


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

def total_weight_audit(h: HigherStructure) -> tuple[dict[tuple[int, int], int], list[str]]:
    """(histogram, violations): the count of terms per bi-weight, sorted, and
    one line for each term off the (1-n, n) line; the law holds iff there
    are no violations."""
    histogram: dict[tuple[int, int], int] = {}
    violations: list[str] = []
    poly = h.value
    for m in poly.terms:
        w = poly.monomial_weight(m)
        histogram[w] = histogram.get(w, 0) + 1
        if total_weight(w) != 1 or w[1] < 0:
            mono = GradedPoly(poly.chart, {m: poly.terms[m]})
            violations.append(f"term {mono.render()} has bi-weight {w}")
    return dict(sorted(histogram.items())), violations


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


def chart_change_naturality(q: VectorField, change: FibreChange) -> list[tuple[str, bool, str]]:
    """Transform Q by a constant fibre change and compare both build routes.

    Returns one (name, ok, detail) per check; detail is empty when it passes.
    Checks that building S and P from the transformed field agrees with
    applying the inverse lifted change to the original S and P, and that the
    lifted changes preserve the canonical brackets.  The bracket checks run
    on the generator pairs of the lift's chart (``MorphismR.bracket_witness``),
    which is complete for all polynomials; a failure names the first failing
    ordered generator pair.
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
    return checks
