"""Seeded random generators for polynomials, presentations and homological fields.

Everything takes an explicit ``random.Random`` so suites are reproducible
from a single seed.  Random homological fields are produced exactly: a seed
field assembled from pieces that square to zero on disjoint coordinate pairs
(odd momenta pairings, constant-coefficient de Rham pieces, an so(3)-type
block when three even fibre slots are free) is conjugated by random
polynomial shears, which preserves [Q, Q] = 0 on the nose.

The draw rule.  On Python 3.10 to 3.13, ``Random.randrange(n)``,
``randint(0, n - 1)`` and ``choice`` of n items all draw a value below n
the same way: ``r = rng.getrandbits(k)`` with ``k = n.bit_length()``,
redrawn while ``r >= n``.  The monomial loop (``_drawn_monomial``, which
``random_monomial`` and ``random_poly`` share) and ``random_poly``'s
coefficient draw read ``getrandbits`` by that rule directly, without the
layers of ``random`` around it, so a seed gives the same draws and the same
polynomials as those methods would, on every supported Python.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .charts import BundlePresentation, Chart, chart_pi_e
from .construction import MorphismR
from .fields import VectorField, is_homological
from .gradedpoly import EVEN, ODD, GradedPoly, _collect, coefficient

COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(1, 3),
]
# the pool as random_poly stores its coefficients, and the bit count of its draw
_POOL = tuple(coefficient(c) for c in COEFF_POOL)
_POOL_BITS = len(_POOL).bit_length()


def _drawn_monomial(getrandbits, odd: tuple[bool, ...], max_degree: int,
                    parity: int | None, attempts: int = 60) -> dict[int, int] | None:
    """The monomial loop: a monomial as {generator index: exponent}, indices in
    draw order, or None when every attempt misses ``parity``.

    Each attempt draws a degree below ``max_degree + 1``, then a generator
    index below ``len(odd)`` per slot (an odd generator drawn again discards
    its slot, since odd squares vanish), all by the draw rule.
    """
    if parity == ODD and not any(odd):
        return None
    if max_degree < 0:
        raise ValueError(f"no monomial of degree 0 to {max_degree}")
    n = len(odd)
    degree_bits = (max_degree + 1).bit_length()
    index_bits = n.bit_length()
    for _ in range(attempts):
        degree = getrandbits(degree_bits)
        while degree > max_degree:
            degree = getrandbits(degree_bits)
        if degree and not n:
            raise ValueError(f"no monomial of degree {degree} on no generator")
        exponents: dict[int, int] = {}
        par = 0
        for _ in range(degree):
            i = getrandbits(index_bits)
            while i >= n:
                i = getrandbits(index_bits)
            if odd[i]:
                if i in exponents:
                    continue  # discard the slot, odd squares vanish
                exponents[i] = 1
                par ^= 1
            else:
                exponents[i] = exponents.get(i, 0) + 1
        if parity is None or par == parity:
            return exponents
    return None


def random_monomial(rng: random.Random, chart: Chart, max_degree: int,
                    parity: int | None = None, attempts: int = 60):
    """A random normal-form monomial as {generator name: exponent},
    optionally of prescribed parity.

    None when every attempt misses the parity, and at once, with no draw,
    when an odd monomial is asked for on a chart with no odd generator.
    """
    expo = _drawn_monomial(rng.getrandbits, chart.odd_flags, max_degree, parity, attempts)
    if expo is None:
        return None
    gens = chart.generators
    return {gens[i].name: e for i, e in expo.items()}


def random_poly(rng: random.Random, chart: Chart, max_degree: int = 3,
                n_terms: int = 3, parity: int | None = None) -> GradedPoly:
    """A random polynomial; if ``parity`` is given the result is homogeneous.

    Each coefficient is drawn from ``COEFF_POOL`` right after its monomial,
    and the drawn terms are collected into one term map (a repeated monomial
    adds up, and drops out when it cancels).
    """
    getrandbits = rng.getrandbits
    odd = chart.odd_flags
    drawn = []
    for _ in range(n_terms):
        expo = _drawn_monomial(getrandbits, odd, max_degree, parity)
        if expo is not None:
            k = getrandbits(_POOL_BITS)
            while k >= len(_POOL):
                k = getrandbits(_POOL_BITS)
            drawn.append((tuple(sorted(expo.items())), _POOL[k]))
    out = GradedPoly(chart, _collect({}, drawn))
    if parity is not None and out.is_zero():
        # fall back to a bare generator of the right parity when one exists
        for g in chart.generators:
            if g.parity == parity:
                return chart.gen(g.name)
    return out


def random_presentation(rng: random.Random, max_base: int = 2,
                        max_rank: int = 3) -> BundlePresentation:
    base = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_base)))
    rank = rng.randint(1, max_rank)
    fibre = tuple(rng.randint(0, 1) for _ in range(rank))
    return BundlePresentation(base, fibre)


def _shear(rng: random.Random, chart: Chart, max_degree: int) -> MorphismR | None:
    """An invertible polynomial substitution touching a single generator.

    z -> z + c * m with m a z-free monomial of z's parity; the inverse is
    z -> z - c * m, exactly.
    """
    gens = list(chart.generators)
    if len(gens) < 2:
        return None
    rng.shuffle(gens)
    for g in gens:
        for _ in range(30):
            expo = random_monomial(rng, chart, max_degree, parity=g.parity)
            if expo is None or g.name in expo or not expo:
                continue
            c = rng.choice(COEFF_POOL)
            m = chart.monomial(expo, c)
            fixed = {h.name: chart.gen(h.name) for h in chart.generators}
            z = fixed[g.name]
            return MorphismR(chart, chart, {**fixed, g.name: z + m}, {**fixed, g.name: z - m})
    return None


def random_homological_field(rng: random.Random, max_base: int = 2,
                             max_rank: int = 3, max_degree: int = 3,
                             shears: int | None = None):
    """A random exactly homological odd field on a random PiE chart."""
    b = random_presentation(rng, max_base, max_rank)
    chart = chart_pi_e(b)
    comps: dict[str, GradedPoly] = {}

    used_fibre: set[int] = set()
    used_base: set[int] = set()

    # de Rham pairings xi^i d/dx^i where the parities allow an odd field
    for i, bp in enumerate(b.base_parities):
        for j, fp in enumerate(b.fibre_parities):
            if j in used_fibre or i in used_base:
                continue
            if fp == bp and rng.random() < 0.7:
                comps[f"x{i + 1}"] = chart.gen(f"xi{j + 1}").scaled(rng.choice(COEFF_POOL))
                used_fibre.add(j)
                used_base.add(i)

    # pairings xi^j d/dxi^k between fibre slots of opposite parity
    for j, fj in enumerate(b.fibre_parities):
        for k, fk in enumerate(b.fibre_parities):
            if j == k or j in used_fibre or k in used_fibre:
                continue
            if (fj + 1) & 1 == fk and rng.random() < 0.7:
                comps[f"xi{k + 1}"] = chart.gen(f"xi{j + 1}").scaled(rng.choice(COEFF_POOL))
                used_fibre.add(j)
                used_fibre.add(k)

    # an so(3)-type block when three even fibre slots remain free
    evens = [j for j, fp in enumerate(b.fibre_parities)
             if fp == EVEN and j not in used_fibre]
    if len(evens) >= 3 and rng.random() < 0.6:
        a, bb, c = evens[:3]
        xa, xb, xc = (chart.gen(f"xi{k + 1}") for k in (a, bb, c))
        comps[f"xi{c + 1}"] = xa * xb
        comps[f"xi{a + 1}"] = xb * xc
        comps[f"xi{bb + 1}"] = (xa * xc).scaled(-1)
        used_fibre.update((a, bb, c))

    q = VectorField(chart, comps, ODD)
    n_shears = rng.randint(1, 3) if shears is None else shears
    for _ in range(n_shears):
        shear = _shear(rng, chart, max_degree)
        if shear is None:
            break
        q = shear.conjugate(q)
    assert is_homological(q), "internal: conjugation broke [Q,Q] = 0"
    return q
