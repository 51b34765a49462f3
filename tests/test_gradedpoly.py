"""Arithmetic, signs, derivatives and substitution on graded polynomials."""

from fractions import Fraction
from functools import reduce
from operator import add
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qalgebroid.charts import (
    BundlePresentation,
    all_charts,
    chart_even_cotangent,
    chart_pi_e,
    chart_pi_e_star,
    restrict_to_zero_section,
)
from qalgebroid.construction import FibreChange, even_dual_exchange, odd_dual_exchange
from qalgebroid.fields import VectorField
from qalgebroid.gradedpoly import (
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    UnknownGenerator,
    _cleared,
    _divided,
    _masked,
    _packed,
    _packed_derivative,
    _packed_product_into,
    _product_into,
    _unpacked,
    _width,
    checked_images,
)
from qalgebroid.randgen import random_poly

from random_inputs import random_homogeneous_poly

MIXED = BundlePresentation((0, 1), (0, 1))  # even and odd base, even and odd fibre

# property tests run a fixed example sequence, so the suite stays deterministic
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
PIE = chart_pi_e(MIXED)
PIE_PHASE = chart_even_cotangent(PIE)
COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# denominators up to 12: a term map's lcm usually exceeds each of its denominators
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def polys(chart, parity=None, max_terms=4, max_factors=3, min_terms=0, coeffs=COEFFS):
    """Sums of random monomials on ``chart``, all of one parity if given,
    with coefficients drawn from ``coeffs``."""
    names = [g.name for g in chart.generators]
    monomials = st.dictionaries(st.sampled_from(names), st.integers(1, 3),
                                max_size=max_factors)
    if parity is not None:
        monomials = monomials.filter(lambda e: parity == sum(
            chart.generator(n).parity * k for n, k in e.items()) % 2)
    terms = st.lists(st.tuples(monomials, coeffs), min_size=min_terms, max_size=max_terms)
    return terms.map(
        lambda ts: reduce(add, (chart.monomial(e, c) for e, c in ts), chart.zero())
    )


def images_for(source, target, coeffs=COEFFS):
    """Parity-preserving images on ``target`` of every generator of ``source``.

    Each image is zero, a random polynomial of the generator's parity, or a
    shear z + (random polynomial) like the ones randgen conjugates by, with
    coefficients drawn from ``coeffs``.
    """
    def image(g):
        shear = polys(target, g.parity, 2, 2, coeffs=coeffs).map(lambda p: target.gen(g.name) + p)
        return st.one_of(shear, polys(target, g.parity, 2, 2, coeffs=coeffs),
                         st.just(target.zero()))

    return st.fixed_dictionaries({g.name: image(g) for g in source.generators})


def reference_substitute(f, images, target):
    """Per term, the coefficient times the product of image ** exp, summed with +."""
    out = target.zero()
    for m, c in f.terms.items():
        acc = target.const(c)
        for idx, exp in m:
            acc = acc * images[f.chart.generators[idx].name] ** exp
        out = out + acc
    return out


# whole values held both ways, so term maps mix int and Fraction(k)
MIXED_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.integers(-3, 3).filter(bool).map(Fraction),
    COEFFS.filter(bool),
)


@st.composite
def any_chart(draw):
    """One of the seven charts of a random presentation."""
    b = BundlePresentation(
        tuple(draw(st.lists(st.integers(0, 1), max_size=2))),
        tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))),
    )
    return draw(st.sampled_from(list(all_charts(b).values())))


def odd_heavy_polys(chart, max_terms=4, max_factors=4, min_terms=0):
    """Term maps built directly: monomials drawn two parts odd to one part
    any generator, coefficients from MIXED_COEFFS."""
    n = len(chart.generators)
    odd = [i for i, g in enumerate(chart.generators) if g.parity]
    index = st.one_of(st.sampled_from(odd), st.sampled_from(odd),
                      st.integers(0, n - 1)) if odd else st.integers(0, n - 1)

    def monomial(picks):
        exps = {}
        for idx, k in picks:
            exps[idx] = 1 if chart.generators[idx].parity else exps.get(idx, 0) + k
        return tuple(sorted(exps.items()))

    monomials = st.lists(st.tuples(index, st.integers(1, 2)), max_size=max_factors).map(monomial)
    return st.dictionaries(monomials, MIXED_COEFFS, min_size=min_terms, max_size=max_terms).map(
        lambda terms: GradedPoly(chart, terms))


def reference_product(f, g):
    """The term map of f * g with no GradedPoly arithmetic: per pair of terms,
    concatenate the monomials, bubble-sort the factors by index with a sign
    flip for each swap of two odd factors, then give zero on a repeated odd
    generator and add the exponents of a repeated even one."""
    odd = [gen.parity == 1 for gen in f.chart.generators]
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            factors, sign = list(m1 + m2), 1
            for end in range(len(factors) - 1, 0, -1):
                for k in range(end):
                    a, b = factors[k], factors[k + 1]
                    if a[0] > b[0]:
                        factors[k], factors[k + 1] = b, a
                        if odd[a[0]] and odd[b[0]]:
                            sign = -sign
            merged = []
            for idx, exp in factors:
                if merged and merged[-1][0] == idx:
                    if odd[idx]:
                        break
                    merged[-1] = (idx, merged[-1][1] + exp)
                else:
                    merged.append((idx, exp))
            else:
                m = tuple(merged)
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def reference_left_derivative(f, idx):
    """The term map of d/dz f for z = generator idx: move z to the front of
    each monomial holding it, one sign per odd factor jumped when z is odd,
    then strike one power of it."""
    odd = [gen.parity == 1 for gen in f.chart.generators]
    out = {}
    for m, c in f.terms.items():
        held = [k for k, (g, _) in enumerate(m) if g == idx]
        if not held:
            continue
        k = held[0]
        exp = m[k][1]
        jumped = sum(1 for g, _ in m[:k] if odd[g])
        sign = -1 if odd[idx] and jumped % 2 else 1
        rest = m[:k] + (((idx, exp - 1),) if exp > 1 else ()) + m[k + 1:]
        out[rest] = out.get(rest, 0) + sign * exp * c
    return {m: c for m, c in out.items() if c != 0}


@pytest.fixture
def pie():
    return chart_pi_e(MIXED)


@pytest.fixture
def rng():
    return Random(20260808)


class TestMultiply:
    def test_normal_order_kept(self, pie):
        x1, x2 = pie.gen("xi1"), pie.gen("xi2")
        assert (x1 * x2).render() == "xi1*xi2"

    def test_one_odd_transposition(self, pie):
        x1, x2 = pie.gen("xi1"), pie.gen("xi2")
        # xi2 even here (odd fibre slot); use two odd generators instead
        odd1, odd2 = pie.gen("xi1"), pie.gen("x2")
        assert odd2 * odd1 == -(odd1 * odd2)

    def test_odd_square_vanishes(self, pie):
        odd = pie.gen("xi1")
        assert (odd * odd).is_zero()

    def test_even_powers_collect(self, pie):
        x = pie.gen("x1")
        assert (x * x).render() == "x1^2"
        assert x ** 2 == x * x
        with pytest.raises(GradedAlgebraError, match="negative powers are not defined"):
            x ** -1

    def test_chart_mismatch(self, pie):
        other = chart_pi_e_star(MIXED)
        with pytest.raises(ChartMismatch):
            pie.gen("x1") * other.gen("x1")


class TestGrading:
    def test_parity_two_odds_even(self, pie):
        f = pie.gen("xi1") * pie.gen("x2")
        assert f.parity() == 0

    def test_parity_even_times_odd(self, pie):
        f = pie.gen("x1") * pie.gen("xi1")
        assert f.parity() == 1

    def test_parity_inhomogeneous(self, pie):
        f = pie.gen("x1") + pie.gen("xi1")
        assert f.parity() is None
        assert f.weight() is None  # x1 has weight (0, 0), xi1 (-1, 1)

    def test_zero_polynomial_conventions(self, pie):
        z = pie.zero()
        assert z.parity() == 0
        assert z.weight() == (0, 0)

    def test_weight_momentum_pair(self):
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        f = phase.gen("pi1") * phase.gen("p1")
        assert f.weight() == (-1, 2)

    def test_weight_eta_pi(self):
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        # w(eta) + w(pi) = (1,0) + (-1,1)
        f = phase.gen("eta1") * phase.gen("pi1")
        assert f.weight() == (0, 1)

    def test_weight_constant(self, pie):
        assert pie.one().weight() == (0, 0)

    def test_weight_additive_under_product(self, pie, rng):
        for _ in range(50):
            f = random_poly(rng, pie, 3, 1)
            g = random_poly(rng, pie, 3, 1)
            fg = f * g
            if f.is_zero() or g.is_zero() or fg.is_zero():
                continue
            if f.weight() is None or g.weight() is None:
                continue
            wf, wg = f.weight(), g.weight()
            assert fg.weight() == (wf[0] + wg[0], wf[1] + wg[1])


class TestAlgebraLaws:
    def test_supercommutativity(self, pie, rng):
        for _ in range(200):
            f = random_homogeneous_poly(rng, pie, 4, 2)
            g = random_homogeneous_poly(rng, pie, 4, 2)
            sign = -1 if (f.parity() and g.parity()) else 1
            assert f * g == (g * f).scaled(sign)

    def test_associativity(self, pie, rng):
        for _ in range(60):
            f = random_poly(rng, pie, 3, 2)
            g = random_poly(rng, pie, 3, 2)
            h = random_poly(rng, pie, 3, 2)
            assert (f * g) * h == f * (g * h)

    def test_distributivity(self, pie, rng):
        for _ in range(40):
            f = random_poly(rng, pie, 3, 2)
            g = random_poly(rng, pie, 3, 2)
            h = random_poly(rng, pie, 3, 2)
            assert f * (g + h) == f * g + f * h


class TestLeftDerivative:
    def test_leftmost_strike(self, pie):
        f = pie.gen("xi1") * pie.gen("x2")
        assert f.left_derivative("xi1") == pie.gen("x2")

    def test_one_transposition_sign(self, pie):
        f = pie.gen("xi1") * pie.gen("x2")
        assert f.left_derivative("x2") == -pie.gen("xi1")

    def test_even_power_rule(self, pie):
        f = pie.gen("x1") ** 2 * pie.gen("xi1")
        assert f.left_derivative("x1") == pie.gen("x1").scaled(2) * pie.gen("xi1")

    def test_unknown_generator(self, pie):
        with pytest.raises(UnknownGenerator):
            pie.one().left_derivative("nope")

    def test_leibniz_rule(self, pie, rng):
        for _ in range(120):
            f = random_homogeneous_poly(rng, pie, 3, 2)
            g = random_poly(rng, pie, 3, 2)
            z = rng.choice(pie.generators)
            lhs = (f * g).left_derivative(z.name)
            sign = -1 if (z.parity and f.parity()) else 1
            rhs = f.left_derivative(z.name) * g + (f * g.left_derivative(z.name)).scaled(sign)
            assert lhs == rhs

    def test_odd_derivative_nilpotent(self, pie, rng):
        odd_names = [g.name for g in pie.generators if g.parity]
        for _ in range(60):
            f = random_poly(rng, pie, 4, 3)
            z = rng.choice(odd_names)
            assert f.left_derivative(z).left_derivative(z).is_zero()


class TestSubstitute:
    def test_exchange_substitution_with_sign(self):
        # xi pi on T*(PiE) -> (sign) pi eta on T*(PiE*), one even fibre slot
        one = BundlePresentation((), (0,))
        src = chart_even_cotangent(chart_pi_e(one))
        dst = chart_even_cotangent(chart_pi_e_star(one))
        f = src.gen("xi1") * src.gen("pi1")
        images = {"xi1": dst.gen("pi1"), "pi1": dst.gen("eta1")}
        assert f.substitute(images, dst) == dst.gen("pi1") * dst.gen("eta1")

    def test_identity_map(self, pie, rng):
        images = {g.name: pie.gen(g.name) for g in pie.generators}
        for _ in range(20):
            f = random_poly(rng, pie, 3, 3)
            assert f.substitute(images, pie) == f

    def test_parity_preserving_rename(self):
        one = BundlePresentation((), (0, 0))
        src = chart_pi_e(one)
        dst = chart_pi_e_star(one)
        f = src.gen("xi1") * src.gen("xi2")
        images = {"xi1": dst.gen("eta1"), "xi2": dst.gen("eta2")}
        assert f.substitute(images, dst) == dst.gen("eta1") * dst.gen("eta2")

    def test_rejects_parity_mismatch(self, pie):
        images = {"xi1": pie.gen("x1")}
        with pytest.raises(ParityMismatch):
            pie.gen("xi1").substitute(images, pie)

    def test_homomorphism_property(self, pie, rng):
        # map each generator to a random homogeneous image of its parity
        target = pie
        for trial in range(30):
            images = {}
            for g in pie.generators:
                images[g.name] = random_poly(rng, target, 2, 2, parity=g.parity)
            f = random_poly(rng, pie, 2, 2)
            g = random_poly(rng, pie, 2, 2)
            lhs = (f * g).substitute(images, target)
            rhs = f.substitute(images, target) * g.substitute(images, target)
            assert lhs == rhs


class TestSumProperties:
    @PROPERTY
    @given(st.data())
    def test_sum_is_the_left_fold(self, data):
        drawn = data.draw(st.lists(polys(PIE), max_size=6))
        k = data.draw(st.integers(0, len(drawn)))
        ps = drawn + [-p for p in drawn[:k]]  # the first k summands cancel
        total = GradedPoly.sum(PIE, ps)
        assert total == reduce(add, ps, PIE.zero())
        expected = {}
        for p in ps:
            for m, c in p.terms.items():
                expected[m] = expected.get(m, 0) + c
        assert total.terms == {m: c for m, c in expected.items() if c != 0}
        if k == len(drawn):
            assert total.is_zero()

    @PROPERTY
    @given(st.lists(polys(PIE), max_size=3), polys(chart_pi_e_star(MIXED)),
           st.integers(0, 3))
    def test_sum_rejects_another_chart(self, ps, stranger, at):
        with pytest.raises(ChartMismatch):
            GradedPoly.sum(PIE, ps[:at] + [stranger] + ps[at:])


class TestSubstituteProperties:
    @PROPERTY
    @given(st.data())
    def test_substitute_matches_reference(self, data):
        target = data.draw(st.sampled_from([PIE, PIE_PHASE]))
        images = data.draw(images_for(PIE, target))
        f = data.draw(polys(PIE, min_terms=1))
        assert f.substitute(images, target) == reference_substitute(f, images, target)

    @PROPERTY
    @given(st.data())
    def test_fractional_source_and_images_match_reference(self, data):
        # substitute multiplies the source's Fraction coefficients with the
        # images' ones as they are, and may leave a whole-valued Fraction in
        # its term map.  Every example here has a nonzero result
        target = data.draw(st.sampled_from([PIE, PIE_PHASE]))
        images = data.draw(images_for(PIE, target, FRACTIONS))
        f = data.draw(polys(PIE, min_terms=1, coeffs=FRACTIONS))
        expected = reference_substitute(f, images, target)
        assume(not expected.is_zero())
        assert f.substitute(images, target) == expected


class TestKernelOracle:
    """The bitmask product, the derivative scan and the suffix restriction
    against plain references kept in this file."""

    @PROPERTY
    @given(st.data())
    def test_product_matches_reference(self, data):
        chart = data.draw(any_chart())
        f = data.draw(odd_heavy_polys(chart))
        g = data.draw(odd_heavy_polys(chart))
        assert (f * g).terms == reference_product(f, g)

    @PROPERTY
    @given(st.data())
    def test_left_derivative_matches_reference(self, data):
        chart = data.draw(any_chart())
        f = data.draw(odd_heavy_polys(chart, max_terms=6))
        idx = data.draw(st.integers(0, len(chart.generators) - 1))
        d = f.left_derivative(chart.generators[idx].name)
        assert d.terms == reference_left_derivative(f, idx)

    @PROPERTY
    @given(st.data())
    def test_restriction_drops_the_conjugates(self, data):
        chart = data.draw(any_chart().filter(lambda c: c.is_phase))
        f = data.draw(odd_heavy_polys(chart, max_terms=6))
        restricted = restrict_to_zero_section(f)
        assert restricted.chart == chart.parent
        assert restricted.terms == f.drop_generators(
            [g.name for g in chart.generators[len(chart.parent.generators):]]).terms

    def test_generator_indices_past_64(self):
        # 40 fibre slots: the conjugates of T*(PiE) sit at indices 40..79
        phase = chart_even_cotangent(chart_pi_e(BundlePresentation((), (0, 1) * 20)))
        u, w, v = phase.generators[70], phase.generators[66], phase.generators[4]
        assert u.parity == v.parity == w.parity == 1
        # u w v -> v w u reverses three odd factors: three transpositions
        f = phase.gen(u.name) * phase.gen(w.name) * phase.gen(v.name)
        assert f.terms == {((4, 1), (66, 1), (70, 1)): -1}
        assert (f * phase.gen(w.name)).is_zero()
        assert phase.generators[65].parity == 0
        name = [gen.name for gen in phase.generators]
        f2 = f + phase.monomial({name[65]: 1, name[72]: 1}, -2)
        g = (phase.monomial({name[65]: 2, name[68]: 1}, Fraction(1, 2))
             + phase.monomial({name[65]: 1, name[2]: 1}, 3) + phase.gen(name[64]))
        product = f2 * g
        assert len(product.terms) == 6
        assert product.terms == reference_product(f2, g)
        assert (g * f2).terms == reference_product(g, f2)
        assert f.left_derivative(w.name).terms == reference_left_derivative(f, 66)
        assert restrict_to_zero_section(f).is_zero()


def add_term_maps(*scaled_maps):
    """The term map of the sum of scale * map over (scale, map) pairs,
    with cancelled monomials left out."""
    out = {}
    for scale, terms in scaled_maps:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c != 0}


class TestProductInto:
    """The multiply-accumulate entry point against the references above."""

    @PROPERTY
    @given(st.data())
    def test_adds_the_scaled_product(self, data):
        chart = data.draw(any_chart())
        odd = chart.odd_flags
        f = data.draw(odd_heavy_polys(chart, min_terms=1))
        g = data.draw(odd_heavy_polys(chart, max_factors=2, min_terms=1))
        scale = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        product = reference_product(f, g)
        # the old map holds other terms and cancels a drawn part of the product
        old = dict(data.draw(odd_heavy_polys(chart)).terms)
        for m, c in product.items():
            if data.draw(st.booleans()):
                old[m] = -scale * c
        expected = add_term_maps((1, old), (scale, product))
        out = dict(old)
        assert _product_into(out, f.terms, _masked(g.terms, odd), odd, scale) is out
        assert out == expected

    def test_cancellation_deletes_keys(self, pie):
        f, g = pie.gen("x1") + pie.gen("xi1"), pie.gen("x2") - pie.gen("xi2")
        odd = pie.odd_flags
        product = reference_product(f, g)
        for scale in (1, -1, 2, Fraction(1, 2)):
            out = {m: -scale * c for m, c in product.items()}
            out[()] = 5
            assert _product_into(out, f.terms, _masked(g.terms, odd), odd, scale) == {(): 5}

    @PROPERTY
    @given(st.data())
    def test_derivation_action(self, data):
        chart = data.draw(any_chart())
        parity = data.draw(st.integers(0, 1))
        f = data.draw(odd_heavy_polys(chart, max_terms=6, min_terms=1))
        # directions mostly along generators of f, so that X(f) is rarely zero
        held = [chart.generators[i] for i in sorted(f.support())] or chart.generators
        directions = data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=3)
                               | st.lists(st.sampled_from(chart.generators), max_size=3))
        comps = {}
        for gen in directions:
            # the terms of the component's parity; the field drops a zero one
            want = (parity + gen.parity) & 1
            comp = data.draw(odd_heavy_polys(chart, max_terms=6, min_terms=2))
            comps[gen.name] = GradedPoly(chart, {
                m: c for m, c in comp.terms.items() if comp.monomial_parity(m) == want})
        x = VectorField(chart, comps, parity)
        expected = add_term_maps(*(
            (1, reference_product(comp, GradedPoly(
                chart, reference_left_derivative(f, chart.index_of(name)))))
            for name, comp in x.components.items()
        ))
        assert x(f).terms == expected


class TestPackedProduct:
    """The self-brackets' packed kernel, decoded, against the references above."""

    @PROPERTY
    @given(st.data())
    def test_product_and_derivative_match_the_references(self, data):
        chart = data.draw(any_chart())
        odd = chart.odd_flags
        f = data.draw(odd_heavy_polys(chart, min_terms=1))
        g = data.draw(odd_heavy_polys(chart, max_terms=6, min_terms=1))
        idx = data.draw(st.integers(0, len(chart.generators) - 1))
        scale = data.draw(st.sampled_from([1, -1, 2]))
        width = _width((f.terms, g.terms))
        pf, pg = _packed(f.terms, odd, width), _packed(g.terms, odd, width)
        assert _unpacked(dict((k, c) for k, c, _, _ in pg), width) == g.terms
        derivative = _packed_derivative(pg, idx, odd, width)
        assert _unpacked(dict((k, c) for k, c, _, _ in derivative), width) == \
            reference_left_derivative(g, idx)
        assert derivative == _packed(reference_left_derivative(g, idx), odd, width)
        assert _unpacked(_packed_product_into({}, pf, pg, scale), width) == \
            add_term_maps((scale, reference_product(f, g)))

    def test_width_holds_the_sum_of_two_exponents(self, pie):
        for top in (1, 2, 3, 4, 7, 8, 2 ** 16 + 3):
            width = _width(({((0, top),): 1},))
            assert 2 * top < 2 ** width <= 4 * top
            packed = _packed({((0, top), (3, 1)): 1}, pie.odd_flags, width)
            assert _unpacked(_packed_product_into({}, packed, packed), width) == \
                {((0, 2 * top), (3, 2)): 1}

    def test_cancellation_deletes_keys(self, pie):
        f, g = pie.gen("x1") + pie.gen("xi1"), pie.gen("x2") - pie.gen("xi2")
        odd = pie.odd_flags
        width = _width((f.terms, g.terms))
        pf, pg = _packed(f.terms, odd, width), _packed(g.terms, odd, width)
        out = _packed_product_into({}, pf, pg)
        assert _packed_product_into(out, pf, pg, -1) == {}


class TestClearedAndDivided:
    """The integer multiple of a term map and the one division that undoes it."""

    M1, M2, M3 = ((0, 1),), ((2, 1),), ((0, 1), (2, 2))

    def test_cleared_takes_the_lcm_of_the_denominators(self):
        d, ints = _cleared({self.M1: Fraction(1, 2), self.M2: Fraction(-2, 3), self.M3: 4})
        assert (d, ints) == (6, {self.M1: 3, self.M2: -4, self.M3: 24})
        assert {type(c) for c in ints.values()} == {int}

    def test_whole_valued_fraction_counts_as_its_numerator(self):
        d, ints = _cleared({self.M1: Fraction(6, 2), self.M2: -2})
        assert (d, ints) == (1, {self.M1: 3, self.M2: -2})
        assert type(ints[self.M1]) is int

    def test_integer_map_comes_back_unchanged(self):
        for terms in ({self.M1: 3, self.M2: -2}, {}):
            d, ints = _cleared(terms)
            assert d == 1 and ints is terms

    def test_a_given_common_multiple(self):
        assert _cleared({self.M1: Fraction(1, 2), self.M2: 1}, 6) == (6, {self.M1: 3, self.M2: 6})

    def test_divided_normalises_each_quotient(self):
        out = _divided({self.M1: 12, self.M2: -9, self.M3: Fraction(9, 2)}, 6)
        assert out == {self.M1: 2, self.M2: Fraction(-3, 2), self.M3: Fraction(3, 4)}
        assert type(out[self.M1]) is int

    def test_divided_turns_whole_fractions_into_ints(self):
        out = _divided({self.M1: Fraction(8), self.M2: Fraction(9, 2)}, 1)
        assert out == {self.M1: 8, self.M2: Fraction(9, 2)} and type(out[self.M1]) is int
        assert type(_divided({self.M1: Fraction(9, 2)}, 3)[self.M1]) is Fraction
        assert type(_divided({self.M1: Fraction(16, 3)}, 2)[self.M1]) is Fraction
        assert type(_divided({self.M1: Fraction(12)}, 4)[self.M1]) is int

    @PROPERTY
    @given(st.dictionaries(st.sampled_from([M1, M2, M3]), FRACTIONS.filter(bool)))
    def test_divided_undoes_cleared(self, terms):
        d, ints = _cleared(terms)
        assert all(type(c) is int for c in ints.values())
        assert all(d % Fraction(c).denominator == 0 for c in terms.values())
        assert _divided(ints, d) == terms


class TestCoefficients:
    """Coefficients are nonzero ints or Fractions, never floats or bools."""

    @staticmethod
    def stored(*polys):
        return [c for p in polys for c in p.terms.values()]

    @PROPERTY
    @given(st.data())
    def test_every_operation_stores_int_or_fraction(self, data):
        chart = data.draw(any_chart())
        f = data.draw(odd_heavy_polys(chart))
        g = data.draw(odd_heavy_polys(chart))
        name = data.draw(st.sampled_from([gen.name for gen in chart.generators]))
        images = {gen.name: chart.gen(gen.name).scaled(data.draw(MIXED_COEFFS))
                  for gen in chart.generators}
        results = (f * g, f + g, GradedPoly.sum(chart, [f, g, -f]), f - f,
                   f.left_derivative(name), f.substitute(images, chart),
                   f.scaled(Fraction(1, 2)), f.scaled(True), chart.const(2.0),
                   f + 2, 2 + f, f * Fraction(4, 2), 3 * f, f.scaled(0))
        for c in self.stored(*results):
            assert type(c) in (int, Fraction) and c != 0, repr(c)
        # a scalar operand is the constant polynomial; scaling by zero gives zero
        assert f + 2 == 2 + f == f + chart.const(2)
        assert 3 * f == f * 3 == f.scaled(3)
        assert f.scaled(0) == chart.zero()

    def test_constructors_store_ints(self, pie):
        polys = (pie.gen("xi1"), pie.one(), pie.const(Fraction(4, 2)),
                 pie.monomial({"x1": 2}, Fraction(-6, 3)), pie.gen("x1").scaled(Fraction(2)))
        assert [type(c) for c in self.stored(*polys)] == [int] * 5

    def test_int_and_fraction_terms_agree(self, pie):
        m = ((0, 1), (2, 1))
        a, b = GradedPoly(pie, {m: 3}), GradedPoly(pie, {m: Fraction(3)})
        assert a == b and hash(a) == hash(b)
        assert a.render() == b.render() == "3*xi1*x1"
        assert repr(a) == repr(b)

    def test_constant_term_without_constant_is_int_zero(self, pie):
        c = pie.gen("x1").constant_term()
        assert c == 0 and type(c) is int


class TestEquality:
    def test_none_is_not_equal(self, pie):
        f = pie.gen("xi1")
        assert not f == None  # noqa: E711
        assert f != None  # noqa: E711
        assert f in [None, f]

    def test_strings_are_not_rationals(self, pie):
        assert not pie.one() == "1"
        assert pie.one() != "1"

    def test_rationals_compare_as_constants(self, pie):
        assert pie.zero() == 0 and pie.one() == 1
        assert pie.const(Fraction(1, 2)) == Fraction(1, 2)
        assert pie.gen("x1") != 0 and pie.gen("x1") != 1


class TestRender:
    def test_zero(self, pie):
        assert pie.zero().render() == "0"

    def test_coefficients(self, pie):
        f = pie.gen("x1").scaled(Fraction(3, 2)) - pie.gen("xi1")
        assert f.render() == "-xi1 + 3/2*x1"

    def test_display_reorder_keeps_value_sign(self):
        # estar trails xstar in chart order but prints first; the printed
        # coefficient must absorb the odd transposition.
        from qalgebroid.charts import chart_e_star, chart_odd_cotangent

        phase = chart_odd_cotangent(chart_e_star(BundlePresentation((0,), (0,))))
        f = phase.gen("estar1") * phase.gen("xstar1")
        assert f.render() == "estar1*xstar1"


SIGNS = st.sampled_from([1, -1])
# signs, and nonzero scales that are whole or fractional, int or Fraction
SCALES = st.one_of(SIGNS, MIXED_COEFFS)


@st.composite
def relabellings(draw, source, target, scales):
    """Images sending each generator of ``source`` to k*z_j on ``target``,
    for a random parity-preserving bijection onto the generators of
    ``target`` (same count per parity) and nonzero k drawn from ``scales``."""
    images = {}
    for parity in (0, 1):
        sources = [g.name for g in source.generators if g.parity == parity]
        targets = [j for j, g in enumerate(target.generators) if g.parity == parity]
        for name, j in zip(sources, draw(st.permutations(targets))):
            images[name] = GradedPoly(target, {((j, 1),): draw(scales)})
    return images


def _replaced(images, name, image):
    return {**images, name: image}


# each keeps every other image of a relabelling of PIE_PHASE and breaks one
# condition of the relabelling path; x1 and xi2 are even generators there
NEAR_MISSES = {
    "zero image": lambda images: _replaced(images, "x1", PIE_PHASE.zero()),
    "two-term image": lambda images: _replaced(images, "x1", images["x1"] + PIE_PHASE.one()),
    "square": lambda images: _replaced(images, "x1", images["x1"] * images["x1"]),
    "two sources on one target": lambda images: _replaced(images, "x1", images["xi2"]),
    "missing generator": lambda images: {n: v for n, v in images.items() if n != "x1"},
}


class TestRelabelling:
    """Images that are a signed, scaled permutation of generators are applied
    by renaming indices; ``reference_substitute`` is the oracle."""

    @PROPERTY
    @given(st.data())
    def test_relabelling_matches_reference(self, data):
        chart = data.draw(any_chart())
        images = data.draw(relabellings(chart, chart, data.draw(st.sampled_from([SIGNS, SCALES]))))
        record = checked_images(chart, images, chart)
        assert record.relabel is not None
        f = data.draw(odd_heavy_polys(chart, max_terms=6, max_factors=6))
        assert f.substitute(record, chart).terms == reference_substitute(f, images, chart).terms

    @PROPERTY
    @given(st.data())
    def test_relabelling_onto_another_chart_matches_reference(self, data):
        # PiE and PiE* of one presentation have the same parities in the same
        # order, so a bijection between them always exists
        b = BundlePresentation(tuple(data.draw(st.lists(st.integers(0, 1), max_size=2))),
                               tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))))
        source, target = chart_pi_e(b), chart_pi_e_star(b)
        images = data.draw(relabellings(source, target, SCALES))
        record = checked_images(source, images, target)
        assert record.relabel is not None
        f = data.draw(odd_heavy_polys(source, max_terms=6, max_factors=6))
        assert f.substitute(record, target).terms == reference_substitute(f, images, target).terms

    def test_renaming_makes_no_product(self, monkeypatch):
        b = BundlePresentation((0, 1), (0, 1, 1))
        exchange = even_dual_exchange(b)
        f = random_poly(Random(5), exchange.domain, 4, 8)
        expected = reference_substitute(f, exchange.images, exchange.codomain)
        assert not expected.is_zero()

        def no_product(*args, **kwargs):
            raise AssertionError("a relabelling substitution made a product")

        monkeypatch.setattr("qalgebroid.gradedpoly._product_into", no_product)
        assert exchange.pullback(f) == expected

    def test_plain_dict_relabelling_makes_no_product(self, monkeypatch):
        # a relabelling given as a plain dict, not as a checked record, is
        # renamed too
        b = BundlePresentation((0, 1), (0, 1, 1))
        exchange = even_dual_exchange(b)
        images = dict(exchange.images)
        assert type(images) is dict
        f = random_poly(Random(5), exchange.domain, 4, 8)
        expected = reference_substitute(f, images, exchange.codomain)
        assert not expected.is_zero()

        def no_product(*args, **kwargs):
            raise AssertionError("a relabelling substitution made a product")

        monkeypatch.setattr("qalgebroid.gradedpoly._product_into", no_product)
        assert f.substitute(images, exchange.codomain) == expected

    def test_exchanges_and_monomial_changes_are_relabellings(self):
        b = BundlePresentation((0, 1), (0, 1, 1))
        for m in (even_dual_exchange(b), odd_dual_exchange(b)):
            assert m.images.relabel is not None and m.inverse_images.relabel is not None
        # identity, a parity-preserving permutation and a diagonal change
        monomial = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
                    [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, 1]])
        for t in monomial:
            for chart in all_charts(b).values():
                lift = FibreChange(b, t).on(chart)
                assert lift.images.relabel is not None
                assert lift.inverse_images.relabel is not None
        sheared = FibreChange(b, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        for chart in all_charts(b).values():
            assert sheared.on(chart).images.relabel is None

    @PROPERTY
    @given(st.data(), st.sampled_from(sorted(NEAR_MISSES)))
    def test_near_misses_take_the_general_path(self, data, kind):
        images = NEAR_MISSES[kind](data.draw(relabellings(PIE_PHASE, PIE_PHASE, SCALES)))
        record = checked_images(PIE_PHASE, images, PIE_PHASE)
        assert record.relabel is None
        f = data.draw(odd_heavy_polys(PIE_PHASE, max_terms=6, max_factors=6))
        if kind == "missing generator":
            f = f.drop_generators(["x1"])
        assert f.substitute(record, PIE_PHASE) == reference_substitute(f, images, PIE_PHASE)

    def test_missing_generator_still_raises_when_used(self):
        images = NEAR_MISSES["missing generator"](
            {g.name: PIE_PHASE.gen(g.name) for g in PIE_PHASE.generators})
        record = checked_images(PIE_PHASE, images, PIE_PHASE)
        with pytest.raises(UnknownGenerator):
            PIE_PHASE.gen("x1").substitute(record, PIE_PHASE)

    @pytest.mark.parametrize("kind, error", [
        ("parity flip", ParityMismatch),
        ("image on another chart", ChartMismatch),
        ("unknown name", UnknownGenerator),
    ])
    def test_bad_near_misses_raise_as_before(self, kind, error):
        identity = {g.name: PIE_PHASE.gen(g.name) for g in PIE_PHASE.generators}
        images = {
            # a bijection, but it swaps the even x1 with the odd x2
            "parity flip": {**identity, "x1": PIE_PHASE.gen("x2"), "x2": PIE_PHASE.gen("x1")},
            "image on another chart": {**identity, "x1": PIE.gen("x1")},
            # as many names as generators, one of them not a generator
            "unknown name": {**{n: v for n, v in identity.items() if n != "x1"},
                             "y1": PIE_PHASE.gen("x1")},
        }[kind]
        with pytest.raises(error):
            checked_images(PIE_PHASE, images, PIE_PHASE)
        with pytest.raises(error):
            PIE_PHASE.gen("xi1").substitute(images, PIE_PHASE)


def reference_render(f):
    """The text form as rendered before display ranks: each monomial's factors
    sorted by (bi-weight, index) with a lambda key, the display sign from an
    O(k^2) count of inverted odd pairs, and terms sorted by momentum group,
    then by their (bi-weight, index, exp) factor lists."""
    if not f.terms:
        return "0"
    gens = f.chart.generators
    keyed = []
    for m, c in f.terms.items():
        order = sorted(m, key=lambda ie: (gens[ie[0]].weight, ie[0]))
        odd = [i for i, _ in order if gens[i].parity == ODD]
        inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
        sign = -1 if inversions & 1 else 1
        group = 0 if any(gens[i].family in ("p", "xstar") for i, _ in order) else 1
        keyed.append(((group, [(gens[i].weight, i, e) for i, e in order]), order, c * sign))
    keyed.sort(key=lambda entry: entry[0])
    pieces = []
    for n, (_, order, c) in enumerate(keyed):
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        factors = [gens[i].name if e == 1 else f"{gens[i].name}^{e}" for i, e in order]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if n == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# two base and three fibre coordinates of both parities: every chart holds
# several odd generators whose chart and display orders differ
WIDE_CHARTS = all_charts(BundlePresentation((0, 1), (1, 0, 1)))


class TestRenderOracle:
    @pytest.mark.parametrize("space", sorted(WIDE_CHARTS))
    @PROPERTY
    @given(data=st.data())
    def test_render_matches_reference(self, space, data):
        # odd_heavy_polys gives negative and Fraction coefficients, even
        # powers and, on the phase charts, p and xstar factors
        chart = WIDE_CHARTS[space]
        f = data.draw(odd_heavy_polys(chart, max_terms=8, max_factors=6))
        assert f.render() == reference_render(f)

    @pytest.mark.parametrize("space", sorted(WIDE_CHARTS))
    def test_fixed_terms_match_reference(self, space):
        chart = WIDE_CHARTS[space]
        momenta = [g.name for g in chart.generators if g.family in ("p", "xstar")]
        assert (space in ("T*(PiE)", "T*(PiE*)", "PiT*(PiE)", "PiT*(E*)")) == bool(momenta)
        rng = Random(space)
        f = GradedPoly.sum(chart, [random_poly(rng, chart, 4, 6) for _ in range(3)])
        f = f + chart.const(Fraction(-5, 3))
        for name in momenta:
            f = f + chart.gen(name) * f.scaled(Fraction(-1, 2))
        even = [g.name for g in chart.generators if not g.parity]
        f = f + chart.monomial({even[0]: 2, even[-1]: 4}, -7)
        assert len(f.terms) > 8
        assert f.render() == reference_render(f)
        assert chart.zero().render() == reference_render(chart.zero()) == "0"


class TestParityParts:
    def test_homogeneous_is_its_own_part(self, pie):
        f = pie.gen("xi1") * pie.gen("x1") + pie.gen("x2").scaled(Fraction(1, 3))
        parts = f.parity_parts()
        assert list(parts) == [1] and parts[1] is f
        g = pie.gen("x1") + pie.one()
        assert g.parity_parts()[0] is g

    def test_zero_has_no_parts(self, pie):
        assert pie.zero().parity_parts() == {}

    @PROPERTY
    @given(st.data())
    def test_parts_split_by_parity(self, data):
        chart = data.draw(any_chart())
        f = data.draw(odd_heavy_polys(chart, max_terms=6))
        parts = f.parity_parts()
        assert GradedPoly.sum(chart, parts.values()) == f
        for p, part in parts.items():
            assert not part.is_zero() and part.parity() == p
        if len(parts) == 1:
            assert next(iter(parts.values())) is f


class TestScaledCoefficients:
    def test_whole_results_are_ints(self, pie):
        f = pie.gen("x1").scaled(2) + pie.gen("xi1").scaled(Fraction(2, 3))
        g = f.scaled(Fraction(3, 2))
        assert g.terms == {((0, 1),): 3, ((2, 1),): 1}
        assert [type(c) for c in g.terms.values()] == [int, int]
        assert [type(c) for c in f.scaled(Fraction(1, 4)).terms.values()] == [Fraction] * 2

    def test_vector_field_scaled_stores_ints(self, pie):
        x = VectorField(pie, {"x1": pie.gen("xi1").scaled(Fraction(4, 3))}, 1)
        y = x.scaled(Fraction(3, 4))
        assert [type(c) for c in y.component("x1").terms.values()] == [int]


def fresh_parity(f):
    """The parity read off the terms afresh: 0 for zero, None if mixed."""
    odd = f.chart.odd_flags
    parities = {sum(odd[g] for g, _ in m) & 1 for m in f.terms}
    return parities.pop() if len(parities) == 1 else (0 if not parities else None)


def fresh_support(f):
    return {g for m in f.terms for g, _ in m}


class TestKeptFacts:
    """``parity()`` and ``support()`` are computed once and kept; the kept
    answers equal a fresh scan of the terms."""

    @PROPERTY
    @given(st.data())
    def test_kept_answers_equal_a_fresh_scan(self, data):
        chart = data.draw(any_chart())
        parity = data.draw(st.sampled_from([None, 0, 1 if any(chart.odd_flags) else 0]))
        f = data.draw(odd_heavy_polys(chart) if parity is None else polys(chart, parity))
        order = data.draw(st.permutations(["parity", "support", "parts"]))
        for _ in range(2):  # asked again, the same answers
            for ask in order:
                if ask == "parity":
                    assert f.parity() == fresh_parity(f)
                elif ask == "support":
                    assert f.support() == fresh_support(f)
                    assert isinstance(f.support(), frozenset)
                else:
                    for p, part in f.parity_parts().items():
                        assert part.parity() == fresh_parity(part) == p
                        assert part.support() == fresh_support(part)

    @PROPERTY
    @given(st.data())
    def test_drawn_polynomials(self, data):
        chart = data.draw(any_chart())
        rng = Random(data.draw(st.integers(0, 10**6)))
        for f in (random_poly(rng, chart, 3, 4), random_homogeneous_poly(rng, chart, 3, 3),
                  random_poly(rng, chart, 3, 4) + random_poly(rng, chart, 3, 4), chart.zero()):
            assert f.support() == fresh_support(f)
            assert f.parity() == fresh_parity(f)
            f.parity_parts()
            assert f.parity() == fresh_parity(f) and f.support() == fresh_support(f)

    def test_mixed_is_kept_as_none(self, pie):
        f = pie.gen("xi1") + pie.gen("x1")
        assert f.parity() is None and f.parity() is None
        assert pie.zero().parity() == 0 and pie.zero().support() == frozenset()
