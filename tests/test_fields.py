"""Vector fields, commutators, canonical brackets and principal symbols."""

import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qalgebroid.charts import (
    BundlePresentation,
    chart_e_star,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    chart_pi_e_star,
)
from qalgebroid import gradedpoly
from qalgebroid.builtins import BUILTINS, builtin_spec, derham, so3, so3_broken
from qalgebroid.construction import build_poisson, build_schouten
from qalgebroid.fields import (
    NotHomological,
    VectorField,
    canonical_poisson,
    canonical_schouten,
    commutator,
    even_symbol,
    is_homological,
    odd_symbol,
    require_homological,
)
from qalgebroid.gradedpoly import ChartMismatch, EVEN, ODD, GradedPoly, ParityMismatch, coefficient
from qalgebroid.homotopy import FieldEngine, jacobiator
from qalgebroid.randgen import random_field, random_homogeneous_poly, random_poly
from qalgebroid.specdoc import assemble_field

MIXED = BundlePresentation((0, 1), (0, 1))

# property tests run a fixed example sequence, so the suite stays deterministic
PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)
EVEN_PHASES = [chart_even_cotangent(chart_pi_e(MIXED)),
               chart_even_cotangent(chart_pi_e_star(MIXED))]
ODD_PHASES = [chart_odd_cotangent(chart_pi_e(MIXED)),
              chart_odd_cotangent(chart_e_star(MIXED))]


def mixed_poly(data, rng, chart):
    """A random polynomial on ``chart`` of one drawn parity or of both."""
    parities = data.draw(st.sampled_from([(EVEN,), (ODD,), (EVEN, ODD)]))
    return GradedPoly.sum(chart, (random_poly(rng, chart, 3, 4, p) for p in parities))


# denominators up to 12, often coprime: the self-brackets clear them with one lcm
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)


def refractioned(data, poly):
    """``poly`` with each coefficient redrawn from FRACTIONS."""
    return GradedPoly(poly.chart, {m: coefficient(data.draw(FRACTIONS)) for m in poly.terms})


def copy_of(x):
    """An equal value that is a distinct object, so brackets take the general path."""
    if isinstance(x, VectorField):
        return VectorField(x.chart, dict(x.components), x.parity)
    return GradedPoly(x.chart, dict(x.terms))


class KernelCounter:
    """Counts the kernel's products and left derivatives while installed.

    A product is a call of ``_product_into`` or ``_packed_product_into`` and
    a derivative a call of ``_derivative`` or ``_packed_derivative``,
    wherever a package module binds them; the products of
    ``GradedPoly.substitute`` are not counted.
    """

    def __init__(self, monkeypatch):
        self.products = self.derivatives = self.zero_derivatives = 0
        substitute = GradedPoly.substitute
        inside_substitute = []

        def counting_product(product):
            def counting(*args):
                self.products += not inside_substitute
                return product(*args)
            return counting

        def counting_derivative(derivative):
            def counting(*args):
                out = derivative(*args)
                self.derivatives += 1
                self.zero_derivatives += not out
                return out
            return counting

        def uncounted_substitute(poly, *args):
            inside_substitute.append(True)
            try:
                return substitute(poly, *args)
            finally:
                inside_substitute.pop()

        package = [m for name, m in sys.modules.items()
                   if name == "qalgebroid" or name.startswith("qalgebroid.")]
        for original, counter in ((gradedpoly._product_into, counting_product),
                                  (gradedpoly._packed_product_into, counting_product),
                                  (gradedpoly._derivative, counting_derivative),
                                  (gradedpoly._packed_derivative, counting_derivative)):
            counting = counter(original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        monkeypatch.setattr(GradedPoly, "substitute", uncounted_substitute)


def dense_canonical(f, g, phase, c):
    """The canonical bracket of parity c summed over every conjugate pair and
    both parity parts of f, with no support test."""
    out = phase.zero()
    gens = phase.generators
    for zi, ci in phase.conjugate_pairs():
        a = gens[zi].parity
        zn, cn = gens[zi].name, gens[ci].name
        for p, fp in f.parity_parts().items():
            s1 = -1 if ((a + c) * (p + 1)) & 1 else 1
            s2 = -1 if (a * (p + c)) & 1 else 1
            out = out + (fp.left_derivative(cn) * g.left_derivative(zn)).scaled(s1)
            out = out - (fp.left_derivative(zn) * g.left_derivative(cn)).scaled(s2)
    return out


@pytest.fixture
def pie():
    return chart_pi_e(MIXED)


@pytest.fixture
def rng():
    return Random(99)


class TestDerivationAction:
    def test_translation(self, pie):
        x = VectorField(pie, {"x1": pie.gen("xi1")})
        assert x(pie.gen("x1")) == pie.gen("xi1")

    def test_kills_constants(self, pie):
        x = VectorField(pie, {"x1": pie.gen("xi1")})
        assert x(pie.one()).is_zero()

    def test_derham_on_product(self):
        q = assemble_field(derham())
        c = q.chart
        f = c.gen("x1") * c.gen("x2")
        assert q(f) == c.gen("xi1") * c.gen("x2") + c.gen("x1") * c.gen("xi2")

    @pytest.mark.parametrize("arity, derivatives", [(3, 21), (6, 6)])
    def test_so3_field_sweep_takes_no_zero_derivative(self, monkeypatch, arity, derivatives):
        # the action differentiates only along generators in the support: an
        # arity-6 field-engine Jacobiator sweep on so3 took 4221 left
        # derivatives, 4188 of them zero, when it differentiated along every
        # component, and 27 when its walks went on until a partial vanished.
        # Q has degree 2, so the unshuffle sum visits subsets of size 2 at
        # arity 3 only: at arity 6 only the self-commutator of Q
        # differentiates, and arity 3 keeps the action inside a walk
        q = assemble_field(so3())
        eng = FieldEngine(q)
        basis = eng.basis
        counter = KernelCounter(monkeypatch)
        for tup in combinations_with_replacement(range(3), arity):
            jacobiator(eng, [basis[i] for i in tup])
        assert (counter.derivatives, counter.zero_derivatives) == (derivatives, 0)


class TestCommutator:
    def test_euler_pair(self, pie):
        d = VectorField(pie, {"x1": pie.one()}, EVEN)
        euler = VectorField(pie, {"x1": pie.gen("x1")}, EVEN)
        assert commutator(d, euler) == d

    def test_derham_squares_to_zero(self):
        q = assemble_field(derham())
        assert commutator(q, q).is_zero()

    def test_so3_squares_to_zero(self):
        q = assemble_field(so3())
        assert commutator(q, q).is_zero()

    def test_antisymmetry(self, pie, rng):
        for _ in range(40):
            x = random_field(rng, pie, rng.randint(0, 1), 2)
            y = random_field(rng, pie, rng.randint(0, 1), 2)
            sign = -1 if (x.parity and y.parity) else 1
            assert commutator(x, y) == commutator(y, x).scaled(-sign)

    def test_graded_jacobi(self, pie, rng):
        for _ in range(25):
            x = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.5)
            y = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.5)
            z = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.5)
            lhs = commutator(x, commutator(y, z))
            sign = -1 if (x.parity and y.parity) else 1
            rhs = commutator(commutator(x, y), z) + commutator(y, commutator(x, z)).scaled(sign)
            assert lhs == rhs


class TestSelfCommutator:
    """[X, X] of one object against the general formula on a distinct copy."""

    @PROPERTY
    @given(st.sampled_from([EVEN, ODD]), st.randoms(use_true_random=False))
    def test_equals_the_general_formula(self, parity, rng):
        # random odd fields are almost never homological
        x = random_field(rng, chart_pi_e(MIXED), parity, 3)
        assert commutator(x, x) == commutator(x, copy_of(x))

    @PROPERTY
    @given(st.data())
    def test_fractional_odd_fields_equal_the_general_formula(self, data):
        # the self path clears every component by one lcm d and divides by
        # d^2 once; only a nonzero [X, X] divides anything, so a homological
        # example is rejected and every kept one exercises the division
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_field(rng, chart_pi_e(MIXED), ODD, 3)
        x = VectorField(x.chart, {z: refractioned(data, c) for z, c in x.components.items()}, ODD)
        general = commutator(x, copy_of(x))
        assume(not general.is_zero())
        assert commutator(x, x) == general

    def test_builtins_and_the_broken_control(self):
        fields = [assemble_field(builtin_spec(n)) for n in BUILTINS]
        broken = assemble_field(so3_broken())
        for q in fields + [broken]:
            w = commutator(q, q)
            assert w == commutator(q, copy_of(q))
            assert w.parity == EVEN
            assert w.is_zero() == (q is not broken)

    def test_so3_kernel_counts(self, monkeypatch):
        # the general formula took 18 products and 18 left derivatives
        q = assemble_field(so3())
        counter = KernelCounter(monkeypatch)
        commutator(q, q)
        assert (counter.products, counter.derivatives) == (6, 6)


def poly_of(chart, *terms):
    """The sum of c * prod(name ** exp) over ``(c, {name: exp})`` terms."""
    return GradedPoly.sum(chart, (chart.monomial(e, c) for c, e in terms))


def top_exponent(poly):
    return max(e for m in poly.terms for _, e in m)


# exponents past 2^16: the self-brackets add two exponents in one packed field
# of W bits, W the bit length of twice the largest, so x1^N x1^(N-1) needs 18
N, M = 2 ** 16 + 3, 40_000
# WIDE's charts have 40 generators (x1..x20, xi1..xi20, half of each odd), and
# so do the phases over HALF's 20
WIDE = BundlePresentation((0, 1) * 10, (0, 1) * 10)
HALF = BundlePresentation((0, 1) * 5, (0, 1) * 5)


class TestPackedSelfBrackets:
    """The self-brackets' packed product at its width and past 64-bit keys,
    against the general formula on a distinct copy and the dense sum."""

    def test_commutator_at_the_width(self, pie):
        x = VectorField(pie, {
            "x1": poly_of(pie, (Fraction(1, 3), {"x1": N, "xi1": 1}), (2, {"x1": M, "x2": 1})),
            "xi1": poly_of(pie, (-5, {"x1": M})),
            "xi2": poly_of(pie, (-1, {"x1": N, "x2": 1}),
                           (Fraction(5, 7), {"x1": M, "xi1": 1, "xi2": 3})),
        }, ODD)
        own = commutator(x, x)
        assert own == commutator(x, copy_of(x))
        assert top_exponent(own.component("xi2")) >= 2 ** 17

    @pytest.mark.parametrize("phase, bracket, c, f", [
        (EVEN_PHASES[0], canonical_poisson, EVEN,
         ((Fraction(1, 2), {"x1": N, "p1": 1, "pi1": 1}), (3, {"x1": N, "p2": 1}),
          (Fraction(-2, 5), {"x1": M, "p1": 2, "x2": 1}))),
        (ODD_PHASES[0], canonical_schouten, ODD,
         ((Fraction(1, 2), {"x1": N, "xstar1": 1, "x2": 1}), (3, {"x1": N, "xstar2": 1}),
          (Fraction(-2, 5), {"x1": M, "xistar1": 2}))),
    ], ids=["poisson", "schouten"])
    def test_canonical_at_the_width(self, phase, bracket, c, f):
        f = poly_of(phase, *f)
        own = bracket(f, f, phase)
        assert own == bracket(f, copy_of(f), phase) == dense_canonical(f, f, phase, c)
        assert top_exponent(own) >= 2 ** 17

    @staticmethod
    def past_64_bits(polys):
        """The largest packed key of the term maps of ``polys`` has over 64 bits."""
        maps = [p.terms for p in polys]
        odd, width = polys[0].chart.odd_flags, gradedpoly._width(maps)
        return max(key.bit_length() for t in maps
                   for key, *_ in gradedpoly._packed(t, odd, width)) > 64

    def test_commutator_past_64_bits(self):
        chart = chart_pi_e(WIDE)
        rng = Random(5)
        base = chart.monomial({"x1": 2, "x3": 3})  # even, so parities are kept
        for _ in range(4):
            x = random_field(rng, chart, ODD, 3, fill=0.3)
            x = VectorField(chart, {z: GradedPoly(chart, {
                m: Fraction(rng.choice((1, -2, 5)), rng.choice((1, 3, 4)))
                for m in (base * comp).terms}) for z, comp in x.components.items()}, ODD)
            own = commutator(x, x)
            assert self.past_64_bits(list(x.components.values()))
            assert not own.is_zero()
            assert own == commutator(x, copy_of(x))

    @pytest.mark.parametrize("bracket, c, parity, momentum", [
        (canonical_poisson, EVEN, ODD, {"p1": 1}),
        (canonical_schouten, ODD, EVEN, {"xstar1": 1, "x2": 1}),
    ], ids=["poisson", "schouten"])
    def test_canonical_past_64_bits(self, bracket, c, parity, momentum):
        # f = x1^2 x3^3 t^2 (g + m h), t the last even generator, so every
        # key passes 64 bits, and m even and holding the conjugate of x1, so
        # the pair (x1, its conjugate) meets in (f, f)
        cotangent = chart_even_cotangent if c == EVEN else chart_odd_cotangent
        phase = cotangent(chart_pi_e(HALF))
        assert len(phase.generators) == 40
        top = next(g.name for g in reversed(phase.generators) if g.parity == EVEN)
        rng = Random(7)
        base = phase.monomial({"x1": 2, "x3": 3, top: 2})
        m = phase.monomial(momentum)
        for _ in range(4):
            g, h = (random_poly(rng, phase, 3, 4, parity) for _ in range(2))
            f = GradedPoly(phase, {mono: Fraction(rng.choice((1, -2, 5)), rng.choice((1, 3, 4)))
                                   for mono in (base * (g + m * h)).terms})
            own = bracket(f, f, phase)
            assert self.past_64_bits([f])
            assert not own.is_zero()
            assert own == bracket(f, copy_of(f), phase) == dense_canonical(f, f, phase, c)


class TestHomological:
    def test_zero_field_counts(self, pie):
        assert is_homological(VectorField(pie, {}))
        assert repr(VectorField(pie, {})) == "<VectorField 0 on PiE>"
        with pytest.raises(NotHomological, match="the field is not odd"):
            require_homological(VectorField(pie, {}, EVEN))

    def test_direct_evaluation(self):
        # Q = d/dxi + xi x d/dxi over an odd base line, rank-1 even fibre
        c = chart_pi_e(BundlePresentation((1,), (0,)))
        q = VectorField(c, {"xi1": c.one() + c.gen("xi1") * c.gen("x1")}, ODD)
        w = commutator(q, q)
        # [Q,Q](xi) = 2 Q(1 + xi x) = 2x exactly
        assert w.component("xi1") == c.gen("x1").scaled(2)
        assert not is_homological(q)
        # x1 and xi1 are odd: a component's parity plus its generator's is the field's
        with pytest.raises(ParityMismatch, match="declared parity contradicts the components"):
            VectorField(c, {"xi1": c.one()}, EVEN)
        with pytest.raises(ParityMismatch, match="component for xi1 has mixed parity"):
            VectorField(c, {"xi1": c.one() + c.gen("x1")})
        with pytest.raises(ParityMismatch, match="components disagree on the field parity"):
            VectorField(c, {"xi1": c.one(), "x1": c.gen("x1")})
        with pytest.raises(ParityMismatch, match="cannot add fields of different parity"):
            q + VectorField(c, {"x1": c.gen("x1")})


class TestCanonicalBrackets:
    def test_normalisations(self):
        even = chart_even_cotangent(chart_pi_e(MIXED))
        odd = chart_odd_cotangent(chart_pi_e(MIXED))
        for i in (1, 2):
            assert canonical_poisson(even.gen(f"p{i}"), even.gen(f"x{i}"), even) == even.one()
            assert canonical_poisson(even.gen(f"pi{i}"), even.gen(f"xi{i}"), even) == even.one()
            assert canonical_schouten(odd.gen(f"xstar{i}"), odd.gen(f"x{i}"), odd) == odd.one()
            assert canonical_schouten(odd.gen(f"xistar{i}"), odd.gen(f"xi{i}"), odd) == odd.one()

    def test_constants_are_central(self, rng):
        even = chart_even_cotangent(chart_pi_e(MIXED))
        odd = chart_odd_cotangent(chart_pi_e(MIXED))
        for _ in range(20):
            f = random_homogeneous_poly(rng, even, 3, 3)
            assert canonical_poisson(f, even.one(), even).is_zero()
            g = random_homogeneous_poly(rng, odd, 3, 3)
            assert canonical_schouten(g, odd.one(), odd).is_zero()

    def test_wrong_chart_kind(self):
        even = chart_even_cotangent(chart_pi_e(MIXED))
        odd = chart_odd_cotangent(chart_pi_e(MIXED))
        with pytest.raises(ChartMismatch):
            canonical_poisson(odd.one(), odd.one(), odd)
        with pytest.raises(ChartMismatch):
            canonical_schouten(even.one(), even.one(), even)

    @PROPERTY
    @given(st.data())
    def test_sparse_brackets_equal_the_dense_sum(self, data):
        for phases, bracket, c in ((EVEN_PHASES, canonical_poisson, EVEN),
                                   (ODD_PHASES, canonical_schouten, ODD)):
            phase = data.draw(st.sampled_from(phases))
            rng = data.draw(st.randoms(use_true_random=False))
            f, g = mixed_poly(data, rng, phase), mixed_poly(data, rng, phase)
            assert bracket(f, g, phase) == dense_canonical(f, g, phase, c)

    @PROPERTY
    @given(st.data())
    def test_self_brackets_equal_the_general_formula(self, data):
        for phases, bracket, c in ((EVEN_PHASES, canonical_poisson, EVEN),
                                   (ODD_PHASES, canonical_schouten, ODD)):
            phase = data.draw(st.sampled_from(phases))
            rng = data.draw(st.randoms(use_true_random=False))
            f = mixed_poly(data, rng, phase)
            own = bracket(f, f, phase)
            assert own == bracket(f, copy_of(f), phase)
            assert own == dense_canonical(f, f, phase, c)

    @pytest.mark.parametrize("phases, bracket, c, parity", [
        (EVEN_PHASES, canonical_poisson, EVEN, ODD),
        (ODD_PHASES, canonical_schouten, ODD, EVEN),
    ], ids=["poisson", "schouten"])
    @PROPERTY
    @given(data=st.data())
    def test_fractional_self_brackets_equal_the_general_formula(self, phases, bracket, c,
                                                                parity, data):
        # (f, f) is computed on d f, d the lcm of f's denominators, and
        # divided by d^2 once; f takes the parity whose self-bracket need not
        # vanish, and a zero example is rejected, so every kept one divides
        phase = data.draw(st.sampled_from(phases))
        rng = data.draw(st.randoms(use_true_random=False))
        f = refractioned(data, random_poly(rng, phase, 3, 4, parity))
        dense = dense_canonical(f, f, phase, c)
        assume(not dense.is_zero())
        own = bracket(f, f, phase)
        assert own == dense
        assert own == bracket(f, copy_of(f), phase)

    @pytest.mark.parametrize("build", [build_schouten, build_poisson])
    def test_build_kernel_counts(self, build, monkeypatch):
        # [Q,Q], symbol, exchange and self-bracket of so3; the general
        # formulas took 27 products and 30 left derivatives per build
        q = assemble_field(so3())
        counter = KernelCounter(monkeypatch)
        assert build(q).self_bracket.is_zero()
        assert (counter.products, counter.derivatives) == (12, 12)

    def test_poisson_axioms(self, rng):
        phase = chart_even_cotangent(chart_pi_e(MIXED))
        for _ in range(60):
            f = random_homogeneous_poly(rng, phase, 2, 2)
            g = random_homogeneous_poly(rng, phase, 2, 2)
            h = random_homogeneous_poly(rng, phase, 2, 2)
            fp, gp, hp = f.parity(), g.parity(), h.parity()
            br = lambda a, b: canonical_poisson(a, b, phase)
            # grading
            if not br(f, g).is_zero():
                assert br(f, g).parity() == (fp + gp) & 1
            # skew-symmetry
            assert br(f, g) == br(g, f).scaled(-1 if not (fp and gp) else 1)
            # Leibniz
            assert br(f, g * h) == br(f, g) * h + (g * br(f, h)).scaled(
                -1 if (fp and gp) else 1
            )
            # Jacobi (cyclic form with epsilon = 0)
            j = (
                br(f, br(g, h)).scaled(-1 if (fp and hp) else 1)
                + br(g, br(h, f)).scaled(-1 if (gp and fp) else 1)
                + br(h, br(f, g)).scaled(-1 if (hp and gp) else 1)
            )
            assert j.is_zero()

    def test_schouten_axioms(self, rng):
        phase = chart_odd_cotangent(chart_pi_e(MIXED))
        for _ in range(60):
            f = random_homogeneous_poly(rng, phase, 2, 2)
            g = random_homogeneous_poly(rng, phase, 2, 2)
            h = random_homogeneous_poly(rng, phase, 2, 2)
            fp, gp, hp = f.parity(), g.parity(), h.parity()
            br = lambda a, b: canonical_schouten(a, b, phase)
            # grading: parity f + g + 1
            if not br(f, g).is_zero():
                assert br(f, g).parity() == (fp + gp + 1) & 1
            # skew-symmetry with shifted parities
            sign = -1 if not ((fp ^ 1) and (gp ^ 1)) else 1
            assert br(f, g) == br(g, f).scaled(sign)
            # Leibniz with shifted first parity
            sign = -1 if ((fp ^ 1) and gp) else 1
            assert br(f, g * h) == br(f, g) * h + (g * br(f, h)).scaled(sign)
            # Jacobi with shifted parities
            j = (
                br(f, br(g, h)).scaled(-1 if ((fp ^ 1) and (hp ^ 1)) else 1)
                + br(g, br(h, f)).scaled(-1 if ((gp ^ 1) and (fp ^ 1)) else 1)
                + br(h, br(f, g)).scaled(-1 if ((hp ^ 1) and (gp ^ 1)) else 1)
            )
            assert j.is_zero()


CANONICAL = ((EVEN_PHASES, canonical_poisson, EVEN), (ODD_PHASES, canonical_schouten, ODD))


class TestAlgebraLaws:
    """Laws of the canonical brackets and the commutator on drawn inputs."""

    @PROPERTY
    @given(st.data())
    def test_graded_jacobi(self, data):
        # cyclic form in the shifted parities |f| + c
        for phases, bracket, c in CANONICAL:
            phase = data.draw(st.sampled_from(phases))
            rng = data.draw(st.randoms(use_true_random=False))
            f, g, h = (random_homogeneous_poly(rng, phase, 3, 3) for _ in range(3))
            pf, pg, ph = ((x.parity() + c) & 1 for x in (f, g, h))

            def br(a, b):
                return bracket(a, b, phase)

            j = GradedPoly.sum(phase, [
                br(f, br(g, h)).scaled(-1 if pf & ph else 1),
                br(g, br(h, f)).scaled(-1 if pg & pf else 1),
                br(h, br(f, g)).scaled(-1 if ph & pg else 1),
            ])
            assert j.is_zero()

    @PROPERTY
    @given(st.data())
    def test_zero_is_absorbing(self, data):
        # [0, a] = 0 = [a, 0], which lets a derived-bracket walk stop at a
        # vanishing partial
        for phases, bracket, _ in CANONICAL:
            phase = data.draw(st.sampled_from(phases))
            rng = data.draw(st.randoms(use_true_random=False))
            f, zero = mixed_poly(data, rng, phase), phase.zero()
            assert bracket(zero, f, phase) == bracket(f, zero, phase) == zero
            assert bracket(zero, zero, phase) == zero
        rng = data.draw(st.randoms(use_true_random=False))
        pie = chart_pi_e(MIXED)
        x = random_field(rng, pie, data.draw(st.sampled_from([EVEN, ODD])), 3)
        for zero in (VectorField(pie, {}, EVEN), VectorField(pie, {}, ODD)):
            assert commutator(zero, x).is_zero() and commutator(x, zero).is_zero()
            assert commutator(zero, zero).is_zero()

    def test_zero_operands_give_the_zero_of_the_chart_and_parity(self, pie, rng):
        # a zero operand returns at once, with the parity an all-cancelling
        # result would have: X + Y for the commutator, even for [X, X]
        for phases, bracket, _ in CANONICAL:
            for phase in phases:
                f = random_homogeneous_poly(rng, phase, 3, 3)
                for a, b in ((phase.zero(), f), (f, phase.zero()), (phase.zero(), phase.zero())):
                    out = bracket(a, b, phase)
                    assert out.is_zero() and out.chart == phase
                    assert bracket(a, b).chart == a.chart  # the chart defaults to f's
        for x in (random_field(rng, pie, EVEN, 3), random_field(rng, pie, ODD, 3)):
            for zero in (VectorField(pie, {}, EVEN), VectorField(pie, {}, ODD)):
                parity = (zero.parity + x.parity) & 1
                for out in (commutator(zero, x), commutator(x, zero)):
                    assert out.is_zero() and (out.chart, out.parity) == (pie, parity)
                for out in (commutator(zero, zero), commutator(zero, copy_of(zero))):
                    assert out.is_zero() and (out.chart, out.parity) == (pie, EVEN)


class TestErrorPaths:
    def test_commutator_chart_mismatch(self, pie):
        other = chart_pi_e(BundlePresentation((0,), (0,)))
        with pytest.raises(ChartMismatch):
            commutator(VectorField(pie, {}), VectorField(other, {}))
        with pytest.raises(ChartMismatch, match="cannot add fields on different charts"):
            VectorField(pie, {}) + VectorField(other, {})

    def test_zero_operands_still_check_charts(self):
        even = chart_even_cotangent(chart_pi_e(MIXED))
        odd = chart_odd_cotangent(chart_pi_e(MIXED))
        other = chart_even_cotangent(chart_pi_e(BundlePresentation((0,), (0,))))
        for f, g, phase in ((odd.zero(), odd.one(), odd), (odd.one(), odd.zero(), None),
                            (other.zero(), even.zero(), even), (even.one(), other.zero(), even)):
            with pytest.raises(ChartMismatch):
                canonical_poisson(f, g, phase)
        for f, g, phase in ((even.zero(), even.zero(), even), (even.zero(), even.one(), None),
                            (odd.zero(), odd.one(), even)):
            with pytest.raises(ChartMismatch):
                canonical_schouten(f, g, phase)

    def test_apply_chart_mismatch(self, pie):
        other = chart_pi_e(BundlePresentation((0,), (0,)))
        with pytest.raises(ChartMismatch):
            VectorField(pie, {})(other.one())
        with pytest.raises(ChartMismatch, match="component for x1 lives on another chart"):
            VectorField(pie, {"x1": other.gen("x1")})

    def test_symbol_rejects_phase_chart(self, pie):
        phase = chart_even_cotangent(pie)
        field_on_phase = VectorField(phase, {})
        with pytest.raises(ChartMismatch):
            even_symbol(field_on_phase)
        other = chart_even_cotangent(chart_pi_e(BundlePresentation((0,), (0,))))
        with pytest.raises(ChartMismatch, match="phase chart was not built from the field's chart"):
            even_symbol(VectorField(pie, {}), other)

    def test_substitute_missing_image(self, pie):
        from qalgebroid.gradedpoly import UnknownGenerator

        f = pie.gen("x1") * pie.gen("xi1")
        with pytest.raises(UnknownGenerator):
            f.substitute({"x1": pie.gen("x1")}, pie)


class TestSymbols:
    def test_derham_even_symbol(self):
        q = assemble_field(derham())
        phase = chart_even_cotangent(q.chart)
        sigma = even_symbol(q, phase)
        expected = phase.gen("xi1") * phase.gen("p1") + phase.gen("xi2") * phase.gen("p2")
        assert sigma == expected

    def test_zero_field(self, pie):
        assert even_symbol(VectorField(pie, {})).is_zero()
        assert odd_symbol(VectorField(pie, {})).is_zero()

    def test_linear_field(self):
        c = chart_pi_e(BundlePresentation((0,), ()))
        x = VectorField(c, {"x1": c.gen("x1")}, EVEN)
        phase = chart_even_cotangent(c)
        assert even_symbol(x, phase) == phase.gen("x1") * phase.gen("p1")

    def test_symbol_parities(self, pie, rng):
        for _ in range(20):
            x = random_field(rng, pie, rng.randint(0, 1), 2)
            s = even_symbol(x)
            if not s.is_zero():
                assert s.parity() == x.parity
            t = odd_symbol(x)
            if not t.is_zero():
                assert t.parity() == (x.parity + 1) & 1

    def test_even_symbol_homomorphism(self, pie, rng):
        phase = chart_even_cotangent(pie)
        for _ in range(100):
            x = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.6)
            y = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.6)
            lhs = even_symbol(commutator(x, y), phase)
            rhs = canonical_poisson(even_symbol(x, phase), even_symbol(y, phase), phase)
            assert lhs == rhs

    def test_odd_symbol_homomorphism(self, pie, rng):
        phase = chart_odd_cotangent(pie)
        for _ in range(100):
            x = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.6)
            y = random_field(rng, pie, rng.randint(0, 1), 2, fill=0.6)
            lhs = odd_symbol(commutator(x, y), phase)
            rhs = canonical_schouten(odd_symbol(x, phase), odd_symbol(y, phase), phase)
            assert lhs == rhs

    def test_derham_symbol_self_bracket(self):
        q = assemble_field(derham())
        phase = chart_even_cotangent(q.chart)
        s = even_symbol(q, phase)
        assert canonical_poisson(s, s, phase).is_zero()
        phase2 = chart_odd_cotangent(q.chart)
        t = odd_symbol(q, phase2)
        assert canonical_schouten(t, t, phase2).is_zero()
