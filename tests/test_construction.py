"""The structure pipeline: exchanges, S and P, weights, strictness, naturality."""

from fractions import Fraction
from random import Random

import pytest

from qalgebroid.builtins import (
    derham,
    graded_3_lie,
    lie_3_algebroid_demo,
    lie_algebroid_demo,
    so3,
    so3_broken,
)
from qalgebroid.charts import (
    BundlePresentation,
    all_charts,
    chart_even_cotangent,
    chart_pi_e,
)
from qalgebroid.construction import (
    FibreChange,
    MorphismR,
    build_poisson,
    build_schouten,
    chart_change_naturality,
    even_dual_exchange,
    invert_matrix,
    is_strict,
    odd_dual_exchange,
    total_weight_audit,
)
from qalgebroid.fields import (
    NotHomological,
    VectorField,
    canonical_poisson,
    canonical_schouten,
)
from qalgebroid.gradedpoly import ChartMismatch, GradedAlgebraError, ParityMismatch
from qalgebroid.randgen import _shear, random_field, random_poly, random_presentation
from qalgebroid.specdoc import assemble_field

from closed_forms import structure_constant

MIXED = BundlePresentation((0, 1), (0, 1))


class TestExchangeMorphisms:
    def test_even_images(self):
        ex = even_dual_exchange(MIXED)
        assert ex.pullback(ex.domain.gen("pi1")) == ex.codomain.gen("eta1")
        assert ex.pullback(ex.domain.gen("pi2")) == ex.codomain.gen("eta2")
        # xi^a -> (-1)^a pi^a in the fibre parity a
        assert ex.pullback(ex.domain.gen("xi1")) == ex.codomain.gen("pi1")
        assert ex.pullback(ex.domain.gen("xi2")) == -ex.codomain.gen("pi2")
        assert ex.pullback(ex.domain.gen("x1")) == ex.codomain.gen("x1")
        assert ex.pullback(ex.domain.gen("p2")) == ex.codomain.gen("p2")

    def test_odd_images(self):
        ex = odd_dual_exchange(MIXED)
        assert ex.pullback(ex.domain.gen("xi1")) == ex.codomain.gen("estar1")
        assert ex.pullback(ex.domain.gen("xistar1")) == -ex.codomain.gen("e1")
        assert ex.pullback(ex.domain.gen("xstar2")) == ex.codomain.gen("xstar2")

    def test_odd_inverse_sends_e_to_minus_xistar(self):
        inv = odd_dual_exchange(MIXED).inverse()
        assert inv.pullback(inv.domain.gen("e1")) == -inv.codomain.gen("xistar1")

    def test_round_trip(self):
        rng = Random(17)
        for ex in (even_dual_exchange(MIXED), odd_dual_exchange(MIXED)):
            inv = ex.inverse()
            for _ in range(40):
                f = random_poly(rng, ex.domain, 3, 3)
                assert inv.pullback(ex.pullback(f)) == f

    def test_even_exchange_is_symplectomorphism(self):
        rng = Random(23)
        ex = even_dual_exchange(MIXED)
        for _ in range(100):
            f = random_poly(rng, ex.domain, 3, 3)
            g = random_poly(rng, ex.domain, 3, 3)
            lhs = ex.pullback(canonical_poisson(f, g, ex.domain))
            rhs = canonical_poisson(ex.pullback(f), ex.pullback(g), ex.codomain)
            assert lhs == rhs

    def test_odd_exchange_is_symplectomorphism(self):
        rng = Random(29)
        ex = odd_dual_exchange(MIXED)
        for _ in range(100):
            f = random_poly(rng, ex.domain, 3, 3)
            g = random_poly(rng, ex.domain, 3, 3)
            lhs = ex.pullback(canonical_schouten(f, g, ex.domain))
            rhs = canonical_schouten(ex.pullback(f), ex.pullback(g), ex.codomain)
            assert lhs == rhs


class TestGoldenStructures:
    def test_derham_schouten(self):
        s = build_schouten(assemble_field(derham()))
        c = s.chart
        assert s.value == c.gen("pi1") * c.gen("p1") + c.gen("pi2") * c.gen("p2")
        assert s.render() == "pi1*p1 + pi2*p2"

    def test_derham_poisson(self):
        p = build_poisson(assemble_field(derham()))
        c = p.chart
        assert p.value == (
            c.gen("estar1") * c.gen("xstar1") + c.gen("estar2") * c.gen("xstar2")
        )
        assert p.render() == "estar1*xstar1 + estar2*xstar2"

    def test_derham_odd_base_signs(self):
        # tangent-style bundle over a (1|1) base: the odd slot flips the sign
        b = BundlePresentation((0, 1), (0, 1))
        c = chart_pi_e(b)
        q = VectorField(c, {"x1": c.gen("xi1"), "x2": c.gen("xi2")})
        s = build_schouten(q)
        sc = s.chart
        assert s.value == (
            sc.gen("pi1") * sc.gen("p1") - sc.gen("pi2") * sc.gen("p2")
        )
        p = build_poisson(q)
        pc = p.chart
        assert p.value == (
            pc.gen("estar1") * pc.gen("xstar1") + pc.gen("estar2") * pc.gen("xstar2")
        )

    def test_lie_algebroid_matches_closed_expression(self):
        q = assemble_field(lie_algebroid_demo())
        s = build_schouten(q)
        c = s.chart
        # S = pi^a Q^x_a p + 1/2 pi^a pi^b Q^c_(ba) eta_c for an even fibre
        expected = c.zero()
        for a, an in enumerate(["pi1", "pi2"]):
            qa_ = structure_constant(q, "x1", (q.chart.index_of(f"xi{a + 1}"),))
            if not qa_.is_zero():
                img = qa_.substitute({"x1": c.gen("x1")}, c)
                expected = expected + c.gen(an) * img * c.gen("p1")
        half = Fraction(1, 2)
        for a in (0, 1):
            for b in (0, 1):
                for g, gn in ((0, "eta1"), (1, "eta2")):
                    const = structure_constant(
                        q, f"xi{g + 1}",
                        (q.chart.index_of(f"xi{b + 1}"), q.chart.index_of(f"xi{a + 1}")),
                    )
                    if const.is_zero():
                        continue
                    img = const.substitute({"x1": c.gen("x1")}, c)
                    expected = expected + (
                        c.gen(f"pi{a + 1}") * c.gen(f"pi{b + 1}") * img * c.gen(gn)
                    ).scaled(half)
        assert s.value == expected

    def test_zero_field_gives_zero_structures(self):
        c = chart_pi_e(MIXED)
        q = VectorField(c, {})
        assert build_schouten(q).value.is_zero()
        assert build_poisson(q).value.is_zero()

    def test_parities_of_structures(self):
        for fac in (derham, lie_algebroid_demo, so3, lie_3_algebroid_demo, graded_3_lie):
            q = assemble_field(fac())
            assert build_schouten(q).value.parity() in (1, 0)  # zero allowed
            s = build_schouten(q)
            p = build_poisson(q)
            if not s.value.is_zero():
                assert s.value.parity() == 1
            if not p.value.is_zero():
                assert p.value.parity() == 0

    def test_rejects_non_homological(self):
        q = assemble_field(so3_broken())
        with pytest.raises(NotHomological) as err:
            build_schouten(q)
        assert err.value.witness is not None
        assert not err.value.witness.is_zero()


class TestWeightAudit:
    def test_derham_single_bin(self):
        s = build_schouten(assemble_field(derham()))
        audit = total_weight_audit(s)
        assert audit.ok
        assert audit.histogram == {(-1, 2): 2}

    def test_lie_3_algebroid_four_bins(self):
        q = assemble_field(lie_3_algebroid_demo())
        for build in (build_schouten, build_poisson):
            audit = total_weight_audit(build(q))
            assert audit.ok
            assert set(audit.histogram) == {(1, 0), (0, 1), (-1, 2), (-2, 3)}

    def test_zero_structure_empty_histogram(self):
        c = chart_pi_e(MIXED)
        audit = total_weight_audit(build_schouten(VectorField(c, {})))
        assert audit.ok and audit.histogram == {}


class TestStrictness:
    def test_lie_algebroid_strict(self):
        assert is_strict(assemble_field(lie_algebroid_demo()))

    def test_graded_3_lie_strict(self):
        assert is_strict(assemble_field(graded_3_lie()))

    def test_constant_fibre_term_breaks_strictness(self):
        assert not is_strict(assemble_field(lie_3_algebroid_demo()))

    def test_zero_section_restriction_matches_strictness(self):
        for fac, strict in (
            (derham, True),
            (lie_algebroid_demo, True),
            (so3, True),
            (graded_3_lie, True),
            (lie_3_algebroid_demo, False),
        ):
            q = assemble_field(fac())
            s = build_schouten(q)
            p = build_poisson(q)
            assert is_strict(q) is strict
            assert s.restricted().is_zero() is strict
            assert p.restricted().is_zero() is strict


class TestNaturality:
    def test_identity(self):
        spec = so3()
        change = FibreChange(spec.presentation, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rep = chart_change_naturality(assemble_field(spec), change, rng=Random(0))
        assert rep.ok

    def test_diagonal_rank_one(self):
        # one-dimensional even fibre over a line with a de Rham style field
        b = BundlePresentation((0,), (0,))
        c = chart_pi_e(b)
        q = VectorField(c, {"x1": c.gen("xi1")})
        rep = chart_change_naturality(q, FibreChange(b, [[Fraction(2)]]), rng=Random(1))
        assert rep.ok

    def test_diagonal_and_permutation_so3(self):
        spec = so3()
        q = assemble_field(spec)
        for t in (
            [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        ):
            rep = chart_change_naturality(q, FibreChange(spec.presentation, t), rng=Random(2))
            assert rep.ok

    def test_general_invertible_on_mixed_fibre(self):
        spec = lie_3_algebroid_demo()
        # block structure: slots 1 and 3 are even, slot 2 is odd
        t = [
            [1, 0, 2],
            [0, Fraction(1, 3), 0],
            [1, 0, 3],
        ]
        change = FibreChange(spec.presentation, t)
        rep = chart_change_naturality(assemble_field(spec), change, rng=Random(3))
        assert rep.ok

    def test_rejects_parity_mixing(self):
        b = lie_3_algebroid_demo().presentation
        with pytest.raises(ParityMismatch):
            FibreChange(b, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_rejects_singular(self):
        b = so3().presentation
        with pytest.raises(GradedAlgebraError):
            FibreChange(b, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_rejects_a_change_of_another_bundle(self):
        q = assemble_field(so3())
        change = FibreChange(BundlePresentation((), (0, 0)), [[1, 0], [0, 1]])
        with pytest.raises(ChartMismatch):
            chart_change_naturality(q, change)


def _random_change(rng: Random, b: BundlePresentation) -> FibreChange:
    """A random invertible fibre change, block diagonal by parity."""
    par = b.fibre_parities
    while True:
        t = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if par[i] == par[j] else 0
              for j in range(b.rank)] for i in range(b.rank)]
        try:
            return FibreChange(b, t)
        except GradedAlgebraError:
            continue  # singular: draw again


class TestMorphismR:
    """Exchanges, lifted fibre changes and shears are one invertible record."""

    @staticmethod
    def records(rng: Random, b: BundlePresentation) -> list[MorphismR]:
        change = _random_change(rng, b)
        records = [even_dual_exchange(b), odd_dual_exchange(b)]
        for chart in all_charts(b).values():
            records.append(change.on(chart))
            shear = _shear(rng, chart, max_degree=2)
            if shear is not None:
                records.append(shear)
        return records

    def test_inverse_images_undo_images(self):
        rng = Random(47)
        for _ in range(40):
            for m in self.records(rng, random_presentation(rng)):
                for side in (m, m.inverse()):
                    assert set(side.images) == {g.name for g in side.domain.generators}
                    for name, image in side.images.items():
                        back = image.substitute(side.inverse_images, side.domain)
                        assert back == side.domain.gen(name), (side.domain.space, name)

    def test_inverse_pullback_undoes_pullback(self):
        rng = Random(53)
        for _ in range(40):
            for m in self.records(rng, random_presentation(rng)):
                f = random_poly(rng, m.domain, max_degree=3, n_terms=4)
                assert m.inverse().pullback(m.pullback(f)) == f, m.domain.space

    def test_inverse_conjugate_undoes_conjugate(self):
        rng = Random(59)
        for _ in range(40):
            for m in self.records(rng, random_presentation(rng)):
                if m.domain != m.codomain:
                    continue
                q = random_field(rng, m.domain, parity=rng.randint(0, 1), max_degree=2)
                assert m.inverse().conjugate(m.conjugate(q)) == q, m.domain.space

    def test_bad_image_raises_at_construction(self):
        chart = chart_pi_e(BundlePresentation((0,), (0,)))
        other = chart_pi_e(BundlePresentation((0,), (1,)))
        fixed = {g.name: chart.gen(g.name) for g in chart.generators}
        with pytest.raises(ParityMismatch):
            MorphismR(chart, chart, {**fixed, "xi1": chart.gen("x1")}, fixed)
        with pytest.raises(ParityMismatch):
            MorphismR(chart, chart, fixed, {**fixed, "x1": chart.gen("x1") + chart.gen("xi1")})
        with pytest.raises(ChartMismatch):
            MorphismR(chart, chart, {**fixed, "x1": other.gen("x1")}, fixed)

    def test_conjugate_needs_the_fields_own_chart(self):
        q = assemble_field(so3())
        with pytest.raises(ChartMismatch):
            even_dual_exchange(so3().presentation).conjugate(q)


def test_invert_matrix_round_trip():
    t = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(t)
    prod = [
        [sum(t[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


class TestTransportIdentity:
    """{S, f} agrees with the field action transported through the exchange."""

    def test_derham_coordinate_functions(self):
        q = assemble_field(derham())
        ex = even_dual_exchange(BundlePresentation((0, 0), (0, 0)))
        s = build_schouten(q)
        for name in ("x1", "x2"):
            f = chart_even_cotangent(q.chart).gen(name)
            lhs = canonical_poisson(s.value, ex.pullback(f), s.chart)
            from qalgebroid.charts import lift_to_phase

            qf = q(q.chart.gen(name))
            rhs = ex.pullback(lift_to_phase(qf, ex.domain))
            assert lhs == rhs

    def test_random_functions_both_flavors(self):
        rng = Random(31)
        q = assemble_field(lie_algebroid_demo())
        b = BundlePresentation((0,), (0, 0))
        ex_even = even_dual_exchange(b)
        ex_odd = odd_dual_exchange(b)
        s = build_schouten(q)
        p = build_poisson(q)
        from qalgebroid.charts import lift_to_phase

        for _ in range(40):
            f = random_poly(rng, q.chart, 3, 3)
            lifted = lift_to_phase(f, ex_even.domain)
            lhs = canonical_poisson(s.value, ex_even.pullback(lifted), s.chart)
            rhs = ex_even.pullback(lift_to_phase(q(f), ex_even.domain))
            assert lhs == rhs
            lifted_o = lift_to_phase(f, ex_odd.domain)
            lhs_o = canonical_schouten(p.value, ex_odd.pullback(lifted_o), p.chart)
            rhs_o = ex_odd.pullback(lift_to_phase(q(f), ex_odd.domain))
            assert lhs_o == rhs_o
