"""Chart construction: parities, bi-weights, conjugates, restriction."""

from fractions import Fraction

import pytest

from qalgebroid.charts import (
    BundlePresentation,
    all_charts,
    chart_e_star,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    chart_pi_e_star,
    describe_chart,
    lift_to_phase,
    restrict_to_zero_section,
)
from qalgebroid.gradedpoly import (
    ChartMismatch,
    GradedAlgebraError,
    Generator,
    ParityMismatch,
    UnknownGenerator,
)
from qalgebroid.randgen import random_poly
from random import Random

MIXED = BundlePresentation((0, 1), (0, 1))


def table(chart):
    return {g.name: (g.parity, g.weight) for g in chart.generators}


class TestBaseFibreCharts:
    def test_pie_parities_and_weights(self):
        t = table(chart_pi_e(MIXED))
        assert t["x1"] == (0, (0, 0))
        assert t["x2"] == (1, (0, 0))
        assert t["xi1"] == (1, (-1, 1))   # fibre parity 0 flips to odd
        assert t["xi2"] == (0, (-1, 1))
        with pytest.raises(GradedAlgebraError, match="parities must be 0 or 1"):
            BundlePresentation((0,), (2,))
        with pytest.raises(ParityMismatch, match="parity of y must be 0 or 1"):
            Generator("y", 2, (0, 0))

    def test_replace_refuses_as_the_constructor(self):
        assert MIXED._replace(fibre_parities=(1,)) == BundlePresentation((0, 1), (1,))
        with pytest.raises(GradedAlgebraError, match="parities must be 0 or 1"):
            MIXED._replace(fibre_parities=(2,))
        with pytest.raises(ParityMismatch, match="parity of y must be 0 or 1"):
            Generator("y", 0, (0, 0))._replace(parity=2)

    def test_pure_fibre_chart(self):
        c = chart_pi_e(BundlePresentation((), (0, 0, 0)))
        assert c.base_names() == []
        assert [g.name for g in c.generators] == ["xi1", "xi2", "xi3"]

    def test_empty_bundle(self):
        c = chart_pi_e(BundlePresentation((), ()))
        assert c.generators == ()

    def test_pie_star_and_e_star(self):
        ts = table(chart_pi_e_star(MIXED))
        assert ts["eta1"] == (1, (1, 0))
        assert ts["eta2"] == (0, (1, 0))
        te = table(chart_e_star(MIXED))
        assert te["e1"] == (0, (1, 0))
        assert te["e2"] == (1, (1, 0))


class TestPhaseCharts:
    def test_even_cotangent_of_pie_star(self):
        t = table(chart_even_cotangent(chart_pi_e_star(MIXED)))
        assert t["eta1"] == (1, (1, 0))
        assert t["p1"] == (0, (0, 1))
        assert t["p2"] == (1, (0, 1))
        assert t["pi1"] == (1, (-1, 1))

    def test_even_cotangent_of_pie(self):
        t = table(chart_even_cotangent(chart_pi_e(MIXED)))
        assert t["xi1"] == (1, (-1, 1))
        assert t["pi1"] == (1, (1, 0))
        assert t["p1"] == (0, (0, 1))

    def test_odd_cotangent_of_e_star(self):
        t = table(chart_odd_cotangent(chart_e_star(MIXED)))
        assert t["e1"] == (0, (1, 0))
        assert t["xstar1"] == (1, (0, 1))
        assert t["xstar2"] == (0, (0, 1))
        assert t["estar1"] == (1, (-1, 1))
        assert t["estar2"] == (0, (-1, 1))

    def test_odd_cotangent_of_pie(self):
        t = table(chart_odd_cotangent(chart_pi_e(MIXED)))
        assert t["xistar1"] == (0, (1, 0))
        assert t["xistar2"] == (1, (1, 0))

    def test_conjugate_weight_rule(self):
        # every conjugate pair sums to bi-weight (0, 1)
        for chart in all_charts(MIXED).values():
            if not chart.is_phase:
                continue
            for zi, ci in chart.conjugate_pairs():
                wz = chart.generators[zi].weight
                wc = chart.generators[ci].weight
                assert (wz[0] + wc[0], wz[1] + wc[1]) == (0, 1)

    def test_double_cotangent_rejected(self):
        phase = chart_even_cotangent(chart_pi_e(MIXED))
        with pytest.raises(ChartMismatch):
            chart_even_cotangent(phase)

    def test_empty_phase(self):
        phase = chart_even_cotangent(chart_pi_e(BundlePresentation((), ())))
        assert phase.generators == ()

    def test_no_phase_chart_outside_the_table(self):
        # T*(E*) and PiT*(PiE*) are not among the seven charts: their fibre
        # coordinates have no conjugate rule
        with pytest.raises(GradedAlgebraError, match="no conjugate rule"):
            chart_even_cotangent(chart_e_star(MIXED))
        with pytest.raises(GradedAlgebraError, match="no conjugate rule"):
            chart_odd_cotangent(chart_pi_e_star(MIXED))


class TestRestriction:
    def test_kills_conjugates(self):
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        f = (
            phase.gen("eta1")
            + phase.gen("pi1") * phase.gen("p1") * phase.gen("x1")
        )
        parent = chart_pi_e_star(MIXED)
        assert restrict_to_zero_section(f) == parent.gen("eta1")

    def test_identity_without_conjugates(self):
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        parent = chart_pi_e_star(MIXED)
        f = parent.gen("x1") * parent.gen("eta2")
        assert restrict_to_zero_section(lift_to_phase(f, phase)) == f

    def test_is_algebra_homomorphism(self):
        rng = Random(5)
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        for _ in range(60):
            f = random_poly(rng, phase, 3, 3)
            g = random_poly(rng, phase, 3, 3)
            lhs = restrict_to_zero_section(f * g)
            rhs = restrict_to_zero_section(f) * restrict_to_zero_section(g)
            assert lhs == rhs

    def test_requires_phase_chart(self):
        pie = chart_pi_e(MIXED)
        with pytest.raises(ChartMismatch):
            restrict_to_zero_section(pie.one())
        with pytest.raises(ChartMismatch, match="PiE is not a phase-space chart"):
            pie.conjugate_pairs()
        with pytest.raises(ChartMismatch, match="PiE has no parent chart"):
            pie.parent_chart()
        with pytest.raises(ChartMismatch, match="PiE is not a phase space"):
            lift_to_phase(pie.one(), pie)
        phase = chart_even_cotangent(chart_pi_e_star(MIXED))
        with pytest.raises(ChartMismatch, match=r"PiE is not the parent of T\*\(PiE\*\)"):
            lift_to_phase(pie.one(), phase)


def test_describe_is_aligned_text():
    out = describe_chart(chart_even_cotangent(chart_pi_e_star(MIXED)))
    assert "T*(PiE*)" in out
    assert "(-1, 1)" in out
    lines = out.splitlines()
    assert len(lines) == 2 + 8  # header + column row + eight generators


class TestChartEquality:
    def test_separately_built_charts_are_equal_with_equal_hashes(self):
        for name, chart in all_charts(MIXED).items():
            again = all_charts(MIXED)[name]
            assert again is not chart
            assert again == chart and hash(again) == hash(chart)
            assert chart == chart

    def test_parent_is_not_compared(self):
        # a phase chart is compared, hashed and shown by its generators, kind,
        # space and base count, not by the chart it was built from
        phase = chart_even_cotangent(chart_pi_e(MIXED))
        other = type(phase)(phase.generators, phase.kind, phase.space, phase.n_base,
                            parent=chart_pi_e_star(MIXED))
        assert other.parent != phase.parent
        assert other == phase and hash(other) == hash(phase) and repr(other) == repr(phase)

    def test_differing_field_breaks_equality(self):
        chart = chart_pi_e(MIXED)
        renamed = type(chart)(chart.generators, chart.kind, "other", chart.n_base)
        assert renamed != chart
        extra = chart.generators + (Generator("y", 0, (0, 0), "x"),)
        assert type(chart)(extra, chart.kind, chart.space, chart.n_base) != chart
        assert chart != "PiE"
        twice = chart.generators + chart.generators[:1]
        with pytest.raises(GradedAlgebraError, match="duplicate generator names on PiE"):
            type(chart)(twice, chart.kind, chart.space, chart.n_base)

    @pytest.mark.parametrize("where", ["first-and-last", "adjacent", "other-parity", "phase"])
    def test_duplicate_generator_name_is_refused(self, where):
        phase = chart_odd_cotangent(chart_e_star(MIXED))
        chart = phase if where == "phase" else chart_pi_e(MIXED)
        gens = list(chart.generators)
        if where == "first-and-last":
            gens[-1] = gens[-1]._replace(name=gens[0].name)
        elif where == "adjacent":
            gens.insert(1, gens[0])
        elif where == "other-parity":
            gens.append(gens[0]._replace(parity=1 - gens[0].parity))
        else:  # a conjugate named as a coordinate of the parent chart
            gens[-1] = gens[-1]._replace(name="e2")
        with pytest.raises(GradedAlgebraError, match=f"duplicate generator names on {chart.space}"):
            type(chart)(tuple(gens), chart.kind, chart.space, chart.n_base, chart.parent)

    def test_every_name_indexes_its_generator(self):
        for chart in all_charts(MIXED).values():
            assert [chart.index_of(g.name) for g in chart.generators] == list(
                range(len(chart.generators)))

    def test_sum_across_charts_raises(self):
        pe, pes = chart_pi_e(MIXED), chart_pi_e_star(MIXED)
        with pytest.raises(ChartMismatch):
            pe.gen("x1") + pes.gen("x1")


class TestMonomial:
    """``Chart.monomial`` on PiE of MIXED: x1 even, x2 odd, xi1 odd, xi2 even."""

    def test_names_in_any_order(self):
        chart = chart_pi_e(MIXED)
        assert chart.monomial({"xi2": 3, "x2": 1, "x1": 2}, -5).terms == {
            ((0, 2), (1, 1), (3, 3)): -5}
        assert chart.monomial({"x1": 0, "xi1": 1}).terms == {((2, 1),): 1}

    def test_coefficients(self):
        chart = chart_pi_e(MIXED)
        half = Fraction(1, 2)
        (c,) = chart.monomial({"x1": 1}, half).terms.values()
        assert c is half
        (c,) = chart.monomial({"x1": 1}, Fraction(4, 2)).terms.values()
        assert type(c) is int and c == 2
        assert chart.monomial({"x1": 1}, Fraction(0)).is_zero()

    def test_unknown_name_is_refused_first(self):
        chart = chart_pi_e(MIXED)
        with pytest.raises(UnknownGenerator, match="y is not a generator"):
            chart.monomial({"x1": -1, "y": 1})

    def test_exponents_are_checked_in_chart_order(self):
        chart = chart_pi_e(MIXED)
        # x1 (negative) comes before xi1 (odd, squared)
        with pytest.raises(GradedAlgebraError, match="negative exponent"):
            chart.monomial({"xi1": 2, "x1": -1})
        # x2 (odd, squared) comes before xi2 (negative)
        assert chart.monomial({"xi2": -1, "x2": 2}).is_zero()
