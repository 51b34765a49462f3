"""The structure pipeline: exchanges, S and P, weights, strictness, naturality."""

from fractions import Fraction
from random import Random

import pytest

from qalgebroid import construction, gradedpoly
from qalgebroid.builtins import (
    FIXTURES,
    builtin_spec,
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
    chart_e_star,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    chart_pi_e_star,
    restrict_to_zero_section,
)
from qalgebroid.construction import (
    FibreChange,
    HigherStructure,
    MorphismR,
    build_poisson,
    build_poisson_unchecked,
    build_schouten,
    build_schouten_unchecked,
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
    even_symbol,
    is_homological,
    odd_symbol,
)
from qalgebroid.gradedpoly import ChartMismatch, GradedAlgebraError, ParityMismatch
from qalgebroid.randgen import (
    _shear,
    random_homological_field,
    random_poly,
    random_presentation,
)
from qalgebroid.specdoc import assemble_field

from closed_forms import structure_constant
from random_inputs import random_field

MIXED = BundlePresentation((0, 1), (0, 1))


def _drawn_presentations(rng: Random, count: int) -> list[BundlePresentation]:
    """Random presentations with one or two base coordinates."""
    return [BundlePresentation(tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2))),
                               random_presentation(rng).fibre_parities)
            for _ in range(count)]


def _sampled_bracket_verdict(m: MorphismR, bracket, rng: Random, pairs: int = 25) -> bool:
    """Oracle for ``bracket_witness``: the bracket identity on ``pairs``
    random pairs of cubics, the route naturality used to sample."""
    for _ in range(pairs):
        f = random_poly(rng, m.domain, max_degree=3, n_terms=3)
        g = random_poly(rng, m.domain, max_degree=3, n_terms=3)
        if bracket(m.pullback(f), m.pullback(g), m.codomain) != m.pullback(bracket(f, g, m.domain)):
            return False
    return True


def reference_bracket_witness(m: MorphismR, bracket) -> tuple[str, str] | None:
    """The previous ``bracket_witness``: every ordered generator pair, rows in
    generator order, 2k^2 brackets on k generators."""
    domain, codomain = m.domain, m.codomain
    for a in domain.generators:
        for b in domain.generators:
            lhs = bracket(m.images[a.name], m.images[b.name], codomain)
            rhs = m.pullback(bracket(domain.gen(a.name), domain.gen(b.name), domain))
            if lhs != rhs:
                return a.name, b.name
    return None


def _phase_charts(b: BundlePresentation):
    """The four phase charts of ``b``, each with its canonical bracket."""
    return [(chart, canonical_poisson if chart.space.startswith("T*") else canonical_schouten)
            for chart in all_charts(b).values() if chart.is_phase]


def _scaled(chart, name: str, factor) -> MorphismR:
    """The algebra automorphism of ``chart`` that scales one generator."""
    fixed = {g.name: chart.gen(g.name) for g in chart.generators}
    return MorphismR(chart, chart, {**fixed, name: fixed[name].scaled(factor)},
                     {**fixed, name: fixed[name].scaled(Fraction(1, factor))})


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
        for b in _drawn_presentations(rng, 20):
            assert even_dual_exchange(b).bracket_witness(canonical_poisson) is None, b
        ex = even_dual_exchange(MIXED)
        assert ex.bracket_witness(canonical_poisson) is None
        # oracle: the same identity on random polynomial pairs
        for _ in range(100):
            f = random_poly(rng, ex.domain, 3, 3)
            g = random_poly(rng, ex.domain, 3, 3)
            lhs = ex.pullback(canonical_poisson(f, g, ex.domain))
            rhs = canonical_poisson(ex.pullback(f), ex.pullback(g), ex.codomain)
            assert lhs == rhs

    def test_odd_exchange_is_symplectomorphism(self):
        rng = Random(29)
        for b in _drawn_presentations(rng, 20):
            assert odd_dual_exchange(b).bracket_witness(canonical_schouten) is None, b
        ex = odd_dual_exchange(MIXED)
        assert ex.bracket_witness(canonical_schouten) is None
        # oracle: the same identity on random polynomial pairs
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
        off_pie = VectorField(chart_pi_e_star(so3().presentation), {})
        with pytest.raises(ChartMismatch, match="the homological field must live on a PiE chart"):
            build_schouten(off_pie)


class TestWeightAudit:
    def test_derham_single_bin(self):
        s = build_schouten(assemble_field(derham()))
        histogram, violations = total_weight_audit(s)
        assert not violations
        assert histogram == {(-1, 2): 2}

    def test_lie_3_algebroid_four_bins(self):
        q = assemble_field(lie_3_algebroid_demo())
        for build in (build_schouten, build_poisson):
            histogram, violations = total_weight_audit(build(q))
            assert not violations
            assert set(histogram) == {(1, 0), (0, 1), (-1, 2), (-2, 3)}

    def test_zero_structure_empty_histogram(self):
        c = chart_pi_e(MIXED)
        assert total_weight_audit(build_schouten(VectorField(c, {}))) == ({}, [])

    def test_a_constant_term_is_one_violation(self):
        s = build_schouten(assemble_field(so3()))
        broken = HigherStructure(s.value + s.chart.one(), s.flavor, s.self_bracket)
        histogram, violations = total_weight_audit(broken)
        assert histogram == {(-1, 2): 3, (0, 0): 1}
        assert violations == ["term 1 has bi-weight (0, 0)"]


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
            assert restrict_to_zero_section(s.value).is_zero() is strict
            assert restrict_to_zero_section(p.value).is_zero() is strict
        with pytest.raises(ChartMismatch, match="strictness is read off a base-fibre chart"):
            is_strict(VectorField(chart_even_cotangent(q.chart), {}))


class TestNaturality:
    def test_identity(self):
        spec = so3()
        change = FibreChange(spec.presentation, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        checks = chart_change_naturality(assemble_field(spec), change)
        assert all(ok for _, ok, _ in checks)

    def test_diagonal_rank_one(self):
        # one-dimensional even fibre over a line with a de Rham style field
        b = BundlePresentation((0,), (0,))
        c = chart_pi_e(b)
        q = VectorField(c, {"x1": c.gen("xi1")})
        checks = chart_change_naturality(q, FibreChange(b, [[Fraction(2)]]))
        assert all(ok for _, ok, _ in checks)

    def test_diagonal_and_permutation_so3(self):
        spec = so3()
        q = assemble_field(spec)
        for t in (
            [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        ):
            checks = chart_change_naturality(q, FibreChange(spec.presentation, t))
            assert all(ok for _, ok, _ in checks)

    def test_general_invertible_on_mixed_fibre(self):
        spec = lie_3_algebroid_demo()
        # block structure: slots 1 and 3 are even, slot 2 is odd
        t = [
            [1, 0, 2],
            [0, Fraction(1, 3), 0],
            [1, 0, 3],
        ]
        change = FibreChange(spec.presentation, t)
        checks = chart_change_naturality(assemble_field(spec), change)
        assert all(ok for _, ok, _ in checks)

    def test_lifted_whole_entries_stay_int(self):
        b = BundlePresentation((0,), (0, 0))
        lift = FibreChange(b, [[2, 0], [0, 1]]).on(chart_pi_e(b))
        assert lift.images["xi1"].terms == {((1, 1),): 2}
        assert lift.inverse_images["xi1"].terms == {((1, 1),): Fraction(1, 2)}
        for images in (lift.images, lift.inverse_images):
            for poly in images.values():
                for c in poly.terms.values():
                    assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)

    def test_rejects_parity_mixing(self):
        b = lie_3_algebroid_demo().presentation
        with pytest.raises(ParityMismatch):
            FibreChange(b, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_rejects_singular(self):
        b = so3().presentation
        with pytest.raises(GradedAlgebraError):
            FibreChange(b, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_generator_pairs_agree_with_sampled_pairs(self):
        # random invertible block-diagonal T over presentations with base
        # coordinates: both lifts pass the exhaustive check and the oracle
        rng = Random(61)
        for b in _drawn_presentations(rng, 12):
            change = _random_change(rng, b)
            for chart, bracket in ((chart_even_cotangent(chart_pi_e_star(b)), canonical_poisson),
                                   (chart_odd_cotangent(chart_e_star(b)), canonical_schouten)):
                lift = change.on(chart)
                witness = lift.bracket_witness(bracket)
                assert (witness is None) == _sampled_bracket_verdict(lift, bracket, rng), (b, witness)
                assert witness is None
                assert witness == reference_bracket_witness(lift, bracket)

    def test_sampled_failures_are_generator_pair_failures(self):
        # shears are algebra automorphisms that mostly break the bracket; the
        # sample can miss a failure, never find one the generator pairs miss
        rng = Random(67)
        found = sampled = 0
        for b in _drawn_presentations(rng, 12):
            for chart, bracket in ((chart_even_cotangent(chart_pi_e_star(b)), canonical_poisson),
                                   (chart_odd_cotangent(chart_e_star(b)), canonical_schouten)):
                shear = _shear(rng, chart, max_degree=2)
                witness = shear.bracket_witness(bracket)
                assert witness == reference_bracket_witness(shear, bracket)
                sampled_ok = _sampled_bracket_verdict(shear, bracket, rng)
                assert witness is not None or sampled_ok
                found += witness is not None
                sampled += not sampled_ok
        assert found > 12 and sampled > 12

    def test_non_symplectic_automorphism_names_a_generator_pair(self):
        # xi1 -> 2 xi1 with pi1 fixed is an invertible algebra map that
        # doubles {pi1, xi1}
        chart = chart_even_cotangent(chart_pi_e(MIXED))
        m = _scaled(chart, "xi1", 2)
        assert m.bracket_witness(canonical_poisson) == ("xi1", "pi1")
        assert not _sampled_bracket_verdict(m, canonical_poisson, Random(71))

    def test_scaled_records_name_the_pair_of_the_ordered_loop(self):
        # one generator scaled on each phase chart: the first failing ordered
        # pair has its row at or before its column, and both walks name it
        rng = Random(73)
        named = set()
        for b in [MIXED, *_drawn_presentations(rng, 6)]:
            for chart, bracket in _phase_charts(b):
                for g in chart.generators:
                    m = _scaled(chart, g.name, rng.choice([2, -1, Fraction(1, 3)]))
                    witness = m.bracket_witness(bracket)
                    assert witness is not None and witness == reference_bracket_witness(m, bracket)
                    named.add(witness[0] == witness[1])
        assert named == {False}  # a scaled generator fails with its conjugate

    def test_composite_records_name_the_pair_of_the_ordered_loop(self):
        # a fibre-change lift followed by a shear: images of several terms
        rng = Random(79)
        found = 0
        for b in _drawn_presentations(rng, 10):
            change = _random_change(rng, b)
            for chart, bracket in _phase_charts(b):
                lift, shear = change.on(chart), _shear(rng, chart, max_degree=2)
                images = {name: shear.pullback(img) for name, img in lift.images.items()}
                m = MorphismR(chart, chart, images)
                witness = m.bracket_witness(bracket)
                assert witness == reference_bracket_witness(m, bracket)
                found += witness is not None
        assert found > 10

    def test_brackets_per_record(self):
        # k(k+1) brackets on a k-generator chart when the change passes:
        # k(k+1)/2 unordered pairs, one bracket on each side
        rng = Random(97)
        for b in [MIXED, *_drawn_presentations(rng, 8)]:
            change = _random_change(rng, b)
            records = [(even_dual_exchange(b), canonical_poisson),
                       (odd_dual_exchange(b), canonical_schouten),
                       *((change.on(chart), bracket) for chart, bracket in _phase_charts(b))]
            for m, bracket in records:
                made = []

                def counted(f, g, chart, bracket=bracket):
                    made.append(chart)
                    return bracket(f, g, chart)

                assert m.bracket_witness(counted) is None
                k = len(m.domain.generators)
                assert len(made) == k * (k + 1)
                if m.domain != m.codomain:
                    assert made.count(m.domain) == made.count(m.codomain) == k * (k + 1) // 2

    def test_naturality_reports_a_non_symplectic_lift(self, monkeypatch):
        # a lift of the even phase chart that scales eta1: the even check
        # fails with a generator pair, the odd one still passes
        on = FibreChange.on
        monkeypatch.setattr(FibreChange, "on", lambda self, chart: (
            _scaled(chart, "eta1", 2) if chart.space == "T*(PiE*)" else on(self, chart)))
        spec = so3()
        change = FibreChange(spec.presentation, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        checks = {name: (ok, detail) for name, ok, detail in
                  chart_change_naturality(assemble_field(spec), change)}
        ok, detail = checks["even lift symplectomorphism"]
        assert not ok and detail.startswith("failed on generator pair ")
        assert checks["odd lift symplectomorphism"] == (True, "")

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
        # substituting each map into the other gives every generator back;
        # checking generators is complete, since both maps are algebra maps
        rng = Random(47)
        fixed = [MIXED, *(fac().presentation for fac in (so3, lie_3_algebroid_demo, derham))]
        for b in fixed + [random_presentation(rng) for _ in range(40)]:
            records = self.records(rng, b)
            assert {m.domain.space for m in records} >= set(all_charts(b))
            for m in records:
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

    def test_replace_checks_as_the_constructor(self):
        chart = chart_pi_e(BundlePresentation((0,), (0,)))
        fixed = {g.name: chart.gen(g.name) for g in chart.generators}
        m = MorphismR(chart, chart, fixed, fixed)
        with pytest.raises(ParityMismatch):
            m._replace(images={**fixed, "xi1": chart.gen("x1")})

    def test_conjugate_needs_the_fields_own_chart(self):
        q = assemble_field(so3())
        exchange = even_dual_exchange(so3().presentation)
        with pytest.raises(ChartMismatch):
            exchange.conjugate(q)
        with pytest.raises(ChartMismatch, match=r"pullback expects functions on T\*\(PiE\)"):
            exchange.pullback(exchange.codomain.one())

    def test_one_way_record_has_no_inverse(self):
        chart = chart_pi_e(MIXED)
        fixed = {g.name: chart.gen(g.name) for g in chart.generators}
        m = MorphismR(chart, chart, fixed)
        assert m.inverse_images is None
        f = random_poly(Random(101), chart, 3, 3)
        assert m.pullback(f) == f
        with pytest.raises(GradedAlgebraError, match="one-way"):
            m.inverse()
        with pytest.raises(GradedAlgebraError, match="one-way"):
            m.conjugate(VectorField(chart, {"x1": chart.gen("xi1")}))


class TestExchangeRecords:
    """An exchange reads its relabellings off as it makes its images."""

    @pytest.mark.parametrize("invertible", [False, True], ids=["one-way", "invertible"])
    @pytest.mark.parametrize("name", ["even", "odd"])
    def test_relabel_is_the_decoded_images(self, name, invertible):
        make = construction._even_exchange if name == "even" else construction._odd_exchange
        rng = Random(211)
        bases = set()
        for _ in range(40):
            b = random_presentation(rng, max_base=3, max_rank=4)
            bases.add(len(b.base_parities))
            phi = make(chart_pi_e(b), b, invertible)
            records = [(phi.domain, phi.images, phi.codomain)]
            if invertible:
                records.append((phi.codomain, phi.inverse_images, phi.domain))
            else:
                assert phi.inverse_images is None
            for source, images, target in records:
                assert images.relabel is not None
                assert images.relabel == gradedpoly._relabelling(source, images, target)
        assert {0, 3} <= bases

    @pytest.mark.parametrize("invertible", [False, True], ids=["one-way", "invertible"])
    @pytest.mark.parametrize("name, renamed", [("even", {"x": "eta"}), ("odd", {"x": "xstar"})])
    def test_a_change_of_parity_is_refused(self, monkeypatch, name, renamed, invertible):
        # x1 is even, and eta1 and xstar1 are odd
        exchange = construction._exchange
        monkeypatch.setattr(construction, "_exchange", lambda domain, codomain, rename, *rest:
                            exchange(domain, codomain, {**rename, **renamed}, *rest))
        make = construction._even_exchange if name == "even" else construction._odd_exchange
        b = BundlePresentation((0,), (0,))
        with pytest.raises(ParityMismatch):
            make(chart_pi_e(b), b, invertible)

    def test_a_repeated_target_is_no_relabelling(self):
        # xi and pi both go to eta, of their parity: the images are checked
        # one by one, as for any substitution
        b = BundlePresentation((0,), (0, 1))
        domain, codomain = chart_even_cotangent(chart_pi_e(b)), chart_even_cotangent(
            chart_pi_e_star(b))
        phi = construction._exchange(domain, codomain, {"xi": "eta", "pi": "eta"},
                                     lambda g: False, False)
        assert phi.images.relabel is None
        assert gradedpoly._relabelling(domain, phi.images, codomain) is None
        f = domain.gen("xi1") * domain.gen("x1") + domain.gen("pi1")
        assert phi.pullback(f) == codomain.gen("eta1") * codomain.gen("x1") + codomain.gen("eta1")


class TestOneWayBuild:
    """A build pulls back through a one-way exchange on the field's own chart."""

    def test_one_build_makes_one_relabelling(self, monkeypatch):
        """The one-way exchange's relabelling is made with its images, and no
        image is decoded again."""
        made, decoded = [], []
        relabelling = gradedpoly._relabelling
        monkeypatch.setattr(gradedpoly, "_relabelling",
                            lambda *args: decoded.append(args[0].space) or relabelling(*args))
        monkeypatch.setattr(construction, "CheckedImages", lambda images, source, *rest: (
            made.append(source.space) or gradedpoly.CheckedImages(images, source, *rest)))
        q = assemble_field(so3())
        for build in (build_schouten, build_poisson, build_schouten_unchecked,
                      build_poisson_unchecked):
            made.clear()
            build(q)
            assert len(made) == 1 and decoded == [], (made, decoded)

    def test_builds_equal_the_two_way_pullback(self):
        rng = Random(103)
        fields = [assemble_field(builtin_spec(name)) for name in FIXTURES]
        fields += [random_homological_field(rng) for _ in range(50)]
        for q in fields:
            b = BundlePresentation(tuple(g.parity for g in q.chart.generators[:q.chart.n_base]),
                                   tuple(1 - g.parity for g in q.chart.generators[q.chart.n_base:]))
            gated = is_homological(q)
            for build, exchange, symbol in (
                    (build_schouten if gated else build_schouten_unchecked, even_dual_exchange,
                     even_symbol),
                    (build_poisson if gated else build_poisson_unchecked, odd_dual_exchange,
                     odd_symbol)):
                two_way = exchange(b)
                h = build(q)
                assert h.chart == two_way.codomain
                assert h.value == two_way.pullback(symbol(q, two_way.domain))


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
