"""Seeded generators: reproducibility, homogeneity, exact homologicality."""

from random import Random

import pytest

from qalgebroid.charts import BundlePresentation, all_charts, chart_e_star, chart_pi_e
from qalgebroid.construction import build_poisson, build_schouten
from qalgebroid.fields import commutator, is_homological
from qalgebroid.gradedpoly import ODD, GradedPoly
from qalgebroid.homotopy import FieldEngine, PhaseEngine
from qalgebroid.randgen import (
    COEFF_POOL,
    random_homological_field,
    random_monomial,
    random_poly,
    random_presentation,
)

from random_inputs import random_field, random_homogeneous_poly

MIXED = BundlePresentation((0, 1), (0, 1))


def below(rng, n):
    """The draw rule: ``getrandbits(n.bit_length())``, redrawn while not below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def reference_random_monomial(rng, chart, max_degree, parity=None, attempts=60):
    """The previous ``random_monomial``, which drew through ``randint`` and
    ``randrange``."""
    gens = chart.generators
    if parity == ODD and not any(chart.odd_flags):
        return None
    for _ in range(attempts):
        degree = rng.randint(0, max_degree)
        exponents = {}
        total = 0
        par = 0
        while total < degree:
            g = gens[rng.randrange(len(gens))]
            if g.parity == ODD:
                if exponents.get(g.name):
                    total += 1  # discard the slot, odd squares vanish
                    continue
                exponents[g.name] = 1
                par ^= 1
            else:
                exponents[g.name] = exponents.get(g.name, 0) + 1
            total += 1
        if parity is None or par == parity:
            return exponents
    return None


def reference_random_poly(rng, chart, max_degree=3, n_terms=3, parity=None):
    """The previous ``random_poly``: one ``Chart.monomial`` per drawn term,
    each coefficient drawn by ``choice`` right after its monomial, summed."""
    drawn = (reference_random_monomial(rng, chart, max_degree, parity)
             for _ in range(n_terms))
    out = GradedPoly.sum(chart, (chart.monomial(expo, rng.choice(COEFF_POOL))
                                 for expo in drawn if expo is not None))
    if parity is not None and out.is_zero():
        for g in chart.generators:
            if g.parity == parity:
                return chart.gen(g.name)
    return out


def test_the_draw_rule_is_what_random_draws():
    # the seed contract: on this interpreter randrange, randint and choice
    # draw below n by the rule that randgen reads from getrandbits
    for n in range(1, 65):
        items = [object() for _ in range(n)]
        for seed in range(200):
            ours = Random(seed)
            drawn = [below(ours, n) for _ in range(5)]
            for draw in (lambda rng: rng.randrange(n), lambda rng: rng.randint(0, n - 1),
                         lambda rng: items.index(rng.choice(items))):
                theirs = Random(seed)
                assert [draw(theirs) for _ in range(5)] == drawn, (n, seed)
                assert theirs.getstate() == ours.getstate()


def test_random_poly_matches_the_reference():
    # same polynomial, same term order and coefficient types, same stream after
    draws = Random(83)
    for _ in range(300):
        chart = draws.choice(list(all_charts(random_presentation(draws)).values()))
        args = (chart, draws.randint(0, 4), draws.randint(0, 5), draws.choice([None, 0, 1]))
        seed = draws.randrange(10**6)
        new_rng, old_rng = Random(seed), Random(seed)
        new, old = random_poly(new_rng, *args), reference_random_poly(old_rng, *args)
        assert new.chart == old.chart
        assert [(m, c, type(c)) for m, c in new.terms.items()] == \
            [(m, c, type(c)) for m, c in old.terms.items()]
        assert new_rng.getstate() == old_rng.getstate()


def test_random_monomial_matches_the_reference():
    draws = Random(89)
    for _ in range(300):
        chart = draws.choice(list(all_charts(random_presentation(draws)).values()))
        args = (chart, draws.randint(0, 4), draws.choice([None, 0, 1]), draws.randint(1, 3))
        seed = draws.randrange(10**6)
        new_rng, old_rng = Random(seed), Random(seed)
        new = random_monomial(new_rng, *args)
        old = reference_random_monomial(old_rng, *args)
        assert new == old and (new is None or list(new) == list(old))
        assert new_rng.getstate() == old_rng.getstate()


def _outcome(draw, *args):
    try:
        return draw(*args)
    except ValueError:
        return ValueError


def test_a_chart_with_no_generator_matches_the_reference():
    # a drawn degree of 0 gives the empty monomial and a positive one raises,
    # so which of the two comes depends on the seed, as before
    empty = chart_pi_e(BundlePresentation((), ()))
    outcomes = set()
    for seed in range(40):
        for max_degree in (0, 1, 3):
            for parity in (None, 0, 1):
                new_rng, old_rng = Random(seed), Random(seed)
                new = _outcome(random_monomial, new_rng, empty, max_degree, parity)
                old = _outcome(reference_random_monomial, old_rng, empty, max_degree, parity)
                assert new == old and new_rng.getstate() == old_rng.getstate()
                outcomes.add(repr(new))
    assert outcomes == {"{}", "None", repr(ValueError)}
    for draw in (random_monomial, reference_random_monomial):
        with pytest.raises(ValueError):
            draw(Random(3), chart_pi_e(MIXED), -1)


def test_same_seed_same_stream():
    c = chart_pi_e(MIXED)
    a = [random_poly(Random(5), c, 3, 3) for _ in range(1)]
    b = [random_poly(Random(5), c, 3, 3) for _ in range(1)]
    assert a == b
    qa_ = random_homological_field(Random(7))
    qb_ = random_homological_field(Random(7))
    assert qa_.chart == qb_.chart and qa_ == qb_


def test_homogeneous_poly_really_is():
    rng = Random(13)
    c = chart_pi_e(MIXED)
    for _ in range(80):
        f = random_homogeneous_poly(rng, c, 4, 3)
        assert f.parity() is not None


def test_odd_request_on_an_all_even_chart_draws_nothing():
    # E* of an even fibre over an even base has no odd generator
    chart = chart_e_star(BundlePresentation((0,), (0, 0)))
    rng = Random(43)
    state = rng.getstate()
    assert random_monomial(rng, chart, 3, parity=ODD) is None
    assert rng.getstate() == state
    assert random_poly(rng, chart, 2, 2, parity=ODD).is_zero()


def test_random_field_parity_discipline():
    rng = Random(17)
    c = chart_pi_e(MIXED)
    for _ in range(40):
        parity = rng.randint(0, 1)
        x = random_field(rng, c, parity, 3)
        for name, comp in x.components.items():
            g = c.generator(name)
            assert comp.parity() == (parity + g.parity) & 1


def test_homological_fields_square_to_zero():
    rng = Random(19)
    for _ in range(25):
        q = random_homological_field(rng)
        assert q.parity == 1
        assert commutator(q, q).is_zero()
        assert is_homological(q)


def test_homological_fields_vary_in_shape():
    rng = Random(23)
    shapes = set()
    for _ in range(30):
        q = random_homological_field(rng)
        shapes.add((q.chart.n_base, len(q.chart.generators) - q.chart.n_base))
    assert len(shapes) >= 4


def ambient_projector(eng):
    """``project`` lands in V and ``prepare`` includes V, so their composite
    ``prepare(project(.))`` is the projector of the ambient algebra."""
    return lambda f: eng.prepare(eng.project(f))


class TestEngineInvariants:
    def test_project_inverts_prepare(self):
        rng = Random(19)
        for seed in range(6):
            q = random_homological_field(Random(seed), max_base=1, max_rank=2)
            for eng in (PhaseEngine(build_schouten(q)), PhaseEngine(build_poisson(q))):
                for _ in range(10):
                    a = random_homogeneous_poly(rng, eng.parent, 3, 3)
                    assert eng.project(eng.prepare(a)) == a
            point = random_homological_field(Random(seed), max_base=0, max_rank=3)
            eng = FieldEngine(point)
            for _ in range(10):
                p = rng.randint(0, 1)
                a = eng.sum([b.scaled(rng.choice(COEFF_POOL))
                             for b in eng.basis if b.parity == p and rng.random() < 0.7])
                assert eng.project(eng.prepare(a)) == a

    def test_projector_idempotent_and_image_abelian(self):
        rng = Random(29)
        q = random_homological_field(Random(31), max_base=1, max_rank=2)
        s = build_schouten(q)
        p = build_poisson(q)
        for eng in (PhaseEngine(s), PhaseEngine(p)):
            proj = ambient_projector(eng)
            for _ in range(30):
                f = random_homogeneous_poly(rng, eng.chart, 3, 3)
                once = proj(f)
                assert proj(once) == once
                g = random_homogeneous_poly(rng, eng.chart, 3, 3)
                assert eng.bracket(proj(f), proj(g)).is_zero()

    def test_distributivity_random_pairs(self):
        rng = Random(37)
        q = random_homological_field(Random(41), max_base=1, max_rank=2)
        s = build_schouten(q)
        eng = PhaseEngine(s)
        proj = ambient_projector(eng)
        for _ in range(40):
            a = random_homogeneous_poly(rng, eng.chart, 3, 2)
            b = random_homogeneous_poly(rng, eng.chart, 3, 2)
            lhs = proj(eng.bracket(a, b))
            rhs = proj(eng.bracket(proj(a), b)) + proj(eng.bracket(a, proj(b)))
            assert lhs == rhs
