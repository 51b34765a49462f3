"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is an identity over the rationals; "tolerance" everywhere means
literal equality of normal forms.  Each test prints one line on success so a
verbose run doubles as the acceptance report.
"""

from itertools import combinations_with_replacement, product
from random import Random

import pytest

from qalgebroid.builtins import (
    BUILTINS,
    builtin_spec,
    mixed_linfinity_algebra,
    so3_broken,
)
from qalgebroid.charts import (
    BundlePresentation,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    restrict_to_zero_section,
)
from qalgebroid.construction import (
    FibreChange,
    build_poisson,
    build_poisson_unchecked,
    build_schouten,
    build_schouten_unchecked,
    chart_change_naturality,
    even_dual_exchange,
    is_strict,
    odd_dual_exchange,
    total_weight_audit,
)
from qalgebroid.fields import (
    canonical_poisson,
    canonical_schouten,
    commutator,
    even_symbol,
    odd_symbol,
)
from qalgebroid.gradedpoly import ODD
from qalgebroid.homotopy import (
    FieldEngine,
    PhaseEngine,
    higher_bracket,
    jacobiator,
    leibniz_check,
    weight_one_restriction_check,
)
from qalgebroid.randgen import (
    random_homological_field,
    random_poly,
    random_presentation,
)
from qalgebroid.specdoc import assemble_field

from closed_forms import closed_form
from random_inputs import random_field

MIXED = BundlePresentation((0, 1), (0, 1))


def _all_builtin_fields():
    return {name: assemble_field(builtin_spec(name)) for name in BUILTINS}


@pytest.fixture(scope="module")
def builtin_fields():
    return _all_builtin_fields()


@pytest.fixture(scope="module")
def random_homological_sample():
    rng = Random(20260808)
    return [random_homological_field(rng, max_base=2, max_rank=3, max_degree=3)
            for _ in range(50)]


def test_criterion_1_golden_derham(builtin_fields):
    """S and P of the derham builtin match the printed formulas byte for byte."""
    q = builtin_fields["derham"]
    s = build_schouten(q)
    p = build_poisson(q)
    sc, pc = s.chart, p.chart
    base_parities = [g.parity for g in q.chart.generators[: q.chart.n_base]]
    expected_s = sc.zero()
    expected_p = pc.zero()
    for i, par in enumerate(base_parities):
        sign = -1 if par == ODD else 1
        expected_s = expected_s + (sc.gen(f"pi{i + 1}") * sc.gen(f"p{i + 1}")).scaled(sign)
        expected_p = expected_p + pc.gen(f"estar{i + 1}") * pc.gen(f"xstar{i + 1}")
    assert s.value == expected_s and s.render() == expected_s.render()
    assert p.value == expected_p and p.render() == expected_p.render()
    assert s.render() == "pi1*p1 + pi2*p2"
    assert p.render() == "estar1*xstar1 + estar2*xstar2"
    print("[ACCEPT] criterion 1: PASS - derham S and P reproduce the printed forms")


def test_criterion_2_self_commuting(builtin_fields, random_homological_sample):
    """{S,S} = 0 and [[P,P]] = 0 for every builtin and 50 random fields."""
    count = 0
    for q in list(builtin_fields.values()) + random_homological_sample:
        s = build_schouten(q)
        p = build_poisson(q)
        assert s.self_bracket.is_zero()
        assert p.self_bracket.is_zero()
        count += 1
    assert count >= 56
    print(f"[ACCEPT] criterion 2: PASS - exact self-commutation on {count} fields")


def test_criterion_3_weight_grading(builtin_fields, random_homological_sample):
    """Every term of every S and P sits in bi-weight (1-n, n), total one."""
    checked = 0
    for q in list(builtin_fields.values()) + random_homological_sample:
        for h in (build_schouten(q), build_poisson(q)):
            histogram, violations = total_weight_audit(h)
            assert not violations, violations
            for (w1, w2) in histogram:
                assert w1 + w2 == 1 and w2 >= 0 and w1 == 1 - w2
            checked += 1
    print(f"[ACCEPT] criterion 3: PASS - weight audits clean on {checked} structures")


def test_criterion_4_symbol_homomorphism():
    """Principal symbols intertwine commutators with the canonical brackets."""
    rng = Random(101)
    even_chart = chart_even_cotangent(chart_pi_e(MIXED))
    odd_chart = chart_odd_cotangent(chart_pi_e(MIXED))
    pie = chart_pi_e(MIXED)
    for trial in range(100):
        x = random_field(rng, pie, rng.randint(0, 1), 3, fill=0.6)
        y = random_field(rng, pie, rng.randint(0, 1), 3, fill=0.6)
        assert even_symbol(commutator(x, y), even_chart) == canonical_poisson(
            even_symbol(x, even_chart), even_symbol(y, even_chart), even_chart
        )
    for trial in range(100):
        x = random_field(rng, pie, rng.randint(0, 1), 3, fill=0.6)
        y = random_field(rng, pie, rng.randint(0, 1), 3, fill=0.6)
        assert odd_symbol(commutator(x, y), odd_chart) == canonical_schouten(
            odd_symbol(x, odd_chart), odd_symbol(y, odd_chart), odd_chart
        )
    print("[ACCEPT] criterion 4: PASS - 100 exact pairs per symbol")


def test_criterion_5_exchange_symplectomorphisms():
    """Both dual exchanges preserve their canonical brackets exactly: on every
    ordered generator pair, which is complete, and on random pairs as the
    oracle."""
    rng = Random(103)
    presentations = [MIXED] + [random_presentation(rng) for _ in range(20)]
    for b in presentations:
        assert even_dual_exchange(b).bracket_witness(canonical_poisson) is None, b
        assert odd_dual_exchange(b).bracket_witness(canonical_schouten) is None, b
    ex_even = even_dual_exchange(MIXED)
    ex_odd = odd_dual_exchange(MIXED)
    for trial in range(100):
        f = random_poly(rng, ex_even.domain, 3, 3)
        g = random_poly(rng, ex_even.domain, 3, 3)
        assert ex_even.pullback(canonical_poisson(f, g, ex_even.domain)) == (
            canonical_poisson(ex_even.pullback(f), ex_even.pullback(g), ex_even.codomain)
        )
    for trial in range(100):
        f = random_poly(rng, ex_odd.domain, 3, 3)
        g = random_poly(rng, ex_odd.domain, 3, 3)
        assert ex_odd.pullback(canonical_schouten(f, g, ex_odd.domain)) == (
            canonical_schouten(ex_odd.pullback(f), ex_odd.pullback(g), ex_odd.codomain)
        )
    print(f"[ACCEPT] criterion 5: PASS - every generator pair on {len(presentations)} "
          "presentations and 100 exact random pairs per exchange")


def test_criterion_6_jacobiator_two_way(builtin_fields):
    """Unshuffle Jacobiators equal the squared-generator route, n <= 4.

    jacobiator() asserts the two-way equality internally on every call; the
    loop also checks vanishing for the homological fixtures and nonvanishing
    for the deliberately broken control.
    """
    fixtures = dict(builtin_fields)
    fixtures["mixed-linfinity-algebra"] = assemble_field(mixed_linfinity_algebra())
    evaluations = 0
    for name, q in fixtures.items():
        s = build_schouten(q)
        p = build_poisson(q)
        for eng, family in ((PhaseEngine(s), "eta"), (PhaseEngine(p), "e")):
            parent = eng.parent
            names = parent.fibre_names() + parent.base_names()
            for n in range(0, 5):
                for tup in combinations_with_replacement(range(len(names)), n):
                    v = jacobiator(eng, [parent.gen(names[i]) for i in tup])
                    assert v.is_zero(), (name, n, tup)
                    evaluations += 1
        if q.chart.n_base == 0:
            fe = FieldEngine(q)
            for n in range(0, 5):
                for tup in combinations_with_replacement(
                    range(len(q.chart.generators)), n
                ):
                    v = jacobiator(fe, [fe.basis[i] for i in tup])
                    assert v.is_zero()
                    evaluations += 1

    qb = assemble_field(so3_broken())
    assert not commutator(qb, qb).is_zero()
    sb = build_schouten_unchecked(qb)
    pb = build_poisson_unchecked(qb)
    eng_s, eng_p, fe = PhaseEngine(sb), PhaseEngine(pb), FieldEngine(qb)
    ds, dp = eng_s.parent, eng_p.parent
    v = jacobiator(eng_s, [ds.gen(n) for n in ("eta1", "eta2", "eta3")])
    assert not v.is_zero()
    v = jacobiator(eng_p, [dp.gen(n) for n in ("e1", "e2", "e3")])
    assert not v.is_zero()
    v = jacobiator(fe, [fe.basis[i] for i in (0, 1, 2)])
    assert not v.is_zero()
    for n in range(0, 5):
        for tup in combinations_with_replacement(range(3), n):
            jacobiator(eng_s, [ds.gen(f"eta{i + 1}") for i in tup])
            jacobiator(eng_p, [dp.gen(f"e{i + 1}") for i in tup])
            evaluations += 2
    print(f"[ACCEPT] criterion 6: PASS - {evaluations} two-way Jacobiators, "
          "negative control nonzero and equal both ways")


def test_criterion_7_zero_bracket(builtin_fields):
    """Strict inputs restrict to zero on the zero section; non-strict do not."""
    strict_names = [
        "derham", "lie-algebroid-demo", "so3", "graded-3-lie",
        "higher-poisson-on-algebroid",
    ]
    for name in strict_names:
        q = builtin_fields[name]
        assert is_strict(q)
        assert restrict_to_zero_section(build_schouten(q).value).is_zero()
        assert restrict_to_zero_section(build_poisson(q).value).is_zero()
    q = builtin_fields["lie-3-algebroid-demo"]
    assert not is_strict(q)
    assert not restrict_to_zero_section(build_schouten(q).value).is_zero()
    assert not restrict_to_zero_section(build_poisson(q).value).is_zero()
    print("[ACCEPT] criterion 7: PASS - zero-bracket vanishing tracks strictness")


def test_criterion_8_statement(builtin_fields):
    """Weight-one restriction reproduces the input brackets, arities <= 4."""
    for name in ("so3", "graded-3-lie"):
        q = builtin_fields[name]
        s = build_schouten(q)
        p = build_poisson(q)
        per_arity, details = weight_one_restriction_check(q, s, p, max_arity=4)
        assert all(per_arity.values()), details
        assert set(per_arity) == {0, 1, 2, 3, 4}
    print("[ACCEPT] criterion 8: PASS - statement holds for so3 and graded-3-lie")


def test_criterion_9_closed_forms():
    """Nested evaluation equals the closed bracket formulas with their signs."""
    q = assemble_field(mixed_linfinity_algebra())
    fibre_parities = [(g.parity + 1) & 1 for g in q.chart.generators]
    assert 0 in fibre_parities and 1 in fibre_parities  # both parities present
    s = build_schouten(q)
    p = build_poisson(q)
    dual_s = PhaseEngine(s).parent
    dual_p = PhaseEngine(p).parent
    n = len(q.chart.generators)
    checked = 0
    for r in (1, 2, 3):
        for tup in product(range(n), repeat=r):
            args = [dual_s.gen(f"eta{i + 1}") for i in tup]
            assert higher_bracket(PhaseEngine(s), args) == closed_form(
                "schouten", q, dual_s, args
            )
            argsp = [dual_p.gen(f"e{i + 1}") for i in tup]
            assert higher_bracket(PhaseEngine(p), argsp) == closed_form(
                "poisson", q, dual_p, argsp
            )
            checked += 2
    print(f"[ACCEPT] criterion 9: PASS - {checked} closed-form agreements")


def test_criterion_10_leibniz(builtin_fields):
    """Multiderivation identities exact on 100 random inputs per arity."""
    rng = Random(107)
    q = builtin_fields["lie-3-algebroid-demo"]
    s = build_schouten(q)
    p = build_poisson(q)
    parent_s = PhaseEngine(s).parent
    parent_p = PhaseEngine(p).parent
    for arity in (1, 2, 3):
        failures = leibniz_check(
            lambda a: higher_bracket(PhaseEngine(s), a),
            parent_s, "schouten", arity, 100, rng,
        )
        assert not failures, failures[:1]
        failures = leibniz_check(
            lambda a: higher_bracket(PhaseEngine(p), a),
            parent_p, "poisson", arity, 100, rng,
        )
        assert not failures, failures[:1]

    def fake_bracket(args):
        out = parent_s.one()
        for a in args:
            out = out * a
        return out

    failures = leibniz_check(fake_bracket, parent_s, "schouten", 2, 25, rng)
    assert failures
    print("[ACCEPT] criterion 10: PASS - 100 exact trials per arity and flavor, "
          "negative control produced a witness")


def test_criterion_11_naturality(builtin_fields):
    """Identity, diagonal and permutation fibre changes commute with the build."""
    from fractions import Fraction

    q = builtin_fields["so3"]
    matrices = {
        "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "diagonal": [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]],
        "permutation": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    }
    for label, t in matrices.items():
        change = FibreChange(BundlePresentation((), (0, 0, 0)), t)
        checks = chart_change_naturality(q, change)
        assert all(ok for _, ok, _ in checks), (label, checks)
    print("[ACCEPT] criterion 11: PASS - all three fibre changes commute exactly")
