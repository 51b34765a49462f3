"""Derived brackets, Jacobiators, Leibniz rules, tables, anchors, statement."""

import json
import re
from itertools import combinations, combinations_with_replacement, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalgebroid.builtins import (
    BUILTINS,
    builtin_spec,
    derham,
    graded_3_lie,
    higher_poisson_on_algebroid,
    lie_3_algebroid_demo,
    lie_algebroid_demo,
    mixed_linfinity_algebra,
    so3,
    so3_broken,
)
from qalgebroid.charts import (
    BundlePresentation,
    chart_e_star,
    chart_pi_e,
    chart_pi_e_star,
    lift_to_phase,
    restrict_to_zero_section,
)
from qalgebroid.construction import (
    HigherStructure,
    build_poisson,
    build_poisson_unchecked,
    build_schouten,
    build_schouten_unchecked,
)
from qalgebroid.fields import VectorField, commutator
from qalgebroid.gradedpoly import (
    EVEN,
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    coefficient,
)
from qalgebroid.homotopy import (
    FieldEngine,
    PhaseEngine,
    higher_anchor,
    higher_bracket,
    jacobiator,
    jacobiator_sweep,
    leibniz_check,
    leibniz_exponent,
    poisson_bracket_table,
    schouten_bracket_table,
    skew_bracket_table,
    symmetric_field_table,
    unshuffle_weight,
    weight_one_restriction_check,
    _skew_sign,
    _table_metadata,
    _transport_value,
)
from qalgebroid.randgen import (
    COEFF_POOL,
    random_homological_field,
    random_poly,
    random_presentation,
)
from qalgebroid.specdoc import assemble_field, render_spec, spec_from_field

from clirun import invoke
from closed_forms import closed_form, structure_constant
from random_inputs import random_field, random_homogeneous_poly
from test_randgen import reference_random_poly

# property tests run a fixed example sequence, so the suite stays deterministic
PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)
MIXED = BundlePresentation((0, 1), (0, 1))


@pytest.fixture(scope="module")
def so3_pair():
    q = assemble_field(so3())
    return q, build_schouten(q), build_poisson(q)


@pytest.fixture(scope="module")
def mixed_pair():
    q = assemble_field(mixed_linfinity_algebra())
    return q, build_schouten(q), build_poisson(q)


def ambient_projector(eng):
    """``project`` lands in V and ``prepare`` includes V, so their composite
    ``prepare(project(.))`` is the projector of the ambient algebra."""
    return lambda f: eng.prepare(eng.project(f))


class TestStructureConstants:
    def test_so3_extraction(self, so3_pair):
        q, _, _ = so3_pair
        i1, i2, i3 = (q.chart.index_of(f"xi{k}") for k in (1, 2, 3))
        assert structure_constant(q, "xi3", (i1, i2)).constant_term() == -1
        assert structure_constant(q, "xi3", (i2, i1)).constant_term() == 1
        assert structure_constant(q, "xi1", (i2, i3)).constant_term() == -1
        assert structure_constant(q, "xi2", (i1, i3)).constant_term() == 1

    def test_graded_symmetry_of_extraction(self, mixed_pair):
        # exchanging adjacent indices multiplies by (-1)^(xi parities)
        q, _, _ = mixed_pair
        chart = q.chart
        idx = [chart.index_of(n) for n in ("xi1", "xi2", "xi3")]
        for a, b in product(idx, idx):
            if a == b:
                continue
            for target in ("xi1", "xi2", "xi3"):
                ab = structure_constant(q, target, (a, b))
                ba = structure_constant(q, target, (b, a))
                sign = (
                    -1
                    if chart.generators[a].parity and chart.generators[b].parity
                    else 1
                )
                assert ab == ba.scaled(sign)


class TestDerivedBrackets:
    def test_base_functions_commute_under_derham(self):
        q = assemble_field(derham())
        s = build_schouten(q)
        parent = PhaseEngine(s).parent
        x, y = parent.gen("x1"), parent.gen("x2")
        assert higher_bracket(PhaseEngine(s), [x, y]).is_zero()

    def test_so3_fundamental_binary(self, so3_pair):
        _, s, _ = so3_pair
        dual = PhaseEngine(s).parent
        value = higher_bracket(PhaseEngine(s), [dual.gen("eta1"), dual.gen("eta2")])
        assert value == -dual.gen("eta3")

    def test_so3_poisson_binary(self, so3_pair):
        _, _, p = so3_pair
        dual = PhaseEngine(p).parent
        value = higher_bracket(PhaseEngine(p), [dual.gen("e1"), dual.gen("e2")])
        assert value == dual.gen("e3")

    def test_zero_bracket_strict_input(self, so3_pair):
        q, s, p = so3_pair
        assert higher_bracket(PhaseEngine(s), []).is_zero()
        assert higher_bracket(PhaseEngine(p), []).is_zero()

    def test_bracket_with_constant_vanishes(self, so3_pair):
        _, s, p = so3_pair
        dual_s = PhaseEngine(s).parent
        dual_p = PhaseEngine(p).parent
        assert higher_bracket(PhaseEngine(s), [dual_s.gen("eta1"), dual_s.one()]).is_zero()
        assert higher_bracket(PhaseEngine(p), [dual_p.gen("e1"), dual_p.one()]).is_zero()

    def test_graded_symmetry_random_swaps(self, mixed_pair):
        q, s, _ = mixed_pair
        eng = PhaseEngine(s)
        dual = eng.parent
        rng = Random(41)
        for _ in range(60):
            r = rng.randint(2, 3)
            args = [
                random_homogeneous_poly(rng, dual, 2, 2) for _ in range(r)
            ]
            i = rng.randrange(r - 1)
            swapped = list(args)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            sign = (
                -1
                if args[i].parity() and args[i + 1].parity()
                else 1
            )
            lhs = higher_bracket(PhaseEngine(s), args)
            rhs = higher_bracket(PhaseEngine(s), swapped).scaled(sign)
            assert lhs == rhs

    def test_output_weight_drop(self, mixed_pair):
        # an r-bracket of fibre-weight-homogeneous inputs drops w1 by r - 1
        q, s, _ = mixed_pair
        dual = PhaseEngine(s).parent
        for r in (1, 2, 3):
            for tup in combinations_with_replacement(range(3), r):
                args = [dual.gen(f"eta{i + 1}") for i in tup]
                value = higher_bracket(PhaseEngine(s), args)
                if value.is_zero():
                    continue
                w = value.weight()
                assert w is not None and w[0] == r + (1 - r)  # inputs r, drop r-1

    def test_output_weight_drop_random_monomials(self):
        # same drop rule for arbitrary monomial arguments, both flavors
        q = assemble_field(lie_algebroid_demo())
        s = build_schouten(q)
        p = build_poisson(q)
        rng = Random(67)
        for s_or_p in (s, p):
            dual = PhaseEngine(s_or_p).parent
            for _ in range(40):
                r = rng.randint(1, 3)
                args = [random_poly(rng, dual, 3, 1) for _ in range(r)]
                if any(a.is_zero() for a in args):
                    continue
                value = higher_bracket(PhaseEngine(s_or_p), args)
                if value.is_zero():
                    continue
                w_in = sum(a.weight()[0] for a in args)
                assert value.weight() is not None
                assert value.weight()[0] == w_in + (1 - r)

    def test_engine_distributivity(self, so3_pair, mixed_pair):
        rng = Random(43)
        for q, s, p in (so3_pair, mixed_pair):
            for eng in (PhaseEngine(s), PhaseEngine(p)):
                proj = ambient_projector(eng)
                for _ in range(25):
                    a = random_homogeneous_poly(rng, eng.chart, 2, 2)
                    b = random_homogeneous_poly(rng, eng.chart, 2, 2)
                    lhs = proj(eng.bracket(a, b))
                    rhs = proj(eng.bracket(proj(a), b)) + proj(eng.bracket(a, proj(b)))
                    assert lhs == rhs


class TestDerhamGeneratesCanonicalBrackets:
    """The tangent-bundle fixture generates the canonical brackets on the base.

    The derived binary brackets agree with the canonical ones on the base's
    cotangent charts up to the classical dictionary: the odd bracket picks up
    (-1)^(f+1) relative to the derived pair, the even one a global flip.
    """

    def _setup(self):
        q = assemble_field(derham())
        s = build_schouten(q)
        p = build_poisson(q)
        base = chart_pi_e(BundlePresentation((0, 0), ()))
        from qalgebroid.charts import chart_even_cotangent, chart_odd_cotangent

        pit = chart_odd_cotangent(base)
        t = chart_even_cotangent(base)
        ren_s = {
            "x1": pit.gen("x1"), "x2": pit.gen("x2"),
            "eta1": pit.gen("xstar1"), "eta2": pit.gen("xstar2"),
        }
        ren_p = {
            "x1": t.gen("x1"), "x2": t.gen("x2"),
            "e1": t.gen("p1"), "e2": t.gen("p2"),
        }
        return s, p, pit, t, ren_s, ren_p

    def test_odd_side_is_multivector_bracket(self):
        from qalgebroid.fields import canonical_schouten

        s, _, pit, _, ren_s, _ = self._setup()
        dual = PhaseEngine(s).parent
        rng = Random(71)
        for _ in range(60):
            f = random_homogeneous_poly(rng, dual, 3, 2)
            g = random_homogeneous_poly(rng, dual, 3, 2)
            sign = 1 if f.parity() else -1
            lhs = higher_bracket(PhaseEngine(s), [f, g]).substitute(ren_s, pit).scaled(sign)
            rhs = canonical_schouten(
                f.substitute(ren_s, pit), g.substitute(ren_s, pit), pit
            )
            assert lhs == rhs

    def test_even_side_is_cotangent_bracket(self):
        from qalgebroid.fields import canonical_poisson

        _, p, _, t, _, ren_p = self._setup()
        dual = PhaseEngine(p).parent
        rng = Random(73)
        for _ in range(60):
            f = random_homogeneous_poly(rng, dual, 3, 2)
            g = random_homogeneous_poly(rng, dual, 3, 2)
            lhs = higher_bracket(PhaseEngine(p), [f, g]).substitute(ren_p, t).scaled(-1)
            rhs = canonical_poisson(
                f.substitute(ren_p, t), g.substitute(ren_p, t), t
            )
            assert lhs == rhs


class TestErrorPaths:
    def test_engine_flavor_mismatch(self, so3_pair):
        # the engine takes its flavour from the structure and refuses one it
        # has no bracket for
        _, s, p = so3_pair
        assert PhaseEngine(s).flavor == "schouten"
        assert PhaseEngine(p).flavor == "poisson"
        for h in (s, p):
            with pytest.raises(GradedAlgebraError, match="unknown flavor"):
                PhaseEngine(HigherStructure(h.value, "hamilton", h.self_bracket))

    def test_argument_with_momenta_rejected(self, so3_pair):
        _, s, _ = so3_pair
        eng = PhaseEngine(s)
        bad = eng.chart.gen("pi1")
        with pytest.raises(ChartMismatch, match="parent chart"):
            eng.derived([bad])

    def test_lifted_argument_rejected(self, so3_pair):
        # arguments live on the parent chart only, even a momentum-free
        # function already lifted to the phase chart
        _, s, p = so3_pair
        for eng, name in ((PhaseEngine(s), "eta1"), (PhaseEngine(p), "e1")):
            lifted = lift_to_phase(eng.parent.gen(name), eng.chart)
            assert max(lifted.support()) < len(eng.parent.generators)  # no conjugate
            with pytest.raises(ChartMismatch, match=re.escape(f"parent chart {eng.parent.space},")):
                eng.derived([lifted])
            with pytest.raises(ChartMismatch, match="parent chart"):
                eng.derived([lifted], generator=eng.generator())

    def test_field_engine_needs_point_base(self):
        q = assemble_field(lie_algebroid_demo())
        with pytest.raises(GradedAlgebraError):
            FieldEngine(q)

    def test_closed_forms_need_point_base(self):
        q = assemble_field(lie_algebroid_demo())
        s = build_schouten(q)
        dual = PhaseEngine(s).parent
        with pytest.raises(GradedAlgebraError):
            closed_form("schouten", q, dual, [dual.gen("eta1")])

    def test_statement_needs_point_base(self):
        q = assemble_field(lie_algebroid_demo())
        s, p = build_schouten(q), build_poisson(q)
        with pytest.raises(GradedAlgebraError):
            weight_one_restriction_check(q, s, p, 2)


class TestTransportOfDifferential:
    def test_unary_bracket_matches_field_action(self):
        # for weight-one arguments the 1-bracket reproduces the input
        # differential transported through the dual exchange
        q = assemble_field(mixed_linfinity_algebra())
        s = build_schouten(q)
        dual = PhaseEngine(s).parent
        n = len(q.chart.generators)
        for i in range(n):
            lhs = higher_bracket(PhaseEngine(s), [dual.gen(f"eta{i + 1}")])
            rhs = closed_form("schouten", q, dual, [dual.gen(f"eta{i + 1}")])
            assert lhs == rhs


class TestJacobiators:
    def test_vanish_on_homological_fixtures(self):
        for fac in (so3, graded_3_lie, mixed_linfinity_algebra):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            eng_s, eng_p = PhaseEngine(s), PhaseEngine(p)
            fe = FieldEngine(q)
            dual_s, dual_p = eng_s.parent, eng_p.parent
            n = len(q.chart.generators)
            for r in range(0, 5):
                for tup in combinations_with_replacement(range(n), r):
                    v = jacobiator(eng_s, [dual_s.gen(f"eta{i + 1}") for i in tup])
                    assert v.is_zero()
                    v = jacobiator(eng_p, [dual_p.gen(f"e{i + 1}") for i in tup])
                    assert v.is_zero()
                    v = jacobiator(fe, [fe.basis[i] for i in tup])
                    assert v.is_zero()

    def test_vanish_on_algebroid_fixtures(self):
        for fac in (derham, lie_algebroid_demo, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            eng_s, eng_p = PhaseEngine(s), PhaseEngine(p)
            dual_s, dual_p = eng_s.parent, eng_p.parent
            names_s = dual_s.fibre_names() + dual_s.base_names()
            names_p = dual_p.fibre_names() + dual_p.base_names()
            for r in range(0, 4):
                for tup in combinations_with_replacement(range(len(names_s)), r):
                    v = jacobiator(eng_s, [dual_s.gen(names_s[i]) for i in tup])
                    assert v.is_zero()
                    v = jacobiator(eng_p, [dual_p.gen(names_p[i]) for i in tup])
                    assert v.is_zero()

    def test_negative_control_nonzero_and_two_way(self):
        q = assemble_field(so3_broken())
        assert not commutator(q, q).is_zero()
        s = build_schouten_unchecked(q)
        p = build_poisson_unchecked(q)
        eng_s, eng_p = PhaseEngine(s), PhaseEngine(p)
        fe = FieldEngine(q)
        dual_s, dual_p = eng_s.parent, eng_p.parent
        # the two-way agreement is asserted inside jacobiator for every call
        v = jacobiator(eng_s, [dual_s.gen(n) for n in ("eta1", "eta2", "eta3")])
        assert v == -(-dual_s.gen("eta2"))  # = eta2
        v = jacobiator(eng_p, [dual_p.gen(n) for n in ("e1", "e2", "e3")])
        assert v == dual_p.gen("e2")
        v = jacobiator(fe, [fe.basis[i] for i in (0, 1, 2)])
        assert [v.component(g.name).constant_term() for g in fe.chart.generators] == [0, 1, 0]

    def test_squared_generators_of_the_negative_control_hold_ints(self):
        # halving an even self-bracket with scaled(1/2) stores whole results
        # as int, so the squared route multiplies no whole-valued Fraction
        q = assemble_field(so3_broken())
        half = FieldEngine(q).squared_generator()
        coeffs = [c for comp in half.components.values() for c in comp.terms.values()]
        assert coeffs and all(type(c) is int for c in coeffs)
        for h in (build_schouten_unchecked(q), build_poisson_unchecked(q)):
            half = PhaseEngine(h).squared_generator()
            assert half.terms and all(type(c) is int for c in half.terms.values())

    def test_two_way_on_random_polynomial_args(self):
        rng = Random(47)
        q = assemble_field(so3_broken())
        s = build_schouten_unchecked(q)
        eng = PhaseEngine(s)
        dual = eng.parent
        for n in (1, 2, 3):
            for _ in range(10):
                args = [random_homogeneous_poly(rng, dual, 2, 2) for _ in range(n)]
                jacobiator(eng, args)  # raises on any disagreement

    def test_unary_jacobiator_squares_differential(self):
        # arity 1 on a strict fixture: (J1 = 0) iff the 1-bracket squares to 0
        q = assemble_field(mixed_linfinity_algebra())
        s = build_schouten(q)
        eng = PhaseEngine(s)
        dual = eng.parent
        for i in range(3):
            v = jacobiator(eng, [dual.gen(f"eta{i + 1}")])
            assert v.is_zero()

    def test_field_engine_squares_q_once(self, monkeypatch):
        # an arity-3 sweep on so3 has 10 tuples; [Q,Q] is computed on the
        # first and kept on the field
        import qalgebroid.fields as fields

        squares = []

        def counting(x, y):
            if x is y:
                squares.append(x)
            return commutator(x, y)

        monkeypatch.setattr(fields, "commutator", counting)
        q = assemble_field(so3())
        fe = FieldEngine(q)
        basis = [fe.basis[i] for i in range(3)]
        for tup in combinations_with_replacement(range(3), 3):
            jacobiator(fe, [basis[i] for i in tup])
        assert len(squares) == 1


def koszul_sign(order: list[int], parities: list[int]) -> int:
    """Sign (+-1) for permuting homogeneous elements into ``order``.

    ``order`` lists original positions; each inverted pair contributes
    (-1)^(p_i p_j).
    """
    e = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                e += parities[order[a]] * parities[order[b]]
    return -1 if e & 1 else 1


def reference_jacobiator(engine, args):
    """The unshuffle sum by the nested definition, computed afresh per subset
    (an explicit generator bypasses the engine's memo)."""
    n = len(args)
    parities = [(engine.parity_of(a) + engine.koszul_shift) & 1 for a in args]
    gen = engine.generator()
    total = None
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            rest = [i for i in range(n) if i not in subset]
            inner = engine.derived([args[i] for i in subset], generator=gen)
            term = engine.derived([inner] + [args[i] for i in rest], generator=gen)
            term = term.scaled(koszul_sign(list(subset) + rest, parities))
            total = term if total is None else total + term
    return total


def random_odd_fields(seed: int, count: int) -> list[VectorField]:
    """Homological fields and, on the same charts, random odd fields (in
    general not homological); every other presentation is drawn without base
    coordinates, so the field engine applies to it."""
    rng = Random(seed)
    out = []
    for k in range(count):
        q = random_homological_field(rng, max_base=k % 2, max_rank=4, max_degree=3)
        out += [q, random_field(rng, q.chart, ODD, max_degree=3)]
    return out


def engines_and_bases(q: VectorField) -> list[tuple]:
    """Every engine of q with its basis: fibre and base coordinates, or the
    constant fields."""
    out = []
    for eng in (PhaseEngine(build_schouten_unchecked(q)),
                PhaseEngine(build_poisson_unchecked(q))):
        out.append((eng, eng.basis + [eng.parent.gen(x) for x in eng.parent.base_names()]))
    if q.chart.n_base == 0:
        fe = FieldEngine(q)
        out.append((fe, fe.basis))
    return out


class TestEngineMemo:
    def test_tables_match_the_nested_definition(self):
        for q in random_odd_fields(seed=21, count=4):
            for r in range(4):
                for h, table_of in (
                    (build_schouten_unchecked(q), schouten_bracket_table),
                    (build_poisson_unchecked(q), poisson_bracket_table),
                ):
                    table = table_of(h, r)
                    dual = h.chart.parent_chart()
                    for tup, value in table.entries.items():
                        args = [dual.gen(table.labels[i]) for i in tup]
                        assert value == higher_bracket(PhaseEngine(h), args)
                if q.chart.n_base:
                    continue
                fe = FieldEngine(q)
                n = len(q.chart.generators)
                for tup, value in symmetric_field_table(fe, r).entries.items():
                    nested = fe.derived([fe.basis[i] for i in tup], generator=fe.generator())
                    assert [value.terms.get(((j, 1),), 0) for j in range(n)] == [
                        nested.component(g.name).constant_term() for g in q.chart.generators]
                skew_bracket_table(fe, r)  # checks antisymmetry on swapped tuples

    def test_values_on_unsorted_keys_and_inner_values(self):
        rng = Random(17)
        for q in random_odd_fields(seed=9, count=2):
            for eng, basis in engines_and_bases(q):
                gen = eng.generator()
                for _ in range(12):
                    inner = [basis[rng.randrange(len(basis))] for _ in range(rng.randint(0, 2))]
                    rest = [basis[rng.randrange(len(basis))] for _ in range(rng.randint(0, 2))]
                    assert eng.derived(inner + rest) == eng.derived(inner + rest, generator=gen)
                    # a memo value fed back as an argument is registered like any other
                    args = [eng.derived(inner)] + rest
                    assert eng.derived(args) == eng.derived(args, generator=gen)

    def test_new_arguments_join_the_memo(self, so3_pair):
        _, s, _ = so3_pair
        eng = PhaseEngine(s)
        eta = [eng.parent.gen(f"eta{i + 1}") for i in range(3)]
        assert eng.positions([eta[1], eta[0], eta[1]]) == (0, 1, 0)
        assert eng.positions([eta[2], eta[1]]) == (2, 0)
        assert eng.value((0, 1)) == eng.derived([eta[1], eta[0]], generator=eng.generator())
        # an equal argument that is another object takes a new position
        assert eng.positions([eng.parent.gen("eta2")]) == (3,)

    def test_squared_route_stops_at_its_first_vanished_partial(self):
        # the route brackets while its partial is nonzero: none when the
        # squared generator is zero (a homological input), one to three per
        # ternary tuple otherwise; 84 brackets in all, where one per argument
        # took 738
        made, total = set(), 0
        for q in random_odd_fields(seed=13, count=4):
            for eng, basis in engines_and_bases(q):
                route = SquaredRouteCounter(eng)
                zero = eng.squared_generator().is_zero()
                for tup in combinations_with_replacement(range(len(basis)), 3):
                    before = route.brackets
                    jacobiator(eng, [basis[i] for i in tup])
                    count = route.brackets - before
                    assert count == 0 if zero else 1 <= count <= 3, (eng.flavor, tup)
                    made.add(count)
                total += route.brackets
        assert made == {0, 1, 2, 3} and total == 84

    @pytest.mark.parametrize("arity, brackets, values", [(3, 27, 45), (6, 0, 0)])
    def test_so3_sweep_bracket_count(self, monkeypatch, arity, brackets, values):
        # at arity 6 the nested definition per subset and tuple took 38136
        # brackets, a memo without the zero rule 3525; asking the memo for
        # all 2^6 subsets of every tuple took 6006 values; walking every
        # subset pruned by prefix took 615 brackets and 3150 values, walking
        # until a partial vanished 597 brackets and 717 values, and stopping
        # at length 2 15 brackets and 597 values.  Every generator of so3 has
        # degrees {2}: a subset of size k contributes only when k and
        # arity + 1 - k are both 2, so the sum visits subsets at arity 3
        # only, and none at arity 6
        import qalgebroid.homotopy as homotopy

        calls, values_asked = [], []
        for cls in (homotopy.PhaseEngine, homotopy.FieldEngine):
            def counting(self, f, g, _bracket=cls.bracket):
                calls.append(1)
                return _bracket(self, f, g)
            monkeypatch.setattr(cls, "bracket", counting)
        value = homotopy.DerivedBracketEngine.value
        monkeypatch.setattr(homotopy.DerivedBracketEngine, "value",
                            lambda self, key: values_asked.append(key) or value(self, key))
        result = invoke(["jacobiator", "so3", "--arity", str(arity), "--json"])
        assert result.exit_code == 0
        assert len(calls) == brackets
        assert len(values_asked) == values


def run_layouts(n: int):
    """Every way to cut n arguments into runs of consecutive equal ones, as
    the list of run lengths."""
    if n == 0:
        yield []
        return
    for cuts in product((False, True), repeat=n - 1):
        lengths = [1]
        for cut in cuts:
            if cut:
                lengths.append(1)
            else:
                lengths[-1] += 1
        yield lengths


class TestRepeatedArguments:
    """The unshuffle sum walks one canonical subset per run count, weighted
    by the signed count of its class; the sum over every subset is the oracle."""

    def test_weight_is_the_signed_count_of_its_class(self):
        cases, zero, multiple = 0, 0, 0
        for n in range(7):
            for lengths in run_layouts(n):
                run_of = [r for r, m in enumerate(lengths) for _ in range(m)]
                first = [sum(lengths[:r]) for r in range(len(lengths))]
                for pattern in product((0, 1), repeat=len(lengths)):
                    parities = [pattern[r] for r in run_of]
                    brute = {}
                    for k in range(n + 1):
                        for subset in combinations(range(n), k):
                            counts = tuple(sum(run_of[i] == r for i in subset)
                                           for r in range(len(lengths)))
                            rest = [i for i in range(n) if i not in subset]
                            brute[counts] = (brute.get(counts, 0)
                                             + koszul_sign(list(subset) + rest, parities))
                    for counts in product(*(range(m + 1) for m in lengths)):
                        weight, rest = unshuffle_weight(lengths, counts, pattern)
                        assert weight == brute[counts], (lengths, pattern, counts)
                        # the canonical subset takes the first copies of each run
                        assert rest == [i for i in range(n)
                                        if i - first[run_of[i]] >= counts[run_of[i]]]
                        cases += 1
                        zero += weight == 0
                        multiple += abs(weight) > 1
        assert cases == 23787 and zero and multiple

    def test_repeats_apart_and_equal_copies_match_the_reference(self):
        # a run of two copies has weight 2 with one copy chosen when it is
        # Koszul-even and 0 when it is odd (the Jacobiator then vanishes by
        # graded symmetry, but its terms do not); copies that are equal but
        # other objects take their own positions and form runs of their own
        layouts = [(0, 1, 0), (0, 0, 1), (0, 0, 1, 0), (1, 0, 1, 0, 0),
                   (0, 2, 0, 2), (2, 0, 0, 2)]
        flavors, nonzero = set(), 0
        for q in random_odd_fields(seed=9, count=2):
            for eng, basis in engines_and_bases(q):
                for a, b in combinations(range(len(basis)), 2):
                    # the copy of a is equal to it but another object
                    slots = [basis[a], basis[b], basis[a].scaled(1)]
                    assert slots[2] == slots[0] and slots[2] is not slots[0]
                    for layout in layouts:
                        args = [slots[j] for j in layout]
                        value = jacobiator(eng, args)
                        assert value == reference_jacobiator(eng, args), (
                            eng.flavor, a, b, layout)
                        nonzero += not value.is_zero()
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"} and nonzero


class TestKoszulParityMemo:
    """Each argument's Koszul parity is read off its kept parity."""

    @pytest.mark.parametrize("flavor", ["schouten", "poisson"])
    def test_a_sweep_scans_each_argument_once(self, so3_pair, monkeypatch, flavor):
        # the 15 tuples of an arity-4 sweep over 3 basis elements ask for 60
        # parities; each basis polynomial keeps its own, so its one monomial
        # is scanned once
        _, s, p = so3_pair
        eng = PhaseEngine(s if flavor == "schouten" else p)
        basis = eng.basis
        scanned = []
        monomial_parity = GradedPoly.monomial_parity
        monkeypatch.setattr(GradedPoly, "monomial_parity",
                            lambda self, m: scanned.append(self) or monomial_parity(self, m))
        for tup in combinations_with_replacement(range(3), 4):
            assert jacobiator(eng, [basis[i] for i in tup]).is_zero()
        assert sum(any(a is b for b in basis) for a in scanned) == 3

    def test_parities_are_asked_at_run_starts(self, monkeypatch):
        # every engine of an arity-6 so3-broken sweep asks once per run of
        # equal arguments: 63 runs in its 28 tuples, where one ask per
        # argument took 168.  Its squared generators are nonzero, so every
        # tuple is walked; so3's sweep at arity 6 visits none
        # (TestJacobiatorSweep)
        import qalgebroid.homotopy as homotopy

        asked = []
        for cls in (homotopy.PhaseEngine, homotopy.FieldEngine):
            def counting(self, a, _parity_of=cls.parity_of):
                asked.append(a)
                return _parity_of(self, a)
            monkeypatch.setattr(cls, "parity_of", counting)
        result = invoke(["jacobiator", "so3-broken", "--arity", "6", "--json"])
        assert result.exit_code == 1
        runs = sum(len(set(tup)) for tup in combinations_with_replacement(range(3), 6))
        assert len(asked) == 3 * runs == 189

    def test_mixed_parity_raises_in_jacobiator_only(self, so3_pair):
        _, s, _ = so3_pair
        eng = PhaseEngine(s)
        basis = eng.basis
        mixed = basis[0] + eng.parent.one()
        assert mixed.parity() is None
        fresh = PhaseEngine(s)
        # registering and bracketing a mixed argument is not an error
        assert eng.derived([mixed, basis[1]]) == fresh.derived([mixed, basis[1]])
        for _ in range(2):
            with pytest.raises(ParityMismatch):
                jacobiator(eng, [basis[1], mixed])
        assert jacobiator(eng, basis[:2]) == jacobiator(fresh, fresh.basis[:2])


def memo_depth_bound(eng) -> int:
    """The longest nonzero partial a walk can reach: the conjugate degree of
    a phase generator, the polynomial degree of a field's components."""
    gen = eng.generator()
    if eng.flavor == "field":
        monomials = [m for comp in gen.components.values() for m in comp.terms]
        return max((sum(e for _, e in m) for m in monomials), default=0)
    first_conjugate = len(eng.parent.generators)
    return max((sum(e for i, e in m if i >= first_conjugate) for m in gen.terms), default=0)


class TestZeroRule:
    """The memo walk stops at its first vanishing partial; the nested
    definition (``generator=``, no zero rule) is the oracle."""

    @staticmethod
    def fields():
        """Homological fields, with and without base coordinates, and random
        odd fields of degree up to 4 on their charts."""
        rng = Random(5)
        out = []
        for k in range(8):
            q = random_homological_field(rng, max_base=k % 2, max_rank=4, max_degree=3)
            out += [q, random_field(rng, q.chart, ODD, max_degree=4)]
        return out

    def test_memo_route_equals_the_nested_definition(self):
        flavors, stopped, deepest, based = set(), 0, 0, 0
        for q in self.fields():
            based += q.chart.n_base > 0
            for eng, basis in engines_and_bases(q):
                gen = eng.generator()
                # sorted tuples, shortest first: each walk extends a stored prefix
                for r in range(6):
                    for tup in combinations_with_replacement(range(len(basis)), r):
                        args = [basis[i] for i in tup]
                        assert eng.derived(args) == eng.derived(args, generator=gen), (
                            eng.flavor, tup)
                zeros = [key for key, v in eng._partial.items() if v.is_zero()]
                for key in eng._partial:
                    assert not any(len(z) < len(key) and key[:len(z)] == z for z in zeros)
                nonzero = [len(key) for key, v in eng._partial.items() if not v.is_zero()]
                bound = memo_depth_bound(eng)
                assert max(nonzero, default=0) <= bound
                assert max(map(len, eng._partial)) <= bound + 1
                stopped += sum(len(z) < 5 for z in zeros)
                deepest = max(deepest, max(nonzero, default=0))
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"} and based
        assert stopped and deepest >= 3  # walks did stop early, and partials nest

    def test_values_read_the_stored_partial(self, so3_pair):
        # S = pi1 pi2 eta3 - pi1 pi3 eta2 + pi2 pi3 eta1 has conjugate degree
        # 2 in every term: the value at (eta1, eta1) comes from the anchor
        # field of [S, eta1], and the values at lengths 1 and 3 are zero at
        # once, so [[S, eta1], eta1] is never made
        _, s, _ = so3_pair
        eng = PhaseEngine(s)
        assert eng.degrees == {2}
        assert eng.positions(eng.basis) == (0, 1, 2)
        for key in [(0,), (0, 0), (0, 0, 1)]:
            assert eng.value(key).is_zero()
        assert set(eng._partial) == {(), (0,)}

    @pytest.mark.parametrize("draw, arities", [
        pytest.param(lambda: random_odd_fields(seed=5, count=6), range(5), id="random-odd-fields"),
        pytest.param(lambda: TestZeroRule.fields(), range(6), id="zero-rule-fields"),
    ])
    def test_pruned_unshuffle_sum_equals_the_reference(self, draw, arities):
        # on a homological input both sides are zero whatever is pruned, so
        # the random odd fields, whose Jacobiators do not vanish, carry the test
        flavors, nonzero, based = set(), 0, 0
        for q in draw():
            based += q.chart.n_base > 0
            for eng, basis in engines_and_bases(q):
                for r in arities:
                    for tup in combinations_with_replacement(range(len(basis)), r):
                        args = [basis[i] for i in tup]
                        value = jacobiator(eng, args)
                        assert value == reference_jacobiator(eng, args), (eng.flavor, tup)
                        nonzero += not value.is_zero()
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"} and based and nonzero

    @pytest.mark.parametrize("arity, brackets", [(6, 192), (8, 300)])
    def test_squared_route_counts_on_so3_broken(self, monkeypatch, arity, brackets):
        # the squared-generator route brackets without the memo until its
        # partial vanishes; the squared generators of so3-broken are nonzero,
        # so it brackets on every tuple of the 3 engines.  One bracket per
        # argument took arity * C(arity + 2, arity) per engine, 504 and 1080
        import qalgebroid.homotopy as homotopy

        routes = []
        for cls in (homotopy.PhaseEngine, homotopy.FieldEngine):
            def counted_init(self, *args, _init=cls.__init__):
                _init(self, *args)
                routes.append(SquaredRouteCounter(self))
            monkeypatch.setattr(cls, "__init__", counted_init)
        result = invoke(["jacobiator", "so3-broken", "--arity", str(arity), "--json"])
        assert result.exit_code == 1
        assert len(routes) == 3
        assert [route.brackets for route in routes] == [brackets // 3] * 3


class TestDegreeSplit:
    """Half the self-bracket of a generator with term degrees D has its terms
    in degrees A(D) = {i + j - 1 : i, j in D}: the ambient bracket of a term
    of degree i with one of degree j loses one degree.  So its derived
    brackets vanish at every arity outside A(D), which is why the unshuffle
    sum needs only the sizes k with k and n + 1 - k in D.  The
    squared-generator route reads no degree set, so the check does not
    share the sum's assumption."""

    def test_squared_route_vanishes_outside_the_split_arities(self):
        # random odd fields of degree up to 4, half of them with a base
        # coordinate; a zero squared generator passes at once, so only the
        # tuples of a nonzero one are counted
        rng = Random(31)
        flavors, based, outside, inside = set(), 0, 0, 0
        for k in range(16):
            chart = chart_pi_e(random_presentation(rng, max_base=k % 2, max_rank=4))
            q = random_field(rng, chart, ODD, max_degree=4, fill=1.0)
            based += chart.n_base > 0
            for eng, basis in engines_and_bases(q):
                split = {i + j - 1 for i in eng.degrees for j in eng.degrees}
                square = eng.squared_generator()
                for r in range(6):
                    for tup in combinations_with_replacement(range(len(basis)), r):
                        value = eng.derived([basis[i] for i in tup], generator=square)
                        if r in split:
                            inside += not value.is_zero()
                        else:
                            assert value.is_zero(), (eng.flavor, sorted(eng.degrees), tup)
                            outside += not square.is_zero()
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"} and based
        assert outside == 577 and inside == 263


class TestJacobiatorSweep:
    """A sweep visits no tuple where both routes are zero by rule: no
    admissible inner size and a zero squared generator.  The oracle is
    ``jacobiator`` on every tuple, on a fresh engine."""

    @staticmethod
    def counting(monkeypatch):
        """Count the ``jacobiator`` calls a sweep makes."""
        import qalgebroid.homotopy as homotopy

        calls = []
        monkeypatch.setattr(homotopy, "jacobiator",
                            lambda eng, args, _j=homotopy.jacobiator:
                            calls.append(args) or _j(eng, args))
        return calls

    def test_a_skipped_arity_is_zero_on_every_tuple(self, monkeypatch):
        # homological draws, half of them with base coordinates; the oracle
        # also takes the base coordinates, which the sweep's basis leaves out
        calls = self.counting(monkeypatch)
        rng = Random(41)
        flavors, based, skipped, walked, zeros = set(), 0, 0, 0, 0
        for k in range(10):
            q = random_homological_field(rng, max_base=k % 2, max_rank=4, max_degree=3)
            based += q.chart.n_base > 0
            for (eng, _), (fresh, basis) in zip(engines_and_bases(q), engines_and_bases(q)):
                for r in range(7):
                    calls.clear()
                    last = jacobiator_sweep(eng, r)
                    if calls:
                        tuples = list(combinations_with_replacement(range(len(eng.basis)), r))
                        assert len(calls) == len(tuples), (eng.flavor, r)
                        walked += 1
                        expected = None
                        for tup in tuples:
                            value = jacobiator(fresh, [fresh.basis[i] for i in tup])
                            if not value.is_zero():
                                expected = (tup, value)
                        assert last == expected, (eng.flavor, r)
                        continue
                    assert last is None
                    skipped += 1
                    for tup in combinations_with_replacement(range(len(basis)), r):
                        assert jacobiator(fresh, [basis[i] for i in tup]).is_zero(), (
                            eng.flavor, sorted(eng.degrees), tup)
                        zeros += 1
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"} and based
        assert (skipped, walked, zeros) == (152, 44, 2559)

    def test_a_nonzero_squared_generator_is_walked(self, monkeypatch):
        # random odd fields are in general not homological: at an arity with
        # no admissible size the sweep still walks every tuple, so that the
        # squared route, which reads no degree set, is compared on each
        calls = self.counting(monkeypatch)
        walked = 0
        for q in random_odd_fields(seed=43, count=6):
            for eng, _ in engines_and_bases(q):
                if eng.squared_generator().is_zero():
                    continue
                for r in range(5):
                    if eng.admissible_sizes(r):
                        continue
                    calls.clear()
                    jacobiator_sweep(eng, r)
                    assert len(calls) == comb(len(eng.basis) + r - 1, r), (eng.flavor, r)
                    walked += len(calls)
        assert walked == 63

    @pytest.mark.parametrize("source, arity, code, calls, asked, squared", [
        ("so3", 3, 0, 3 * 10, 3 * 18, 3 * 10),
        ("so3", 6, 0, 0, 0, 0),
        ("so3-broken", 4, 1, 3 * 15, 3 * 30, 3 * 15),
    ])
    def test_sweep_counts(self, monkeypatch, source, arity, code, calls, asked, squared):
        # so3 has degrees {2} and a zero squared generator: arity 3 has the
        # admissible size 2, so its 10 tuples are walked (18 runs of equal
        # arguments); arity 6 has none, so no tuple is visited and no parity
        # is asked.  so3-broken has the same degrees and a nonzero squared generator, so
        # each engine walks its 15 tuples at arity 4 (30 runs of equal
        # arguments), and each tuple makes one squared-route ``derived`` call
        import qalgebroid.homotopy as homotopy

        jacobiators = self.counting(monkeypatch)
        parities, routes = [], []
        for cls in (homotopy.PhaseEngine, homotopy.FieldEngine):
            def counting(self, a, _parity_of=cls.parity_of):
                parities.append(a)
                return _parity_of(self, a)
            monkeypatch.setattr(cls, "parity_of", counting)

        def derived(self, args, generator=None, _derived=homotopy.DerivedBracketEngine.derived):
            if generator is not None:
                routes.append(args)
            return _derived(self, args, generator)
        monkeypatch.setattr(homotopy.DerivedBracketEngine, "derived", derived)
        result = invoke(["jacobiator", source, "--arity", str(arity), "--json"])
        assert result.exit_code == code
        assert (len(jacobiators), len(parities), len(routes)) == (calls, asked, squared)

    @pytest.mark.parametrize("source, max_arity, fed", [("so3", 6, 2), ("graded-3-lie", 8, 3)])
    def test_statement_builds_tables_where_a_degree_feeds_them(self, monkeypatch, source,
                                                                max_arity, fed):
        # the three engines of so3 all have degrees {2}, those of
        # graded-3-lie {3}: every other arity passes with no table and no
        # comparison, and the report is the one that compares at every arity
        import qalgebroid.homotopy as homotopy

        built = []
        for name in ("symmetric_field_table", "skew_bracket_table"):
            monkeypatch.setattr(homotopy, name,
                                lambda eng, arity, _t=getattr(homotopy, name):
                                built.append(arity) or _t(eng, arity))
        result = invoke(["statement-check", source, "--max-arity", str(max_arity),
                         "--json"])
        assert result.exit_code == 0
        assert set(built) == {fed}
        checks = [{"name": f"arity {r} restriction matches the input brackets", "ok": True}
                  for r in range(max_arity + 1)]
        assert result.output == json.dumps(
            {"checks": checks, "command": "statement-check", "source": source,
             "status": "pass"}, indent=2, sort_keys=True) + "\n"


class TestAnchorField:
    """The last argument of a phase value enters through the anchor field of
    the partial before it; the ambient bracket then the projection is the
    oracle."""

    @staticmethod
    def drawn_partial(rng, chart):
        """Terms of conjugate degree 0, 1 or 2 over parent factors, base
        coordinates included, of either parity, with rational coefficients;
        no terms gives zero."""
        n = len(chart.parent.generators)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exponents = {}
            for i in [rng.randrange(n) for _ in range(rng.randint(0, 3))] + [
                    rng.randrange(n, 2 * n) for _ in range(rng.choice([0, 1, 1, 2]))]:
                exponents[i] = exponents.get(i, 0) + 1
            mono = chart.normal_monomial(exponents)
            if mono is not None:
                terms[mono] = coefficient(rng.choice(COEFF_POOL))
        return GradedPoly(chart, terms)

    @PROPERTY
    @given(st.sampled_from([build_schouten_unchecked, build_poisson_unchecked]),
           st.integers(0, 2 ** 32))
    def test_anchor_field_value_is_the_projected_bracket(self, build, seed):
        # a seeded Random draws its sizes uniformly, where hypothesis's own
        # draws lean to empty ones
        rng = Random(seed)
        eng = PhaseEngine(build(random_field(rng, chart_pi_e(MIXED), ODD)))
        f = self.drawn_partial(rng, eng.chart)
        parities = rng.choice([(), (EVEN,), (ODD,), (EVEN, ODD), (EVEN, ODD)])
        a = GradedPoly.sum(eng.parent, (random_poly(rng, eng.parent, 3, 5, p) for p in parities))
        expected = restrict_to_zero_section(eng.bracket(f, lift_to_phase(a, eng.chart)))
        assert eng.apply_field(eng.anchor_field(f), a) == expected

    @pytest.mark.parametrize("name", ["so3", "lie-3-algebroid-demo"])
    def test_every_value_of_an_arity_four_sweep_is_the_nested_definition(self, name):
        # every value the sweep kept, inner values as arguments among them,
        # and then every key of basis positions up to length 4, in every order
        q = assemble_field(builtin_spec(name))
        engines = [PhaseEngine(build_schouten(q)), PhaseEngine(build_poisson(q))]
        if q.chart.n_base == 0:
            engines.append(FieldEngine(q))
        checked = nonzero = 0
        for eng in engines:
            basis = eng.basis
            for tup in combinations_with_replacement(range(len(basis)), 4):
                jacobiator(eng, [basis[i] for i in tup])
            gen = eng.generator()
            kept = list(eng._value.items())
            positions = eng.positions(basis)
            swept = [(key, eng.value(key)) for r in range(5)
                     for key in product(positions, repeat=r)]
            for key, value in kept + swept:
                assert value == eng.derived([eng._args[i] for i in key], generator=gen), key
                checked += 1
                nonzero += not value.is_zero()
        assert checked > 60 and nonzero


class TestDegreeRule:
    """An engine asks for nothing at a key whose length is not a degree of
    its generator; the nested definition, which reads no degree set, is the
    oracle."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 1), st.booleans())
    def test_memo_values_and_skipped_keys_are_the_nested_definition(self, seed, base,
                                                                     homological):
        # fields drawn with or without base coordinates, homological or not,
        # with rational coefficients, on every engine; every basis tuple up
        # to two past the largest degree
        rng = Random(seed)
        q = random_homological_field(rng, max_base=2 * base, max_rank=4, max_degree=3)
        if not homological:
            q = random_field(rng, q.chart, ODD, max_degree=3)
        for eng, basis in engines_and_bases(q):
            gen = eng.generator()
            for r in range(max(eng.degrees, default=0) + 3):
                for tup in combinations_with_replacement(range(len(basis)), r):
                    args = [basis[i] for i in tup]
                    nested = eng.derived(args, generator=gen)
                    assert eng.derived(args) == nested, (eng.flavor, tup)
                    if r not in eng.degrees:
                        assert nested.is_zero(), (eng.flavor, tup)

    def test_degrees_of_the_builtins(self):
        # most builtins feed the binary bracket only, graded-3-lie the
        # ternary one; lie-3-algebroid-demo has a curvature and every bracket
        # up to the ternary one
        for name, degrees in (("so3", {2}), ("so3-broken", {2}), ("derham", {2}),
                              ("lie-algebroid-demo", {2}),
                              ("higher-poisson-on-algebroid", {2}),
                              ("graded-3-lie", {3}), ("lie-3-algebroid-demo", {0, 1, 2, 3})):
            q = assemble_field(builtin_spec(name))
            engines = [PhaseEngine(build_schouten_unchecked(q)),
                       PhaseEngine(build_poisson_unchecked(q))]
            if q.chart.n_base == 0:
                engines.append(FieldEngine(q))
            assert [eng.degrees for eng in engines] == [degrees] * len(engines), name

    def test_field_engine_refuses_arguments_outside_v(self, so3_pair):
        q = so3_pair[0]
        fe = FieldEngine(q)
        for arg in fe.basis + [fe.derived(fe.basis[:2])]:
            fe.derived([arg])
            fe.derived([arg], generator=fe.generator())
        chart = q.chart
        moving = VectorField(chart, {"xi1": chart.gen("xi2")})
        for generator in (None, fe.generator(), VectorField(chart, {})):
            with pytest.raises(GradedAlgebraError, match="constant fields"):
                FieldEngine(q).derived([fe.basis[0], moving], generator=generator)
        other = FieldEngine(assemble_field(mixed_linfinity_algebra()))
        with pytest.raises(ChartMismatch):
            fe.derived(other.basis[:1])

    def test_a_refused_argument_after_a_zero_generator_still_raises(self, so3_pair):
        # the squared route stops at a zero partial, but checks every argument
        # before its first bracket
        q, s, _ = so3_pair
        eng = PhaseEngine(s)
        zero = eng.squared_generator()
        assert zero.is_zero()
        lifted = lift_to_phase(eng.basis[1], eng.chart)
        with pytest.raises(ChartMismatch, match="parent chart"):
            eng.derived([eng.basis[0], lifted], generator=zero)
        fe = FieldEngine(q)
        other = FieldEngine(assemble_field(mixed_linfinity_algebra()))
        with pytest.raises(ChartMismatch):
            fe.derived([fe.basis[0], other.basis[0]], generator=fe.squared_generator())


class SquaredRouteCounter:
    """Counts the brackets an engine makes inside ``derived(..., generator=...)``."""

    def __init__(self, eng):
        self.brackets = 0
        self._inside = False
        self._derived, self._bracket = eng.derived, eng.bracket
        eng.derived, eng.bracket = self.derived, self.bracket

    def derived(self, args, generator=None):
        self._inside = generator is not None
        try:
            return self._derived(args, generator)
        finally:
            self._inside = False

    def bracket(self, f, g):
        self.brackets += self._inside
        return self._bracket(f, g)


class TestJacobiatorsOnArbitraryGenerators:
    """The two-route equality needs only an odd generator, not one built
    from a field; random momentum-mixing generators exercise every sign."""

    def _engine(self, flavor, value):
        from qalgebroid.construction import HigherStructure
        from qalgebroid.fields import canonical_poisson, canonical_schouten

        if flavor == "schouten":
            sb = canonical_poisson(value, value, value.chart)
        else:
            sb = canonical_schouten(value, value, value.chart)
        h = HigherStructure(value, flavor, sb)
        return PhaseEngine(h)

    def test_random_odd_generators_even_bracket(self):
        from qalgebroid.charts import BundlePresentation, chart_even_cotangent, chart_pi_e_star

        rng = Random(83)
        chart = chart_even_cotangent(chart_pi_e_star(BundlePresentation((0,), (0, 1))))
        parent_names = ["x1", "eta1", "eta2"]
        for _ in range(12):
            delta = random_poly(rng, chart, 3, 4, parity=1)
            eng = self._engine("schouten", delta)
            for n in (1, 2, 3):
                args = [
                    eng.parent.gen(parent_names[rng.randrange(3)]) for _ in range(n)
                ]
                jacobiator(eng, args)  # raises on two-route disagreement

    def test_random_even_generators_odd_bracket(self):
        from qalgebroid.charts import BundlePresentation, chart_e_star, chart_odd_cotangent

        rng = Random(89)
        chart = chart_odd_cotangent(chart_e_star(BundlePresentation((0,), (0, 1))))
        parent_names = ["x1", "e1", "e2"]
        for _ in range(12):
            delta = random_poly(rng, chart, 3, 4, parity=0)
            eng = self._engine("poisson", delta)
            for n in (1, 2, 3):
                args = [
                    eng.parent.gen(parent_names[rng.randrange(3)]) for _ in range(n)
                ]
                jacobiator(eng, args)

    def test_random_polynomial_arguments(self):
        from qalgebroid.charts import BundlePresentation, chart_even_cotangent, chart_pi_e_star

        rng = Random(97)
        chart = chart_even_cotangent(chart_pi_e_star(BundlePresentation((), (0, 1))))
        for _ in range(8):
            delta = random_poly(rng, chart, 3, 4, parity=1)
            eng = self._engine("schouten", delta)
            for n in (1, 2, 3):
                args = [random_homogeneous_poly(rng, eng.parent, 2, 2) for _ in range(n)]
                jacobiator(eng, args)


class TestStatementOnRandomAlgebras:
    def test_random_point_base_fields(self):
        from qalgebroid.randgen import random_homological_field

        rng = Random(211)
        covered = 0
        for _ in range(10):
            q = random_homological_field(rng, max_base=0, max_rank=3)
            s, p = build_schouten(q), build_poisson(q)
            per_arity, details = weight_one_restriction_check(q, s, p, max_arity=3)
            assert all(per_arity.values()), details
            covered += 1
        assert covered == 10


def test_koszul_sign_basics():
    assert koszul_sign([0, 1, 2], [1, 1, 1]) == 1
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([1, 0], [1, 0]) == 1
    assert koszul_sign([2, 1, 0], [1, 1, 1]) == -1


def reference_leibniz_check(bracket, chart, flavor, arity, trials, rng):
    """The previous ``leibniz_check``: inputs drawn through ``randint`` and
    the reference ``random_poly``, and both sides of the rule in Fraction
    arithmetic, compared and subtracted."""
    failures = []
    for t in range(trials):
        front = [
            reference_random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
            for _ in range(arity - 1)
        ]
        ar = reference_random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
        ar1 = reference_random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
        parities = [f.parity() for f in front] + [ar.parity()]
        lhs = bracket(front + [ar * ar1])
        e = leibniz_exponent(flavor, parities)
        second = (ar * bracket(front + [ar1])).scaled(-1 if e else 1)
        rhs = bracket(front + [ar]) * ar1 + second
        if lhs != rhs:
            failures.append(
                f"trial {t}: args {[f.render() for f in front]}, "
                f"a_r = {ar.render()}, a_r+1 = {ar1.render()}, "
                f"difference = {(lhs - rhs).render()}"
            )
    return failures


class TestLeibniz:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_both_flavors_pass(self, arity):
        rng = Random(53)
        for fac in (so3, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            failures = leibniz_check(
                lambda a: higher_bracket(PhaseEngine(s), a),
                PhaseEngine(s).parent, "schouten", arity, 35, rng,
            )
            assert not failures, failures[:1]
            failures = leibniz_check(
                lambda a: higher_bracket(PhaseEngine(p), a),
                PhaseEngine(p).parent, "poisson", arity, 35, rng,
            )
            assert not failures, failures[:1]

    def test_negative_control_fails_with_witness(self, so3_pair):
        _, s, _ = so3_pair
        parent = PhaseEngine(s).parent
        rng = Random(59)

        def fake_bracket(args):
            out = parent.one()
            for a in args:
                out = out * a
            return out

        failures = leibniz_check(fake_bracket, parent, "schouten", 2, 25, rng)
        assert failures and "difference" in failures[0]

    @pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "zero"])
    @pytest.mark.parametrize("call", [0, 1, 2])
    def test_a_value_on_another_chart_is_refused(self, so3_pair, call, zero):
        # whichever of a trial's three brackets answers on another chart,
        # zero or not, the check raises instead of comparing across charts
        _, s, _ = so3_pair
        parent = PhaseEngine(s).parent
        other = chart_pi_e(MIXED)
        calls = []

        def bracket(args):
            calls.append(args)
            if len(calls) - 1 == call:
                return GradedPoly(other) if zero else other.one()
            return parent.one()

        with pytest.raises(ChartMismatch):
            leibniz_check(bracket, parent, "schouten", 2, 3, Random(61))

    def test_matches_the_reference_check(self):
        # the previous check, with its randint draws and its Fraction
        # arithmetic, gives the same witnesses and leaves the same stream
        structures = [assemble_field(builtin_spec(name)) for name in BUILTINS]
        fractional = random_homological_field(Random(12), max_base=1, max_rank=3)
        assert any(type(c) is not int for comp in fractional.components.values()
                   for c in comp.terms.values())
        structures.append(fractional)
        cases = []
        for q in structures:
            for build in (build_schouten, build_poisson):
                eng = PhaseEngine(build(q))
                cases.append((eng.parent, eng.flavor, lambda a, eng=eng: higher_bracket(eng, a)))
        parent = cases[0][0]

        def product_bracket(args):
            out = parent.one()
            for a in args:
                out = out * a
            return out

        cases.append((parent, "schouten", product_bracket))
        failing = 0
        for chart, flavor, bracket in cases:
            for arity in (0, 1, 2, 3):
                for seed in (0, 71, 4242):
                    new_rng, old_rng = Random(seed), Random(seed)
                    new = leibniz_check(bracket, chart, flavor, arity, 10, new_rng)
                    old = reference_leibniz_check(bracket, chart, flavor, arity, 10, old_rng)
                    assert new == old, (chart.space, flavor, arity, seed)
                    assert new_rng.getstate() == old_rng.getstate()
                    failing += len(new)
        assert failing > 0


class TestClosedForms:
    """Nested derived brackets against the closed formulas of ``closed_forms``."""

    @pytest.mark.parametrize("flavor", ["schouten", "poisson"])
    def test_closed_form_on_basis_tuples(self, flavor):
        # every ordered tuple of weight-one coordinates up to arity 3, on three
        # builtins and seeded random presentations; arity 0 is the curvature
        build = build_schouten if flavor == "schouten" else build_poisson
        fields = [assemble_field(fac()) for fac in (so3, graded_3_lie, mixed_linfinity_algebra)]
        fields += [random_homological_field(Random(seed), max_base=0) for seed in range(10)]
        curved = 0
        for q in fields:
            eng = PhaseEngine(build(q))
            for r in range(4):
                for tup in product(range(len(eng.basis)), repeat=r):
                    args = [eng.basis[i] for i in tup]
                    value = higher_bracket(eng, args)
                    assert value == closed_form(flavor, q, eng.parent, args), (q.chart, tup)
                    curved += r == 0 and not value.is_zero()
        assert curved  # mixed_linfinity_algebra has a background term

    def test_closed_forms_on_monomial_args(self, mixed_pair):
        q, s, p = mixed_pair
        dual_s = PhaseEngine(s).parent
        dual_p = PhaseEngine(p).parent
        rng = Random(61)
        for _ in range(40):
            r = rng.randint(1, 3)
            args = [random_homogeneous_poly(rng, dual_s, 2, 1) for _ in range(r)]
            assert higher_bracket(PhaseEngine(s), args) == closed_form("schouten", q, dual_s, args)
            argsp = [random_homogeneous_poly(rng, dual_p, 2, 1) for _ in range(r)]
            assert higher_bracket(PhaseEngine(p), argsp) == closed_form("poisson", q, dual_p, argsp)

    def test_so3_closed_forms(self, so3_pair):
        # the oracle on so3 gives the Levi-Civita values read off the spec,
        # (eta_a, eta_b)_S = -eps_abc eta_c and {e_a, e_b}_P = eps_abc e_c,
        # and the nested derived brackets agree with it
        q, s, p = so3_pair
        dual_s = PhaseEngine(s).parent
        dual_p = PhaseEngine(p).parent
        for a, b in product(range(3), repeat=2):
            c = 3 - a - b
            eps = 0 if a == b else (1 if (b - a) % 3 == 1 else -1)
            args = [dual_s.gen(f"eta{a + 1}"), dual_s.gen(f"eta{b + 1}")]
            expected = dual_s.gen(f"eta{c + 1}").scaled(-eps) if eps else dual_s.zero()
            assert closed_form("schouten", q, dual_s, args) == expected
            assert higher_bracket(PhaseEngine(s), args) == expected
            argsp = [dual_p.gen(f"e{a + 1}"), dual_p.gen(f"e{b + 1}")]
            expected = dual_p.gen(f"e{c + 1}").scaled(eps) if eps else dual_p.zero()
            assert closed_form("poisson", q, dual_p, argsp) == expected
            assert higher_bracket(PhaseEngine(p), argsp) == expected


class TestTables:
    def test_schouten_table_matches_fundamental(self, so3_pair):
        q, s, _ = so3_pair
        table = schouten_bracket_table(s, 2)
        dual = PhaseEngine(s).parent
        for tup, value in table.entries.items():
            args = [dual.gen(f"eta{i + 1}") for i in tup]
            assert value == closed_form("schouten", q, dual, args)

    def test_skew_table_even_fibre_sign(self, so3_pair):
        # for an even fibre {T_a, T_b} = -Q^c_(ab) T_c
        q, _, _ = so3_pair
        table = skew_bracket_table(FieldEngine(q), 2)
        chart = q.chart
        i1, i2 = chart.index_of("xi1"), chart.index_of("xi2")
        expected = chart.gen("xi3")  # -Q^3_(12) = +1
        assert table.entries[(0, 1)] == expected

    def test_skew_unary_sign(self, mixed_pair):
        # {T_a} = -(-1)^a Q^b_a T_b, with the constants read off the field
        q, _, _ = mixed_pair
        table = skew_bracket_table(FieldEngine(q), 1)
        sym = symmetric_field_table(FieldEngine(q), 1)
        chart = q.chart
        for (i,), value in table.entries.items():
            assert value == sym.entries[(i,)].scaled(-1)
            a = (chart.generators[i].parity + 1) & 1
            expected = chart.zero()
            for j, g in enumerate(chart.generators):
                c = structure_constant(q, g.name, (i,)).constant_term()
                if c != 0:
                    expected = expected + chart.gen(g.name).scaled(c)
            expected = expected.scaled(-1 if a == 0 else 1)  # -(-1)^a
            assert value == expected

    def test_skew_sign_is_its_docstring_exponent(self):
        # (-1)^(1 + a1 (r-1) + ... + a_{r-1}), a_i = |xi_i| + 1, on every
        # parity pattern of r = 0..8 arguments: one even and one odd generator
        chart = chart_pi_e(BundlePresentation((), (EVEN, ODD)))
        patterns = 0
        for r in range(9):
            for tup in product(range(2), repeat=r):
                a = [(chart.generators[i].parity + 1) & 1 for i in tup]
                e = 1 + sum(a[i - 1] * (r - i) for i in range(1, r))
                assert _skew_sign(chart, tup) == (-1) ** e, tup
                patterns += 1
        assert patterns == 511

    @pytest.mark.parametrize("factory", [mixed_linfinity_algebra, graded_3_lie])
    def test_skew_table_refuses_a_wrong_sign(self, monkeypatch, factory):
        # without the parity-shift sign the entries are the symmetric ones,
        # which adjacent exchanges of the skew arguments refuse
        import qalgebroid.homotopy as homotopy

        q = assemble_field(factory())
        monkeypatch.setattr(homotopy, "_skew_sign", lambda chart, tup: 1)
        with pytest.raises(GradedAlgebraError, match="fails antisymmetry"):
            skew_bracket_table(FieldEngine(q), 3)

    def test_skew_repeated_even_argument_vanishes(self, so3_pair):
        q, _, _ = so3_pair
        table = skew_bracket_table(FieldEngine(q), 2)
        for i in range(3):
            assert table.entries[(i, i)].is_zero()

    def test_empty_table(self, so3_pair):
        q, _, _ = so3_pair
        t = symmetric_field_table(FieldEngine(q), 0)
        assert list(t.entries) == [()]
        assert t.entries[()].is_zero()  # strict input: no background term

    def test_table_rendering(self, so3_pair):
        _, s, _ = so3_pair
        out = schouten_bracket_table(s, 2).render()
        assert out.splitlines()[0] == "arity 2 [schouten]"
        assert "(eta1,eta2) -> -eta3" in out

    def test_table_metadata(self, so3_pair, mixed_pair):
        _, s, p = so3_pair
        t = schouten_bracket_table(s, 2)
        assert t.parity == 1  # odd binary bracket
        tp = poisson_bracket_table(p, 2)
        assert tp.parity == 0  # even binary bracket
        _, sm, pm = mixed_pair
        t3 = schouten_bracket_table(sm, 3)
        assert t3.parity == 1
        tp3 = poisson_bracket_table(pm, 3)
        assert tp3.parity == 1  # odd for three arguments

    def test_table_metadata_refusals(self, so3_pair):
        # hand-built binary tables on the dual chart of so3: the eta are odd
        # of fibre weight 1, so a binary entry is odd of weight 1
        _, s, _ = so3_pair
        dual = PhaseEngine(s).parent
        labels = dual.fibre_names()
        e1, e2, e3 = (dual.gen(n) for n in labels)
        assert _table_metadata(dual, labels, {(0, 1): -e3, (0, 2): e2}, 2) == 1
        for entries, refusal in (
            ({(0, 1): e3 + e1 * e2}, "mixed parity"),
            ({(0, 1): -e3, (0, 2): e1 * e2}, "disagree on operation parity"),
            ({(0, 1): e1 * e2 * e3}, "weight drop"),
        ):
            with pytest.raises(GradedAlgebraError, match=refusal):
                _table_metadata(dual, labels, entries, 2)

    def test_poisson_table_cross_check(self, so3_pair):
        q, _, p = so3_pair
        table = poisson_bracket_table(p, 2)
        dual = PhaseEngine(p).parent
        skew = skew_bracket_table(FieldEngine(q), 2)
        for tup, value in table.entries.items():
            transported = dual.zero()
            for m, c in skew.entries[tup].terms.items():
                idx = m[0][0]
                transported = transported + dual.gen(f"e{idx + 1}").scaled(c)
            assert value == transported


class TestAnchors:
    def test_demo_algebroid_anchors(self):
        q = assemble_field(lie_algebroid_demo())
        x = q.chart.gen("x1")
        i1, i2 = q.chart.index_of("xi1"), q.chart.index_of("xi2")
        assert higher_anchor(q, (i1,), x) == x.chart.one()
        assert higher_anchor(q, (i2,), x) == x
        # 2-anchor of an ordinary algebroid vanishes
        assert higher_anchor(q, (i1, i2), x).is_zero()

    def test_zero_anchor_on_strict_input(self):
        q = assemble_field(lie_algebroid_demo())
        x = q.chart.gen("x1")
        assert higher_anchor(q, (), x) == q(x).drop_generators(q.chart.fibre_names())

    def test_point_base_anchor_vanishes(self, so3_pair):
        q, _, _ = so3_pair
        f = q.chart.one()
        i1 = q.chart.index_of("xi1")
        assert higher_anchor(q, (i1,), f).is_zero()

    def test_rejects_fibre_argument(self):
        q = assemble_field(lie_algebroid_demo())
        with pytest.raises(GradedAlgebraError):
            higher_anchor(q, (1,), q.chart.gen("xi1"))
        other = assemble_field(derham()).chart
        with pytest.raises(ChartMismatch, match="the base function must live on the field's chart"):
            higher_anchor(q, (1,), other.gen("x1"))

    def test_anchor_surfaces_in_binary_bracket_with_base_function(self):
        # (eta_a, f)_S equals the 1-anchor of slot a acting on f
        for fac in (lie_algebroid_demo, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s = build_schouten(q)
            dual = PhaseEngine(s).parent
            chart = q.chart
            fibre_idx = list(range(chart.n_base, len(chart.generators)))
            for power in (1, 2):
                f = chart.gen("x1") ** power
                f_dual = dual.gen("x1") ** power
                for i, gi in enumerate(fibre_idx):
                    lhs = higher_bracket(
                        PhaseEngine(s), [dual.gen(f"eta{i + 1}"), f_dual]
                    )
                    anchor = higher_anchor(q, (gi,), f)
                    rhs = anchor.substitute({"x1": dual.gen("x1")}, dual)
                    assert lhs == rhs


class TestStatement:
    def test_so3_all_arities(self, so3_pair):
        q, s, p = so3_pair
        per_arity, details = weight_one_restriction_check(q, s, p, 4)
        assert all(per_arity.values()) and set(per_arity) == {0, 1, 2, 3, 4}

    def test_graded_3_lie_ternary_only(self):
        q = assemble_field(graded_3_lie())
        s, p = build_schouten(q), build_poisson(q)
        per_arity, _ = weight_one_restriction_check(q, s, p, 4)
        assert all(per_arity.values())
        # every arity other than 3 carries only zero brackets
        for r in (0, 1, 2, 4):
            table = symmetric_field_table(FieldEngine(q), r)
            assert all(v.is_zero() for v in table.entries.values())
        t3 = symmetric_field_table(FieldEngine(q), 3)
        assert any(not v.is_zero() for v in t3.entries.values())

    def test_zero_field_statement(self):
        chart = chart_pi_e(BundlePresentation((), (0, 1)))
        q = VectorField(chart, {})
        s, p = build_schouten(q), build_poisson(q)
        per_arity, _ = weight_one_restriction_check(q, s, p, 3)
        assert all(per_arity.values())
        for r in (1, 2, 3):
            assert all(
                v.is_zero() for v in symmetric_field_table(FieldEngine(q), r).entries.values()
            )

    def test_so3_field_brackets_share_one_memo(self, so3_pair, monkeypatch):
        # a fresh field memo per table and arity took 170 brackets, one memo
        # without the zero rule 60, one that walked until a partial vanished
        # 24; Q has degrees {2}, so only partials of length 1 and 2 are
        # made: 3 and 9, the swapped keys of the skew check among them
        import qalgebroid.homotopy as homotopy

        calls = []

        def counting(self, f, g, _bracket=homotopy.FieldEngine.bracket):
            calls.append(1)
            return _bracket(self, f, g)

        monkeypatch.setattr(homotopy.FieldEngine, "bracket", counting)
        q, s, p = so3_pair
        per_arity, _ = weight_one_restriction_check(q, s, p, 4)
        assert all(per_arity.values())
        assert len(calls) == 12

    def test_an_extra_arity_2_term_fails_that_arity(self, so3_pair):
        # pi1*pi2*eta1 has total weight one and feeds the arity-2 bracket of
        # eta1 and eta2 alone, which Q's bracket of xi1 and xi2 does not match
        q, s, p = so3_pair
        extra = s.chart.gen("pi1") * s.chart.gen("pi2") * s.chart.gen("eta1")
        broken = HigherStructure(s.value + extra, s.flavor, s.self_bracket)
        per_arity, details = weight_one_restriction_check(q, broken, p, 4)
        assert per_arity == {0: True, 1: True, 2: False, 3: True, 4: True}
        assert details == ["arity 2 schouten tuple (0, 1) differs"]

    def test_curved_mixed_algebra(self, mixed_pair):
        q, s, p = mixed_pair
        per_arity, _ = weight_one_restriction_check(q, s, p, 4)
        assert all(per_arity.values())

    @pytest.mark.parametrize("seed", range(12))
    def test_transport_by_position_matches_the_name_rule(self, seed):
        # the oracle is the rule by name: c xi^(j+1) goes to c eta(j+1) on
        # PiE* and to c e(j+1) on E*
        rng = Random(seed)
        b = random_presentation(rng, max_base=0, max_rank=5)
        pie = chart_pi_e(b)
        value = GradedPoly.sum(pie, [pie.gen(g.name).scaled(rng.choice(COEFF_POOL))
                                     for g in pie.generators if rng.random() < 0.7])
        for dual, family in ((chart_pi_e_star(b), "eta"), (chart_e_star(b), "e")):
            by_name = GradedPoly(dual, {
                ((dual.index_of(f"{family}{m[0][0] + 1}"), 1),): c
                for m, c in value.terms.items()
            })
            assert _transport_value(value, dual) == by_name

    def test_transport_refuses_a_value_that_is_not_fibre_linear(self):
        b = BundlePresentation((), (0, 1))
        pie, dual = chart_pi_e(b), chart_e_star(b)
        for value in (pie.one(), pie.gen("xi1") * pie.gen("xi2"), pie.gen("xi2") ** 2):
            with pytest.raises(GradedAlgebraError, match="expected a fibre-linear bracket value"):
                _transport_value(value, dual)


class TestExampleFive:
    def test_literal_equals_the_derivation(self):
        # p = (1 + x) eta1 eta2 on the dual of lie-algebroid-demo, through its
        # Schouten engine: Q_p = -[[p, .]] on each generator, renamed onto a
        # fresh PiE chart with fibre symbols a1, a2
        eng = PhaseEngine(build_schouten(assemble_field(lie_algebroid_demo())))
        dual = eng.parent
        bivector = (dual.one() + dual.gen("x1")) * dual.gen("eta1") * dual.gen("eta2")
        assert eng.derived([bivector, bivector]).is_zero()
        chart = chart_pi_e(BundlePresentation((0,), (0, 0)))
        rename = {"x1": chart.gen("x1"), "eta1": chart.gen("xi1"), "eta2": chart.gen("xi2")}
        q = VectorField(chart, {
            new: eng.derived([bivector, dual.gen(old)]).scaled(-1).substitute(rename, chart)
            for old, new in (("x1", "x1"), ("eta1", "xi1"), ("eta2", "xi2"))
        }, ODD)
        derived = spec_from_field("higher-poisson-on-algebroid", (("x", 0),),
                                  (("a1", 0), ("a2", 0)), q)
        literal = higher_poisson_on_algebroid()
        assert literal == derived
        assert render_spec(literal) == render_spec(derived)

    def test_builtin_assembles_and_verifies(self):
        spec = higher_poisson_on_algebroid()
        q = assemble_field(spec)
        assert commutator(q, q).is_zero()
        s, p = build_schouten(q), build_poisson(q)
        assert s.self_bracket.is_zero() and p.self_bracket.is_zero()

    def test_expected_components(self):
        # hand-derived: Q = (x(1+x) a1 - (1+x) a2) d/dx + a1a2 (d/da2 - d/da1)
        spec = higher_poisson_on_algebroid()
        q = assemble_field(spec)
        c = q.chart
        x, a1, a2 = c.gen("x1"), c.gen("xi1"), c.gen("xi2")
        assert q.component("x1") == x * (c.one() + x) * a1 - (c.one() + x) * a2
        assert q.component("xi1") == -(a1 * a2)
        assert q.component("xi2") == a1 * a2
