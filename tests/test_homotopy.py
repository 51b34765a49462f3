"""Derived brackets, Jacobiators, Leibniz rules, tables, anchors, statement."""

from itertools import combinations, combinations_with_replacement, product
from random import Random

import pytest

from qalgebroid.builtins import (
    derham,
    graded_3_lie,
    higher_poisson_on_algebroid,
    lie_3_algebroid_demo,
    lie_algebroid_demo,
    mixed_linfinity_algebra,
    so3,
    so3_broken,
)
from qalgebroid.charts import BundlePresentation, chart_pi_e
from qalgebroid.construction import (
    build_poisson,
    build_poisson_unchecked,
    build_schouten,
    build_schouten_unchecked,
)
from qalgebroid.fields import VectorField, commutator
from qalgebroid.gradedpoly import ODD, GradedAlgebraError
from qalgebroid.homotopy import (
    FieldEngine,
    fundamental_poisson_value,
    fundamental_schouten_value,
    higher_anchor,
    higher_bracket,
    jacobiator,
    koszul_sign,
    leibniz_check,
    lie_poisson_closed_form,
    lie_schouten_closed_form,
    poisson_bracket_table,
    poisson_engine,
    schouten_bracket_table,
    schouten_engine,
    skew_bracket_table,
    structure_constant,
    symmetric_field_table,
    weight_one_restriction_check,
)
from qalgebroid.randgen import (
    random_field,
    random_homogeneous_poly,
    random_homological_field,
    random_poly,
)
from qalgebroid.specdoc import assemble_field


@pytest.fixture(scope="module")
def so3_pair():
    q = assemble_field(so3())
    return q, build_schouten(q), build_poisson(q)


@pytest.fixture(scope="module")
def mixed_pair():
    q = assemble_field(mixed_linfinity_algebra())
    return q, build_schouten(q), build_poisson(q)


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
        parent = schouten_engine(s).parent
        x, y = parent.gen("x1"), parent.gen("x2")
        assert higher_bracket(schouten_engine(s), [x, y]).is_zero()

    def test_so3_fundamental_binary(self, so3_pair):
        q, s, _ = so3_pair
        dual = schouten_engine(s).parent
        value = higher_bracket(schouten_engine(s), [dual.gen("eta1"), dual.gen("eta2")])
        assert value == -dual.gen("eta3")
        assert value == fundamental_schouten_value(q, dual, (0, 1))

    def test_so3_poisson_binary(self, so3_pair):
        q, _, p = so3_pair
        dual = poisson_engine(p).parent
        value = higher_bracket(poisson_engine(p), [dual.gen("e1"), dual.gen("e2")])
        assert value == dual.gen("e3")
        assert value == fundamental_poisson_value(q, dual, (0, 1))

    def test_fundamental_formula_all_tuples(self, mixed_pair):
        q, s, p = mixed_pair
        dual_s = schouten_engine(s).parent
        dual_p = poisson_engine(p).parent
        n = len(q.chart.generators)
        for r in (1, 2, 3):
            for tup in product(range(n), repeat=r):
                args = [dual_s.gen(f"eta{i + 1}") for i in tup]
                assert higher_bracket(schouten_engine(s), args) == fundamental_schouten_value(
                    q, dual_s, tup
                )
                argsp = [dual_p.gen(f"e{i + 1}") for i in tup]
                assert higher_bracket(poisson_engine(p), argsp) == fundamental_poisson_value(
                    q, dual_p, tup
                )

    def test_zero_bracket_strict_input(self, so3_pair):
        q, s, p = so3_pair
        assert higher_bracket(schouten_engine(s), []).is_zero()
        assert higher_bracket(poisson_engine(p), []).is_zero()

    def test_bracket_with_constant_vanishes(self, so3_pair):
        _, s, p = so3_pair
        dual_s = schouten_engine(s).parent
        dual_p = poisson_engine(p).parent
        assert higher_bracket(schouten_engine(s), [dual_s.gen("eta1"), dual_s.one()]).is_zero()
        assert higher_bracket(poisson_engine(p), [dual_p.gen("e1"), dual_p.one()]).is_zero()

    def test_graded_symmetry_random_swaps(self, mixed_pair):
        q, s, _ = mixed_pair
        eng = schouten_engine(s)
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
            lhs = higher_bracket(schouten_engine(s), args)
            rhs = higher_bracket(schouten_engine(s), swapped).scaled(sign)
            assert lhs == rhs

    def test_output_weight_drop(self, mixed_pair):
        # an r-bracket of fibre-weight-homogeneous inputs drops w1 by r - 1
        q, s, _ = mixed_pair
        dual = schouten_engine(s).parent
        for r in (1, 2, 3):
            for tup in combinations_with_replacement(range(3), r):
                args = [dual.gen(f"eta{i + 1}") for i in tup]
                value = higher_bracket(schouten_engine(s), args)
                if value.is_zero():
                    continue
                w = value.weight()
                assert w is not None and w[0] == r + (1 - r)  # inputs r, drop r-1

    def test_output_weight_drop_random_monomials(self):
        # same drop rule for arbitrary monomial arguments, both flavors
        q = assemble_field(lie_algebroid_demo())
        s = build_schouten(q)
        p = build_poisson(q)
        dual_s = schouten_engine(s).parent
        dual_p = poisson_engine(p).parent
        rng = Random(67)
        for dual, s_or_p, engine in (
            (dual_s, s, schouten_engine),
            (dual_p, p, poisson_engine),
        ):
            for _ in range(40):
                r = rng.randint(1, 3)
                args = [random_poly(rng, dual, 3, 1) for _ in range(r)]
                if any(a.is_zero() for a in args):
                    continue
                value = higher_bracket(engine(s_or_p), args)
                if value.is_zero():
                    continue
                w_in = sum(a.weight()[0] for a in args)
                assert value.weight() is not None
                assert value.weight()[0] == w_in + (1 - r)

    def test_engine_distributivity(self, so3_pair, mixed_pair):
        rng = Random(43)
        for q, s, p in (so3_pair, mixed_pair):
            for eng in (schouten_engine(s), poisson_engine(p)):
                for _ in range(25):
                    a = random_homogeneous_poly(rng, eng.chart, 2, 2)
                    b = random_homogeneous_poly(rng, eng.chart, 2, 2)
                    lhs = eng.project(eng.bracket(a, b))
                    rhs = eng.project(eng.bracket(eng.project(a), b)) + eng.project(
                        eng.bracket(a, eng.project(b))
                    )
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
        dual = schouten_engine(s).parent
        rng = Random(71)
        for _ in range(60):
            f = random_homogeneous_poly(rng, dual, 3, 2)
            g = random_homogeneous_poly(rng, dual, 3, 2)
            sign = 1 if f.parity() else -1
            lhs = higher_bracket(schouten_engine(s), [f, g]).substitute(ren_s, pit).scaled(sign)
            rhs = canonical_schouten(
                f.substitute(ren_s, pit), g.substitute(ren_s, pit), pit
            )
            assert lhs == rhs

    def test_even_side_is_cotangent_bracket(self):
        from qalgebroid.fields import canonical_poisson

        _, p, _, t, _, ren_p = self._setup()
        dual = poisson_engine(p).parent
        rng = Random(73)
        for _ in range(60):
            f = random_homogeneous_poly(rng, dual, 3, 2)
            g = random_homogeneous_poly(rng, dual, 3, 2)
            lhs = higher_bracket(poisson_engine(p), [f, g]).substitute(ren_p, t).scaled(-1)
            rhs = canonical_poisson(
                f.substitute(ren_p, t), g.substitute(ren_p, t), t
            )
            assert lhs == rhs


class TestErrorPaths:
    def test_engine_flavor_mismatch(self, so3_pair):
        _, s, p = so3_pair
        with pytest.raises(GradedAlgebraError):
            schouten_engine(p)
        with pytest.raises(GradedAlgebraError):
            poisson_engine(s)

    def test_argument_with_momenta_rejected(self, so3_pair):
        _, s, _ = so3_pair
        eng = schouten_engine(s)
        bad = eng.chart.gen("pi1")
        with pytest.raises(GradedAlgebraError):
            eng.derived([bad])

    def test_field_engine_needs_point_base(self):
        q = assemble_field(lie_algebroid_demo())
        with pytest.raises(GradedAlgebraError):
            FieldEngine(q)

    def test_closed_forms_need_point_base(self):
        q = assemble_field(lie_algebroid_demo())
        s = build_schouten(q)
        dual = schouten_engine(s).parent
        with pytest.raises(GradedAlgebraError):
            lie_schouten_closed_form(q, dual, [dual.gen("eta1")])

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
        dual = schouten_engine(s).parent
        n = len(q.chart.generators)
        for i in range(n):
            lhs = higher_bracket(schouten_engine(s), [dual.gen(f"eta{i + 1}")])
            rhs = fundamental_schouten_value(q, dual, (i,))
            assert lhs == rhs


class TestJacobiators:
    def test_vanish_on_homological_fixtures(self):
        for fac in (so3, graded_3_lie, mixed_linfinity_algebra):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            eng_s, eng_p = schouten_engine(s), poisson_engine(p)
            fe = FieldEngine(q)
            dual_s, dual_p = eng_s.parent, eng_p.parent
            n = len(q.chart.generators)
            for r in range(0, 5):
                for tup in combinations_with_replacement(range(n), r):
                    v, w = jacobiator(eng_s, [dual_s.gen(f"eta{i + 1}") for i in tup])
                    assert v.is_zero() and w.is_zero()
                    v, w = jacobiator(eng_p, [dual_p.gen(f"e{i + 1}") for i in tup])
                    assert v.is_zero() and w.is_zero()
                    v, w = jacobiator(fe, [fe.basis_field(i) for i in tup])
                    assert v.is_zero() and w.is_zero()

    def test_vanish_on_algebroid_fixtures(self):
        for fac in (derham, lie_algebroid_demo, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            eng_s, eng_p = schouten_engine(s), poisson_engine(p)
            dual_s, dual_p = eng_s.parent, eng_p.parent
            names_s = dual_s.fibre_names() + dual_s.base_names()
            names_p = dual_p.fibre_names() + dual_p.base_names()
            for r in range(0, 4):
                for tup in combinations_with_replacement(range(len(names_s)), r):
                    v, _ = jacobiator(eng_s, [dual_s.gen(names_s[i]) for i in tup])
                    assert v.is_zero()
                    v, _ = jacobiator(eng_p, [dual_p.gen(names_p[i]) for i in tup])
                    assert v.is_zero()

    def test_negative_control_nonzero_and_two_way(self):
        q = assemble_field(so3_broken())
        assert not commutator(q, q).is_zero()
        s = build_schouten_unchecked(q)
        p = build_poisson_unchecked(q)
        eng_s, eng_p = schouten_engine(s), poisson_engine(p)
        fe = FieldEngine(q)
        dual_s, dual_p = eng_s.parent, eng_p.parent
        # the two-way agreement is asserted inside jacobiator for every call
        v, w = jacobiator(eng_s, [dual_s.gen(n) for n in ("eta1", "eta2", "eta3")])
        assert v == -(-dual_s.gen("eta2")) and v == w  # = eta2
        v, w = jacobiator(eng_p, [dual_p.gen(n) for n in ("e1", "e2", "e3")])
        assert v == dual_p.gen("e2") and v == w
        v, w = jacobiator(fe, [fe.basis_field(i) for i in (0, 1, 2)])
        assert fe.coefficients(v) == [0, 1, 0] and v == w

    def test_two_way_on_random_polynomial_args(self):
        rng = Random(47)
        q = assemble_field(so3_broken())
        s = build_schouten_unchecked(q)
        eng = schouten_engine(s)
        dual = eng.parent
        for n in (1, 2, 3):
            for _ in range(10):
                args = [random_homogeneous_poly(rng, dual, 2, 2) for _ in range(n)]
                jacobiator(eng, args)  # raises on any disagreement

    def test_unary_jacobiator_squares_differential(self):
        # arity 1 on a strict fixture: (J1 = 0) iff the 1-bracket squares to 0
        q = assemble_field(mixed_linfinity_algebra())
        s = build_schouten(q)
        eng = schouten_engine(s)
        dual = eng.parent
        for i in range(3):
            v, _ = jacobiator(eng, [dual.gen(f"eta{i + 1}")])
            assert v.is_zero()

    def test_field_engine_squares_q_once(self, so3_pair, monkeypatch):
        # an arity-3 sweep on so3 has 10 tuples; [Q,Q] is computed on the first
        import qalgebroid.homotopy as homotopy

        squares = []

        def counting(x, y):
            if x is y:
                squares.append(x)
            return commutator(x, y)

        monkeypatch.setattr(homotopy, "commutator", counting)
        q, _, _ = so3_pair
        fe = FieldEngine(q)
        basis = [fe.basis_field(i) for i in range(3)]
        for tup in combinations_with_replacement(range(3), 3):
            jacobiator(fe, [basis[i] for i in tup])
        assert len(squares) == 1


def reference_jacobiator(engine, args):
    """The unshuffle sum by the nested definition, computed afresh per subset
    (an explicit generator bypasses the engine's memo)."""
    n = len(args)
    parities = [engine.koszul_parity(a) for a in args]
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
    for eng in (schouten_engine(build_schouten_unchecked(q)),
                poisson_engine(build_poisson_unchecked(q))):
        out.append((eng, eng.basis + [eng.parent.gen(x) for x in eng.parent.base_names()]))
    if q.chart.n_base == 0:
        fe = FieldEngine(q)
        out.append((fe, fe.basis))
    return out


class TestEngineMemo:
    def test_sweep_matches_nested_definition(self):
        flavors, nonzero = set(), 0
        for q in random_odd_fields(seed=5, count=6):
            for eng, basis in engines_and_bases(q):
                for r in range(5):
                    for tup in combinations_with_replacement(range(len(basis)), r):
                        args = [basis[i] for i in tup]
                        value, _ = jacobiator(eng, args)
                        assert value == reference_jacobiator(eng, args), (eng.flavor, tup)
                        nonzero += not value.is_zero()
                flavors.add(eng.flavor)
        assert flavors == {"schouten", "poisson", "field"}
        assert nonzero  # the non-homological fields give nonzero Jacobiators

    def test_tables_match_the_nested_definition(self):
        for q in random_odd_fields(seed=21, count=4):
            for r in range(4):
                for h, table_of, engine in (
                    (build_schouten_unchecked(q), schouten_bracket_table, schouten_engine),
                    (build_poisson_unchecked(q), poisson_bracket_table, poisson_engine),
                ):
                    table = table_of(h, r)
                    dual = h.chart.parent_chart()
                    for tup, value in table.entries.items():
                        args = [dual.gen(table.labels[i]) for i in tup]
                        assert value == higher_bracket(engine(h), args)
                if q.chart.n_base:
                    continue
                fe = FieldEngine(q)
                n = len(q.chart.generators)
                for tup, value in symmetric_field_table(fe, r).entries.items():
                    nested = fe.derived([fe.basis[i] for i in tup], generator=fe.generator())
                    assert [value.terms.get(((j, 1),), 0) for j in range(n)] == (
                        fe.coefficients(nested))
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
        eng = schouten_engine(s)
        eta = [eng.parent.gen(f"eta{i + 1}") for i in range(3)]
        assert eng.positions([eta[1], eta[0], eta[1]]) == (0, 1, 0)
        assert eng.positions([eta[2], eta[1]]) == (2, 0)
        assert eng.value((0, 1)) == eng.derived([eta[1], eta[0]], generator=eng.generator())
        # an equal argument that is another object takes a new position
        assert eng.positions([eng.parent.gen("eta2")]) == (3,)

    def test_squared_route_makes_three_brackets_per_ternary_tuple(self):
        for q in random_odd_fields(seed=13, count=2):
            for eng, basis in engines_and_bases(q):
                route = SquaredRouteCounter(eng)
                tuples = list(combinations_with_replacement(range(len(basis)), 3))
                for tup in tuples:
                    jacobiator(eng, [basis[i] for i in tup])
                assert route.brackets == 3 * len(tuples)

    def test_so3_arity_six_sweep_bracket_count(self, monkeypatch):
        # the nested definition per subset and tuple took 38136 brackets
        import qalgebroid.homotopy as homotopy
        from click.testing import CliRunner
        from qalgebroid.cli import main

        calls = []
        for cls in (homotopy.PhaseEngine, homotopy.FieldEngine):
            def counting(self, f, g, _bracket=cls.bracket):
                calls.append(1)
                return _bracket(self, f, g)
            monkeypatch.setattr(cls, "bracket", counting)
        result = CliRunner().invoke(main, ["jacobiator", "so3", "--arity", "6", "--json"])
        assert result.exit_code == 0
        assert len(calls) == 3525


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
        h = HigherStructure(value, flavor, value.chart, sb)
        return schouten_engine(h) if flavor == "schouten" else poisson_engine(h)

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
            rep = weight_one_restriction_check(q, s, p, max_arity=3)
            assert rep.ok, rep.details
            covered += 1
        assert covered == 10


def test_koszul_sign_basics():
    assert koszul_sign([0, 1, 2], [1, 1, 1]) == 1
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([1, 0], [1, 0]) == 1
    assert koszul_sign([2, 1, 0], [1, 1, 1]) == -1


class TestLeibniz:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_both_flavors_pass(self, arity):
        rng = Random(53)
        for fac in (so3, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s, p = build_schouten(q), build_poisson(q)
            rep = leibniz_check(
                lambda a: higher_bracket(schouten_engine(s), a),
                schouten_engine(s).parent, "schouten", arity, 35, rng,
            )
            assert rep.ok, rep.failures[:1]
            rep = leibniz_check(
                lambda a: higher_bracket(poisson_engine(p), a),
                poisson_engine(p).parent, "poisson", arity, 35, rng,
            )
            assert rep.ok, rep.failures[:1]

    def test_negative_control_fails_with_witness(self, so3_pair):
        _, s, _ = so3_pair
        parent = schouten_engine(s).parent
        rng = Random(59)

        def fake_bracket(args):
            out = parent.one()
            for a in args:
                out = out * a
            return out

        rep = leibniz_check(fake_bracket, parent, "schouten", 2, 25, rng)
        assert not rep.ok
        assert rep.failures and "difference" in rep.failures[0]


class TestClosedForms:
    def test_schouten_closed_form_on_basis_tuples(self, mixed_pair):
        q, s, _ = mixed_pair
        dual = schouten_engine(s).parent
        for r in (1, 2, 3):
            for tup in product(range(3), repeat=r):
                args = [dual.gen(f"eta{i + 1}") for i in tup]
                assert higher_bracket(schouten_engine(s), args) == lie_schouten_closed_form(
                    q, dual, args
                )

    def test_poisson_closed_form_on_basis_tuples(self, mixed_pair):
        q, _, p = mixed_pair
        dual = poisson_engine(p).parent
        for r in (1, 2, 3):
            for tup in product(range(3), repeat=r):
                args = [dual.gen(f"e{i + 1}") for i in tup]
                assert higher_bracket(poisson_engine(p), args) == lie_poisson_closed_form(
                    q, dual, args
                )

    def test_closed_forms_on_monomial_args(self, mixed_pair):
        q, s, p = mixed_pair
        dual_s = schouten_engine(s).parent
        dual_p = poisson_engine(p).parent
        rng = Random(61)
        for _ in range(40):
            r = rng.randint(1, 3)
            args = [random_homogeneous_poly(rng, dual_s, 2, 1) for _ in range(r)]
            assert higher_bracket(schouten_engine(s), args) == lie_schouten_closed_form(
                q, dual_s, args
            )
            argsp = [random_homogeneous_poly(rng, dual_p, 2, 1) for _ in range(r)]
            assert higher_bracket(poisson_engine(p), argsp) == lie_poisson_closed_form(
                q, dual_p, argsp
            )

    def test_so3_closed_forms(self, so3_pair):
        q, s, p = so3_pair
        dual_s = schouten_engine(s).parent
        dual_p = poisson_engine(p).parent
        for tup in product(range(3), repeat=2):
            args = [dual_s.gen(f"eta{i + 1}") for i in tup]
            assert higher_bracket(schouten_engine(s), args) == lie_schouten_closed_form(
                q, dual_s, args
            )
            argsp = [dual_p.gen(f"e{i + 1}") for i in tup]
            assert higher_bracket(poisson_engine(p), argsp) == lie_poisson_closed_form(
                q, dual_p, argsp
            )


class TestTables:
    def test_schouten_table_matches_fundamental(self, so3_pair):
        q, s, _ = so3_pair
        table = schouten_bracket_table(s, 2)
        dual = schouten_engine(s).parent
        for tup, value in table.entries.items():
            assert value == fundamental_schouten_value(q, dual, tup)

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
        assert t.parity == 1 and t.weight == -1  # odd binary bracket, drop 1
        tp = poisson_bracket_table(p, 2)
        assert tp.parity == 0 and tp.weight == -1  # even binary bracket
        _, sm, pm = mixed_pair
        t3 = schouten_bracket_table(sm, 3)
        assert t3.parity == 1 and t3.weight == -2
        tp3 = poisson_bracket_table(pm, 3)
        assert tp3.parity == 1 and tp3.weight == -2  # odd for three arguments

    def test_poisson_table_cross_check(self, so3_pair):
        q, _, p = so3_pair
        table = poisson_bracket_table(p, 2)
        dual = poisson_engine(p).parent
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

    def test_anchor_surfaces_in_binary_bracket_with_base_function(self):
        # (eta_a, f)_S equals the 1-anchor of slot a acting on f
        for fac in (lie_algebroid_demo, lie_3_algebroid_demo):
            q = assemble_field(fac())
            s = build_schouten(q)
            dual = schouten_engine(s).parent
            chart = q.chart
            fibre_idx = list(range(chart.n_base, len(chart.generators)))
            for power in (1, 2):
                f = chart.gen("x1") ** power
                f_dual = dual.gen("x1") ** power
                for i, gi in enumerate(fibre_idx):
                    lhs = higher_bracket(
                        schouten_engine(s), [dual.gen(f"eta{i + 1}"), f_dual]
                    )
                    anchor = higher_anchor(q, (gi,), f)
                    rhs = anchor.substitute({"x1": dual.gen("x1")}, dual)
                    assert lhs == rhs


class TestStatement:
    def test_so3_all_arities(self, so3_pair):
        q, s, p = so3_pair
        rep = weight_one_restriction_check(q, s, p, 4)
        assert rep.ok and set(rep.per_arity) == {0, 1, 2, 3, 4}

    def test_graded_3_lie_ternary_only(self):
        q = assemble_field(graded_3_lie())
        s, p = build_schouten(q), build_poisson(q)
        rep = weight_one_restriction_check(q, s, p, 4)
        assert rep.ok
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
        rep = weight_one_restriction_check(q, s, p, 3)
        assert rep.ok
        for r in (1, 2, 3):
            assert all(
                v.is_zero() for v in symmetric_field_table(FieldEngine(q), r).entries.values()
            )

    def test_so3_field_brackets_share_one_memo(self, so3_pair, monkeypatch):
        # a fresh field memo per table and arity took 170 brackets
        import qalgebroid.homotopy as homotopy

        calls = []

        def counting(self, f, g, _bracket=homotopy.FieldEngine.bracket):
            calls.append(1)
            return _bracket(self, f, g)

        monkeypatch.setattr(homotopy.FieldEngine, "bracket", counting)
        q, s, p = so3_pair
        assert weight_one_restriction_check(q, s, p, 4).ok
        assert len(calls) == 60

    def test_curved_mixed_algebra(self, mixed_pair):
        q, s, p = mixed_pair
        rep = weight_one_restriction_check(q, s, p, 4)
        assert rep.ok


class TestExampleFive:
    def test_builtin_assembles_and_verifies(self):
        spec = higher_poisson_on_algebroid()
        q = assemble_field(spec)
        assert commutator(q, q).is_zero()
        s, p = build_schouten(q), build_poisson(q)
        assert s.is_self_commuting and p.is_self_commuting

    def test_expected_components(self):
        # hand-derived: Q = (x(1+x) a1 - (1+x) a2) d/dx + a1a2 (d/da2 - d/da1)
        spec = higher_poisson_on_algebroid()
        q = assemble_field(spec)
        c = q.chart
        x, a1, a2 = c.gen("x1"), c.gen("xi1"), c.gen("xi2")
        assert q.component("x1") == x * (c.one() + x) * a1 - (c.one() + x) * a2
        assert q.component("xi1") == -(a1 * a2)
        assert q.component("xi2") == a1 * a2
