"""Higher derived brackets, Jacobiators, Leibniz checks and bracket tables.

A derived-bracket engine packages an ambient Lie bracket, a generator D, a
projector ``project`` onto an abelian subalgebra V and the inclusion
``prepare`` of V; the brackets on V are project [...[D, a1], ..., an].
Three instances are used:

* flavor "schouten": functions on T*(PiE*) under the even canonical bracket,
  generator S, V = functions on PiE*, projector = restriction to the zero
  section, inclusion = lift.  Brackets are the odd symmetric ones on
  functions of (x, eta).
* flavor "poisson": functions on PiT*(E*) under the odd canonical bracket,
  generator P, V = functions on E*, the rest likewise.  The ambient bracket
  is odd, so Koszul signs use parities shifted by one (P counts as odd),
  which is how the odd-bracket algebra becomes a Lie superalgebra.
* flavor "field": vector fields on a point-base anti-bundle chart under the
  supercommutator, generator Q, V = constant fields, projector = evaluation
  of components at the origin, inclusion = identity.

The phase flavours' Koszul shifts and sign rules come from ``construction.FLAVOURS``.

For every engine, the n-th Jacobiator computed as an unshuffle sum over the
derived brackets (inner bracket fed as the first outer argument, plain
Koszul exchange signs in the engine's parities) equals the n-th derived
bracket of half the self-bracket of the generator.  The equality is asserted
each time; it holds whether or not the generator squares to zero, which is
exactly what makes non-homological negative controls meaningful.

Every engine owns a memo of its nested brackets, which lives as long as the
engine (one command): a sweep (the Jacobiators of every basis tuple, a
bracket table, the restriction statement) shares its brackets through it.
Arguments are registered by identity and named by their positions; the
memo keeps each unprojected partial bracket ``[...[D, a1], ..., ak]`` under
its position tuple, so a bracket costs one ambient bracket past its longest
known prefix.  ``engine.derived(args)`` reads and extends the memo;
``engine.derived(args, generator=g)`` computes the nested definition with
the generator g afresh and never touches it.  The squared-generator route of
the Jacobiator takes the second form, so the two routes share no computed
bracket.

The memo route uses bilinearity, [0, a] = 0: the walk stops at the first
partial that vanishes, and no longer partial is stored.  Each bracket with
an argument of the abelian subalgebra lowers the conjugate degree of a phase
partial (the argument carries no conjugates) or the polynomial degree of a
field partial (the argument is constant) by one, so a stored key is at most
one longer than that degree of the generator.  The bound is on the depth of
the memo, not on its number of distinct keys.  The unshuffle sum of the
Jacobiator walks its subsets depth first in index order and extends a
subset only while its partial is stored and nonzero (``extends``): every
subset that extends a vanished partial is zero, so it is never asked for.
It skips a subset whose inner bracket vanishes and an outer term that
vanishes, by the same rule.  Consecutive arguments at one memo position
(one object) form a run, and the subsets that take as many copies of each
run share their inner and outer keys.  So the sum walks one canonical
subset per class, the one that takes the first copies of each run, and
weights it by the exact signed count of the class: its Koszul sign times,
for each run of m copies of which k are taken, C(m, k) when the run is
Koszul-even and the Gaussian binomial [m, k] at q = -1 when it is odd
(0 when m is even and k odd, C(m // 2, k // 2) otherwise).  The identity is
a count of exchange signs; it does not use graded symmetry, and a tuple
without repeats walks every subset at weight its Koszul sign.

``derived(args, generator=g)`` applies no zero rule: it is the literal
nested definition, the oracle the memo route is tested against.  Its
ambient brackets still return at once on a zero operand
(``fields.commutator``, the canonical brackets), which is bilinearity
inside one bracket: the route still makes one bracket per argument, even
when the squared generator of a homological input is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .charts import (
    BASE_FIBRE,
    Chart,
    lift_to_phase,
    restrict_to_zero_section,
)
from .construction import FLAVOURS, HigherStructure, ambient_bracket
from .fields import VectorField, commutator
from .gradedpoly import (
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
)


class JacobiatorMismatch(GradedAlgebraError):
    """The unshuffle sum and the squared-generator route disagree."""


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

class DerivedBracketEngine:
    """Nested-bracket evaluation (a1, ..., an) = project [...[D, a1], ..., an].

    An engine supplies ``flavor``, ``bracket`` (ambient), ``project`` (onto
    V), ``parity_of``, ``generator``, ``self_bracket`` (of the generator)
    and ``sum`` (of values, the zero value when there are none), overrides
    ``prepare`` when the inclusion of V is not the identity, and calls
    ``__init__`` once its generator is available.
    """

    koszul_shift = 0

    def __init__(self):
        self._args: list = []  # registered arguments, held so that ids stay unique
        self._position: dict[int, int] = {}
        self._prepared: list = []
        self._partial: dict[tuple, object] = {(): self.generator()}
        self._value: dict[tuple, object] = {}
        self._half_square = None

    def prepare(self, arg):
        """Include an argument of the abelian subalgebra in the ambient algebra."""
        return arg

    def squared_generator(self):
        """Half the self-bracket of the generator, made on first use and kept."""
        if self._half_square is None:
            self._half_square = self.self_bracket().scaled(Fraction(1, 2))
        return self._half_square

    def derived(self, args, generator=None):
        """The nested bracket of ``args``: from the memo, or afresh with ``generator``."""
        if generator is None:
            return self.value(self.positions(args))
        cur = generator
        for a in args:
            cur = self.bracket(cur, self.prepare(a))
        return self.project(cur)

    def positions(self, args) -> tuple[int, ...]:
        """Memo positions of ``args``; an argument met for the first time
        (by identity) is prepared and registered."""
        out = []
        for a in args:
            pos = self._position.get(id(a))
            if pos is None:
                prepared = self.prepare(a)
                pos = self._position[id(a)] = len(self._args)
                self._args.append(a)
                self._prepared.append(prepared)
            out.append(pos)
        return tuple(out)

    def value(self, key: tuple):
        """The derived bracket of the registered arguments at ``key``.

        The walk goes down the prefixes of ``key`` from the generator,
        reading stored partials and storing the ones it makes, and stops at
        the first partial that vanishes: every longer partial is zero by
        bilinearity, so none is stored, and the value is that zero projected.
        The stored keys are therefore closed under prefixes, and none extends
        a key whose partial vanishes.
        """
        v = self._value.get(key)
        if v is None:
            cur = self._partial[()]
            for k in range(len(key)):
                if cur.is_zero():
                    break
                prefix = key[:k + 1]
                known = self._partial.get(prefix)
                if known is None:
                    known = self._partial[prefix] = self.bracket(cur, self._prepared[key[k]])
                cur = known
            v = self._value[key] = self.project(cur)
        return v

    def extends(self, key: tuple) -> bool:
        """Whether, after ``value(key)``, a key extending ``key`` can have a
        nonzero value: only when the partial at ``key`` is stored and nonzero.
        A vanished partial is stored as zero, or is absent because the walk
        stopped at a vanishing prefix; every extension of it is zero."""
        partial = self._partial.get(key)
        return partial is not None and not partial.is_zero()


class PhaseEngine(DerivedBracketEngine):
    """Engine over a phase-space function algebra, in the flavour of its structure."""

    def __init__(self, structure: HigherStructure):
        if structure.flavor not in FLAVOURS:
            raise GradedAlgebraError(f"unknown flavor {structure.flavor!r}")
        self.structure = structure
        self.chart = structure.chart
        self.parent = self.chart.parent_chart()
        self.flavour = FLAVOURS[structure.flavor]
        self.flavor = self.flavour.name
        self.koszul_shift = self.flavour.koszul_shift
        self._bracket = ambient_bracket(self.flavor)
        super().__init__()

    @cached_property
    def basis(self) -> list[GradedPoly]:
        """The fibre coordinates of the parent chart."""
        return [self.parent.gen(name) for name in self.parent.fibre_names()]

    def bracket(self, f, g):
        return self._bracket(f, g, self.chart)

    def project(self, f: GradedPoly) -> GradedPoly:
        return restrict_to_zero_section(f)

    def prepare(self, arg: GradedPoly) -> GradedPoly:
        if arg.chart != self.parent:
            raise ChartMismatch(f"arguments live on the parent chart "
                                f"{self.parent.space}, not on {arg.chart.space}")
        return lift_to_phase(arg, self.chart)

    def parity_of(self, arg: GradedPoly) -> int:
        p = arg.parity()
        if p is None:
            raise ParityMismatch("arguments must be parity-homogeneous")
        return p

    def generator(self):
        return self.structure.value

    def self_bracket(self):
        return self.structure.self_bracket

    def sum(self, values):
        return GradedPoly.sum(self.parent, values)


class FieldEngine(DerivedBracketEngine):
    """Engine over vector fields on a point-base chart.

    Arguments and values are constant fields; the projector evaluates every
    component at the origin.
    """

    flavor = "field"

    def __init__(self, q: VectorField):
        if q.chart.kind != BASE_FIBRE or q.chart.n_base != 0:
            raise ChartMismatch(
                "the field engine expects a point-base (pure fibre) chart"
            )
        self.q = q
        self.chart = q.chart
        super().__init__()

    @cached_property
    def basis(self) -> list[VectorField]:
        """The constant fields d/dxi^(i+1), in generator order."""
        return [VectorField(self.chart, {g.name: self.chart.one()}, g.parity)
                for g in self.chart.generators]

    def bracket(self, f, g):
        return commutator(f, g)

    def project(self, x: VectorField) -> VectorField:
        comps = {}
        for n, comp in x.components.items():
            c = comp.constant_term()
            if c != 0:
                comps[n] = self.chart.const(c)
        return VectorField(self.chart, comps, x.parity)

    def parity_of(self, arg: VectorField) -> int:
        return arg.parity

    def generator(self):
        return self.q

    def self_bracket(self):
        return self.q.square()

    def sum(self, values):
        total = VectorField(self.chart, {})
        for v in values:
            total = total + v
        return total

    def coefficients(self, x: VectorField) -> list[int | Fraction]:
        """Constant-field coefficients in the basis-field order."""
        out = []
        for g in self.chart.generators:
            out.append(x.component(g.name).constant_term())
        return out


# ---------------------------------------------------------------------------
# the user-facing bracket families
# ---------------------------------------------------------------------------

def higher_bracket(eng: PhaseEngine, args: list[GradedPoly]) -> GradedPoly:
    """(X1, ..., Xr)_S on a schouten engine: nested even brackets with S, then
    zero-section; {F1, ..., Fr}_P on a poisson engine: nested odd brackets
    with P, sign-corrected, restricted.  Brackets of one engine share its memo."""
    raw = eng.derived(args)
    rule = eng.flavour.sign_exponent
    if rule is not None and rule([eng.parity_of(a) for a in args]):
        return raw.scaled(-1)
    return raw


# ---------------------------------------------------------------------------
# Jacobiators via unshuffles
# ---------------------------------------------------------------------------

def run_weight(m: int, k: int, parity: int) -> int:
    """The signed count of the ways to take k of a run of m equal arguments.

    Moving the chosen copies ahead of the others costs one exchange of two
    copies per inverted pair, so the sum of the Koszul signs over the
    k-subsets of the run is the Gaussian binomial [m, k] at q = (-1)^parity:
    C(m, k) for a Koszul-even run and, for an odd one, 0 when m is even and
    k odd, C(m // 2, k // 2) otherwise.
    """
    if not parity:
        return comb(m, k)
    if m % 2 == 0 and k % 2:
        return 0
    return comb(m // 2, k // 2)


def unshuffle_weight(lengths, counts, parities) -> tuple[int, list[int]]:
    """The signed count of a canonical subset, and its complement.

    The arguments fall into runs of ``lengths[r]`` consecutive equal ones,
    with Koszul ``parities`` per argument, and the canonical subset takes
    the first ``counts[r]`` copies of run r.  Every subset that takes as
    many copies of each run has the same inner and outer bracket.  The sum
    of their Koszul signs, for moving the chosen arguments ahead of the
    others, is the canonical subset's sign times the ``run_weight`` of each
    run; that sign is -1 to the number of pairs of a chosen Koszul-odd copy
    and an odd argument left out of an earlier run.  Returns that sum and
    the complement of the canonical subset, in index order.
    """
    rest, weight, start, odd_left = [], 1, 0, 0
    for r, m in enumerate(lengths):
        k, p = counts[r], parities[start]
        rest.extend(range(start + k, start + m))
        weight *= run_weight(m, k, p)
        if p:
            if k * odd_left % 2:
                weight = -weight
            odd_left += m - k
        start += m
    return weight, rest


def jacobiator(engine: DerivedBracketEngine, args: list):
    """The n-th Jacobiator, computed two independent ways.

    Returns the value both routes agree on.  Raises JacobiatorMismatch when
    the unshuffle sum disagrees with the derived bracket of the squared
    generator, which would signal a sign-convention bug.  An argument's
    Koszul parity is ``engine.parity_of`` plus the engine's shift; a
    polynomial keeps its parity and a field holds it, so a sweep scans each
    argument once, and a mixed-parity argument raises ParityMismatch here,
    not in ``derived``.  The unshuffle sum reads and extends the engine's
    memo.  Consecutive arguments at one memo position (one object) form a
    run, and a subset that takes k of a run's m copies has the brackets of
    the canonical one that takes the first k.
    Only canonical subsets are walked, each weighted by the exact signed
    count of its class (``unshuffle_weight``): its Koszul sign times, per
    run, C(m, k) when the run is Koszul-even and the Gaussian binomial
    [m, k] at q = -1 when it is odd.  They are walked depth first in index
    order, from an explicit stack that carries each subset with its memo
    key (a child's key is its parent's key plus one position), and a subset
    is extended only when ``engine.extends`` finds its partial stored and
    nonzero: the inner bracket of every extension of a vanished partial is
    zero.  A subset whose inner bracket or weight vanishes is dropped; every
    other inner value is registered as one more argument and fed first to
    the outer bracket.  Outer terms that vanish are skipped, the others
    weighted and summed once (the engine's zero when none survives).  The
    squared-generator route computes the nested definition afresh, with no
    zero rule, and never touches the memo.
    """
    n = len(args)
    pos = engine.positions(args)
    parities = [(engine.parity_of(a) + engine.koszul_shift) & 1 for a in args]
    starts = [i for i in range(n) if i == 0 or pos[i] != pos[i - 1]]
    lengths = [b - a for a, b in zip(starts, starts[1:] + [n])]
    run_of = [r for r, m in enumerate(lengths) for _ in range(m)]
    live, stack = [], [((), ())]
    while stack:
        subset, key = stack.pop()
        v = engine.value(key)
        if not v.is_zero():
            counts = [0] * len(lengths)
            for i in subset:
                counts[run_of[i]] += 1
            weight, rest = unshuffle_weight(lengths, counts, parities)
            if weight:
                live.append((weight, rest, v))
        if engine.extends(key):
            start = subset[-1] + 1 if subset else 0
            stack.extend((subset + (i,), key + (pos[i],))
                         for i in reversed(range(start, n))
                         if i == start or pos[i] != pos[i - 1])
    inners = engine.positions([v for _, _, v in live])
    terms = []
    for (weight, rest, _), inner in zip(live, inners):
        term = engine.value((inner, *(pos[i] for i in rest)))
        if not term.is_zero():
            terms.append(term.scaled(weight))
    total = engine.sum(terms)
    via_square = engine.derived(args, generator=engine.squared_generator())
    if total != via_square:
        raise JacobiatorMismatch(
            f"unshuffle sum disagrees with the squared-generator route "
            f"for arity {n}"
        )
    return total


# ---------------------------------------------------------------------------
# Leibniz (multiderivation) checks
# ---------------------------------------------------------------------------

@dataclass
class LeibnizReport:
    flavor: str
    arity: int
    trials: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def leibniz_exponent(flavor: str, parities: list[int]) -> int:
    """Exponent in the multiderivation rule for the last slot.

    parities = [a1, ..., a_{r-1}, a_r]; the rule reads
    (a1, ..., a_r a_{r+1}) = (a1, ..., a_r) a_{r+1}
        + (-1)^(a_r (a1 + ... + a_{r-1} + s)) a_r (a1, ..., a_{r+1})
    with s = 1 for the odd (schouten) family and s = r for the poisson one.
    """
    *front, last = parities
    return (last * (sum(front) + FLAVOURS[flavor].leibniz_s(parities))) & 1


def leibniz_check(bracket, chart: Chart, flavor: str, arity: int,
                  trials: int, rng) -> LeibnizReport:
    """Test the multiderivation identity on random homogeneous inputs.

    ``bracket`` maps a list of polynomials on ``chart`` to a polynomial.
    Reports the first witness per failed trial.
    """
    from .randgen import random_poly

    failures: list[str] = []
    for t in range(trials):
        front = [
            random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
            for _ in range(arity - 1)
        ]
        ar = random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
        ar1 = random_poly(rng, chart, max_degree=2, n_terms=2, parity=rng.randint(0, 1))
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
    return LeibnizReport(flavor, arity, trials, failures)


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

@dataclass
class BracketTable:
    """n-ary bracket values on tuples of fibre coordinate functions.

    ``parity`` is the common parity shift of the operation (value parity
    minus argument parities, None when every entry vanishes); ``weight`` is
    the drop 1 - arity in the natural fibre weight, checked entry by entry.
    """

    flavor: str
    arity: int
    labels: list[str]
    entries: dict[tuple[int, ...], GradedPoly]
    parity: int | None = None
    weight: int = 0

    def render(self) -> str:
        lines = [f"arity {self.arity} [{self.flavor}]"]
        for tup in sorted(self.entries):
            names = ",".join(self.labels[i] for i in tup)
            lines.append(f"  ({names}) -> {self.entries[tup].render()}")
        return "\n".join(lines)


def _table_metadata(chart: Chart, labels, entries, arity: int):
    """Common parity shift and checked fibre-weight drop of a table."""
    shift = None
    for tup, value in entries.items():
        if value.is_zero():
            continue
        vp = value.parity()
        if vp is None:
            raise GradedAlgebraError("bracket value has mixed parity")
        args_parity = sum(chart.generator(labels[i]).parity for i in tup) & 1
        this = (vp + args_parity) & 1
        if shift is None:
            shift = this
        elif shift != this:
            raise GradedAlgebraError("table entries disagree on operation parity")
        w = value.weight()
        args_w1 = sum(chart.generator(labels[i]).weight[0] for i in tup)
        if w is not None and w[0] != args_w1 + (1 - arity):
            raise GradedAlgebraError("table entry violates the weight drop")
    return shift, 1 - arity


def _phase_table(eng: PhaseEngine, arity: int) -> BracketTable:
    fibre = eng.parent.fibre_names()
    entries = {}
    for tup in combinations_with_replacement(range(len(fibre)), arity):
        entries[tup] = higher_bracket(eng, [eng.basis[i] for i in tup])
    parity, weight = _table_metadata(eng.parent, fibre, entries, arity)
    return BracketTable(eng.flavor, arity, fibre, entries, parity, weight)


def schouten_bracket_table(s: HigherStructure, arity: int) -> BracketTable:
    return _phase_table(PhaseEngine(s), arity)


def poisson_bracket_table(p: HigherStructure, arity: int) -> BracketTable:
    return _phase_table(PhaseEngine(p), arity)


def _field_entry(eng: FieldEngine, tup: tuple[int, ...]) -> GradedPoly:
    """(s_a1, ..., s_ar) written as the fibre-linear polynomial sum c_b xi^b."""
    value = eng.derived([eng.basis[i] for i in tup])
    return GradedPoly(eng.chart, {
        ((j, 1),): c for j, c in enumerate(eng.coefficients(value)) if c != 0
    })


def fibre_parity_of_index(chart: Chart, i: int) -> int:
    """The underlying fibre parity a for a PiE-chart generator xi (parity a+1)."""
    return (chart.generators[i].parity + 1) & 1


def _skew_sign(chart: Chart, tup: tuple[int, ...]) -> int:
    """(-1)^(a1 (r-1) + a2 (r-2) + ... + a_{r-1} + 1), unshifted parities a_i."""
    r = len(tup)
    e = 1
    for pos, i in enumerate(tup[:-1], start=1):
        e += fibre_parity_of_index(chart, i) * (r - pos)
    return -1 if e & 1 else 1


def symmetric_field_table(eng: FieldEngine, arity: int) -> BracketTable:
    """Symmetric brackets (s_a1, ..., s_ar) over a point base, as fields."""
    entries = {
        tup: _field_entry(eng, tup)
        for tup in combinations_with_replacement(range(len(eng.basis)), arity)
    }
    labels = [g.name for g in eng.chart.generators]
    return BracketTable("field", arity, labels, entries)


def skew_bracket_table(eng: FieldEngine, arity: int) -> BracketTable:
    """Skew brackets {T_a1, ..., T_ar} on the unshifted space.

    Obtained from the symmetric table by the parity-shift sign of
    ``_skew_sign``; skew-symmetry under adjacent exchanges is verified.
    """
    sym = symmetric_field_table(eng, arity)
    entries = {
        tup: value.scaled(_skew_sign(eng.chart, tup)) for tup, value in sym.entries.items()
    }
    table = BracketTable("skew", arity, sym.labels, entries)
    _verify_skew(eng, table)
    return table


def _verify_skew(eng: FieldEngine, table: BracketTable):
    """Adjacent exchange must flip the sign by -(-1)^(a_i a_j)."""
    chart = eng.chart
    for tup in table.entries:
        for k in range(len(tup) - 1):
            swapped = list(tup)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            swapped = tuple(swapped)
            pi_ = fibre_parity_of_index(chart, tup[k])
            pj = fibre_parity_of_index(chart, tup[k + 1])
            sign = -1 if not (pi_ and pj) else 1
            value = _field_entry(eng, swapped).scaled(_skew_sign(chart, swapped))
            expected = table.entries[tup].scaled(sign)
            if value != expected:
                raise GradedAlgebraError(
                    f"skew table fails antisymmetry on {tup} at slot {k}"
                )


# ---------------------------------------------------------------------------
# anchors and the weight-one restriction statement
# ---------------------------------------------------------------------------

def higher_anchor(q: VectorField, tup: tuple[int, ...], f: GradedPoly) -> GradedPoly:
    """Action of the r-anchor on a base function.

    Defined through nested commutators of Q with the constant fibre fields,
    applied to the base function and then restricted to the base; this fixes
    the sign convention once and for all.
    """
    chart = q.chart
    if f.chart != chart:
        raise ChartMismatch("the base function must live on the field's chart")
    if f.contains_any(chart.fibre_names()):
        raise GradedAlgebraError("anchor arguments act on base functions only")
    cur = q
    for i in tup:
        name = chart.generators[i].name
        const = VectorField(chart, {name: chart.one()}, chart.generators[i].parity)
        cur = commutator(cur, const)
    return cur(f).drop_generators(chart.fibre_names())


@dataclass
class StatementReport:
    per_arity: dict[int, bool]
    details: list[str]

    @property
    def ok(self) -> bool:
        return all(self.per_arity.values())


def weight_one_restriction_check(q: VectorField, s: HigherStructure,
                                 p: HigherStructure, max_arity: int = 4) -> StatementReport:
    """Over a point base: restricted derived brackets = input brackets.

    For every tuple of weight-one coordinates eta (resp. e) up to the arity
    bound, the derived bracket with S (resp. the sign-corrected one with P)
    must match the symmetric (resp. skew) bracket table of Q transported
    through s_b -> eta_b (resp. T_b -> e_b).  Both tables, at every arity,
    read the memo of one field engine; each phase side has its own engine.
    """
    if q.chart.n_base != 0:
        raise ChartMismatch("the restriction statement is for a point base")
    n = len(q.chart.generators)
    field = FieldEngine(q)
    sides = ((PhaseEngine(s), symmetric_field_table),
             (PhaseEngine(p), skew_bracket_table))
    per_arity: dict[int, bool] = {}
    details: list[str] = []
    for r in range(0, max_arity + 1):
        ok = True
        tables = [table_of(field, r) for _, table_of in sides]
        for tup in combinations_with_replacement(range(n), r):
            for (eng, _), table in zip(sides, tables):
                lhs = higher_bracket(eng, [eng.basis[i] for i in tup])
                rhs = _transport_value(table.entries[tup], eng.parent)
                if lhs != rhs:
                    ok = False
                    details.append(f"arity {r} {eng.flavor} tuple {tup} differs")
        per_arity[r] = ok
    return StatementReport(per_arity, details)


def _transport_value(value: GradedPoly, dual: Chart) -> GradedPoly:
    """Send a fibre-linear value sum c_b xi^b to sum c_b eta_b (or e_b): over a
    point base PiE and ``dual`` list their fibre coordinates in the same order."""
    if any(len(m) != 1 or m[0][1] != 1 for m in value.terms):
        raise GradedAlgebraError("expected a fibre-linear bracket value")
    return GradedPoly(dual, dict(value.terms))
