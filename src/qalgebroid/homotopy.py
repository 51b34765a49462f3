"""Higher derived brackets, Jacobiators, Leibniz checks and bracket tables.

A derived-bracket engine packages (ambient Lie bracket, generator, projector
onto an abelian subalgebra).  Three instances are used:

* flavor "schouten": functions on T*(PiE*) under the even canonical bracket,
  generator S, projector = restriction to the zero section.  Brackets are
  the odd symmetric ones on functions of (x, eta).
* flavor "poisson": functions on PiT*(E*) under the odd canonical bracket,
  generator P, projector likewise.  Since the ambient bracket is odd, Koszul
  signs are computed with parities shifted by one (P itself counts as odd),
  which is how the odd-bracket algebra becomes a Lie superalgebra.
* flavor "field": vector fields on a point-base anti-bundle chart under the
  supercommutator, generator Q, projector = evaluation of components at the
  origin, abelian subalgebra = constant fields.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Callable

from .charts import (
    BASE_FIBRE,
    Chart,
    lift_to_phase,
    restrict_to_zero_section,
)
from .construction import HigherStructure, ambient_bracket
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
# flavours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flavour:
    """The conventions that tell the schouten and poisson families apart.

    Sign rules take parity lists and return an exponent of -1:
    ``sign_exponent`` corrects the nested bracket into the user-facing one
    (None: no correction), ``closed_eps(r, fibre parities, argument
    parities)`` is the closed-form exponent, ``fundamental_sign`` that of a
    fundamental value, and ``leibniz_s`` gives s in the multiderivation rule.
    """

    name: str
    koszul_shift: int  # the parity of the ambient canonical bracket
    family: str  # dual fibre coordinates: eta on T*(PiE*), e on PiT*(E*)
    sign_exponent: Callable[[list[int]], int] | None
    closed_eps: Callable[[int, list[int], list[int]], int]
    fundamental_sign: Callable[[list[int]], int]
    leibniz_s: Callable[[list[int]], int]


def poisson_sign_exponent(parities: list[int]) -> int:
    """Skew-symmetrising exponent F1(r-1) + F2(r-2) + ... + F_{r-1} + r."""
    r = len(parities)
    e = r
    for i, p in enumerate(parities[:-1], start=1):
        e += p * (r - i)
    return e & 1


def _schouten_closed_eps(r: int, fp: list[int], arg_par: list[int]) -> int:
    e = sum(fp)
    for j in range(r - 1):
        e += arg_par[j] * (sum(fp[j + 1:]) + r + j + 1)
    return e & 1


def _poisson_closed_eps(r: int, fp: list[int], arg_par: list[int]) -> int:
    e = 1 + r + r * (r + 1) // 2
    for j in range(r - 1):
        e += arg_par[j] * sum(fp[j + 1:])
    for pos, p in enumerate(fp, start=1):
        e += pos * p
    return e & 1


FLAVOURS = {
    "schouten": Flavour(
        "schouten", 0, "eta", None, _schouten_closed_eps,
        fundamental_sign=sum,
        leibniz_s=lambda parities: 1,
    ),
    "poisson": Flavour(
        "poisson", 1, "e", poisson_sign_exponent, _poisson_closed_eps,
        fundamental_sign=lambda fp: 1 + sum(p * (len(fp) - i) for i, p in enumerate(fp)),
        leibniz_s=len,
    ),
}


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

class DerivedBracketEngine:
    """Nested-bracket evaluation (a1, ..., an) = project [...[D, a1], ..., an].

    An engine supplies ``flavor``, ``bracket``, ``project``, ``parity_of``,
    ``generator`` and ``squared_generator`` (half the self-bracket of the
    generator), and calls ``__init__`` once its generator is available.
    """

    koszul_shift = 0

    def __init__(self):
        self._args: list = []  # registered arguments, held so that ids stay unique
        self._position: dict[int, int] = {}
        self._prepared: list = []
        self._partial: dict[tuple, object] = {(): self.generator()}
        self._value: dict[tuple, object] = {}

    def prepare(self, arg):
        """Lift an argument of the abelian subalgebra into the ambient algebra."""
        return arg

    def finish(self, value):
        """Map a projected ambient value back to the abelian subalgebra."""
        return value

    def koszul_parity(self, arg) -> int:
        return (self.parity_of(arg) + self.koszul_shift) & 1

    def derived(self, args, generator=None):
        """The nested bracket of ``args``: from the memo, or afresh with ``generator``."""
        if generator is None:
            return self.value(self.positions(args))
        cur = generator
        for a in args:
            cur = self.bracket(cur, self.prepare(a))
        return self.finish(self.project(cur))

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
        """The derived bracket of the registered arguments at ``key``."""
        v = self._value.get(key)
        if v is None:
            k = len(key)
            while key[:k] not in self._partial:
                k -= 1
            cur = self._partial[key[:k]]
            for i in range(k, len(key)):
                cur = self._partial[key[:i + 1]] = self.bracket(cur, self._prepared[key[i]])
            v = self._value[key] = self.finish(self.project(cur))
        return v


class PhaseEngine(DerivedBracketEngine):
    """Engine over a phase-space function algebra."""

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

    def project(self, f):
        return lift_to_phase(restrict_to_zero_section(f), self.chart)

    def prepare(self, arg: GradedPoly):
        if arg.chart == self.parent:
            return lift_to_phase(arg, self.chart)
        if arg.chart == self.chart:
            if arg.contains_any(self.chart.conjugate_names()):
                raise ChartMismatch("argument is not a zero-section function")
            return arg
        raise ChartMismatch("argument lives on the wrong chart")

    def finish(self, value: GradedPoly):
        return restrict_to_zero_section(value)

    def parity_of(self, arg: GradedPoly) -> int:
        p = arg.parity()
        if p is None:
            raise ParityMismatch("arguments must be parity-homogeneous")
        return p

    def generator(self):
        return self.structure.value

    def squared_generator(self):
        return self.structure.self_bracket.scaled(Fraction(1, 2))


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
        self._squared = None
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

    def basis_field(self, i: int) -> VectorField:
        """The constant field d/dxi^(i+1), the image of the i-th basis vector."""
        return self.basis[i]

    def generator(self):
        return self.q

    def squared_generator(self):
        if self._squared is None:
            self._squared = commutator(self.q, self.q).scaled(Fraction(1, 2))
        return self._squared

    def coefficients(self, x: VectorField) -> list[Fraction]:
        """Constant-field coefficients in the basis-field order."""
        out = []
        for g in self.chart.generators:
            out.append(x.component(g.name).constant_term())
        return out


def _phase_engine(h: HigherStructure, flavor: str) -> PhaseEngine:
    if h.flavor != flavor:
        raise GradedAlgebraError(f"expected a {flavor}-flavor structure")
    return PhaseEngine(h)


def schouten_engine(s: HigherStructure) -> PhaseEngine:
    return _phase_engine(s, "schouten")


def poisson_engine(p: HigherStructure) -> PhaseEngine:
    return _phase_engine(p, "poisson")


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


def jacobiator(engine: DerivedBracketEngine, args: list) -> tuple:
    """The n-th Jacobiator, computed two independent ways.

    Returns (value, via_squared_generator).  Raises JacobiatorMismatch when
    the unshuffle sum disagrees with the derived bracket of the squared
    generator, which would signal a sign-convention bug.  The unshuffle sum
    reads and extends the engine's memo: each inner bracket value is
    registered as one more argument and fed first to the outer bracket.  The
    squared-generator route computes afresh and never touches the memo.
    """
    n = len(args)
    parities = [engine.koszul_parity(a) for a in args]
    pos = engine.positions(args)
    subsets = [s for k in range(n + 1) for s in combinations(range(n), k)]
    inners = engine.positions([engine.value(tuple(pos[i] for i in s)) for s in subsets])
    total = None
    for subset, inner in zip(subsets, inners):
        rest = [i for i in range(n) if i not in subset]
        sign = koszul_sign(list(subset) + rest, parities)
        term = engine.value((inner, *(pos[i] for i in rest))).scaled(sign)
        total = term if total is None else total + term
    via_square = engine.derived(args, generator=engine.squared_generator())
    if total != via_square:
        raise JacobiatorMismatch(
            f"unshuffle sum disagrees with the squared-generator route "
            f"for arity {n}"
        )
    return total, via_square


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
# structure constants, closed formulas, tables
# ---------------------------------------------------------------------------

def fibre_indices(chart: Chart) -> list[int]:
    return list(range(chart.n_base, len(chart.generators)))


def structure_constant(q: VectorField, target: str, tup: tuple[int, ...]) -> GradedPoly:
    """The graded-symmetric coefficient of the field for one index tuple.

    Computed by iterated left derivatives in tuple order applied to the
    target component, then evaluation at zero fibre coordinates.  On a chart
    with base coordinates the result is a base function.
    """
    comp = q.component(target)
    names = [q.chart.generators[i].name for i in tup]
    for name in reversed(names):
        comp = comp.left_derivative(name)
    return comp.drop_generators(q.chart.fibre_names())


def fibre_parity_of_index(chart: Chart, i: int) -> int:
    """The underlying fibre parity a for a PiE-chart generator xi (parity a+1)."""
    return (chart.generators[i].parity + 1) & 1


def _structure_value(q: VectorField, dual_chart: Chart, family: str,
                     tup: tuple[int, ...]) -> GradedPoly:
    """sum_b Q^b_(tup) family_b, with the base-target part dropped."""
    summands = []
    for j, i in enumerate(fibre_indices(q.chart)):
        c = structure_constant(q, q.chart.generators[i].name, tup)
        if not c.is_zero():
            summands.append(_base_function_on(c, dual_chart) * dual_chart.gen(f"{family}{j + 1}"))
    return GradedPoly.sum(dual_chart, summands)


def _fundamental_value(q: VectorField, dual_chart: Chart, tup: tuple[int, ...],
                       flavour: Flavour) -> GradedPoly:
    fp = [fibre_parity_of_index(q.chart, i) for i in tup]
    value = _structure_value(q, dual_chart, flavour.family, tup)
    return value.scaled(-1 if flavour.fundamental_sign(fp) & 1 else 1)


def fundamental_schouten_value(q: VectorField, dual_chart: Chart,
                               tup: tuple[int, ...]) -> GradedPoly:
    """(eta_a1, ..., eta_ar)_S from the structure constants directly.

    Equals (-1)^(sum of fibre parities) * sum_b Q^b_(a1...ar) eta_b, with the
    base-target part dropped (it does not survive the zero-section
    restriction at this weight).
    """
    return _fundamental_value(q, dual_chart, tup, FLAVOURS["schouten"])


def fundamental_poisson_value(q: VectorField, dual_chart: Chart,
                              tup: tuple[int, ...]) -> GradedPoly:
    """{e_a1, ..., e_ar}_P from the structure constants directly.

    Equals (-1)^(sum_i a_i (r - i + 1) + 1) * sum_b Q^b_(a1...ar) e_b.
    """
    return _fundamental_value(q, dual_chart, tup, FLAVOURS["poisson"])


def _base_function_on(f: GradedPoly, target: Chart) -> GradedPoly:
    """Transport a base-coordinate function onto another chart over the same base."""
    images = {name: target.gen(name) for name in f.chart.base_names()}
    return f.substitute(images, target)


def _closed_form(q: VectorField, dual_chart: Chart, args: list[GradedPoly],
                 flavour: Flavour) -> GradedPoly:
    if q.chart.n_base != 0:
        raise ChartMismatch("the closed formulas apply over a point base")
    r = len(args)
    fidx = fibre_indices(q.chart)
    arg_par = []
    for a in args:
        p = a.parity()
        if p is None:
            raise ParityMismatch("closed-form arguments must be homogeneous")
        arg_par.append(p)
    summands = []
    for tup in product(fidx, repeat=r):
        factor = dual_chart.one()
        for pos, i in enumerate(tup):
            factor = factor * args[pos].left_derivative(
                f"{flavour.family}{fidx.index(i) + 1}"
            )
            if factor.is_zero():
                break
        if factor.is_zero():
            continue
        core = _structure_value(q, dual_chart, flavour.family, tuple(reversed(tup)))
        if core.is_zero():
            continue
        fp = [fibre_parity_of_index(q.chart, i) for i in tup]
        eps = flavour.closed_eps(r, fp, arg_par)
        summands.append((core * factor).scaled(-1 if eps else 1))
    return GradedPoly.sum(dual_chart, summands)


def lie_schouten_closed_form(q: VectorField, dual_chart: Chart,
                             args: list[GradedPoly]) -> GradedPoly:
    """Closed evaluation of (X1, ..., Xr)_S over a point base.

    Sums over index tuples (a1..ar):
        (-1)^eps Q^b_(ar...a1) eta_b  d X1/d eta_a1 ... d Xr/d eta_ar
    with eps = sum_j Xj (a_{j+1} + ... + a_r + r + j)  +  sum_i a_i,
    parities of X read per homogeneous argument.
    """
    return _closed_form(q, dual_chart, args, FLAVOURS["schouten"])


def lie_poisson_closed_form(q: VectorField, dual_chart: Chart,
                            args: list[GradedPoly]) -> GradedPoly:
    """Closed evaluation of {F1, ..., Fr}_P over a point base.

    Sums over index tuples:
        (-1)^eps Q^b_(ar...a1) e_b  d F1/d e_a1 ... d Fr/d e_ar
    with eps = 1 + r + r(r+1)/2 + sum_j Fj (a_{j+1} + ... + a_r)
               + sum_i i a_i   (1-based positions).
    """
    return _closed_form(q, dual_chart, args, FLAVOURS["poisson"])


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
    return _phase_table(schouten_engine(s), arity)


def poisson_bracket_table(p: HigherStructure, arity: int) -> BracketTable:
    return _phase_table(poisson_engine(p), arity)


def _field_entry(eng: FieldEngine, tup: tuple[int, ...]) -> GradedPoly:
    """(s_a1, ..., s_ar) written as the fibre-linear polynomial sum c_b xi^b."""
    value = eng.derived([eng.basis[i] for i in tup])
    return GradedPoly(eng.chart, {
        ((j, 1),): c for j, c in enumerate(eng.coefficients(value)) if c != 0
    })


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
    sides = ((schouten_engine(s), symmetric_field_table),
             (poisson_engine(p), skew_bracket_table))
    per_arity: dict[int, bool] = {}
    details: list[str] = []
    for r in range(0, max_arity + 1):
        ok = True
        tables = [table_of(field, r) for _, table_of in sides]
        for tup in combinations_with_replacement(range(n), r):
            for (eng, _), table in zip(sides, tables):
                lhs = higher_bracket(eng, [eng.basis[i] for i in tup])
                rhs = _transport_value(table.entries[tup], eng.parent, eng.flavour.family)
                if lhs != rhs:
                    ok = False
                    details.append(f"arity {r} {eng.flavor} tuple {tup} differs")
        per_arity[r] = ok
    return StatementReport(per_arity, details)


def _transport_value(value: GradedPoly, dual: Chart, family: str) -> GradedPoly:
    """Send a fibre-linear value sum c_b xi^b to sum c_b eta_b (or e_b)."""
    terms = {}
    for m, c in value.terms.items():
        if len(m) != 1 or m[0][1] != 1:
            raise GradedAlgebraError("expected a fibre-linear bracket value")
        terms[((dual.index_of(f"{family}{m[0][0] + 1}"), 1),)] = c
    return GradedPoly(dual, terms)
