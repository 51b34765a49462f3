"""Higher derived brackets, Jacobiators, Leibniz checks and bracket tables.

A derived-bracket engine packages an ambient Lie bracket, a generator D, a
projector ``project`` onto an abelian subalgebra V and the inclusion
``prepare`` of V; the brackets on V are project [...[D, a1], ..., an]
(Voronov, *Higher derived brackets and homotopy algebras*, JPAA 202, 2005).
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
The rules below hold for every engine; the other docstrings of this module
refer to them by name.

Two routes.  The n-th Jacobiator computed as an unshuffle sum over the
derived brackets (inner bracket fed as the first outer argument, plain
Koszul exchange signs in the engine's parities) equals the n-th derived
bracket of half the self-bracket of the generator.  ``jacobiator`` asserts
the equality each time; it holds whether or not the generator squares to
zero, which is exactly what makes non-homological negative controls
meaningful.

The coefficient table.  On arguments of V a nested bracket is a Taylor
coefficient of the generator times derivatives of the arguments (Voronov,
JPAA 202, 2005).  An engine makes the table of those coefficients at an
arity on first use and keeps it for its life (one command); a read makes
no ambient bracket, lift or projection.

* Phase engines.  The conjugate y* of a parent generator y has parity
  |y| + c, c the parity of the ambient bracket.  A lifted parent function a
  has no conjugates, so the canonical bracket (``fields``) keeps one
  product per pair, [F, a] = sum_z s1 d_{z*}F_p d_z a over the parity parts
  F_p of F with (s1, s2) = ``fields._pair_signs``(|z|, |F_p|, c), a term of
  parity |F_p| + c + |a| that a later d_{z'*} passes.  So for
  parity-homogeneous a_i

      [...[D, a1], ..., ak] = sum_z s(z) (d_{zk*} ... d_{z1*} D) d_{z1}a1 ... d_{zk}ak,

  s(z) = prod_i _pair_signs(|z_i|, p_(i-1), c)[0], p_(i-1) = |D| +
  sum_{j<i} (|a_j| + c).  Setting the conjugates to zero is an algebra map
  that fixes parent functions, so only the terms of D of conjugate degree
  exactly k survive: the entry at parent indices z is C(z) = d_{zk*} ...
  d_{z1*} of those terms.  The factor of s(z) that reads |D| is (-1) to
  |D| times the parity of the conjugate factors of each term feeding C(z),
  so each term is signed by it, with its own parity, when the table is made
  (a D of mixed parity is read term by term); a slot's factor is then
  _pair_signs(|z_i|, q_(i-1), c)[0], q_(i-1) = sum_{j<i} (|a_j| + c).  A
  mixed-parity argument is read part by part (multilinearity).
* The field engine.  For a constant field Y, [X, Y]^z = -(-1)^(|X||Y|)
  sum_j Y^j d_j X^z (``fields.commutator``), so project [...[Q, Y1], ..., Yk]
  has the components prod_i -(-1)^(p_(i-1)|Y_i|) sum_j Y1^(j1) ... Yk^(jk)
  d_{jk} ... d_{j1} Q^z at the origin, p_(i-1) = |Q| + |Y_1| + ... +
  |Y_(i-1)|: the Taylor coefficients of Q (Alexandrov, Kontsevich, Schwarz
  and Zaboronsky, IJMPA 12, 1997), from the terms of Q^z of degree k.  As
  Y_i^(j) is nonzero only when |j| = |Y_i|, the factor that reads |Q| is
  (-1) to |Q| times the parity of the term, signed into the table likewise.

The entries are term maps (the field engine's c_z xi^z for c_z d/dxi^z); a
value sums the entries at the ordered tuples of indices in the arguments'
supports, and on generators it is one signed entry.

The zero rule.  Brackets are multilinear, [0, a] = 0: a zero argument has
no support, so a read visits no entry; the squared route stops at its first
vanishing partial, and the ambient brackets apply the same rule on entry.

The degree rule.  The degree of a term is its conjugate degree for a phase
engine and its polynomial degree for the field engine.  A bracket with an
argument of V lowers every degree by one and the projection keeps degree
0, so the value at k arguments comes only from the terms of degree exactly
k, and the table at k has keys exactly when k is such a degree.  Each
engine keeps that set (``degrees``), and ``derived`` answers any other
arity with the engine's zero value, making no table.  In the unshuffle sum
of the n-th Jacobiator a subset of k arguments has an inner value of k
arguments and an outer one of n + 1 - k, so it contributes only when both
are in ``degrees``: the admissible sizes (``admissible_sizes``), which the
sum visits alone, in ascending order.

The run weights.  Consecutive arguments that are one object form a run, and
the subsets that take as many copies of each run share their inner and
outer values.  So the sum visits one canonical subset per
tuple of counts per run, the one that takes the first copies of each run,
and weights it by the exact signed count of its class (``unshuffle_weight``):
its Koszul sign times, for each run of m copies of which c are taken, the
run weight.  Moving the chosen copies ahead of the others costs one
exchange of two copies per inverted pair, so the run weight is the Gaussian
binomial [m, c] at q = (-1)^parity: C(m, c) when the run is Koszul-even
and, when it is odd, 0 for m even and c odd, C(m // 2, c // 2) otherwise
(``run_weight``).  The identity is a count of exchange signs; it does not
use graded symmetry, and a tuple without repeats visits every subset of an
admissible size at weight its Koszul sign.  A run's parity is asked once.
A class whose weight or inner value vanishes, and an outer term that
vanishes, are skipped by the zero rule.

The sweep skip.  A sweep of every basis tuple at arity n
(``jacobiator_sweep``) visits none when the engine has no admissible size
at n and its squared generator is zero: both routes are then zero on every
tuple.  A nonzero squared generator is walked tuple by tuple.  The
restriction statement likewise compares no arity outside the degree sets
of all three of its engines: every bracket on both sides of it is zero.

The independent squared route.  ``derived(args, generator=g)`` is the
literal nested definition: the tests' oracle for the table route, and the
Jacobiator's squared-generator route.  It checks every argument first (a
refused argument raises whatever the generator), then brackets while the
partial is nonzero and projects.  It reads no table or degree set, so the
two routes share no computed bracket, and the squared generator of a
homological input, which is zero, costs no bracket.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

from .charts import (
    BASE_FIBRE,
    Chart,
    lift_to_phase,
    restrict_to_zero_section,
)
from .construction import FLAVOURS, HigherStructure, ambient_bracket, poisson_sign_exponent
from .fields import VectorField, _pair_signs, commutator
from .gradedpoly import (
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    ParityMismatch,
    _cleared,
    _collect,
    _divided,
    _gradient,
    _masked,
    _product_into,
    _require_chart,
)


class JacobiatorMismatch(GradedAlgebraError):
    """The unshuffle sum and the squared-generator route disagree."""


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _slot(terms: dict, odd: tuple[bool, ...]) -> dict:
    """An argument's left derivatives by index: a constant as itself, else
    ``_masked``; a multiple of one generator is read off its one term."""
    if len(terms) == 1:
        (m, c), = terms.items()
        if len(m) == 1 and m[0][1] == 1:
            return {m[0][0]: c}
    return {z: d[()] if len(d) == 1 and () in d else _masked(d, odd)
            for z, d in _gradient(terms, odd).items()}


def _taylor(terms: dict, k: int, odd: tuple[bool, ...], first: int) -> dict[tuple, dict]:
    """The iterated left derivatives of the term map ``terms`` by k of the
    generators at or above index ``first``: ordered tuples (j1, ..., jk) ->
    the term map of d_{first+jk} ... d_{first+j1} terms, d_{first+j1} taken
    first, for every tuple whose derivative is nonzero."""
    level = {(): terms} if terms else {}
    for _ in range(k):
        level = {key + (g - first,): d for key, t in level.items()
                 for g, d in _gradient(t, odd, first).items()}
    return level


class DerivedBracketEngine:
    """Nested-bracket evaluation (a1, ..., an) = project [...[D, a1], ..., an].

    Made from the generator D, its terms by degree, signed for the table,
    and a callable that gives its self-bracket, called on first use.  A
    subclass supplies ``flavor``, ``basis``, ``bracket`` (ambient),
    ``project`` (onto V), ``check`` (refuse an argument outside V),
    ``parity_of``, ``sum`` (of values), ``coefficients`` (the table at an
    arity), ``parts`` (an argument's parity parts, with their derivatives by
    index), ``value`` (from a term map) and ``_signs`` (a slot's sign factor
    by the parity before it and that of its index), and overrides
    ``prepare`` when the inclusion of V is not the identity.
    """

    koszul_shift = 0

    def __init__(self, generator, by_degree: dict, self_bracket):
        self._generator = generator
        self._by_degree = by_degree
        self._tables: dict[int, dict] = {}  # the coefficient table per arity
        self._self_bracket = self_bracket
        self._half_square = None
        self.degrees = frozenset(by_degree)

    def generator(self):
        """The generator D."""
        return self._generator

    def prepare(self, arg):
        """Include an argument of the abelian subalgebra in the ambient algebra."""
        return arg

    @cached_property
    def _basis_parts(self) -> dict:
        """The parts of each basis argument by identity (the engine keeps its basis)."""
        return {id(b): self.parts(b) for b in self.basis}

    def admissible_sizes(self, n: int) -> list[int]:
        """The admissible inner sizes of the n-th unshuffle sum, ascending
        (the degree rule)."""
        return [k for k in sorted(self.degrees) if n + 1 - k in self.degrees]

    def squared_generator(self):
        """Half the self-bracket of the generator, made on first use and kept."""
        if self._half_square is None:
            self._half_square = self._self_bracket().scaled(Fraction(1, 2))
        return self._half_square

    def derived(self, args, generator=None):
        """The nested bracket of ``args``: read off the coefficient table, or
        afresh with ``generator`` (the independent squared route).

        A read sums, over each choice of the arguments' parity parts and each
        key z of the table in the product of their supports, the entry times
        the slots' sign factors and the derivatives d_{z_i} a_i: a constant
        scales it, any other multiplies it on the right, in slot order.
        """
        for a in args:
            self.check(a)
        if generator is not None:
            cur = generator
            for a in args:
                if cur.is_zero():
                    break
                cur = self.bracket(cur, self.prepare(a))
            return self.project(cur)
        k = len(args)
        if k not in self.degrees:
            return self.value({}, args)
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = self.coefficients(self._by_degree[k], k)
        odd, signs, c = self.chart.odd_flags, self._signs, self.koszul_shift
        known = self._basis_parts
        out: dict = {}
        for parts in product(*[known.get(id(a)) or self.parts(a) for a in args]):
            for z in product(*[d for _, d in parts]):
                entry = table.get(z)
                if entry is None:
                    continue
                w, q = 1, 0
                for zi, (p, d) in zip(z, parts):
                    w *= signs[q][odd[zi]]
                    q ^= p ^ c
                    if type(d[zi]) is list:
                        entry = _product_into({}, entry, d[zi], odd)
                    else:
                        w *= d[zi]
                pairs = ((m, w * v) for m, v in entry.items())
                out = _collect(out, pairs) if out else dict(pairs)
        return self.value(out, args)


class PhaseEngine(DerivedBracketEngine):
    """Engine over a phase-space function algebra, in the flavour of its
    structure: its table maps parent indices z to C(z) (the module docstring).
    """

    def __init__(self, structure: HigherStructure):
        if structure.flavor not in FLAVOURS:
            raise GradedAlgebraError(f"unknown flavor {structure.flavor!r}")
        self.chart = structure.chart
        self.parent = self.chart.parent_chart()
        self.flavour = FLAVOURS[structure.flavor]
        self.flavor = self.flavour.name
        self.koszul_shift = self.flavour.koszul_shift
        self._bracket = ambient_bracket(self.flavor)
        self._signs = [[_pair_signs(a, q, self.koszul_shift)[0] for a in (0, 1)] for q in (0, 1)]
        n = len(self.parent.generators)  # the conjugates follow the parent generators
        d, by_degree = structure.value, {}
        for m, coeff in d.terms.items():
            z = [(i, e) for i, e in m if i >= n]  # the conjugate factors
            by_degree.setdefault(sum(e for _, e in z), {})[m] = (
                -coeff if d.monomial_parity(m) & d.monomial_parity(z) else coeff)
        super().__init__(d, by_degree, lambda: structure.self_bracket)

    @cached_property
    def basis(self) -> list[GradedPoly]:
        """The fibre coordinates of the parent chart."""
        return [self.parent.gen(name) for name in self.parent.fibre_names()]

    def bracket(self, f, g):
        return self._bracket(f, g, self.chart)

    def project(self, f: GradedPoly) -> GradedPoly:
        return restrict_to_zero_section(f)

    def check(self, arg: GradedPoly):
        if arg.chart is not self.parent and arg.chart != self.parent:
            raise ChartMismatch(f"arguments live on the parent chart "
                                f"{self.parent.space}, not on {arg.chart.space}")

    def prepare(self, arg: GradedPoly) -> GradedPoly:
        return lift_to_phase(arg, self.chart)

    def coefficients(self, terms: dict, k: int) -> dict[tuple, dict]:
        return _taylor(terms, k, self.chart.odd_flags, len(self.parent.generators))

    def parts(self, arg: GradedPoly) -> list[tuple[int, dict]]:
        own = arg.parity()
        parts = ((own, arg),) if own is not None else arg.parity_parts().items()
        return [(p, _slot(part.terms, self.chart.odd_flags)) for p, part in parts]

    def value(self, terms: dict, args) -> GradedPoly:
        return GradedPoly(self.parent, terms)

    def parity_of(self, arg: GradedPoly) -> int:
        p = arg.parity()
        if p is None:
            raise ParityMismatch("arguments must be parity-homogeneous")
        return p

    def sum(self, values):
        return GradedPoly.sum(self.parent, values)


class FieldEngine(DerivedBracketEngine):
    """Engine over vector fields on a point-base chart.

    Arguments and values are constant fields (``check`` refuses any other);
    the projector evaluates every component at the origin.  Its table maps
    generator indices j to the Taylor coefficients of Q (the module docstring).
    """

    flavor = "field"
    _signs = [[1 if q & a else -1 for a in (0, 1)] for q in (0, 1)]  # -(-1)^(q a)

    def __init__(self, q: VectorField):
        if q.chart.kind != BASE_FIBRE or q.chart.n_base != 0:
            raise ChartMismatch("the field engine expects a point-base (pure fibre) chart")
        self.chart = q.chart
        by_degree: dict[int, dict] = {}  # degree -> component index -> term map
        for name, comp in q.components.items():
            for m, coeff in comp.terms.items():
                terms = by_degree.setdefault(sum(e for _, e in m), {})
                terms = terms.setdefault(self.chart.index_of(name), {})
                terms[m] = -coeff if comp.monomial_parity(m) & q.parity else coeff
        super().__init__(q, by_degree, q.square)

    @cached_property
    def basis(self) -> list[VectorField]:
        """The constant fields d/dxi^(i+1), in generator order."""
        return [VectorField(self.chart, {g.name: self.chart.one()}, g.parity)
                for g in self.chart.generators]

    def bracket(self, f, g):
        return commutator(f, g)

    def check(self, arg: VectorField):
        if arg.chart != self.chart:
            raise ChartMismatch(f"arguments live on {self.chart.space}, "
                                f"not on {arg.chart.space}")
        if any(m for comp in arg.components.values() for m in comp.terms):
            raise GradedAlgebraError("arguments must be constant fields")

    def project(self, x: VectorField) -> VectorField:
        comps = {}
        for n, comp in x.components.items():
            c = comp.constant_term()
            if c != 0:
                comps[n] = self.chart.const(c)
        return VectorField(self.chart, comps, x.parity)

    def coefficients(self, components: dict, k: int) -> dict[tuple, dict]:
        table: dict[tuple, dict] = {}
        for z, terms in components.items():
            for j, constant in _taylor(terms, k, self.chart.odd_flags, 0).items():
                table.setdefault(j, {})[((z, 1),)] = constant[()]
        return table

    def parts(self, arg: VectorField) -> list[tuple[int, dict]]:
        index = self.chart.index_of
        return [(arg.parity, {index(n): comp.constant_term() for n, comp in arg.components.items()})]

    def value(self, terms: dict, args) -> VectorField:
        """The field sum c d/dxi^z over the terms c xi^z, of the parity of Q
        plus the arguments."""
        gens, parity = self.chart.generators, self._generator.parity
        for a in args:
            parity ^= a.parity
        return VectorField(self.chart, {gens[m[0][0]].name: self.chart.const(c)
                                        for m, c in terms.items()}, parity)

    def parity_of(self, arg: VectorField) -> int:
        return arg.parity

    def sum(self, values):
        return sum(values, VectorField(self.chart, {}))


# ---------------------------------------------------------------------------
# the user-facing bracket families
# ---------------------------------------------------------------------------

def higher_bracket(eng: PhaseEngine, args: list[GradedPoly]) -> GradedPoly:
    """(X1, ..., Xr)_S on a schouten engine: nested even brackets with S, then
    zero-section; {F1, ..., Fr}_P on a poisson engine: nested odd brackets
    with P, sign-corrected, restricted.  Brackets of one engine read one
    coefficient table."""
    raw = eng.derived(args)
    rule = eng.flavour.sign_exponent
    if rule is not None and rule([eng.parity_of(a) for a in args]):
        return raw.scaled(-1)
    return raw


# ---------------------------------------------------------------------------
# Jacobiators via unshuffles
# ---------------------------------------------------------------------------

def run_weight(m: int, k: int, parity: int) -> int:
    """The signed count of the ways to take k of a run of m equal arguments
    of Koszul parity ``parity`` (the run weights)."""
    if not parity:
        return comb(m, k)
    if m % 2 == 0 and k % 2:
        return 0
    return comb(m // 2, k // 2)


def unshuffle_weight(lengths, counts, parities) -> tuple[int, list[int]]:
    """The signed count of a canonical subset's class, and its complement.

    The arguments fall into runs of ``lengths[r]`` consecutive equal ones,
    of Koszul parity ``parities[r]``, and the canonical subset takes the
    first ``counts[r]`` copies of run r (the run weights).  Its own sign is
    -1 to the number of pairs of a chosen Koszul-odd copy and an odd
    argument left out of an earlier run.  Returns the class's count and the
    complement of the canonical subset, in index order.
    """
    rest, weight, start, odd_left = [], 1, 0, 0
    for m, k, p in zip(lengths, counts, parities):
        rest.extend(range(start + k, start + m))
        weight *= run_weight(m, k, p)
        if p:
            if k * odd_left % 2:
                weight = -weight
            odd_left += m - k
        start += m
    return weight, rest


def jacobiator(engine: DerivedBracketEngine, args: list):
    """The n-th Jacobiator, computed by the two routes.

    Returns the value both agree on, and raises JacobiatorMismatch when they
    differ, which would signal a sign-convention bug.  An argument's Koszul
    parity is ``engine.parity_of`` plus the engine's shift, so a
    mixed-parity argument raises ParityMismatch here.  The unshuffle sum
    reads the coefficient table, by the degree rule and the run weights;
    each inner value is fed first to the outer bracket, and the outer terms
    are weighted and summed once (``engine.sum``).  The squared route is the
    independent one.
    """
    n = len(args)
    starts = [i for i in range(n) if i == 0 or args[i] is not args[i - 1]]
    lengths = [b - a for a, b in zip(starts, starts[1:] + [n])]
    parities = [(engine.parity_of(args[i]) + engine.koszul_shift) & 1 for i in starts]
    sizes = engine.admissible_sizes(n)
    by_size: dict[int, list] = {}  # per-run count tuples by sum, none when no size is admissible
    for counts in product(*(range(m + 1) for m in lengths)) if sizes else ():
        by_size.setdefault(sum(counts), []).append(counts)
    terms = []
    for k in sizes:
        for counts in by_size.get(k, ()):
            weight, rest = unshuffle_weight(lengths, counts, parities)
            if not weight:
                continue
            inner = engine.derived([args[a] for a, c in zip(starts, counts) for _ in range(c)])
            if inner.is_zero():
                continue
            term = engine.derived([inner] + [args[i] for i in rest])
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


def _tuples(basis, arity: int):
    """Every sorted index tuple over ``basis`` at ``arity``, with its arguments."""
    for tup in combinations_with_replacement(range(len(basis)), arity):
        yield tup, [basis[i] for i in tup]


def jacobiator_sweep(engine: DerivedBracketEngine, arity: int):
    """The Jacobiators of every sorted tuple of ``engine.basis`` at ``arity``:
    the last nonzero one as (index tuple, value), or None when all vanish.
    Every visited tuple goes through ``jacobiator``; the sweep skip may
    visit none."""
    if not engine.admissible_sizes(arity) and engine.squared_generator().is_zero():
        return None
    last = None
    for tup, args in _tuples(engine.basis, arity):
        value = jacobiator(engine, args)
        if not value.is_zero():
            last = (tup, value)
    return last


# ---------------------------------------------------------------------------
# Leibniz (multiderivation) checks
# ---------------------------------------------------------------------------

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
                  trials: int, rng) -> list[str]:
    """Test the multiderivation identity on random homogeneous inputs.

    ``bracket`` maps a list of polynomials on ``chart`` to a polynomial on
    ``chart`` (a value on another chart raises ChartMismatch) and must be
    multilinear, as every derived bracket is.  Returns one witness per
    failed trial, in trial order; the rule held on every trial iff the list
    is empty.

    A trial draws a1, ..., a_{r-1}, then a_r, then a_{r+1}, each as a parity
    coin and then a polynomial of that parity (``randgen.random_poly``); the
    coin is ``randint(0, 1)`` read by ``randgen``'s draw rule, so a seed
    gives the same trials on every supported Python.  The defect
    B(a1, ..., a_r a_{r+1}) - B(a1, ..., a_r) a_{r+1}
    - (-1)^e a_r B(a1, ..., a_{r-1}, a_{r+1}) is linear in each input, and a
    nonzero scale changes no parity, so it vanishes exactly when it vanishes
    on the inputs d_i a_i, with d_i the lcm of a_i's denominators
    (``gradedpoly._cleared``), whose coefficients are integers.  The trial
    makes its three brackets on those, in the order B(.., a_r a_{r+1}),
    B(.., a_{r+1}), B(.., a_r), adds the defect into one term map with
    ``_product_into`` and passes iff the map is empty.  A failed trial's
    witness shows the drawn inputs and the defect divided by the product of
    the d_i, which is the defect on the drawn inputs.
    """
    from .randgen import random_poly

    odd = chart.odd_flags
    getrandbits = rng.getrandbits

    def drawn():
        parity = getrandbits(2)  # randint(0, 1): two bits, redrawn above 1
        while parity > 1:
            parity = getrandbits(2)
        return random_poly(rng, chart, max_degree=2, n_terms=2, parity=parity)

    failures: list[str] = []
    for t in range(trials):
        inputs = [drawn() for _ in range(arity - 1)] + [drawn(), drawn()]
        scale = 1
        whole = []
        for a in inputs:
            d, terms = _cleared(a.terms)
            scale *= d
            whole.append(a if d == 1 else GradedPoly(chart, terms))
        *front, ar, ar1 = whole
        right = _masked(ar1.terms, odd)
        lhs = bracket(front + [GradedPoly(chart, _product_into({}, ar.terms, right, odd))])
        second = bracket(front + [ar1])
        first = bracket(front + [ar])
        for value in (lhs, second, first):
            _require_chart(chart, value)
        e = leibniz_exponent(flavor, [f.parity() for f in front] + [ar.parity()])
        defect = _product_into(dict(lhs.terms), first.terms, right, odd, -1)
        _product_into(defect, ar.terms, _masked(second.terms, odd), odd, 1 if e else -1)
        if defect:
            *front, ar, ar1 = inputs
            failures.append(
                f"trial {t}: args {[f.render() for f in front]}, "
                f"a_r = {ar.render()}, a_r+1 = {ar1.render()}, "
                f"difference = {GradedPoly(chart, _divided(defect, scale)).render()}"
            )
    return failures


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

class BracketTable(namedtuple("BracketTable", "flavor arity labels entries parity",
                              defaults=(None,))):
    """n-ary bracket values on tuples of fibre coordinate functions.

    ``entries`` maps tuples of positions in the list ``labels`` to
    GradedPolys.  ``parity`` is the common parity shift of the operation
    (value parity minus argument parities, None when every entry vanishes).
    """

    __slots__ = ()

    def render(self) -> str:
        lines = [f"arity {self.arity} [{self.flavor}]"]
        for tup in sorted(self.entries):
            names = ",".join(self.labels[i] for i in tup)
            lines.append(f"  ({names}) -> {self.entries[tup].render()}")
        return "\n".join(lines)


def _table_metadata(chart: Chart, labels, entries, arity: int):
    """Common parity shift of a table; each entry must drop the natural
    fibre weight by arity - 1."""
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
    return shift


def _phase_table(eng: PhaseEngine, arity: int) -> BracketTable:
    fibre = eng.parent.fibre_names()
    entries = {tup: higher_bracket(eng, args) for tup, args in _tuples(eng.basis, arity)}
    parity = _table_metadata(eng.parent, fibre, entries, arity)
    return BracketTable(eng.flavor, arity, fibre, entries, parity)


def schouten_bracket_table(s: HigherStructure, arity: int) -> BracketTable:
    return _phase_table(PhaseEngine(s), arity)


def poisson_bracket_table(p: HigherStructure, arity: int) -> BracketTable:
    return _phase_table(PhaseEngine(p), arity)


def _field_entry(eng: FieldEngine, args: list[VectorField]) -> GradedPoly:
    """(s_a1, ..., s_ar) written as the fibre-linear polynomial sum c_b xi^b."""
    return GradedPoly(eng.chart, {
        ((eng.chart.index_of(name), 1),): comp.constant_term()
        for name, comp in eng.derived(args).components.items()
    })


def _skew_sign(chart: Chart, tup: tuple[int, ...]) -> int:
    """(-1)^(a1 (r-1) + a2 (r-2) + ... + a_{r-1} + 1), with a_i = |xi_i| + 1
    the underlying fibre parity of the PiE-chart generator xi_i: the
    exponent of ``poisson_sign_exponent`` on the a_i, plus r + 1, since the
    skew brackets of P and of the fields are both the décalage of symmetric
    ones."""
    e = poisson_sign_exponent([chart.generators[i].parity ^ 1 for i in tup]) + len(tup) + 1
    return -1 if e & 1 else 1


def symmetric_field_table(eng: FieldEngine, arity: int) -> BracketTable:
    """Symmetric brackets (s_a1, ..., s_ar) over a point base, as fields."""
    entries = {tup: _field_entry(eng, args) for tup, args in _tuples(eng.basis, arity)}
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
    """Adjacent exchange must flip the sign by -(-1)^(a_i a_j): by -1 unless
    both generators are even, of underlying fibre parity 1."""
    chart, gens = eng.chart, eng.chart.generators
    for tup in table.entries:
        for k in range(len(tup) - 1):
            swapped = list(tup)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            swapped = tuple(swapped)
            sign = -1 if gens[tup[k]].parity or gens[tup[k + 1]].parity else 1
            value = _field_entry(eng, [eng.basis[i] for i in swapped])
            value = value.scaled(_skew_sign(chart, swapped))
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
    if any(i >= chart.n_base for i in f.support()):
        raise GradedAlgebraError("anchor arguments act on base functions only")
    cur = q
    for i in tup:
        name = chart.generators[i].name
        const = VectorField(chart, {name: chart.one()}, chart.generators[i].parity)
        cur = commutator(cur, const)
    return cur(f).drop_generators(chart.fibre_names())


def weight_one_restriction_check(q: VectorField, s: HigherStructure,
                                 p: HigherStructure, max_arity: int
                                 ) -> tuple[dict[int, bool], list[str]]:
    """Over a point base: restricted derived brackets = input brackets.

    For every tuple of weight-one coordinates eta (resp. e) up to the arity
    bound, the derived bracket with S (resp. the sign-corrected one with P)
    must match the symmetric (resp. skew) bracket table of Q transported
    through s_b -> eta_b (resp. T_b -> e_b).  Both tables read the
    coefficient table of one field engine; each phase side has its own
    engine.  An arity the sweep skip rules out passes with no table and no
    comparison.

    Returns (per_arity, details): whether each arity 0..``max_arity``
    matched, and one line naming the arity, side and tuple of each
    mismatch.  The statement holds iff every arity matched.
    """
    field = FieldEngine(q)
    sides = ((PhaseEngine(s), symmetric_field_table),
             (PhaseEngine(p), skew_bracket_table))
    engines = (field, *(eng for eng, _ in sides))
    per_arity: dict[int, bool] = {}
    details: list[str] = []
    for r in range(0, max_arity + 1):
        if not any(r in eng.degrees for eng in engines):
            per_arity[r] = True  # every bracket on either side is zero
            continue
        ok = True
        tables = [table_of(field, r) for _, table_of in sides]
        for tup, _ in _tuples(field.basis, r):
            for (eng, _), table in zip(sides, tables):
                lhs = higher_bracket(eng, [eng.basis[i] for i in tup])
                rhs = _transport_value(table.entries[tup], eng.parent)
                if lhs != rhs:
                    ok = False
                    details.append(f"arity {r} {eng.flavor} tuple {tup} differs")
        per_arity[r] = ok
    return per_arity, details


def _transport_value(value: GradedPoly, dual: Chart) -> GradedPoly:
    """Send a fibre-linear value sum c_b xi^b to sum c_b eta_b (or e_b): over a
    point base PiE and ``dual`` list their fibre coordinates in the same order."""
    if any(len(m) != 1 or m[0][1] != 1 for m in value.terms):
        raise GradedAlgebraError("expected a fibre-linear bracket value")
    return GradedPoly(dual, dict(value.terms))
