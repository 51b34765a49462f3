"""Graded coordinate charts for a vector bundle and its phase spaces.

A bundle presentation (base parities, fibre parities) determines seven charts:

=============  =====================================  =======================
space          generators                             weights
=============  =====================================  =======================
PiE            x^A (par A, w (0,0));  xi^a (par a+1)  w(xi) = (-1, 1)
PiE*           x^A;  eta_a (par a+1)                  w(eta) = (1, 0)
E*             x^A;  e_a (par a)                      w(e) = (1, 0)
T*(PiE)        + p_A (par A), pi_a (par a+1)          w(p) = (0,1), w(pi) = (1,0)
T*(PiE*)       + p_A, pi^a (par a+1)                  w(pi) = (-1,1)
PiT*(PiE)      + xstar_A (par A+1), xistar_a (par a)  w(xstar)=(0,1), w(xistar)=(1,0)
PiT*(E*)       + xstar_A, estar^a (par a+1)           w(estar) = (-1,1)
=============  =====================================  =======================

One single weight system is used across all charts: a conjugate coordinate
always carries bi-weight (0,1) minus its parent's, so every canonical bracket
lowers bi-weight by (0,1) and the total weight # = w1 + w2 of a constructed
structure can be read off term by term.  With this assignment the fibre
coordinate of PiE carries (-1,1) rather than a bare fibre degree; the usual
fibre grading is recovered as w2 (or -w1) on the charts where it applies.

Even cotangent charts give conjugates the parity of their parent, odd
cotangent charts flip it.  Generator names are fixed (x1..., xi1..., eta1...,
e1..., p1..., pi1..., xstar1..., estar1..., xistar1...) so rendered output is
stable byte for byte.
"""

from __future__ import annotations

from collections import namedtuple

from .gradedpoly import (
    EVEN,
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    Generator,
    Monomial,
    UnknownGenerator,
    Weight,
    coefficient,
)

BASE_FIBRE = "base-fibre"
EVEN_COTANGENT = "even-cotangent"
ODD_COTANGENT = "odd-cotangent"

# conjugate family per (cotangent kind, parent family): the table's four phase charts
_CONJUGATE_FAMILY = {
    (EVEN_COTANGENT, "x"): "p",
    (EVEN_COTANGENT, "xi"): "pi",
    (EVEN_COTANGENT, "eta"): "pi",
    (ODD_COTANGENT, "x"): "xstar",
    (ODD_COTANGENT, "xi"): "xistar",
    (ODD_COTANGENT, "e"): "estar",
}


class Chart:
    """An ordered list of generators with a chart kind tag.

    Phase-space charts keep their parent chart in ``parent`` (not part of
    equality, hash or repr) and its generators as a prefix, followed by one
    conjugate per parent generator in the same order, so lifting a function
    to the phase space and restricting back are index-preserving.

    A chart is never mutated, so what follows from its generators is computed
    once, at construction (``__post_init__``, called once per chart), and
    kept: the name index, the odd flags and, on a phase chart, the conjugate
    pairs that every canonical bracket walks.
    """

    __slots__ = ("generators", "kind", "space", "n_base", "parent", "_index", "odd_flags",
                 "_pairs")

    def __init__(self, generators: tuple[Generator, ...], kind: str, space: str, n_base: int,
                 parent: Chart | None = None):
        self.generators = generators
        self.kind = kind
        self.space = space
        self.n_base = n_base
        self.parent = parent
        self.__post_init__()

    def __post_init__(self):
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise GradedAlgebraError(f"duplicate generator names on {self.space}")
        self.odd_flags = tuple(g.parity == ODD for g in self.generators)
        self._pairs = None
        if self.is_phase:
            n = len(self.parent.generators)
            self._pairs = tuple((i, n + i) for i in range(n))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.kind, self.space, self.n_base) == (
            other.generators, other.kind, other.space, other.n_base)

    def __hash__(self):
        return hash((self.generators, self.kind, self.space, self.n_base))

    def __repr__(self):
        return (f"Chart(generators={self.generators!r}, kind={self.kind!r}, "
                f"space={self.space!r}, n_base={self.n_base!r})")

    # -- lookups -----------------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(f"{name} is not a generator of {self.space}") from None

    def generator(self, name: str) -> Generator:
        return self.generators[self.index_of(name)]

    @property
    def is_phase(self) -> bool:
        return self.kind in (EVEN_COTANGENT, ODD_COTANGENT)

    def conjugate_pairs(self) -> tuple[tuple[int, int], ...]:
        """(parent index, conjugate index) pairs of a phase-space chart."""
        if self._pairs is None:
            raise ChartMismatch(f"{self.space} is not a phase-space chart")
        return self._pairs

    def parent_chart(self) -> "Chart":
        if not self.is_phase:
            raise ChartMismatch(f"{self.space} has no parent chart")
        return self.parent

    def base_names(self) -> list[str]:
        return [g.name for g in self.generators[: self.n_base]]

    def fibre_names(self) -> list[str]:
        chart = self.parent or self
        return [g.name for g in chart.generators[chart.n_base:]]

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> GradedPoly:
        return GradedPoly(self)

    def one(self) -> GradedPoly:
        return GradedPoly.constant(self, 1)

    def const(self, value) -> GradedPoly:
        return GradedPoly.constant(self, value)

    def gen(self, name: str) -> GradedPoly:
        idx = self.index_of(name)
        return GradedPoly(self, {((idx, 1),): 1})

    def monomial(self, exponents: dict[str, int], coeff=1) -> GradedPoly:
        """Build coeff * prod(name**exp) with names in any order."""
        c = coefficient(coeff)
        mono = self.normal_monomial(
            {self.index_of(name): exp for name, exp in exponents.items()})
        return GradedPoly(self, {mono: c} if c and mono is not None else None)

    def normal_monomial(self, exponents: dict[int, int]) -> Monomial | None:
        """The normal form of prod(generator i ** exp), None when an odd
        generator is squared.  Exponents are read in chart order, so a
        negative one is refused only if no odd square comes before it."""
        odd = self.odd_flags
        mono = []
        for i, exp in sorted(exponents.items()):
            if exp < 0:
                raise GradedAlgebraError("negative exponent")
            if odd[i] and exp > 1:
                return None
            if exp:
                mono.append((i, exp))
        return tuple(mono)


class BundlePresentation(namedtuple("BundlePresentation", "base_parities fibre_parities")):
    """Base and fibre parities presenting a vector bundle E -> M."""

    __slots__ = ()

    def __new__(cls, base_parities: tuple[int, ...], fibre_parities: tuple[int, ...]):
        for p in base_parities + fibre_parities:
            if p not in (EVEN, ODD):
                raise GradedAlgebraError("parities must be 0 or 1")
        return super().__new__(cls, base_parities, fibre_parities)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` refuses as the constructor does
        return cls(*iterable)

    @property
    def base_dim(self) -> int:
        return len(self.base_parities)

    @property
    def rank(self) -> int:
        return len(self.fibre_parities)


def _base_fibre(b: BundlePresentation, space: str, family: str, shift: int,
                weight: Weight) -> Chart:
    """The base coordinates x^A, then one ``family`` coordinate per fibre
    direction a, of parity a + ``shift`` and bi-weight ``weight``."""
    gens = [Generator(f"x{i + 1}", p, (0, 0), "x") for i, p in enumerate(b.base_parities)]
    gens += [Generator(f"{family}{i + 1}", (p + shift) & 1, weight, family)
             for i, p in enumerate(b.fibre_parities)]
    return Chart(tuple(gens), BASE_FIBRE, space, b.base_dim)


def chart_pi_e(b: BundlePresentation) -> Chart:
    """The anti-bundle chart {x^A, xi^a}: fibre parity flipped, w(xi) = (-1,1)."""
    return _base_fibre(b, "PiE", "xi", 1, (-1, 1))


def chart_pi_e_star(b: BundlePresentation) -> Chart:
    """The dual anti-bundle chart {x^A, eta_a}: parity a+1, w(eta) = (1,0)."""
    return _base_fibre(b, "PiE*", "eta", 1, (1, 0))


def chart_e_star(b: BundlePresentation) -> Chart:
    """The dual bundle chart {x^A, e_a}: parity a, w(e) = (1,0)."""
    return _base_fibre(b, "E*", "e", 0, (1, 0))


def _conjugate(gen: Generator, kind: str) -> Generator:
    family = _CONJUGATE_FAMILY.get((kind, gen.family))
    if family is None:
        raise GradedAlgebraError(f"no conjugate rule for family {gen.family!r}")
    suffix = gen.name[len(gen.family):]
    parity = gen.parity if kind == EVEN_COTANGENT else (gen.parity + 1) & 1
    weight: Weight = (0 - gen.weight[0], 1 - gen.weight[1])
    return Generator(family + suffix, parity, weight, family)


def _cotangent(c: Chart, kind: str, label: str) -> Chart:
    if c.is_phase:
        raise ChartMismatch(f"{c.space} is already a phase space")
    gens = list(c.generators) + [_conjugate(g, kind) for g in c.generators]
    return Chart(
        tuple(gens),
        kind,
        f"{label}({c.space})",
        c.n_base,
        parent=c,
    )


def chart_even_cotangent(c: Chart) -> Chart:
    """T*(c): appends same-parity conjugates, bi-weight (0,1) minus parent's."""
    return _cotangent(c, EVEN_COTANGENT, "T*")


def chart_odd_cotangent(c: Chart) -> Chart:
    """PiT*(c): appends parity-flipped conjugates, same weight rule."""
    return _cotangent(c, ODD_COTANGENT, "PiT*")


def lift_to_phase(f: GradedPoly, phase: Chart) -> GradedPoly:
    """Reinterpret a parent-chart function on a phase space built from it."""
    if not phase.is_phase:
        raise ChartMismatch(f"{phase.space} is not a phase space")
    if phase.parent_chart() != f.chart:
        raise ChartMismatch(
            f"{f.chart.space} is not the parent of {phase.space}"
        )
    return GradedPoly(phase, dict(f.terms))


def restrict_to_zero_section(f: GradedPoly) -> GradedPoly:
    """Set all conjugate coordinates to zero, landing on the parent chart.

    The conjugates are the chart's suffix, so a term survives exactly when
    its last (largest) index lies below the parent's generator count.
    """
    phase = f.chart
    if not phase.is_phase:
        raise ChartMismatch(f"{phase.space} is not a phase space")
    parent = phase.parent_chart()
    n = len(parent.generators)
    return GradedPoly(parent, {m: c for m, c in f.terms.items() if not m or m[-1][0] < n})


def all_charts(b: BundlePresentation) -> dict[str, Chart]:
    pe = chart_pi_e(b)
    pes = chart_pi_e_star(b)
    es = chart_e_star(b)
    return {
        "PiE": pe,
        "PiE*": pes,
        "E*": es,
        "T*(PiE)": chart_even_cotangent(pe),
        "T*(PiE*)": chart_even_cotangent(pes),
        "PiT*(PiE)": chart_odd_cotangent(pe),
        "PiT*(E*)": chart_odd_cotangent(es),
    }


def describe_chart(c: Chart) -> str:
    """Aligned name/parity/weight table for one chart."""
    rows = [("name", "parity", "weight")]
    for g in c.generators:
        rows.append((g.name, "even" if g.parity == EVEN else "odd", str(g.weight)))
    widths = [max(len(r[k]) for r in rows) for k in range(3)]
    lines = [f"chart {c.space}  [{c.kind}]"]
    for r in rows:
        lines.append("  " + "  ".join(r[k].ljust(widths[k]) for k in range(3)))
    return "\n".join(lines)
