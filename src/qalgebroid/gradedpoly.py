"""Exact supercommutative polynomial arithmetic over named graded generators.

Conventions used throughout the package:

* A generator carries a Grassmann parity (0 = even, 1 = odd) and a bi-weight
  in Z x Z.  Odd generators anticommute and square to zero; even generators
  are central.
* Polynomials are kept in normal form: within a monomial the generators
  appear in the chart's fixed order, odd generators with exponent one.  All
  reordering signs are produced during normalisation, so equality is a plain
  comparison of term maps.
* Coefficients are exact rationals (``fractions.Fraction``).  Nothing is ever
  rounded, which is what makes identity checks meaningful.
* Derivatives act from the left: d/dz moves z to the front of a monomial,
  picking up one minus sign per odd generator jumped over, then strikes it.
* The zero polynomial reports parity 0 and weight (0, 0) by convention.

Values are immutable after construction; every operation returns a new
polynomial, so instances can be shared freely.

The rule "add a coefficient, delete the monomial when it cancels" lives in
``_add_term`` alone.  Every sum goes through ``GradedPoly.sum``, which fills
one term map for all summands instead of copying a growing one per summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class GradedAlgebraError(Exception):
    """Base class for errors raised by the graded-algebra layer."""


class ChartMismatch(GradedAlgebraError):
    """Two operands live on different charts."""


class ParityMismatch(GradedAlgebraError):
    """An operation received a value of the wrong Grassmann parity."""


class UnknownGenerator(GradedAlgebraError):
    """A generator name does not exist on the relevant chart."""


EVEN = 0
ODD = 1

Weight = tuple[int, int]
ZERO_WEIGHT: Weight = (0, 0)

# A monomial is a tuple of (generator index, exponent) pairs, sorted by index.
Monomial = tuple[tuple[int, int], ...]
ONE_MONOMIAL: Monomial = ()


def total_weight(w: Weight) -> int:
    return w[0] + w[1]


@dataclass(frozen=True)
class Generator:
    """A named coordinate with fixed parity and bi-weight.

    ``family`` tags the coordinate role (x, xi, eta, e, p, pi, xstar, estar,
    xistar) and drives conjugate naming and rendering order.
    """

    name: str
    parity: int
    weight: Weight
    family: str = ""

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ParityMismatch(f"parity of {self.name} must be 0 or 1")


def _merge_monomials(m1: Monomial, m2: Monomial, odd: tuple[bool, ...]):
    """Merge two normal-form monomials, returning (sign_exponent, monomial).

    Returns None when the product vanishes (an odd generator squared).  The
    sign exponent counts transpositions of odd generators needed to sort the
    concatenation m1 * m2.
    """
    if not m1:
        return 0, m2
    if not m2:
        return 0, m1
    # number of odd factors of m1 at position >= i
    odd_suffix = [0] * (len(m1) + 1)
    for t in range(len(m1) - 1, -1, -1):
        odd_suffix[t] = odd_suffix[t + 1] + (1 if odd[m1[t][0]] else 0)
    out: list[tuple[int, int]] = []
    sign = 0
    i = j = 0
    while i < len(m1) and j < len(m2):
        gi, ei = m1[i]
        gj, ej = m2[j]
        if gi < gj:
            out.append((gi, ei))
            i += 1
        elif gi == gj:
            if odd[gi]:
                return None
            out.append((gi, ei + ej))
            i += 1
            j += 1
        else:
            if odd[gj]:
                sign += odd_suffix[i]
            out.append((gj, ej))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign & 1, tuple(out)


def _add_term(terms: dict[Monomial, Fraction], m: Monomial, c: Fraction):
    """Add the nonzero coefficient c to m in place, deleting m if it cancels."""
    acc = terms.get(m)
    acc = c if acc is None else acc + c
    if acc:
        terms[m] = acc
    else:
        del terms[m]


def _product(t1: dict[Monomial, Fraction], t2: dict[Monomial, Fraction],
             odd: tuple[bool, ...]) -> dict[Monomial, Fraction]:
    """The term map of the product of two term maps on one chart."""
    out: dict[Monomial, Fraction] = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            merged = _merge_monomials(m1, m2, odd)
            if merged is not None:
                s, m = merged
                _add_term(out, m, -c1 * c2 if s else c1 * c2)
    return out


def _require_chart(chart, other: "GradedPoly"):
    if chart != other.chart:
        raise ChartMismatch(
            f"operands live on different charts: "
            f"{chart.space} vs {other.chart.space}"
        )


class GradedPoly:
    """A supercommutative polynomial attached to a chart.

    ``terms`` maps normal-form monomials to nonzero Fractions.  Do not mutate;
    construct through chart helpers or arithmetic.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms: dict[Monomial, Fraction] | None = None):
        self.chart = chart
        self.terms: dict[Monomial, Fraction] = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(chart, value) -> "GradedPoly":
        c = Fraction(value)
        if c == 0:
            return GradedPoly(chart)
        return GradedPoly(chart, {ONE_MONOMIAL: c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _gen(self, idx: int) -> Generator:
        return self.chart.generators[idx]

    def monomial_parity(self, m: Monomial) -> int:
        p = 0
        for idx, exp in m:
            p += self._gen(idx).parity * exp
        return p & 1

    def monomial_weight(self, m: Monomial) -> Weight:
        w1 = w2 = 0
        for idx, exp in m:
            gw = self._gen(idx).weight
            w1 += gw[0] * exp
            w2 += gw[1] * exp
        return (w1, w2)

    def parity(self) -> int | None:
        """Common parity of all terms, 0 for the zero polynomial, None if mixed."""
        if not self.terms:
            return EVEN
        parities = {self.monomial_parity(m) for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def weight(self) -> Weight | None:
        """Common bi-weight of all terms, (0, 0) for zero, None if mixed."""
        if not self.terms:
            return ZERO_WEIGHT
        weights = {self.monomial_weight(m) for m in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def parity_parts(self) -> dict[int, "GradedPoly"]:
        """Split into even and odd parts (only nonzero parts are returned)."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            parts.setdefault(self.monomial_parity(m), {})[m] = c
        return {p: GradedPoly(self.chart, t) for p, t in parts.items()}

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE_MONOMIAL, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def sum(chart, polys) -> "GradedPoly":
        """The sum of polynomials on ``chart``, accumulated in one term map.

        Equals the left fold of ``+`` over ``polys`` (zero when empty); a
        summand on another chart raises ChartMismatch, as ``+`` does.
        """
        terms: dict[Monomial, Fraction] = {}
        for p in polys:
            _require_chart(chart, p)
            for m, c in p.terms.items():
                _add_term(terms, m, c)
        return GradedPoly(chart, terms)

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(self.chart, other)
        return GradedPoly.sum(self.chart, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scaled(other)
        _require_chart(self.chart, other)
        return GradedPoly(self.chart, _product(self.terms, other.terms, self.chart.odd_flags))

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scaled(other)

    def scaled(self, value) -> "GradedPoly":
        c = Fraction(value)
        if c == 0:
            return GradedPoly(self.chart)
        return GradedPoly(self.chart, {m: c * t for m, t in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise GradedAlgebraError("negative powers are not defined")
        acc = GradedPoly.constant(self.chart, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        """Equal to a polynomial on the same chart with the same terms, or to
        a rational number (int or Fraction) read as a constant."""
        if isinstance(other, GradedPoly):
            return self.chart == other.chart and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == GradedPoly.constant(self.chart, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    # -- calculus ----------------------------------------------------------

    def left_derivative(self, name: str) -> "GradedPoly":
        """Left partial derivative with respect to the named generator."""
        idx = self.chart.index_of(name)
        gen = self.chart.generators[idx]
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            pos = None
            for k, (g, _) in enumerate(m):
                if g == idx:
                    pos = k
                    break
            if pos is None:
                continue
            exp = m[pos][1]
            if gen.parity == ODD:
                preceding_odd = sum(
                    1 for g, _ in m[:pos] if self.chart.generators[g].parity == ODD
                )
                coeff = -c if preceding_odd & 1 else c
                new_m = m[:pos] + m[pos + 1:]
            else:
                coeff = c * exp
                if exp == 1:
                    new_m = m[:pos] + m[pos + 1:]
                else:
                    new_m = m[:pos] + ((idx, exp - 1),) + m[pos + 1:]
            _add_term(out, new_m, coeff)
        return GradedPoly(self.chart, out)

    def substitute(self, images: dict[str, "GradedPoly"], target_chart) -> "GradedPoly":
        """Apply the algebra homomorphism sending each generator to its image.

        Every generator occurring in the polynomial must be mapped; images
        must be parity-homogeneous of the source generator's parity (the zero
        polynomial is accepted for any generator).
        """
        for name, img in images.items():
            src = self.chart.generators[self.chart.index_of(name)]
            if img.chart != target_chart:
                raise ChartMismatch(f"image of {name} is not on the target chart")
            if img.is_zero():
                continue
            p = img.parity()
            if p is None or p != src.parity:
                raise ParityMismatch(
                    f"image of {name} must be parity-homogeneous of parity "
                    f"{src.parity}"
                )
        odd = target_chart.odd_flags
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            acc = {ONE_MONOMIAL: c}
            for idx, exp in m:
                name = self.chart.generators[idx].name
                if name not in images:
                    raise UnknownGenerator(f"no image provided for {name}")
                for _ in range(exp):
                    acc = _product(acc, images[name].terms, odd)
                if not acc:
                    break
            for term, coeff in acc.items():
                _add_term(out, term, coeff)
        return GradedPoly(target_chart, out)

    def drop_generators(self, names) -> "GradedPoly":
        """Delete every term containing one of the named generators.

        Equivalent to substituting zero for those generators while staying on
        the same chart.
        """
        idxs = {self.chart.index_of(n) for n in names}
        terms = {
            m: c
            for m, c in self.terms.items()
            if not any(g in idxs for g, _ in m)
        }
        return GradedPoly(self.chart, terms)

    def support(self) -> set[int]:
        """Indices of the generators that occur in some term."""
        return {g for m in self.terms for g, _ in m}

    def contains_any(self, names) -> bool:
        idxs = {self.chart.index_of(n) for n in names}
        return any(any(g in idxs for g, _ in m) for m in self.terms)

    # -- rendering ---------------------------------------------------------

    def _display_order(self, m: Monomial) -> tuple[list[tuple[int, int]], int]:
        """The (index, exp) pairs of m in display order (bi-weight, then chart
        index), with the sign of reordering the stored odd factors into it."""
        gens = self.chart.generators
        order = sorted(m, key=lambda ie: (gens[ie[0]].weight, ie[0]))
        odd = [i for i, _ in order if gens[i].parity == ODD]
        inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
        return order, -1 if inversions & 1 else 1

    def render(self) -> str:
        """Deterministic text form.

        Terms containing a base momentum (p or x*) come first, then the rest;
        within a monomial, factors print in increasing bi-weight so momenta
        lead and fibre coordinates trail, matching how the structures are
        usually written out.  Reordering odd factors for display folds the
        transposition sign into the printed coefficient.
        """
        if not self.terms:
            return "0"
        gens = self.chart.generators
        keyed = []
        for m, c in self.terms.items():
            order, sign = self._display_order(m)
            group = 0 if any(gens[i].family in ("p", "xstar") for i, _ in order) else 1
            keyed.append(((group, [(gens[i].weight, i, e) for i, e in order]), order, c * sign))
        keyed.sort(key=lambda entry: entry[0])
        pieces: list[str] = []
        for n, (_, order, c) in enumerate(keyed):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors = [
                gens[i].name if e == 1 else f"{gens[i].name}^{e}" for i, e in order
            ]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if n == 0:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"<GradedPoly {self.render()} on {self.chart.space}>"
