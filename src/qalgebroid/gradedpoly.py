"""Exact supercommutative polynomial arithmetic over named graded generators.

Conventions used throughout the package:

* A generator carries a Grassmann parity (0 = even, 1 = odd) and a bi-weight
  in Z x Z.  Odd generators anticommute and square to zero; even generators
  are central.
* Polynomials are kept in normal form: within a monomial the generators
  appear in the chart's fixed order, odd generators with exponent one.  All
  reordering signs are produced during normalisation, so equality is a plain
  comparison of term maps.
* Coefficients are exact rationals: an ``int`` when the denominator is 1, a
  ``fractions.Fraction`` otherwise (``coefficient`` normalises a value).  A
  term map may mix the two; 3 and Fraction(3) compare and hash equal and print
  alike.  Nothing is ever rounded, which is what makes identity checks
  meaningful.
* Derivatives act from the left: d/dz moves z to the front of a monomial,
  picking up one minus sign per odd generator jumped over, then strikes it.
* The zero polynomial reports parity 0 and weight (0, 0) by convention.

Values are immutable after construction; every operation returns a new
polynomial, so instances can be shared freely.

The rule "add a coefficient, delete the monomial when it cancels" lives in
``_collect``, and ``_product_into`` repeats its lines inline in the pair
loop, the hottest loop of the package, where a call per pair would cost more
than the work.  ``_product_into`` is the one product: it adds a scaled
product into a term map the caller owns, so ``*`` starts from an empty map
and every bracket in ``fields`` accumulates all its products, each with its
exact sign, into one map.  ``_masked`` prepares the right factor once, so a
factor used many times (an image in ``substitute``, a derivative met by both
parity parts of a canonical bracket's first argument) is masked once.
``GradedPoly.sum`` fills one term map for all summands instead of copying a
growing one per summand, and ``+`` is its two-summand case.  Two folds of
``+`` remain: ``specdoc.assemble_field`` over a document's terms and
``homotopy.FieldEngine.sum`` over constant fields.

Products work on bitmasks (the bitmap representation of Grassmann monomials,
Dorst, Fontijne and Mann, *Geometric Algebra for Computer Science*, ch. 19):
each monomial's odd and even generators become two integers, once per left
term and once per prepared right factor, so a pair of terms with a common
odd generator is dropped with one AND, the reordering sign is an
``int.bit_count`` parity, and only pairs sharing an even generator need an
exponent-adding merge.
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
Coefficient = int | Fraction


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


def coefficient(value) -> Coefficient:
    """The exact coefficient of ``value``: an int when its denominator is 1,
    a Fraction otherwise."""
    if type(value) is int:
        return value
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _add_exponents(m1: Monomial, m2: Monomial) -> Monomial:
    """The sorted merge of two monomials that share even generators."""
    exps = dict(m1)
    for g, e in m2:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


def _collect(terms: dict[Monomial, Coefficient], pairs) -> dict[Monomial, Coefficient]:
    """Add each (monomial, nonzero coefficient) pair into ``terms`` in place,
    deleting a monomial whose coefficient cancels; returns ``terms``."""
    get = terms.get
    for m, c in pairs:
        acc = get(m)
        if acc is None:
            terms[m] = c
        else:
            acc += c
            if acc:
                terms[m] = acc
            else:
                del terms[m]
    return terms


def _masked(terms: dict[Monomial, Coefficient], odd: tuple[bool, ...]):
    """The (monomial, coefficient, odd mask, even mask) of each term: bit g of
    the odd (even) mask is set when generator g is an odd (even) factor."""
    right = []
    for m, c in terms.items():
        o = e = 0
        for g, _ in m:
            if odd[g]:
                o |= 1 << g
            else:
                e |= 1 << g
        right.append((m, c, o, e))
    return right


def _product_into(out: dict[Monomial, Coefficient], t1: dict[Monomial, Coefficient],
                  right, odd: tuple[bool, ...], scale: Coefficient = 1
                  ) -> dict[Monomial, Coefficient]:
    """Add ``scale`` times the product of the term map ``t1`` and the
    ``_masked`` right factor into ``out`` in place; returns ``out``.

    Each left monomial's masks are computed once: bit k of its sign mask is
    set when an odd number of its odd factors have index above k.  A pair
    whose odd masks meet vanishes, with one AND.  Carrying the right factor's
    odd generators leftwards past the left factor's takes
    ``(sign & odd mask).bit_count()`` transpositions, which gives the sign.  A
    pair with disjoint supports merges by sorting the concatenation; only a
    pair that shares an even generator adds exponents.
    """
    get = out.get
    for m1, c1 in t1.items():
        o1 = e1 = s1 = 0
        for g, _ in m1:
            bit = 1 << g
            if odd[g]:
                o1 |= bit
                s1 ^= bit - 1
            else:
                e1 |= bit
        if scale != 1:
            c1 = scale * c1
        for m2, c2, o2, e2 in right:
            if o1 & o2:
                continue
            m = _add_exponents(m1, m2) if e1 & e2 else tuple(sorted(m1 + m2))
            c = -c1 * c2 if (s1 & o2).bit_count() & 1 else c1 * c2
            acc = get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


def _derivative(terms: dict[Monomial, Coefficient], idx: int,
                odd: tuple[bool, ...]) -> dict[Monomial, Coefficient]:
    """The term map of the left derivative by generator ``idx``: each
    monomial containing it, with the generator moved to the front (one sign
    per odd factor jumped over, when it is odd) and struck.  Distinct
    monomials give distinct results, so nothing needs collecting."""
    z_odd = odd[idx]
    out: dict[Monomial, Coefficient] = {}
    for m, c in terms.items():
        sign = 0
        for pos, (g, exp) in enumerate(m):
            if g >= idx:
                break
            sign ^= odd[g]
        else:
            continue
        if g != idx:
            continue
        if z_odd:
            out[m[:pos] + m[pos + 1:]] = -c if sign else c
        elif exp == 1:
            out[m[:pos] + m[pos + 1:]] = c
        else:
            out[m[:pos] + ((idx, exp - 1),) + m[pos + 1:]] = c * exp
    return out


class CheckedImages(dict):
    """Generator images that ``checked_images`` has checked against a source
    and a target chart; ``GradedPoly.substitute`` does not check them again."""

    __slots__ = ("source", "target")


def _already_checked(images, source, target) -> bool:
    return (isinstance(images, CheckedImages) and images.source == source
            and images.target == target)


def checked_images(source, images: dict[str, "GradedPoly"], target) -> CheckedImages:
    """The images as a CheckedImages record, after ``_check_images``."""
    if _already_checked(images, source, target):
        return images
    _check_images(source, images, target)
    out = CheckedImages(images)
    out.source, out.target = source, target
    return out


def _check_images(source, images: dict[str, "GradedPoly"], target) -> None:
    """Raise unless every image names a generator of ``source``, lives on
    ``target`` and is zero or parity-homogeneous of that generator's parity."""
    for name, img in images.items():
        src = source.generators[source.index_of(name)]
        if img.chart != target:
            raise ChartMismatch(f"image of {name} is not on the target chart")
        if img.is_zero():
            continue
        p = img.parity()
        if p is None or p != src.parity:
            raise ParityMismatch(
                f"image of {name} must be parity-homogeneous of parity "
                f"{src.parity}"
            )


def _require_chart(chart, other: "GradedPoly"):
    if chart != other.chart:
        raise ChartMismatch(
            f"operands live on different charts: "
            f"{chart.space} vs {other.chart.space}"
        )


class GradedPoly:
    """A supercommutative polynomial attached to a chart.

    ``terms`` maps normal-form monomials to nonzero coefficients, each an int
    or a Fraction (see ``coefficient``).  Do not mutate; construct through
    chart helpers or arithmetic.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms: dict[Monomial, Coefficient] | None = None):
        self.chart = chart
        self.terms: dict[Monomial, Coefficient] = terms or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(chart, value) -> "GradedPoly":
        c = coefficient(value)
        if c == 0:
            return GradedPoly(chart)
        return GradedPoly(chart, {ONE_MONOMIAL: c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_parity(self, m: Monomial) -> int:
        # odd factors have exponent one in normal form
        odd = self.chart.odd_flags
        p = 0
        for idx, _ in m:
            p ^= odd[idx]
        return p

    def monomial_weight(self, m: Monomial) -> Weight:
        gens = self.chart.generators
        w1 = w2 = 0
        for idx, exp in m:
            gw = gens[idx].weight
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
        parts: dict[int, dict[Monomial, Coefficient]] = {}
        for m, c in self.terms.items():
            parts.setdefault(self.monomial_parity(m), {})[m] = c
        return {p: GradedPoly(self.chart, t) for p, t in parts.items()}

    def constant_term(self) -> int | Fraction:
        return self.terms.get(ONE_MONOMIAL, 0)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def sum(chart, polys) -> "GradedPoly":
        """The sum of polynomials on ``chart``, accumulated in one term map.

        Equals the left fold of ``+`` over ``polys`` (zero when empty); a
        summand on another chart raises ChartMismatch, as ``+`` does.
        """
        terms: dict[Monomial, Coefficient] = {}
        for p in polys:
            _require_chart(chart, p)
            _collect(terms, p.terms.items())
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
        odd = self.chart.odd_flags
        return GradedPoly(self.chart, _product_into({}, self.terms, _masked(other.terms, odd), odd))

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scaled(other)

    def scaled(self, value) -> "GradedPoly":
        c = coefficient(value)
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
        odd = self.chart.odd_flags
        return GradedPoly(self.chart, _derivative(self.terms, idx, odd))

    def substitute(self, images: dict[str, "GradedPoly"], target_chart) -> "GradedPoly":
        """Apply the algebra homomorphism sending each generator to its image.

        Every generator occurring in the polynomial must be mapped; images
        must be parity-homogeneous of the source generator's parity (the zero
        polynomial is accepted for any generator).  Images checked once by
        ``checked_images`` for this chart and ``target_chart`` are not
        checked again.
        """
        if not _already_checked(images, self.chart, target_chart):
            _check_images(self.chart, images, target_chart)
        gens = self.chart.generators
        odd = target_chart.odd_flags
        out: dict[Monomial, Coefficient] = {}
        masked = {}  # generator index -> its image, _masked once per call
        for m, c in self.terms.items():
            acc = {ONE_MONOMIAL: c}
            for idx, exp in m:
                right = masked.get(idx)
                if right is None:
                    name = gens[idx].name
                    if name not in images:
                        raise UnknownGenerator(f"no image provided for {name}")
                    right = masked[idx] = _masked(images[name].terms, odd)
                for _ in range(exp):
                    acc = _product_into({}, acc, right, odd)
                if not acc:
                    break
            _collect(out, acc.items())
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
