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
* The two self-brackets in ``fields`` are the only products on integers and
  on packed keys.  Each clears its argument's denominators with ``_cleared``
  (d times the map, d the lcm of its denominators) and divides its result
  once by d^2 with ``_divided``: a self-bracket is quadratic in its
  argument, so this is an exact rewriting over the rationals.  In between it
  multiplies packed terms (Monagan and Pearce, *Polynomial division using
  dynamic arrays, heaps, and packed exponent vectors*, CASC 2007):
  ``_packed`` turns each term into (key, coefficient, odd mask, sign mask)
  with key = sum of e_g << (W g).  The width W is set once per call by
  ``_width``, the bit length of twice the operand's largest exponent, so the
  sum of two exponents always fits in one field and a product's key is the
  sum of two keys.  ``_packed_product_into`` adds the products into an
  int-keyed map, and ``_unpacked`` decodes each surviving key once into its
  normal-form monomial; on homological input nothing survives.  Every other
  product, ``substitute``'s included, keeps ``Fraction``s and tuple
  monomials: one gcd per product would give back what the integers save,
  and packing the small operands of the other brackets measured slower.
* Derivatives act from the left: d/dz moves z to the front of a monomial,
  picking up one minus sign per odd generator jumped over, then strikes it.
* The zero polynomial reports parity 0 and weight (0, 0) by convention.

Values are immutable after construction; every operation returns a new
polynomial, so instances can be shared freely.  A polynomial therefore keeps
two facts about itself once they are asked for: its parity (``parity``) and
its support (``support``, a frozenset of generator indices).  Both are read
off ``terms`` alone, which never changes, so a kept answer cannot go stale;
a sentinel marks "not yet computed", because a mixed polynomial's parity is
None.  The canonical brackets, ``parity_parts``, ``VectorField`` and the
derived-bracket engines ask the same small operands again and again.

The rule "add a coefficient, delete the monomial when it cancels" lives in
``_collect``, and the two products repeat its lines inline in their pair
loops, the hottest loops of the package, where a call per pair would cost
more than the work.  ``_product_into`` is the product on term maps: it
adds a scaled product into a term map the caller owns, so ``*`` starts from
an empty map and every other bracket in ``fields`` accumulates all its
products, each with its exact sign, into one map.  ``_masked`` prepares the
right factor once, so a factor used many times (an image in ``substitute``,
a derivative met by both parity parts of a canonical bracket's first
argument) is masked once.
``GradedPoly.sum`` fills one term map for all summands, and ``+`` is its
two-summand case.

``substitute``'s images go through ``checked_images``, which gives a record
checked for the same two charts back as it is and checks anything else.  A
substitution whose images are a relabelling, each generator sent to a
nonzero multiple k of a distinct generator of its parity, makes no product,
whether its images come as a record or as a plain dict: ``checked_images``
records the (target index, k) of each source index, and ``substitute``
renames each monomial's indices, multiplies its coefficient by the k^exp,
sorts the factors and takes the sign of the odd pairs the sort inverts.  ``render`` ranks the chart's generators for
display once per call and sorts terms on those ranks.

Products work on bitmasks (the bitmap representation of Grassmann monomials,
Dorst, Fontijne and Mann, *Geometric Algebra for Computer Science*, ch. 19):
each monomial's odd and even generators become two integers, once per left
term and once per prepared right factor, so a pair of terms with a common
odd generator is dropped with one AND, the reordering sign is an
``int.bit_count`` parity, and only pairs sharing an even generator need an
exponent-adding merge.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm


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


_UNSET = object()  # a kept fact not computed yet


def total_weight(w: Weight) -> int:
    return w[0] + w[1]


class Generator(namedtuple("Generator", "name parity weight family")):
    """A named coordinate with fixed parity and bi-weight.

    ``family`` tags the coordinate role (x, xi, eta, e, p, pi, xstar, estar,
    xistar) and drives conjugate naming and rendering order.
    """

    __slots__ = ()

    def __new__(cls, name: str, parity: int, weight: Weight, family: str = ""):
        if parity not in (EVEN, ODD):
            raise ParityMismatch(f"parity of {name} must be 0 or 1")
        return super().__new__(cls, name, parity, weight, family)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` refuses as the constructor does
        return cls(*iterable)


def coefficient(value) -> Coefficient:
    """The exact coefficient of ``value``: an int when its denominator is 1,
    a Fraction otherwise (a Fraction argument itself, not a copy)."""
    if type(value) is int:
        return value
    c = value if type(value) is Fraction else Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _denominator(terms: dict[Monomial, Coefficient]) -> int:
    """The lcm of the denominators of the coefficients (1 for an empty map)."""
    return lcm(*(c.denominator for c in terms.values() if type(c) is not int))


def _cleared(terms: dict[Monomial, Coefficient], d: int | None = None
             ) -> tuple[int, dict[Monomial, int]]:
    """``(d, d * terms)`` with every coefficient of ``d * terms`` an ``int``.

    ``d`` is ``_denominator(terms)`` unless the caller gives a common multiple
    of it (one ``d`` for several maps).  A whole-valued Fraction counts as its
    numerator.  When ``d`` is 1 and every coefficient is already an ``int``,
    ``terms`` itself comes back.
    """
    denominators = [c.denominator for c in terms.values() if type(c) is not int]
    if d is None:
        d = lcm(*denominators)
    if d == 1 and not denominators:
        return 1, terms
    return d, {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
               for m, c in terms.items()}


def _divided(terms: dict[Monomial, Coefficient], d: int) -> dict[Monomial, Coefficient]:
    """A new term map with each coefficient divided by the positive int ``d``
    once, the quotient normalised as ``coefficient`` does."""
    out = {}
    for m, c in terms.items():
        if type(c) is int and not c % d:
            out[m] = c // d
        else:
            q = Fraction(c, d)
            out[m] = q.numerator if q.denominator == 1 else q
    return out


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


def _width(maps) -> int:
    """The field width W of the packed form of the term maps ``maps``: the
    bit length of twice their largest exponent, so that the sum of two
    exponents always fits in one field."""
    return (2 * max((e for terms in maps for m in terms for _, e in m), default=1)).bit_length()


def _packed(terms: dict[Monomial, int], odd: tuple[bool, ...], width: int):
    """The (key, coefficient, odd mask, sign mask) of each term, in order:
    the key is the sum of ``exp << (width * g)`` over the factors, and the
    masks are those of ``_product_into``'s left monomials."""
    packed = []
    for m, c in terms.items():
        key = o = s = 0
        for g, e in m:
            key += e << (width * g)
            if odd[g]:
                bit = 1 << g
                o |= bit
                s ^= bit - 1
        packed.append((key, c, o, s))
    return packed


def _packed_derivative(packed, idx: int, odd: tuple[bool, ...], width: int):
    """The packed form of the left derivative by generator ``idx`` of the
    ``_packed`` term list ``packed``, with ``_derivative``'s signs and
    factors: the key loses one ``idx`` and an odd ``idx`` leaves both masks."""
    shift = width * idx
    one = 1 << shift
    out = []
    if odd[idx]:
        bit = 1 << idx
        below = bit - 1
        for key, c, o, s in packed:
            if o & bit:
                out.append((key - one, -c if (o & below).bit_count() & 1 else c,
                            o ^ bit, s ^ below))
    else:
        field = (1 << width) - 1
        for key, c, o, s in packed:
            e = (key >> shift) & field
            if e:
                out.append((key - one, c * e if e > 1 else c, o, s))
    return out


def _packed_product_into(out: dict[int, int], left, right, scale: int = 1
                         ) -> dict[int, int]:
    """Add ``scale`` times the product of two ``_packed`` term lists of one
    width into the key-indexed map ``out`` in place; returns ``out``.

    A pair whose odd masks meet vanishes; otherwise the product's key is the
    sum of the two keys and its sign that of ``_product_into``.  Coefficients
    are added with ``_collect``'s rule, inline as in ``_product_into``.
    """
    get = out.get
    for k1, c1, o1, s1 in left:
        if scale != 1:
            c1 = scale * c1
        for k2, c2, o2, _ in right:
            if o1 & o2:
                continue
            k = k1 + k2
            c = -c1 * c2 if (s1 & o2).bit_count() & 1 else c1 * c2
            acc = get(k)
            if acc is None:
                out[k] = c
            else:
                acc += c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
    return out


def _unpacked(terms: dict[int, int], width: int) -> dict[Monomial, int]:
    """The term map of a key-indexed map of width ``width``, each key decoded
    into its normal-form monomial once."""
    field = (1 << width) - 1
    out = {}
    for key, c in terms.items():
        m = []
        g = 0
        while key:
            e = key & field
            if e:
                m.append((g, e))
            key >>= width
            g += 1
        out[tuple(m)] = c
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
    """Generator images checked against a source and a target chart, by
    ``checked_images`` or as an exchange made them; ``checked_images`` gives
    such a record back as it is.

    ``relabel`` is None, or, when every image is one term ``k*z_j`` (see
    ``_relabelling``), the ``(j, k)`` of each source index in order, and
    ``substitute`` then renames indices instead of multiplying.
    """

    __slots__ = ("source", "target", "relabel")

    def __init__(self, images, source, target, relabel):
        super().__init__(images)
        self.source, self.target, self.relabel = source, target, relabel


def checked_images(source, images: dict[str, "GradedPoly"], target) -> CheckedImages:
    """The images as a CheckedImages record for ``source`` and ``target``.

    A record already checked for these two charts comes back as it is.  A
    relabelling has nothing left to check; otherwise every image must name a
    generator of ``source``, live on ``target`` and be zero or
    parity-homogeneous of that generator's parity.
    """
    if isinstance(images, CheckedImages) and images.source == source and images.target == target:
        return images
    relabel = _relabelling(source, images, target)
    if relabel is None:
        for name, img in images.items():
            src = source.generators[source.index_of(name)]
            if img.chart != target:
                raise ChartMismatch(f"image of {name} is not on the target chart")
            if img.terms and img.parity() != src.parity:  # None when mixed
                raise ParityMismatch(
                    f"image of {name} must be parity-homogeneous of parity "
                    f"{src.parity}"
                )
    return CheckedImages(images, source, target, relabel)


def _relabelling(source, images: dict[str, "GradedPoly"], target
                 ) -> list[tuple[int, Coefficient]] | None:
    """The ``(j, k)`` of each source generator, in index order, when the
    images cover exactly the source generators and each one is a single term
    ``k*z_j`` on ``target`` with ``z_j`` a generator to the first power of
    the source generator's parity, the ``z_j`` pairwise distinct; else None.

    Such a map is a signed, scaled permutation of generators, so it sends
    distinct monomials to distinct monomials.
    """
    if len(images) != len(source.generators):
        return None
    relabel, used = [], set()
    for g in source.generators:
        img = images.get(g.name)
        if img is None or img.chart != target or len(img.terms) != 1:
            return None
        ((m, k),) = img.terms.items()
        if len(m) != 1 or m[0][1] != 1 or not k:
            return None
        j = m[0][0]
        if j in used or target.generators[j].parity != g.parity:
            return None
        used.add(j)
        relabel.append((j, coefficient(k)))
    return relabel


def _relabelled(terms: dict[Monomial, Coefficient], relabel, odd: tuple[bool, ...]
                ) -> dict[Monomial, Coefficient]:
    """The term map with each generator ``i`` renamed to ``z_j`` and scaled
    by ``k``, for ``(j, k) = relabel[i]``.

    A monomial's coefficient picks up the product of ``k ** exp``; its
    renamed factors are sorted, and the sign is the parity of the pairs of
    odd factors that the sort inverts, counted on a bitmask of the odd
    targets already seen, with one flip per factor of ``k = -1``.  Distinct
    monomials stay distinct, so nothing is collected.
    """
    out = {}
    for m, c in terms.items():
        seen = flips = 0
        renamed = []
        for i, exp in m:
            j, k = relabel[i]
            if k == -1:
                flips += exp
            elif k != 1:
                c = coefficient(c * k ** exp)
            if odd[j]:
                flips += (seen >> j).bit_count()
                seen |= 1 << j
            renamed.append((j, exp))
        renamed.sort()
        out[tuple(renamed)] = -c if flips & 1 else c
    return out


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
    chart helpers or arithmetic.  ``parity()`` and ``support()`` are computed
    on first use and kept (see the module docstring).
    """

    __slots__ = ("chart", "terms", "_parity", "_support")

    def __init__(self, chart, terms: dict[Monomial, Coefficient] | None = None):
        self.chart = chart
        self.terms: dict[Monomial, Coefficient] = terms or {}
        self._parity = self._support = _UNSET

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
        """Common parity of all terms, 0 for the zero polynomial, None if mixed;
        scanned on first use and kept."""
        p = self._parity
        if p is _UNSET:
            parities = {self.monomial_parity(m) for m in self.terms}
            p = self._parity = (EVEN if not parities else
                                parities.pop() if len(parities) == 1 else None)
        return p

    def weight(self) -> Weight | None:
        """Common bi-weight of all terms, (0, 0) for zero, None if mixed."""
        if not self.terms:
            return ZERO_WEIGHT
        weights = {self.monomial_weight(m) for m in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def parity_parts(self) -> dict[int, "GradedPoly"]:
        """Split into even and odd parts (only nonzero parts are returned);
        a homogeneous polynomial is its own part, with no copy."""
        if not self.terms:
            return {}
        p = self.parity()
        if p is not None:
            return {p: self}
        parts: dict[int, dict[Monomial, Coefficient]] = {}
        for m, c in self.terms.items():
            parts.setdefault(self.monomial_parity(m), {})[m] = c
        out = {}
        for p, t in parts.items():
            part = out[p] = GradedPoly(self.chart, t)
            part._parity = p
        return out

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
        terms = {}
        for m, t in self.terms.items():
            v = c * t
            terms[m] = v if type(v) is int or v.denominator != 1 else v.numerator
        return GradedPoly(self.chart, terms)

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
        polynomial is accepted for any generator).  ``checked_images`` checks
        them, once per record; a relabelling (``CheckedImages.relabel``) is
        applied by renaming indices, any other map by multiplying images.
        """
        images = checked_images(self.chart, images, target_chart)
        odd = target_chart.odd_flags
        if images.relabel is not None:
            return GradedPoly(target_chart, _relabelled(self.terms, images.relabel, odd))
        gens = self.chart.generators
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

    def support(self) -> frozenset[int]:
        """Indices of the generators that occur in some term; collected on
        first use and kept."""
        s = self._support
        if s is _UNSET:
            s = self._support = frozenset({g for m in self.terms for g, _ in m})
        return s

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form.

        Terms containing a base momentum (p or x*) come first, then the rest;
        within a monomial, factors print in increasing bi-weight so momenta
        lead and fibre coordinates trail, matching how the structures are
        usually written out.  Reordering odd factors for display folds the
        transposition sign into the printed coefficient.

        Each generator's display rank (its place in the chart sorted by
        bi-weight, then index) is computed once per call.  A term sorts by
        ``(group, [(rank, exp), ...])`` over its factors in display order,
        which orders terms as (bi-weight, index, exp) would; the display sign
        is the parity of the odd factors that the rank sort inverts, counted
        on a bitmask.
        """
        if not self.terms:
            return "0"
        gens = self.chart.generators
        by_rank = sorted(range(len(gens)), key=lambda i: (gens[i].weight, i))
        rank = [0] * len(gens)
        for r, i in enumerate(by_rank):
            rank[i] = r
        names = [gens[i].name for i in by_rank]
        odd = [gens[i].parity == ODD for i in by_rank]
        momenta = sum(1 << r for r, i in enumerate(by_rank) if gens[i].family in ("p", "xstar"))
        keyed = []
        for m, c in self.terms.items():
            seen = held = swaps = 0
            key = []
            for i, e in m:
                r = rank[i]
                held |= 1 << r
                if odd[r]:
                    swaps += (seen >> r).bit_count()
                    seen |= 1 << r
                key.append((r, e))
            key.sort()
            keyed.append((0 if held & momenta else 1, key, -c if swaps & 1 else c))
        keyed.sort()  # (group, key) names the monomial, so c is never compared
        pieces: list[str] = []
        for n, (_, key, c) in enumerate(keyed):
            negative = c.numerator < 0  # an int is its own numerator
            mag = -c if negative else c
            factors = [names[r] if e == 1 else f"{names[r]}^{e}" for r, e in key]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if n == 0:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append(f" {'-' if negative else '+'} {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"<GradedPoly {self.render()} on {self.chart.space}>"
