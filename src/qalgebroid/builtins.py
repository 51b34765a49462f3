"""Built-in example documents.

Six fixtures exercise the whole construction:

* ``derham``           rank-2 tangent-style bundle, Q = xi^A d/dx^A.
* ``lie-algebroid-demo`` rank-2 algebroid over a line with polynomial anchor.
* ``so3``              the rotation algebra as a homological field at a point.
* ``lie-3-algebroid-demo`` a curved field over a line populating all four
  bi-weight layers (1,0), (0,1), (-1,2), (-2,3); the fibre mixes parities.
* ``graded-3-lie``     a single ternary bracket on a mixed rank-2 space.
  (A rank-2 space of a single parity admits no nonzero ternary structure:
  for an odd space the cubic coordinate monomials are even while the
  components must be odd, and for an even space the cubics vanish; so the
  fixture uses one even and one odd direction.)
* ``higher-poisson-on-algebroid``  a self-commuting bivector on the demo
  algebroid, turned into a homological field on the dual anti-bundle via its
  odd bracket and fed back through the construction.

Structure constants were found by requiring [Q, Q] = 0 exactly; each
document is re-verified by the test suite.  ``BUILTINS`` lists these six;
``FIXTURES``, which ``builtin_spec`` resolves, adds the negative control
``so3-broken`` (so3 with one extra constant, so [Q, Q] != 0).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .specdoc import AlgebroidSpec, QTerm, refused

EVEN_P = "even"
ODD_P = "odd"


def _spec(name, base, fibre, terms) -> AlgebroidSpec:
    return AlgebroidSpec(
        name,
        tuple((n, 0 if p == EVEN_P else 1) for n, p in base),
        tuple((n, 0 if p == EVEN_P else 1) for n, p in fibre),
        tuple(
            QTerm(t[0], Fraction(t[1]), tuple(t[2]), tuple(tuple(b) for b in t[3]))
            for t in terms
        ),
    )


def derham(n: int = 2) -> AlgebroidSpec:
    base = [(f"x{i + 1}", EVEN_P) for i in range(n)]
    fibre = [(f"dx{i + 1}", EVEN_P) for i in range(n)]
    terms = [(f"x{i + 1}", "1", [f"dx{i + 1}"], []) for i in range(n)]
    return _spec("derham", base, fibre, terms)


def lie_algebroid_demo() -> AlgebroidSpec:
    # anchor u -> d/dx, v -> x d/dx, bracket [u, v] = u
    return _spec(
        "lie-algebroid-demo",
        [("x", EVEN_P)],
        [("u", EVEN_P), ("v", EVEN_P)],
        [
            ("x", "1", ["u"], []),
            ("x", "1", ["v"], [["x", 1]]),
            ("u", "-1", ["u", "v"], []),
        ],
    )


def so3() -> AlgebroidSpec:
    return _spec(
        "so3",
        [],
        [("s1", EVEN_P), ("s2", EVEN_P), ("s3", EVEN_P)],
        [
            ("s3", "1", ["s1", "s2"], []),
            ("s1", "1", ["s2", "s3"], []),
            ("s2", "-1", ["s1", "s3"], []),
        ],
    )


def so3_broken() -> AlgebroidSpec:
    """so3 with one extra constant: [Q, Q] != 0.  Negative-control fixture.

    Pure rescalings of the three standard constants keep the Jacobi identity
    on a rank-3 space, so the control perturbs an off-pattern entry instead.
    """
    spec = so3()
    extra = QTerm("s3", Fraction(1), ("s2", "s3"), ())
    return replace(spec, name="so3-broken", q_terms=(*spec.q_terms, extra))


def lie_3_algebroid_demo() -> AlgebroidSpec:
    return _spec(
        "lie-3-algebroid-demo",
        [("x", EVEN_P)],
        [("f1", EVEN_P), ("f2", ODD_P), ("f3", EVEN_P)],
        [
            ("x", "1", ["f1"], []),
            ("x", "1", ["f1"], [["x", 1]]),
            ("f2", "1", ["f1"], []),
            ("f2", "-1", ["f1", "f2", "f2"], []),
            ("f3", "1", [], []),
            ("f3", "2", ["f2"], []),
            ("f3", "1", ["f2", "f2"], []),
            ("f3", "2", ["f1", "f3"], []),
            ("f3", "-2", ["f1", "f2", "f3"], []),
        ],
    )


def graded_3_lie() -> AlgebroidSpec:
    return _spec(
        "graded-3-lie",
        [],
        [("g1", EVEN_P), ("g2", ODD_P)],
        [("g2", "1", ["g1", "g2", "g2"], [])],
    )


def mixed_linfinity_algebra() -> AlgebroidSpec:
    """Point-base version of the Lie 3-algebroid fibre: arities 0 through 3.

    Used by the closed-formula cross-checks, which want a pure algebra with
    both even and odd directions and every bracket arity populated.  It is
    ``lie-3-algebroid-demo`` without its base and the terms of its anchor.
    """
    spec = lie_3_algebroid_demo()
    return replace(spec, name="mixed-linfinity-algebra", base=(),
                   q_terms=tuple(t for t in spec.q_terms if t.target != "x"))


def higher_poisson_on_algebroid() -> AlgebroidSpec:
    """A bivector on the demo algebroid fed back through the construction.

    On a rank-2 fibre the odd self-bracket of any bivector is a 3-vector and
    vanishes identically, so p = (1 + x) eta1 eta2 generates a homological
    field Q_p = -[[p, . ]] on the dual anti-bundle, presented here on a fresh
    chart with even fibre symbols a1, a2:

        Q = (x(1+x) a1 - (1+x) a2) d/dx + a1 a2 (d/da2 - d/da1)

    The test suite derives it again through the Schouten engine of
    ``lie-algebroid-demo`` and compares.
    """
    return _spec(
        "higher-poisson-on-algebroid",
        [("x", EVEN_P)],
        [("a1", EVEN_P), ("a2", EVEN_P)],
        [
            ("x", "1", ["a1"], [["x", 1]]),
            ("x", "-1", ["a2"], [["x", 1]]),
            ("x", "1", ["a1"], [["x", 2]]),
            ("x", "-1", ["a2"], []),
            ("a1", "-1", ["a1", "a2"], []),
            ("a2", "1", ["a1", "a2"], []),
        ],
    )


BUILTINS = {
    "derham": derham,
    "lie-algebroid-demo": lie_algebroid_demo,
    "so3": so3,
    "lie-3-algebroid-demo": lie_3_algebroid_demo,
    "graded-3-lie": graded_3_lie,
    "higher-poisson-on-algebroid": higher_poisson_on_algebroid,
}


FIXTURES = {**BUILTINS, "so3-broken": so3_broken}


def builtin_spec(name: str) -> AlgebroidSpec:
    try:
        factory = FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin {refused(name)}; available: {', '.join(FIXTURES)}"
        ) from None
    return factory()
