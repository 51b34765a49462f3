"""The closed Lie-(super)algebra formulas for the higher brackets of S and P.

Over a point base, the arity-r bracket of S (flavor "schouten", on functions
of eta) or of P (flavor "poisson", on functions of e) is a fixed
multidifferential operator built from the structure constants of Q.  The
package computes these brackets as nested derived brackets; the tests compare
them with the formulas below.  The module imports nothing from
``qalgebroid.homotopy``: an oracle that called the engines it checks would
only check itself.
"""

from itertools import product

from qalgebroid.gradedpoly import ChartMismatch, GradedPoly, ParityMismatch

FAMILY = {"schouten": "eta", "poisson": "e"}


def _schouten_eps(r: int, fp: list[int], arg_par: list[int]) -> int:
    """eps = sum_j Xj (a_{j+1} + ... + a_r + r + j) + sum_i a_i."""
    e = sum(fp)
    for j in range(r - 1):
        e += arg_par[j] * (sum(fp[j + 1:]) + r + j + 1)
    return e & 1


def _poisson_eps(r: int, fp: list[int], arg_par: list[int]) -> int:
    """eps = 1 + r + r(r+1)/2 + sum_j Fj (a_{j+1} + ... + a_r) + sum_i i a_i,
    with 1-based positions i."""
    e = 1 + r + r * (r + 1) // 2
    for j in range(r - 1):
        e += arg_par[j] * sum(fp[j + 1:])
    for pos, p in enumerate(fp, start=1):
        e += pos * p
    return e & 1


EPS = {"schouten": _schouten_eps, "poisson": _poisson_eps}


def structure_constant(q, target: str, tup: tuple[int, ...]) -> GradedPoly:
    """The graded-symmetric coefficient Q^target_(tup) of the field.

    Computed by iterated left derivatives in tuple order applied to the
    target component, then evaluation at zero fibre coordinates.  On a chart
    with base coordinates the result is a base function.
    """
    comp = q.component(target)
    for i in reversed(tup):
        comp = comp.left_derivative(q.chart.generators[i].name)
    return comp.drop_generators(q.chart.fibre_names())


def closed_form(flavor: str, q, dual, args: list[GradedPoly]) -> GradedPoly:
    """(X1, ..., Xr)_S or {F1, ..., Fr}_P over a point base, on ``dual``.

    Sums over fibre index tuples (a1, ..., ar):
        (-1)^eps Q^b_(ar...a1) f_b  dA1/df_a1 ... dAr/df_ar
    where f is eta or e, a_i is the fibre parity of slot a_i (one plus the
    parity of xi^(a_i)), and eps is ``EPS[flavor]`` of r, the a_i and the
    argument parities.
    """
    if q.chart.n_base != 0:
        raise ChartMismatch("the closed formulas apply over a point base")
    family = FAMILY[flavor]
    gens = q.chart.generators
    r = len(args)
    arg_par = [a.parity() for a in args]
    if None in arg_par:
        raise ParityMismatch("closed-form arguments must be homogeneous")
    summands = []
    for tup in product(range(len(gens)), repeat=r):
        factor = dual.one()
        for pos, i in enumerate(tup):
            factor = factor * args[pos].left_derivative(f"{family}{i + 1}")
            if factor.is_zero():
                break
        if factor.is_zero():
            continue
        core = GradedPoly.sum(dual, [
            dual.gen(f"{family}{b + 1}").scaled(c)
            for b, g in enumerate(gens)
            if (c := structure_constant(q, g.name, tup[::-1]).constant_term()) != 0
        ])
        if core.is_zero():
            continue
        fp = [(gens[i].parity + 1) & 1 for i in tup]
        sign = -1 if EPS[flavor](r, fp, arg_par) else 1
        summands.append((core * factor).scaled(sign))
    return GradedPoly.sum(dual, summands)
