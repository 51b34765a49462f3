"""Seeded random inputs that only the tests draw: homogeneous polynomials
and parity-homogeneous vector fields, on top of ``randgen.random_poly``."""

from __future__ import annotations

from qalgebroid.fields import VectorField
from qalgebroid.randgen import random_poly


def random_homogeneous_poly(rng, chart, max_degree=3, n_terms=3):
    """A random polynomial of a parity drawn first."""
    return random_poly(rng, chart, max_degree, n_terms, parity=rng.randint(0, 1))


def random_field(rng, chart, parity, max_degree=3, fill=0.7):
    """A random parity-homogeneous vector field: each generator's component
    is drawn with probability ``fill``, of the parity that makes the field
    homogeneous, and kept when nonzero."""
    comps = {}
    for g in chart.generators:
        if rng.random() > fill:
            continue
        want = (parity + g.parity) & 1
        poly = random_poly(rng, chart, max_degree, n_terms=2, parity=want)
        if not poly.is_zero():
            comps[g.name] = poly
    return VectorField(chart, comps, parity)
