"""Code that only the tests call: a point-base fixture with brackets of
every arity from 0 to 3, and the base coordinate names of a chart."""

from __future__ import annotations

import json

from qalgebroid.builtins import lie_3_algebroid_demo
from qalgebroid.specdoc import AlgebroidSpec, parse_spec, render_spec


def mixed_linfinity_algebra() -> AlgebroidSpec:
    """Point-base version of the Lie 3-algebroid fibre: arities 0 through 3.

    Used by the closed-formula cross-checks, which want a pure algebra with
    both even and odd directions and every bracket arity populated.  It is
    ``lie-3-algebroid-demo`` without its base and the terms of its anchor.
    """
    doc = json.loads(render_spec(lie_3_algebroid_demo()))
    base = {b["name"] for b in doc["base"]}
    doc.update(name="mixed-linfinity-algebra", base=[],
               q_terms=[t for t in doc["q_terms"] if t["target"] not in base])
    return parse_spec(doc)


def base_names(chart) -> list[str]:
    """The names of the base coordinates of ``chart``, in chart order."""
    return [g.name for g in chart.generators[:chart.n_base]]
