"""The package's public surface: the names ``qalgebroid`` exports, where each
comes from, and that the derived-bracket engine loads only when asked for."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qalgebroid

# the defining submodule of each exported name; the submodules are exported too
SURFACE = {
    "charts": ["BundlePresentation", "Chart", "all_charts", "chart_e_star",
               "chart_even_cotangent", "chart_odd_cotangent", "chart_pi_e", "chart_pi_e_star",
               "describe_chart", "lift_to_phase", "restrict_to_zero_section"],
    "construction": ["FibreChange", "HigherStructure", "MorphismR", "build_poisson",
                     "build_schouten", "chart_change_naturality", "even_dual_exchange",
                     "is_strict", "odd_dual_exchange", "total_weight_audit"],
    "fields": ["NotHomological", "VectorField", "canonical_poisson", "canonical_schouten",
               "commutator", "even_symbol", "is_homological", "odd_symbol"],
    "gradedpoly": ["EVEN", "ODD", "ChartMismatch", "GradedAlgebraError", "GradedPoly",
                   "Generator", "ParityMismatch", "UnknownGenerator"],
    "homotopy": ["BracketTable", "DerivedBracketEngine", "FieldEngine", "PhaseEngine",
                 "higher_anchor", "higher_bracket", "jacobiator", "leibniz_check",
                 "poisson_bracket_table", "schouten_bracket_table", "skew_bracket_table",
                 "symmetric_field_table", "weight_one_restriction_check"],
    "specdoc": ["AlgebroidSpec", "SpecError", "assemble_field", "parse_spec", "render_spec"],
}
PUBLIC = sorted([*SURFACE, *(name for names in SURFACE.values() for name in names)])


def test_all_is_pinned():
    assert len(PUBLIC) == 61
    assert sorted(qalgebroid.__all__) == PUBLIC


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_each_name_is_its_defining_module_object(module):
    defining = importlib.import_module(f"qalgebroid.{module}")
    assert getattr(qalgebroid, module) is defining
    for name in SURFACE[module]:
        assert getattr(qalgebroid, name) is getattr(defining, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        qalgebroid.nosuch  # noqa: B018


def test_star_import_and_dir_before_the_engine_loads():
    # in a fresh interpreter: importing the package loads no homotopy, dir()
    # lists every public name all the same, and a star import binds them all
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, qalgebroid\n"
            "assert 'qalgebroid.homotopy' not in sys.modules\n"
            "listed = set(dir(qalgebroid))\n"
            "namespace = {}\n"
            "exec('from qalgebroid import *', namespace)\n"
            "bound = set(namespace) - {'__builtins__'}\n"
            "assert namespace['jacobiator'] is sys.modules['qalgebroid.homotopy'].jacobiator\n"
            "print(' '.join(sorted(listed & bound)), ' '.join(sorted(bound)), sep='\\n')\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    listed_and_bound, bound = done.stdout.splitlines()
    assert listed_and_bound.split() == bound.split() == PUBLIC
