"""Per-layer spans recorded from outside the package.

``install`` replaces the package's layer functions with timing wrappers at
run time.  A module function is rebound in every ``qalgebroid`` module
namespace that holds it (``canonical_poisson`` lives in ``fields``,
``construction`` and ``homotopy``); a method is replaced on its class.
Nothing in the package is edited, so an untraced run executes the program
exactly as shipped.

Every wrapped call becomes a span: layer name, parent span, start and end.
Spans stay in memory as columns and are written out once, at the end.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (layer, module, function) — the function is rebound wherever it is bound
FUNCTIONS = (
    ("specdoc.parse_spec", "qalgebroid.specdoc", "parse_spec"),
    ("specdoc.assemble_field", "qalgebroid.specdoc", "assemble_field"),
    ("cli.load_spec", "qalgebroid.cli", "load_spec"),
    ("charts.lift_restrict", "qalgebroid.charts", "lift_to_phase"),
    ("charts.lift_restrict", "qalgebroid.charts", "restrict_to_zero_section"),
    ("fields.canonical_poisson", "qalgebroid.fields", "canonical_poisson"),
    ("fields.canonical_schouten", "qalgebroid.fields", "canonical_schouten"),
    ("fields.commutator", "qalgebroid.fields", "commutator"),
    ("construction.build", "qalgebroid.construction", "build_schouten"),
    ("construction.build", "qalgebroid.construction", "build_poisson"),
    ("construction.build", "qalgebroid.construction", "build_schouten_unchecked"),
    ("construction.build", "qalgebroid.construction", "build_poisson_unchecked"),
    ("construction.audit", "qalgebroid.construction", "total_weight_audit"),
    ("construction.naturality", "qalgebroid.construction", "chart_change_naturality"),
    ("homotopy.jacobiator", "qalgebroid.homotopy", "jacobiator"),
    ("homotopy.table", "qalgebroid.homotopy", "schouten_bracket_table"),
    ("homotopy.table", "qalgebroid.homotopy", "poisson_bracket_table"),
    ("homotopy.table", "qalgebroid.homotopy", "symmetric_field_table"),
    ("homotopy.table", "qalgebroid.homotopy", "skew_bracket_table"),
    ("homotopy.leibniz", "qalgebroid.homotopy", "leibniz_check"),
    ("homotopy.statement", "qalgebroid.homotopy", "weight_one_restriction_check"),
    ("randgen.random_poly", "qalgebroid.randgen", "random_poly"),
)

# (layer, module, class, method)
METHODS = (
    ("cli.report_emit", "qalgebroid.cli", "Report", "emit"),
    ("charts.parent_chart", "qalgebroid.charts", "Chart", "parent_chart"),
    ("gradedpoly.mul", "qalgebroid.gradedpoly", "GradedPoly", "__mul__"),
    ("gradedpoly.add", "qalgebroid.gradedpoly", "GradedPoly", "__add__"),
    ("gradedpoly.add", "qalgebroid.gradedpoly", "GradedPoly", "__radd__"),
    ("gradedpoly.substitute", "qalgebroid.gradedpoly", "GradedPoly", "substitute"),
    ("gradedpoly.left_derivative", "qalgebroid.gradedpoly", "GradedPoly", "left_derivative"),
    ("gradedpoly.parity_parts", "qalgebroid.gradedpoly", "GradedPoly", "parity_parts"),
    ("construction.exchange", "qalgebroid.construction", "MorphismR", "pullback"),
    ("homotopy.derived", "qalgebroid.homotopy", "DerivedBracketEngine", "derived"),
)

# methods that are counted, not timed: (counter, module, class, method)
COUNTED = (
    ("charts.chart_new.count", "qalgebroid.charts", "Chart", "__post_init__"),
    ("homotopy.bracket.calls", "qalgebroid.homotopy", "PhaseEngine", "bracket"),
    ("homotopy.bracket.calls", "qalgebroid.homotopy", "FieldEngine", "bracket"),
)

JOB = "job"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.peak_terms = 0
        self.missing: list[str] = []
        # span columns
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]

    def _id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[layer]

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def innermost(self) -> str | None:
        if not self._stack:
            return None
        return self.layers[self.span_layer[self._stack[-1][0]]]

    def wrap(self, layer: str, fn, after=None):
        lid = self._id(layer)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                self.self_s[lid] += dur - frame[1]
                self.calls[lid] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def terms(self, counter: str | None = None, zeros: str | None = None):
        """An ``after`` hook: tracks peak size, output terms and zero results."""
        def after(result):
            n = len(result.terms) if hasattr(result, "terms") else len(result.components)
            if n > self.peak_terms:
                self.peak_terms = n
            if counter:
                self.count(counter, n)
            if zeros and n == 0:
                self.count(zeros)
        return after

    def install(self):
        after = {
            "gradedpoly.mul": self.terms("gradedpoly.mul.terms_out"),
            "gradedpoly.add": self.terms(),
            "gradedpoly.substitute": self.terms(),
            "gradedpoly.left_derivative": self.terms(zeros="gradedpoly.left_derivative.zeros"),
            "fields.canonical_poisson": self.terms("fields.canonical.terms_out"),
            "fields.canonical_schouten": self.terms("fields.canonical.terms_out"),
            "homotopy.derived": self.terms(zeros="homotopy.derived.zeros"),
        }
        # some layers are imported lazily inside functions: import them now
        for module in {t[1] for t in FUNCTIONS + METHODS + COUNTED}:
            try:
                importlib.import_module(module)
            except ImportError:
                pass
        package = [m for name, m in list(sys.modules.items())
                   if name == "qalgebroid" or name.startswith("qalgebroid.")]
        for layer, module, name in FUNCTIONS:
            original = getattr(sys.modules.get(module), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            wrapped = self.wrap(layer, original, after.get(layer))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for layer, module, cls_name, name in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(name) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{name}")
                continue
            setattr(cls, name, self.wrap(layer, original, after.get(layer)))
        for counter, module, cls_name, name in COUNTED:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(name) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{name}")
                continue
            setattr(cls, name, self._counted(counter, original))

    def _counted(self, counter: str, fn):
        # engine brackets count only when a derived bracket is evaluating
        inside = "homotopy.derived" if counter == "homotopy.bracket.calls" else None

        def counted(*args, **kwargs):
            if inside is None or self.innermost() == inside:
                self.count(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", counter)
        return counted

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time of every layer, plus the extra counters."""
        out = {"spans": len(self.span_start), "peak_terms": self.peak_terms,
               "counts": dict(sorted(self.counts.items())), "missing": self.missing,
               "layers": {}}
        for lid, layer in enumerate(self.layers):
            out["layers"][layer] = {"calls": self.calls[lid], "self_s": self.self_s[lid]}
        return out

    def write_spans(self, path):
        """One span per line: index, parent, layer, start and end in seconds."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.layers[self.span_layer[i]]}"
                         f"\t{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
