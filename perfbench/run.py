"""Benchmark of the qalgebroid verifier: time to verdict on three workloads.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script

1. writes the workload's inputs from the seed (``workloads.py``, a child
   process, not timed),
2. times set-up in fresh processes: interpreter start, importing the package
   and its CLI, reading the documents (``worker.py --setup-only``),
3. runs the jobs in one more process (``worker.py``) for about ``--seconds``,
   checking every verdict against its known answer (times are process CPU
   time scaled to the reference speed of ``calibrate.py``; measured wall
   times are printed beside them),
4. prints one line per metric and, last, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Scratch files go to ``.perfbench-work/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("jacobiator-deep", "build-random", "verify-mix")
SETUP_PROBES = 7
DEADLINE_S = 175.0

# Layers each workload is predicted to leave idle (zero calls); every other
# traced layer is predicted to be called at least once.
IDLE = {
    "jacobiator-deep": {
        "construction.audit", "construction.naturality", "homotopy.table",
        "homotopy.leibniz", "homotopy.statement", "randgen.random_poly",
    },
    "build-random": {
        "construction.naturality", "homotopy.derived", "homotopy.jacobiator",
        "homotopy.table", "homotopy.leibniz", "homotopy.statement",
        "randgen.random_poly",
    },
    "verify-mix": {"homotopy.jacobiator"},
}

# Per-layer metrics of the result line: (name, unit, layer, field).  The self
# time of a layer idle on some workload is a constant zero there, so those
# self times are printed in the table only (TABLE_ONLY below).
PER_LAYER = (
    ("specdoc.parse_spec.calls", "count", "specdoc.parse_spec", "calls"),
    ("specdoc.parse_spec.self_s", "s", "specdoc.parse_spec", "self_s"),
    ("specdoc.assemble_field.self_s", "s", "specdoc.assemble_field", "self_s"),
    ("cli.load_spec.self_s", "s", "cli.load_spec", "self_s"),
    ("cli.report_emit.self_s", "s", "cli.report_emit", "self_s"),
    ("charts.chart_new.count", "count", None, "charts.chart_new.count"),
    ("charts.parent_chart.calls", "count", "charts.parent_chart", "calls"),
    ("charts.lift_restrict.self_s", "s", "charts.lift_restrict", "self_s"),
    ("gradedpoly.mul.calls", "count", "gradedpoly.mul", "calls"),
    ("gradedpoly.mul.self_s", "s", "gradedpoly.mul", "self_s"),
    ("gradedpoly.mul.terms_out", "terms", None, "gradedpoly.mul.terms_out"),
    ("gradedpoly.add.calls", "count", "gradedpoly.add", "calls"),
    ("gradedpoly.add.self_s", "s", "gradedpoly.add", "self_s"),
    ("gradedpoly.substitute.calls", "count", "gradedpoly.substitute", "calls"),
    ("gradedpoly.substitute.self_s", "s", "gradedpoly.substitute", "self_s"),
    ("gradedpoly.left_derivative.calls", "count", "gradedpoly.left_derivative", "calls"),
    ("gradedpoly.left_derivative.self_s", "s", "gradedpoly.left_derivative", "self_s"),
    ("gradedpoly.left_derivative.zero_ratio", "ratio", "gradedpoly.left_derivative",
     "gradedpoly.left_derivative.zeros"),
    ("gradedpoly.parity_parts.calls", "count", "gradedpoly.parity_parts", "calls"),
    ("gradedpoly.parity_parts.self_s", "s", "gradedpoly.parity_parts", "self_s"),
    ("gradedpoly.peak_terms", "terms", None, "peak_terms"),
    ("fields.canonical_poisson.calls", "count", "fields.canonical_poisson", "calls"),
    ("fields.canonical_poisson.self_s", "s", "fields.canonical_poisson", "self_s"),
    ("fields.canonical_schouten.calls", "count", "fields.canonical_schouten", "calls"),
    ("fields.canonical_schouten.self_s", "s", "fields.canonical_schouten", "self_s"),
    ("fields.canonical.terms_out", "terms", None, "fields.canonical.terms_out"),
    ("fields.commutator.calls", "count", "fields.commutator", "calls"),
    ("fields.commutator.self_s", "s", "fields.commutator", "self_s"),
    ("construction.build.calls", "count", "construction.build", "calls"),
    ("construction.build.self_s", "s", "construction.build", "self_s"),
    ("construction.exchange.self_s", "s", "construction.exchange", "self_s"),
    ("homotopy.derived.calls", "count", "homotopy.derived", "calls"),
    ("homotopy.derived.zero_ratio", "ratio", "homotopy.derived", "homotopy.derived.zeros"),
    ("homotopy.derived.brackets_per_call", "brackets/call", "homotopy.derived",
     "homotopy.bracket.calls"),
    ("homotopy.jacobiator.calls", "count", "homotopy.jacobiator", "calls"),
    ("randgen.random_poly.calls", "count", "randgen.random_poly", "calls"),
    ("trace.overhead_ratio", "ratio", None, None),
    ("trace.unattributed_s", "s", "job", "self_s"),
)
TABLE_ONLY = tuple(
    (f"{layer}.self_s", "s", layer, "self_s")
    for layer in sorted(set().union(*IDLE.values()))
)


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> str:
    """Run a Python child to completion inside the deadline; return stdout."""
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} ran past the deadline") from None
    if done.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def layer_metric(trace: dict, layer: str | None, field: str) -> float:
    stats = trace["layers"].get(layer, {"calls": 0, "self_s": 0.0})
    if field in ("calls", "self_s"):
        return stats[field]
    if field == "peak_terms":
        return trace["peak_terms"]
    count = trace["counts"].get(field, 0)
    if layer is None:
        return count
    return count / stats["calls"] if stats["calls"] else 0.0


def coverage(workload: str, trace: dict) -> list[str]:
    """Predicted-busy layers that were idle and predicted-idle ones that ran."""
    problems = [f"not wrapped: {name}" for name in trace["missing"]]
    for layer, stats in sorted(trace["layers"].items()):
        idle = layer in IDLE[workload]
        if idle and stats["calls"]:
            problems.append(f"{layer}: {stats['calls']} calls, predicted none")
        elif not idle and not stats["calls"]:
            problems.append(f"{layer}: no calls, predicted some")
    if not trace["counts"].get("charts.chart_new.count"):
        problems.append("charts.chart_new: no charts constructed")
    return problems


def scaled(cpu_s: float, cal_s: float) -> float:
    """A CPU time at the reference speed of calibrate.py."""
    return cpu_s * REFERENCE_S / cal_s


def scaled_samples(result: dict) -> list[float]:
    return [scaled(ms, cal) for ms, cal in zip(result["cpu_ms"], result["cal_s"])]


def pass_totals(result: dict, samples: list[float]) -> list[float]:
    """Scaled job time of each pass, in ms; the traced pass, if any, last."""
    totals = [0.0] * len(result["pass_wall_s"])
    for ms, p in zip(samples, result["pass_of"]):
        totals[p] += ms
    return totals


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    samples = scaled_samples(result)
    n = len(samples)
    jobs_per_pass = n // result["passes"]
    repeats: dict[int, list[float]] = {}
    for ms, job in zip(samples, result["job_of"]):
        repeats.setdefault(job, []).append(ms)
    # a job's time is the median of its repeats; the percentiles run over jobs
    per_job = [statistics.median(v) for v in repeats.values()]
    metrics = {
        "setup_s": (statistics.median(scaled(s["cpu_s"], s["cal_s"]) for s in setups), "s"),
        "jobs_per_s": (statistics.median(jobs_per_pass * 1000.0 / ms
                                         for ms in pass_totals(result, samples)), "1/s"),
        "verdict_ms.p50": (statistics.median(per_job), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    count = f" ({len(per_job)} jobs x {result['passes']} passes = {n} samples)"
    lines[2] += count
    if len(per_job) >= 100:
        p90 = statistics.quantiles(per_job, n=10)[8]
        lines.append(f"verdict_ms.p90 {p90:.6g} ms{count}")
    else:
        lines.append(f"verdict_ms.p90 not reported: {len(per_job)} jobs, fewer than 100")
    wrong = len(result["wrong"])
    lines.append(f"verdict_wrong_ratio {wrong / result['attempted']:.6g} "
                 f"({wrong}/{result['attempted']})")
    lines.append(f"measured: {n / sum(result['pass_wall_s']):.6g} jobs/s wall, "
                 f"p50 {statistics.median(result['wall_ms']):.6g} ms wall, "
                 f"speed {REFERENCE_S / statistics.fmean(result['cal_s']):.3f} x reference")
    return metrics, lines


def per_layer(workload: str, result: dict) -> tuple[dict, list[str]]:
    trace = result["trace"]
    pass_ms = pass_totals(result, scaled_samples(result))
    untraced, traced = statistics.median(pass_ms[:-1]), pass_ms[-1]
    metrics = {}
    for name, unit, layer, field in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = traced / untraced - 1.0
        else:
            value = layer_metric(trace, layer, field)
        metrics[name] = (value, unit)
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{name} {layer_metric(trace, layer, field):.6g} {unit} (table only)"
              for name, unit, layer, field in TABLE_ONLY]
    counted = {layer: stats["calls"] for layer, stats in trace["layers"].items()}
    digest = hashlib.sha256(
        json.dumps([counted, trace["counts"], trace["peak_terms"]], sort_keys=True).encode()
    ).hexdigest()[:16]
    lines.append(f"trace.spans {trace['spans']}; counts digest {digest}")
    problems = coverage(workload, trace)
    lines.append("coverage: " + ("pass" if not problems else "FAIL: " + "; ".join(problems)))
    return metrics, lines


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qalgebroid" / "cli.py").is_file():
        raise BenchError(f"no qalgebroid sources under {ROOT / 'src'}")
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    child([str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(inputs)], deadline)
    jobs = inputs / "jobs.json"
    manifest = json.loads(jobs.read_text())
    sizes = manifest["documents"]
    print(f"workload {args.workload} seed {args.seed}: {len(manifest['jobs'])} jobs per pass "
          f"over {len(sizes)} documents, generators "
          f"{min(d['generators'] for d in sizes)}-{max(d['generators'] for d in sizes)}, "
          f"Q terms {min(d['q_terms'] for d in sizes)}-{max(d['q_terms'] for d in sizes)}")

    worker = str(BENCH / "worker.py")
    setups = [json.loads(child([worker, "--jobs", str(jobs), "--setup-only"], deadline))
              for _ in range(SETUP_PROBES)]
    result_path = work / "result.json"
    child([worker, "--jobs", str(jobs), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path),
           "--spans", str(work / "spans.tsv.gz")], deadline)
    result = json.loads(result_path.read_text())
    setups.append(result["setup"])

    wall = result["pass_wall_s"]
    print(f"{result['passes']} passes in {sum(wall[:result['passes']]):.2f} s" + (
        f", then one traced pass in {wall[-1]:.2f} s" if args.trace else ""))
    for problem in result["wrong"][:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(args.workload, result)
    else:
        metrics, lines = end_to_end(result, setups)
    for line in lines:
        print(line)
    return {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": len(result["wrong"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="qalgebroid verifier benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
