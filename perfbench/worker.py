"""The measured process: runs one workload's jobs through the CLI in process.

    python3 perfbench/worker.py --jobs DIR/jobs.json --seconds S --trace 0|1 --result FILE
    python3 perfbench/worker.py --jobs DIR/jobs.json --setup-only

Set-up is starting the interpreter, importing the package and its CLI and
reading the workload's documents from disk; the worker reports the CPU time
it took, with calibration slices taken right after it (see calibrate.py).

One client runs the job list in a closed loop: each job is
``qalgebroid.cli.main(args, standalone_mode=False)`` with stdout captured and
the ``SystemExit`` code read back.  Whole passes over the list repeat until
about ``--seconds`` have gone by (at least two, so repeats can be compared).
Every job is timed in process CPU time and in wall time.  A calibration
slice runs every ``CAL_EVERY_S`` of wall time, between jobs or inside them;
its time is taken off the job it interrupted, and each job is reported with
the mean of the slices during it and the one on either side.  Each job is checked
against its known exit code and failing check names, and its ``--json`` text
against the first run of the same job in this process.  With ``--trace 1``
one more pass runs with the layer wrappers installed.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAL_EVERY_S = 0.05
CAL_SETUP_SLICES = 15


def set_up(jobs_path: Path):
    sys.path.insert(0, str(SRC))
    import qalgebroid.cli

    module = Path(qalgebroid.cli.__file__).resolve()
    if SRC.resolve() not in module.parents:
        raise SystemExit(f"imported {module}, not the package under {SRC}")
    spec = json.loads(jobs_path.read_text())
    for doc in spec["documents"]:
        Path(doc["path"]).read_bytes()
    return qalgebroid.cli.main, spec["jobs"]


class Client:
    """Runs jobs, times them and checks every verdict."""

    def __init__(self, cli_main, jobs, sampler: calibrate.Sampler):
        self.cli_main = cli_main
        self.jobs = jobs
        self.sampler = sampler
        # per job its first --json; per sample compact columns, so that memory
        # does not grow with the number of passes run
        self.first_output: dict[str, str] = {}
        self.cpu_ms = array("d")
        self.wall_ms = array("d")
        self.first_slice = array("i")
        self.end_slice = array("i")
        self.pass_of = array("i")
        self.job_of = array("i")
        self.pass_wall_s: list[float] = []
        self.wrong: list[str] = []

    def call(self, args):
        out = io.StringIO()
        code = 0
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                self.cli_main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return code, out.getvalue()

    def run_job(self, index, call):
        job = self.jobs[index]
        problem = ""
        first_slice = len(self.sampler.slices)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code, text = call(job["args"])
        except Exception as exc:  # a raised job is a wrong verdict, never retried
            problem = f"raised {exc!r}"
        c1, w1 = time.process_time(), time.perf_counter()
        spent = self.sampler.within(first_slice, c0, c1)
        self.cpu_ms.append((c1 - c0 - spent) * 1000.0)
        self.wall_ms.append((w1 - w0 - spent) * 1000.0)
        self.first_slice.append(first_slice)
        self.end_slice.append(len(self.sampler.slices))
        self.pass_of.append(len(self.pass_wall_s))
        self.job_of.append(index)
        if not problem:
            first = self.first_output.setdefault(job["id"], text)
            problem = verdict_problem(job, code, text, text == first)
        if problem:
            self.wrong.append(f"{job['id']}: {problem}")

    def run_pass(self, call=None, slice_between=False) -> float:
        """One pass over the job list; returns its wall time.

        With ``slice_between`` a calibration slice runs before every job,
        for passes where the timer is off.
        """
        call = call or self.call
        w0 = time.perf_counter()
        for index in range(len(self.jobs)):
            if slice_between:
                self.sampler.tick()
            self.run_job(index, call)
        self.pass_wall_s.append(time.perf_counter() - w0)
        return self.pass_wall_s[-1]

    def cal_s(self) -> list[float]:
        """Per job, the mean of the slices during it and one on either side.

        The mean, not the median: a job pays for every slow stretch it runs
        through, and the slices sample those stretches in proportion.
        """
        self.sampler.tick()  # so that the last jobs have a slice after them
        times = [d for _, d in self.sampler.slices]
        return [statistics.fmean(times[max(0, a - 1):b + 1])
                for a, b in zip(self.first_slice, self.end_slice)]


def verdict_problem(job, code, text, same_as_first: bool) -> str:
    if code != job["exit"]:
        return f"exit {code}, expected {job['exit']}"
    try:
        failing = sorted(c["name"] for c in json.loads(text)["checks"] if not c["ok"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable --json report: {exc!r}"
    if failing != sorted(job["failing"]):
        return f"failing checks {failing}, expected {sorted(job['failing'])}"
    if not same_as_first:
        return "--json differs from the first run of the same job"
    return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli_main, jobs = set_up(args.jobs)
    setup = {
        "cpu_s": time.process_time(),
        "cal_s": statistics.fmean(
            calibrate.slice_seconds() for _ in range(CAL_SETUP_SLICES)
        ),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return

    client = Client(cli_main, jobs, calibrate.Sampler(CAL_EVERY_S))
    with client.sampler:
        passes = max(2, round(args.seconds / client.run_pass()))
        client.run_pass()
        # after a fixed amount of work: the process grows a little with every
        # pass, and a faster host fits more passes into the run
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(client.pass_wall_s) < passes:
            client.run_pass()
    result = {"setup": setup, "passes": passes, "peak_rss_kb": peak_rss_kb}
    if args.trace:
        from tracing import JOB, Tracer

        # slices from the timer would land inside spans: slice between jobs
        tracer = Tracer()
        tracer.install()
        client.run_pass(tracer.wrap(JOB, client.call), slice_between=True)
    cal_s = client.cal_s()
    if args.trace:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    result.update(
        pass_wall_s=client.pass_wall_s, cpu_ms=list(client.cpu_ms),
        wall_ms=list(client.wall_ms), cal_s=cal_s, pass_of=list(client.pass_of),
        job_of=list(client.job_of),
        attempted=len(client.cpu_ms), wrong=client.wrong,
    )
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
