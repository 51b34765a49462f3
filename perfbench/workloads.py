"""Seeded job lists and their known answers for the three benchmark workloads.

Run as a script, this writes one workload's input documents, fibre-change
matrices and ``jobs.json`` into an output directory:

    python3 perfbench/workloads.py --workload verify-mix --seed 3 --out DIR

Every job is one CLI command line.  Each carries the exit code and the set
of failing check names it must produce.  Those answers follow from the
mathematics, not from running the code under test: every builtin and every
random field is homological, so all of its checks pass; ``so3-broken``
fails only the ``[Q,Q]`` gate.  The program under test sees only the
documents and matrices written here.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qalgebroid.builtins import BUILTINS, builtin_spec, so3_broken  # noqa: E402
from qalgebroid.randgen import random_homological_field  # noqa: E402
from qalgebroid.specdoc import render_spec, spec_from_field  # noqa: E402

BROKEN = "so3-broken"

# Arities per builtin for jacobiator-deep; so3-broken is the negative control.
JACOBIATOR_ARITIES = {
    "so3": (3, 4, 5, 6),
    "lie-3-algebroid-demo": (3, 4, 5),
    "graded-3-lie": (4, 5, 6),
    "derham": (3, 4),
    "lie-algebroid-demo": (3, 4),
    "higher-poisson-on-algebroid": (3, 4),
    BROKEN: (3, 4),
}

# build-random documents come in fixed Q-term-count bins, so that every seed
# gets the same mix of sizes and the run's total work depends little on it.
# A document's cost grows about as (Q terms)^1.4 and varies by about 30%
# at a fixed size, so many mid-sized documents keep the run-to-run spread
# small; the few largest would dominate it.  (lowest, highest, documents)
RANDOM_BINS = (
    (4, 7, 40), (8, 11, 40), (12, 15, 40), (16, 23, 40), (24, 31, 20), (32, 44, 12),
)
RANDOM_CANDIDATES = 20000

STATEMENT_SOURCES = ("so3", "graded-3-lie")
COEFF_POOL = ("2", "-1", "1/2", "3", "-2/3", "5/4", "-3")


def expected(command: str, source: str) -> tuple[int, list[str]]:
    """Known exit code and failing check names of one command on one source."""
    if source != BROKEN or command == "describe":
        return 0, []
    if command in ("check-q", "jacobiator"):
        # the two-way Jacobiator agreement must still hold off the gate
        return 1, ["[Q,Q] = 0"]
    if command in ("build-schouten", "build-poisson", "brackets", "leibniz"):
        return 1, ["homological input"]
    raise ValueError(f"no known answer for {command} on {source}")


class JobList:
    def __init__(self, out: Path):
        self.out = out
        self.jobs: list[dict] = []
        self.documents: list[dict] = []

    def document(self, spec, stem: str) -> str:
        path = self.out / f"{stem}.json"
        path.write_text(render_spec(spec))
        self.documents.append({
            "path": str(path),
            "generators": len(spec.base) + len(spec.fibre),
            "q_terms": len(spec.q_terms),
        })
        return str(path)

    def matrix(self, rows, stem: str) -> str:
        path = self.out / f"{stem}.json"
        path.write_text(json.dumps(rows))
        return str(path)

    def add(self, command: str, source: str, path: str, *options: str):
        code, failing = expected(command, source)
        args = [command, path, *options, "--json"]
        self.jobs.append({
            "id": " ".join([command, source, *options]),
            "args": args,
            "exit": code,
            "failing": failing,
        })


def builtin_documents(jl: JobList) -> dict[str, object]:
    specs = {name: builtin_spec(name) for name in BUILTINS}
    specs[BROKEN] = so3_broken()
    return {name: (spec, jl.document(spec, name)) for name, spec in specs.items()}


def jacobiator_deep(jl: JobList, rng: random.Random):
    docs = builtin_documents(jl)
    for name, arities in JACOBIATOR_ARITIES.items():
        for arity in arities:
            jl.add("jacobiator", name, docs[name][1], "--arity", str(arity))
    rng.shuffle(jl.jobs)


def build_random(jl: JobList, rng: random.Random):
    wanted = [n for _, _, n in RANDOM_BINS]
    for _ in range(RANDOM_CANDIDATES):
        if not any(wanted):
            break
        field_rng = random.Random(rng.getrandbits(64))
        q = random_homological_field(
            field_rng, max_base=3, max_rank=6,
            max_degree=field_rng.randint(3, 4), shears=field_rng.randint(2, 6),
        )
        size = sum(len(c.terms) for c in q.components.values())
        slot = next(
            (i for i, (lo, hi, _) in enumerate(RANDOM_BINS) if lo <= size <= hi), None
        )
        if slot is None or not wanted[slot]:
            continue
        wanted[slot] -= 1
        chart = q.chart
        base = tuple((f"b{i + 1}", g.parity)
                     for i, g in enumerate(chart.generators[:chart.n_base]))
        fibre = tuple((f"f{i + 1}", (g.parity + 1) & 1)
                      for i, g in enumerate(chart.generators[chart.n_base:]))
        name = f"random-{len(jl.documents)}"
        path = jl.document(spec_from_field(name, base, fibre, q), name)
        for command in ("check-q", "build-schouten", "build-poisson"):
            jl.add(command, name, path)
    if any(wanted):
        raise RuntimeError(f"size bins not filled after {RANDOM_CANDIDATES} fields")


def naturality_matrices(spec, rng: random.Random) -> dict[str, list[list[str]]]:
    """Identity, diagonal and permutation fibre changes that keep parities."""
    parities = [p for _, p in spec.fibre]
    n = len(parities)
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    diagonal = [[rng.choice(COEFF_POOL) if i == j else "0" for j in range(n)]
                for i in range(n)]
    image = list(range(n))
    for parity in (0, 1):
        slots = [i for i in range(n) if parities[i] == parity]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for old, new in zip(slots, shuffled):
            image[old] = new
    permutation = [["1" if image[i] == j else "0" for j in range(n)]
                   for i in range(n)]
    return {"identity": identity, "diagonal": diagonal, "permutation": permutation}


def verify_mix(jl: JobList, rng: random.Random):
    docs = builtin_documents(jl)
    cli_seed = str(rng.randrange(1000))
    for name, (spec, path) in docs.items():
        jl.add("describe", name, path)
        jl.add("check-q", name, path)
        jl.add("build-schouten", name, path)
        jl.add("build-poisson", name, path)
        for flavor in ("schouten", "poisson"):
            for arity in range(4):
                jl.add("brackets", name, path, "--flavor", flavor, "--arity", str(arity))
        jl.add("leibniz", name, path, "--arity", "2", "--trials", "25", "--seed", cli_seed)
        jl.add("leibniz", name, path, "--arity", "3", "--trials", "10", "--seed", cli_seed)
        if name in STATEMENT_SOURCES:
            jl.add("statement-check", name, path)
        if name == BROKEN:
            continue  # its naturality exits 2 (bad input), not a verdict
        for kind, rows in naturality_matrices(spec, rng).items():
            matrix = jl.matrix(rows, f"{name}-{kind}")
            jl.add("naturality", name, path, "--matrix", matrix, "--seed", cli_seed)


WORKLOADS = {
    "jacobiator-deep": jacobiator_deep,
    "build-random": build_random,
    "verify-mix": verify_mix,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    jl = JobList(args.out)
    WORKLOADS[args.workload](jl, random.Random(f"{args.workload}/{args.seed}"))
    (args.out / "jobs.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "documents": jl.documents, "jobs": jl.jobs},
        indent=1,
    ))


if __name__ == "__main__":
    main()
