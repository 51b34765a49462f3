"""Frozen ``--json`` reports and exit codes for every builtin and command.

``data/cli_json_goldens.json`` maps each case id (the CLI arguments joined by
spaces) to the exit code and the exact stdout of that run.  The file was
written by this module's ``__main__`` block:

    PYTHONPATH=src python tests/test_cli_json_goldens.py

and is compared byte for byte, so any drift in a report, a rendered
polynomial or an exit code shows up as a diff.  ``naturality`` runs with the
identity matrix, which is written to a temporary file (the placeholder
``IDENTITY`` in the case id).  ``jacobiator`` is also frozen at the deep
arities of ``JACOBIATOR_DEEP``, where a sweep shares the most inner brackets.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qalgebroid.builtins import FIXTURES, builtin_spec
from qalgebroid.cli import main

GOLDENS = Path(__file__).parent / "data" / "cli_json_goldens.json"
IDENTITY = "IDENTITY"

# arities beyond 3 at which each builtin's Jacobiator sweep is frozen
JACOBIATOR_DEEP = {
    "so3": (4, 5, 6),
    "graded-3-lie": (4, 5, 6),
    "lie-3-algebroid-demo": (4, 5),
    "so3-broken": (4, 5),
}


def _point_base(name: str) -> bool:
    return not builtin_spec(name).base


def cases() -> list[list[str]]:
    out = []
    for name in FIXTURES:
        out += [
            ["describe", name, "--json"],
            ["check-q", name, "--json"],
            ["build-schouten", name, "--json"],
            ["build-poisson", name, "--json"],
        ]
        for flavor in ("schouten", "poisson"):
            for arity in range(4):
                out.append(["brackets", name, "--flavor", flavor,
                            "--arity", str(arity), "--json"])
        out += [
            ["jacobiator", name, "--arity", "3", "--json"],
            ["leibniz", name, "--arity", "2", "--trials", "6", "--seed", "0", "--json"],
        ]
        if _point_base(name):
            out.append(["statement-check", name, "--json"])
        if name != "so3-broken":
            out.append(["naturality", name, "--matrix", IDENTITY, "--json"])
        out.append(["example", name])
        for arity in JACOBIATOR_DEEP.get(name, (4,)):
            out.append(["jacobiator", name, "--arity", str(arity), "--json"])
    return out


def run_case(args: list[str], tmp: Path) -> tuple[int, str]:
    if IDENTITY in args:
        rank = len(builtin_spec(args[1]).fibre)
        matrix = tmp / "identity.json"
        matrix.write_text(json.dumps(
            [[int(i == j) for j in range(rank)] for i in range(rank)]
        ))
        args = [str(matrix) if a == IDENTITY else a for a in args]
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout


@pytest.mark.parametrize("args", cases(), ids=" ".join)
def test_json_golden(args, tmp_path):
    golden = json.loads(GOLDENS.read_text())[" ".join(args)]
    exit_code, stdout = run_case(args, tmp_path)
    assert (exit_code, stdout) == (golden["exit_code"], golden["stdout"])


if __name__ == "__main__":
    import tempfile

    frozen = {}
    with tempfile.TemporaryDirectory() as tmp:
        for args in cases():
            exit_code, stdout = run_case(args, Path(tmp))
            frozen[" ".join(args)] = {"exit_code": exit_code, "stdout": stdout}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} cases to {GOLDENS}")
