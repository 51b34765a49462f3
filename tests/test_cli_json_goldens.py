"""Frozen ``--json`` reports and exit codes for every builtin and command.

``data/cli_json_goldens.json`` maps each case id (the CLI arguments joined by
spaces) to the exit code and the exact stdout of that run.  The file was
written by this module's ``__main__`` block:

    PYTHONPATH=src python tests/test_cli_json_goldens.py

and is compared byte for byte, so any drift in a report, a rendered
polynomial or an exit code shows up as a diff.  ``naturality`` runs with the
identity matrix, which is written to a temporary file (the placeholder
``IDENTITY`` in the case id).
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qalgebroid.builtins import builtin_names, builtin_spec, so3_broken
from qalgebroid.cli import main

GOLDENS = Path(__file__).parent / "data" / "cli_json_goldens.json"
IDENTITY = "IDENTITY"


def _point_base(name: str) -> bool:
    spec = so3_broken() if name == "so3-broken" else builtin_spec(name)
    return not spec.base


def cases() -> list[list[str]]:
    out = []
    for name in builtin_names() + ["so3-broken"]:
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
