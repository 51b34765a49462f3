"""The benchmark's input documents are pinned by digest.

``perfbench/workloads.py`` writes every document and matrix a workload runs
on through ``builtin_spec``, ``spec_from_field`` and ``render_spec``.  A
change to that load path must leave the benchmark's inputs as they were, or
a parent/change comparison would time different work.  The digest is
SHA-256 over each written file's name and bytes, in sorted name order,
``jobs.json`` left out (it holds the output directory's path); its first 16
hex digits are the same on Python 3.10 to 3.13.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SEED_1_DIGESTS = {
    "jacobiator-deep": "14e5e5b3638b382a",
    "build-random": "a2aa0d02edbeef4c",
    "verify-mix": "f531c116f848bbf5",
}


def documents_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name != "jobs.json":
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("workload", list(SEED_1_DIGESTS))
def test_seed_1_documents(tmp_path, workload):
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "workloads.py"),
                    "--workload", workload, "--seed", "1", "--out", str(tmp_path)],
                   check=True, capture_output=True)
    assert documents_digest(tmp_path) == SEED_1_DIGESTS[workload]
