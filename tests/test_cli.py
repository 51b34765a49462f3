"""Command surface: parsing, reports, exit codes, determinism, golden output."""

import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalgebroid import cli, construction
from qalgebroid.builtins import BUILTINS, builtin_spec
from qalgebroid.cli import main
from qalgebroid.fields import VectorField, commutator
from qalgebroid.homotopy import JacobiatorMismatch, PhaseEngine, jacobiator
from qalgebroid.specdoc import SpecError, assemble_field, parse_spec, render_spec

from clirun import invoke


class TestParsing:
    def test_round_trip_all_builtins(self):
        for name in BUILTINS:
            spec = builtin_spec(name)
            assert parse_spec(render_spec(spec)) == spec

    def test_rejects_empty_fibre(self):
        doc = {"name": "bad", "base": [], "fibre": [], "q_terms": []}
        with pytest.raises(SpecError, match="fibre"):
            parse_spec(doc)

    def test_rejects_zero_denominator(self):
        doc = {
            "name": "bad",
            "base": [],
            "fibre": [{"name": "s1", "parity": "even"}],
            "q_terms": [
                {"target": "s1", "coefficient": "1/0", "monomial": [], "base_monomial": []}
            ],
        }
        with pytest.raises(SpecError, match="coefficient"):
            parse_spec(doc)

    def test_rejects_unknown_target(self):
        doc = {
            "name": "bad",
            "base": [],
            "fibre": [{"name": "s1", "parity": "even"}],
            "q_terms": [
                {"target": "zz", "coefficient": "1", "monomial": [], "base_monomial": []}
            ],
        }
        with pytest.raises(SpecError, match="target"):
            parse_spec(doc)

    def test_rejects_parity_violation(self):
        # xi1 is odd for an even fibre symbol; a quadratic monomial on target
        # s1 makes the term even, which cannot sit inside an odd field
        doc = {
            "name": "bad",
            "base": [],
            "fibre": [{"name": "s1", "parity": "even"}, {"name": "s2", "parity": "even"}],
            "q_terms": [
                {"target": "s1", "coefficient": "1", "monomial": ["s1"], "base_monomial": []}
            ],
        }
        with pytest.raises(SpecError, match="parity"):
            parse_spec(doc)

    def test_rejects_unordered_monomial(self):
        doc = {
            "name": "bad",
            "base": [],
            "fibre": [{"name": "s1", "parity": "even"}, {"name": "s2", "parity": "even"}],
            "q_terms": [
                {"target": "s1", "coefficient": "1", "monomial": ["s2", "s1"], "base_monomial": []}
            ],
        }
        with pytest.raises(SpecError, match="normal-ordered"):
            parse_spec(doc)


class TestCommands:
    def test_describe(self):
        result = invoke(["describe", "so3"])
        assert result.exit_code == 0
        assert "T*(PiE*)" in result.output
        assert "status: pass" in result.output

    def test_check_q_pass(self):
        result = invoke(["check-q", "derham"])
        assert result.exit_code == 0
        assert "[PASS] [Q,Q] = 0" in result.output

    def test_check_q_fail_with_witness(self):
        result = invoke(["check-q", "so3-broken"])
        assert result.exit_code == 1
        assert "witness" in result.output

    def test_build_schouten_golden(self):
        result = invoke(["build-schouten", "derham"])
        assert result.exit_code == 0
        assert "S: pi1*p1 + pi2*p2" in result.output

    def test_build_poisson_golden(self):
        result = invoke(["build-poisson", "derham"])
        assert result.exit_code == 0
        assert "P: estar1*xstar1 + estar2*xstar2" in result.output

    def test_build_schouten_so3_golden(self):
        result = invoke(["build-schouten", "so3", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["extra"]["S"] == "pi1*pi2*eta3 - pi1*pi3*eta2 + pi2*pi3*eta1"
        assert doc["status"] == "pass"

    def test_build_rejects_broken(self):
        result = invoke(["build-schouten", "so3-broken"])
        assert result.exit_code == 1

    def test_brackets_table(self):
        result = invoke([
            "brackets", "so3", "--flavor", "schouten", "--arity", "2",
        ])
        assert result.exit_code == 0
        assert "(eta1,eta2) -> -eta3" in result.output

    def test_brackets_poisson_json(self):
        result = invoke([
            "brackets", "so3", "--flavor", "poisson", "--arity", "2", "--json",
        ])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["extra"]["table"]["e1,e2"] == "e3"

    def test_jacobiator_pass(self):
        result = invoke(["jacobiator", "so3", "--arity", "3"])
        assert result.exit_code == 0
        assert "[PASS]" in result.output

    def test_jacobiator_negative_control(self):
        result = invoke(["jacobiator", "so3-broken", "--arity", "3"])
        # two-way equality holds, but [Q,Q] = 0 fails: exit code 1
        assert result.exit_code == 1
        assert "nonzero at" in result.output

    def test_leibniz(self):
        result = invoke([
            "leibniz", "so3", "--arity", "2", "--trials", "10", "--seed", "4",
        ])
        assert result.exit_code == 0

    def test_naturality(self, tmp_path):
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[0, 1, 0], [1, 0, 0], [0, 0, "1/2"]]))
        result = invoke(["naturality", "so3", "--matrix", str(matrix)])
        assert result.exit_code == 0

    def test_naturality_ignores_seed(self, tmp_path):
        # --seed is still accepted, hidden, and changes nothing
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[0, 1, 0], [1, 0, 0], [0, 0, "1/2"]]))
        args = ["naturality", "so3", "--matrix", str(matrix), "--json"]
        outputs = {invoke(args + extra).stdout
                   for extra in ([], ["--seed", "0"], ["--seed", "7"])}
        assert len(outputs) == 1 and json.loads(outputs.pop())["status"] == "pass"
        assert "--seed" not in invoke(["naturality", "--help"]).output

    def test_naturality_inverts_the_matrix_once(self, tmp_path, monkeypatch):
        inverted = []
        invert = construction.invert_matrix
        monkeypatch.setattr(construction, "invert_matrix",
                            lambda t: inverted.append(t) or invert(t))
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[2, 0, 0], [1, 1, 0], [0, "1/3", 1]]))
        result = invoke(["naturality", "so3", "--matrix", str(matrix), "--json"])
        assert result.exit_code == 0, result.output
        assert len(inverted) == 1

    @pytest.mark.parametrize("args, squares", [
        (["jacobiator", "so3", "--arity", "3"], 1),
        (["statement-check", "so3"], 1),
        (["leibniz", "so3"], 1),
        (["check-q", "so3"], 1),
        # the field and its transform are two fields, each built twice
        (["naturality", "so3", "--matrix", "MATRIX"], 2),
    ])
    def test_one_self_commutator_per_field(self, tmp_path, monkeypatch, args, squares):
        # each gate reads the square the field keeps; jacobiator,
        # statement-check and leibniz computed it twice, naturality four times
        from qalgebroid import fields

        counted = []
        commutator = fields.commutator
        monkeypatch.setattr(fields, "commutator",
                            lambda x, y: counted.append(x is y) or commutator(x, y))
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[2, 0, 0], [1, 1, 0], [0, "1/3", 1]]))
        args = [str(matrix) if a == "MATRIX" else a for a in args]
        result = invoke(args + ["--json"])
        assert result.exit_code == 0, result.output
        assert sum(counted) == squares

    @pytest.mark.parametrize("arity, brackets", [(2, 50), (3, 0)])
    def test_leibniz_uses_one_engine_per_structure(self, monkeypatch, arity, brackets):
        # the three brackets of a trial share their first arity - 1 arguments,
        # so one engine per structure computes that prefix once, and each last
        # argument enters through the prefix's anchor field, with no bracket;
        # walks that did not stop at a vanishing partial took 200 and 250
        # brackets, a bracket per last argument 137 and 126, and walks that
        # ignored the generator's degrees 50 and 75: S and P of so3 have
        # conjugate degree 2, so every ternary bracket is zero at once.  An
        # odd argument asked for on the all-even E* chart draws nothing, so
        # the inputs drawn after it, and these counts, follow that rule
        counts = {"engines": 0, "brackets": 0}
        init, bracket = PhaseEngine.__init__, PhaseEngine.bracket

        def counted_init(self, structure):
            counts["engines"] += 1
            init(self, structure)

        def counted_bracket(self, f, g):
            counts["brackets"] += 1
            return bracket(self, f, g)

        monkeypatch.setattr(PhaseEngine, "__init__", counted_init)
        monkeypatch.setattr(PhaseEngine, "bracket", counted_bracket)
        result = invoke(["leibniz", "so3", "--arity", str(arity), "--json"])
        assert result.exit_code == 0, result.output
        assert counts == {"engines": 2, "brackets": brackets}

    def test_naturality_singular_matrix(self, tmp_path):
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
        result = invoke(["naturality", "so3", "--matrix", str(matrix)])
        assert result.exit_code == 2

    def test_statement_check(self):
        result = invoke(["statement-check", "graded-3-lie"])
        assert result.exit_code == 0

    def test_statement_check_rejects_base(self):
        result = invoke(["statement-check", "lie-algebroid-demo"])
        assert result.exit_code == 2

    def test_example_round_trip(self):
        for name in BUILTINS:
            result = invoke(["example", name])
            assert result.exit_code == 0
            assert parse_spec(result.output) == builtin_spec(name)

    def test_example_unknown(self):
        result = invoke(["example", "nope"])
        assert result.exit_code == 2
        assert "so3-broken" in result.output

    def test_example_negative_control(self):
        result = invoke(["example", "so3-broken"])
        assert result.exit_code == 0
        assert parse_spec(result.output) == builtin_spec("so3-broken")

    def test_unknown_source(self):
        result = invoke(["check-q", "no-such-thing"])
        assert result.exit_code == 2
        assert "so3-broken" in result.output

    def test_file_input(self, tmp_path):
        doc = tmp_path / "spec.json"
        doc.write_text(render_spec(builtin_spec("so3")))
        result = invoke(["check-q", str(doc)])
        assert result.exit_code == 0

    def test_unknown_flag(self):
        result = invoke(["check-q", "so3", "--bogus"])
        assert result.exit_code == 2

    def test_options_before_source(self):
        usual = invoke(["jacobiator", "so3", "--arity", "3", "--json"])
        assert usual.exit_code == 0
        assert invoke(["jacobiator", "--arity", "3", "so3", "--json"]).stdout == usual.stdout
        assert invoke(["jacobiator", "so3", "--arity=3", "--json"]).stdout == usual.stdout

    @pytest.mark.parametrize("command", [
        [], ["describe"], ["check-q"], ["build-schouten"], ["build-poisson"], ["brackets"],
        ["jacobiator"], ["leibniz"], ["naturality"], ["statement-check"], ["example"],
    ], ids=lambda c: " ".join(c) or "top")
    def test_help(self, command):
        result = invoke(command + ["--help"])
        assert result.exit_code == 0 and result.stdout and result.stderr == ""

    @pytest.mark.parametrize("args, absent, present", [
        (None, ("click", "dataclasses", "inspect", "typing", "pathlib", "random",
                "qalgebroid.homotopy", "qalgebroid.randgen"), ()),
        (["check-q", "so3"], ("qalgebroid.homotopy",), ()),
        (["build-poisson", "so3"], ("qalgebroid.homotopy",), ()),
        (["jacobiator", "so3", "--arity", "3"], (), ("qalgebroid.homotopy",)),
    ], ids=["import", "check-q", "build-poisson", "jacobiator"])
    def test_import_contract(self, args, absent, present):
        # in a fresh interpreter, so that no other test has imported anything:
        # the modules that importing the CLI, and then running ``args``, newly
        # loads (a site hook may load some of ``absent`` before, which is not
        # the package's doing)
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "import qalgebroid.cli\n"
                f"args = {args!r}\n"
                "try:\n"
                "    args is None or qalgebroid.cli.main(args)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stderr.split())
        assert "qalgebroid.cli" in loaded
        assert not loaded & set(absent) and set(present) <= loaded


def _so3_document(**changes) -> str:
    doc = json.loads(render_spec(builtin_spec("so3")))
    doc.update(changes)
    return json.dumps(doc)


def _base_exponent_true() -> str:
    doc = json.loads(render_spec(builtin_spec("lie-algebroid-demo")))
    term = next(t for t in doc["q_terms"] if t["base_monomial"])
    term["base_monomial"][0][1] = True
    return json.dumps(doc)


def _so3_coefficient(value: str) -> str:
    doc = json.loads(render_spec(builtin_spec("so3")))
    doc["q_terms"][0]["coefficient"] = value
    return json.dumps(doc)


def _matrix_corner(value: str) -> str:
    return json.dumps([[value, 0, 0], [0, 1, 0], [0, 0, 1]])


def _base_pair_out_of_order() -> str:
    doc = json.loads(_so3_document(base=[{"name": "x1", "parity": "even"},
                                         {"name": "x2", "parity": "even"}]))
    doc["q_terms"][0]["base_monomial"] = [["x2", 1], ["x1", 1]]
    return json.dumps(doc)


# numerators and denominators past the interpreter's integer string limit
# (4300 digits by default), in decimal and in plain form; 10**999999999 alone
# would take longer than any run should; keyed by test id
OVERSIZED = {v: v for v in ("1e5000", "-2.5e-9000", "1e999999999")} | {
    "4301-digits": "9" * 4301, "1/4301-digits": "1/" + "9" * 4301}
NESTED = "[" * 100_000  # deeper than the JSON decoder's recursion
# a source or matrix given as the empty path, which names no file (it is not
# the current directory), and how the error line starts for each kind
EMPTY_PATH = object()
EMPTY_PATH_ERRORS = {"source": "error: '' is neither a builtin (",
                     "matrix": "error: cannot read '': [Errno 2] "}


class TestInputContract:
    """Unreadable or malformed input exits 2 with one line, never a traceback."""

    @pytest.mark.parametrize("kind, content", [
        ("source", _so3_document(q_terms=None)),
        ("source", _so3_document(fibre=None)),
        ("source", b"\xff\xfe not utf-8"),
        ("source", None),  # a directory
        ("source", _base_exponent_true()),
        ("source", NESTED),
        *[("source", _so3_coefficient(v)) for v in OVERSIZED.values()],
        ("matrix", "null"),
        ("matrix", "[1, 2, 3]"),
        ("matrix", NESTED),
        ("matrix", None),  # a directory
        *[("matrix", _matrix_corner(v)) for v in OVERSIZED.values()],
        ("source", _so3_document(base=["x1"])),
        ("source", _so3_document(q_terms=["s1"])),
        ("source", _so3_coefficient("0")),
        ("source", _so3_document(q_terms=[{"target": "s1", "coefficient": "1",
                                           "monomial": ["s3"], "base_monomial": [["x1"]]}])),
        ("source", _base_pair_out_of_order()),
        ("statement-check", ["--max-arity", "-1"]),
        ("brackets", ["--flavor", "schouten", "--arity", "-1"]),
        ("jacobiator", ["--arity", "-1"]),
        ("leibniz", ["--arity", "0"]),
        ("leibniz", ["--trials", "0"]),
        ("source", EMPTY_PATH),
        ("matrix", EMPTY_PATH),
    ], ids=["q_terms-null", "fibre-null", "non-utf8", "directory",
            "base-exponent-true", "source-nested",
            *[f"coefficient-{v}" for v in OVERSIZED],
            "matrix-null", "matrix-flat", "matrix-nested", "matrix-directory",
            *[f"matrix-{v}" for v in OVERSIZED],
            "base-entry-string", "q_term-string", "coefficient-zero", "base-monomial-single",
            "base-monomial-unordered", "max-arity-negative", "brackets-arity-negative",
            "jacobiator-arity-negative", "leibniz-arity-zero", "leibniz-trials-zero",
            "source-empty-path", "matrix-empty-path"])
    def test_bad_input_exits_2(self, tmp_path, kind, content):
        # a source or matrix is written to a file, unless it is the empty
        # path; an option list is passed to the command ``kind`` on so3
        bad = tmp_path / "input"
        path = "" if content is EMPTY_PATH else str(bad)
        if isinstance(content, list):
            args = [kind, "so3", *content]
        elif kind == "source":
            args = ["check-q", path]
        else:
            args = ["naturality", "so3", "--matrix", path]
        if content is None:
            bad.mkdir()
        elif isinstance(content, bytes):
            bad.write_bytes(content)
        elif isinstance(content, str):
            bad.write_text(content)
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if content is EMPTY_PATH:
            assert lines[0].startswith(EMPTY_PATH_ERRORS[kind]), lines[0]

    @pytest.mark.parametrize("args", [
        [],
        ["nosuch", "so3"],
        ["c" * 5000, "so3"],
        ["check-q"],
        ["jacobiator", "so3"],
        ["jacobiator", "so3", "--arity", "x"],
        ["jacobiator", "so3", "--arity", "7" * 5000],
        ["brackets", "so3", "--arity", "2", "--flavor", "f" * 5000],
        ["check-q", "so3", "--" + "x" * 4998],
        ["check-q", "so3", "--jso"],
        ["statement-check", "so3", "--max-arity", "1.5"],
    ], ids=["no-command", "unknown-command", "command-5000", "no-source", "no-arity",
            "arity-x", "arity-5000", "flavor-5000", "option-5000", "abbreviated-json",
            "max-arity-fraction"])
    def test_usage_error_is_one_short_line(self, args):
        # the shape, not argparse's wording, which differs between versions;
        # an unknown command is not followed by the list of every command
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert len(result.stderr.encode()) < 160

    @pytest.mark.parametrize("key", ["4301-digits", "1/4301-digits"])
    def test_long_coefficient_error_line_is_short(self, tmp_path, key):
        # the refused value is cut to its first 40 characters and its length
        bad = tmp_path / "input"
        bad.write_text(_so3_coefficient(OVERSIZED[key]))
        result = invoke(["check-q", str(bad)])
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) < 200 and f"({len(OVERSIZED[key])} characters)" in lines[0]

    def test_long_source_error_line_is_short(self):
        # a 5000-character name the system refuses is shown once, cut to its
        # first 40 characters and its length
        result = invoke(["check-q", "p" * 5000])
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read ")
        assert len(result.stderr.encode()) < 300 and "(5000 characters)" in lines[0]

    @pytest.mark.parametrize("args", [
        ["example", "n" * 5000],
        ["check-q", "/nonexistent/" + "p" * 200 + ".json"],
    ], ids=["example-5000", "missing-path-200"])
    def test_unknown_name_error_line_is_short(self, args):
        # the refused name is cut to its first 40 characters and its length,
        # and then the fixtures are listed
        result = invoke(args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(result.stderr.encode()) < 300 and "so3-broken" in lines[0]

    @pytest.mark.parametrize("source", ["so3", "so3-broken"])
    def test_long_matrix_path_error_line_is_short(self, source):
        # the matrix path is read once, by the command, and refused like a
        # source, before any check runs: a non-homological source still
        # exits 2, and the parser takes the path as text without refusing it
        result = invoke(["naturality", source, "--matrix", "m" * 5000])
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read ")
        assert len(result.stderr.encode()) < 300 and "(5000 characters)" in lines[0]

    @pytest.mark.parametrize("flavor", ["schouten", "poisson"])
    def test_deep_arity_brackets_exit_0(self, tmp_path, monkeypatch, flavor):
        # one even fibre symbol and Q = 0: a single all-zero tuple of arity 4800,
        # deeper than the interpreter's recursion limit; the generator is zero,
        # so the walk stops before its first bracket and stores no partial
        brackets = []
        bracket = PhaseEngine.bracket
        monkeypatch.setattr(PhaseEngine, "bracket",
                            lambda self, f, g: brackets.append(1) or bracket(self, f, g))
        doc = tmp_path / "r1.json"
        doc.write_text(json.dumps(
            {"name": "r1", "fibre": [{"name": "s1", "parity": "even"}], "q_terms": []}
        ))
        result = invoke([
            "brackets", str(doc), "--flavor", flavor, "--arity", "4800", "--json",
        ])
        assert result.exit_code == 0, result.exception
        assert result.stderr == ""
        table = json.loads(result.stdout)["extra"]["table"]
        assert len(table) == 1 and set(table.values()) == {"0"}
        assert brackets == []

    def test_naturality_non_homological_is_a_failed_check(self, tmp_path):
        matrix = tmp_path / "t.json"
        matrix.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        result = invoke(
            ["naturality", "so3-broken", "--matrix", str(matrix), "--json"]
        )
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["status"] == "fail"
        assert [c["name"] for c in doc["checks"]] == ["homological input"]
        assert "[Q, Q] != 0" in doc["checks"][0]["witness"]


def _fractional_broken(path: Path) -> Path:
    """so3-broken with its coefficients scaled by 1/2, 1/3 and 5/7 in turn."""
    doc = json.loads(render_spec(builtin_spec("so3-broken")))
    for term, scale in zip(doc["q_terms"], cycle(("1/2", "1/3", "5/7"))):
        term["coefficient"] = str(Fraction(term["coefficient"]) * Fraction(scale))
    path.write_text(json.dumps(doc))
    return path


class TestFractionalNegativeControl:
    """A non-homological document with coprime denominators: its nonzero
    [Q, Q] is the one self-bracket that divides by d^2."""

    def test_check_q_witness_is_the_general_commutator(self, tmp_path):
        doc = _fractional_broken(tmp_path / "broken.json")
        result = invoke(["check-q", str(doc), "--json"])
        assert result.exit_code == 1, result.output
        checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
        assert not checks["[Q,Q] = 0"]["ok"]
        q = assemble_field(parse_spec(doc.read_text()))
        # a distinct copy takes the general formula, which clears nothing
        general = commutator(q, VectorField(q.chart, dict(q.components), q.parity))
        assert checks["[Q,Q] = 0"]["witness"] == repr(general)
        assert "/" in repr(general)

    @pytest.mark.parametrize("command", ["build-schouten", "build-poisson"])
    def test_builds_fail_on_homological_input(self, tmp_path, command):
        doc = _fractional_broken(tmp_path / "broken.json")
        result = invoke([command, str(doc), "--json"])
        assert result.exit_code == 1, result.output
        checks = json.loads(result.stdout)["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == ["homological input"]


def _so3_schouten_plus(term) -> construction.HigherStructure:
    """so3's S plus ``term(chart)``, with the self-bracket of the sum."""
    s = construction.build_schouten(assemble_field(builtin_spec("so3")))
    value = s.value + term(s.chart)
    square = construction.ambient_bracket("schouten")(value, value, value.chart)
    return construction.HigherStructure(value, "schouten", square)


class TestFailedChecks:
    """A structure that breaks the restriction statement or the weight law
    fails that check alone, with what it found, and exits 1."""

    def failed(self, result) -> list[dict]:
        assert result.exit_code == 1, result.output
        doc = json.loads(result.stdout)
        assert doc["status"] == "fail"
        return [c for c in doc["checks"] if not c["ok"]]

    def test_statement_check_names_the_tuple(self, monkeypatch):
        # pi1*pi2*eta1 feeds the arity-2 bracket of eta1 and eta2
        broken = _so3_schouten_plus(lambda c: c.gen("pi1") * c.gen("pi2") * c.gen("eta1"))
        monkeypatch.setattr(cli, "build_schouten", lambda q: broken)
        result = invoke(["statement-check", "so3", "--json"])
        failed = self.failed(result)
        assert [c["name"] for c in failed] == ["arity 2 restriction matches the input brackets"]
        details = ["arity 2 schouten tuple (0, 1) differs"]
        assert json.loads(result.stdout)["extra"] == {"details": details}
        human = invoke(["statement-check", "so3"]).stdout.splitlines()
        assert "[FAIL] arity 2 restriction matches the input brackets" in human
        assert f"details: {details}" in human

    def test_build_schouten_names_the_violation(self, monkeypatch):
        broken = _so3_schouten_plus(lambda c: c.one())
        assert broken.self_bracket.is_zero()
        monkeypatch.setattr(cli, "build_schouten", lambda q: broken)
        failed = self.failed(invoke(["build-schouten", "so3", "--json"]))
        assert [c["name"] for c in failed] == ["every term has total weight one"]
        assert failed[0]["witness"] == "term 1 has bi-weight (0, 0)"


class TestInternalErrors:
    """An identity that holds for every input failing, or any exception that
    is not a verdict on the input, is a bug of the program: exit 3 with one
    line, never a report, a traceback or exit 1."""

    def assert_internal(self, result):
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: internal: ")

    def test_jacobiator_routes_disagree(self, monkeypatch):
        import qalgebroid.homotopy as homotopy

        # Q in place of half of [Q,Q]: the squared-generator route goes wrong
        monkeypatch.setattr(homotopy.FieldEngine, "squared_generator",
                            lambda self: self.generator())
        result = invoke(["jacobiator", "so3", "--arity", "2", "--json"])
        self.assert_internal(result)
        assert "disagrees with the squared-generator route" in result.stderr

    def test_phase_jacobiator_routes_disagree(self, monkeypatch):
        # S or P in place of half its self-bracket: both phase engines must
        # catch the wrong squared-generator route
        monkeypatch.setattr(PhaseEngine, "squared_generator", lambda self: self.generator())
        q = assemble_field(builtin_spec("so3"))
        for build in (construction.build_schouten, construction.build_poisson):
            eng = PhaseEngine(build(q))
            with pytest.raises(JacobiatorMismatch):
                jacobiator(eng, eng.basis[:2])
        result = invoke(["jacobiator", "so3", "--arity", "2", "--json"])
        self.assert_internal(result)
        assert "disagrees with the squared-generator route" in result.stderr

    def test_nonzero_self_bracket_of_a_homological_field(self, monkeypatch):
        import qalgebroid.construction as construction

        monkeypatch.setattr(construction, "ambient_bracket", lambda flavor: lambda f, g, phase: f)
        for command, square in (("build-schouten", "{S,S}"), ("build-poisson", "[[P,P]]"),
                                ("statement-check", "{S,S}")):
            result = invoke([command, "so3"])
            self.assert_internal(result)
            assert f"{square} != 0 for a homological field" in result.stderr

    def test_exception_outside_the_algebra_errors(self, monkeypatch):
        import qalgebroid.cli as cli

        def broken(spec):
            raise KeyError("xi9")

        monkeypatch.setattr(cli, "assemble_field", broken)
        result = invoke(["check-q", "so3", "--json"])
        self.assert_internal(result)
        assert result.stderr == "error: internal: KeyError: 'xi9'\n"


def test_in_process_runs_release_captured_output():
    """Output written while stdout is redirected keeps no reference to the
    capture buffers, so repeated in-process runs do not grow the process."""
    refs = []
    for args in (["check-q", "so3"], ["describe", "so3", "--json"],
                 ["statement-check", "so3", "--max-arity", "-1"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(args, standalone_mode=False)
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_in_process_commands_keep_no_algebra_alive(tmp_path):
    """No command caches an algebra object for a later one: once in-process
    runs return, none of the polynomials, fields, charts or engines they made
    is alive."""
    from qalgebroid.charts import Chart
    from qalgebroid.gradedpoly import GradedPoly
    from qalgebroid.homotopy import DerivedBracketEngine

    kinds = (GradedPoly, VectorField, Chart, DerivedBracketEngine)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]  # held: no id is reused
    known = {id(o) for o in before}
    matrix = tmp_path / "t.json"
    matrix.write_text(json.dumps([[0, 1, 0], [1, 0, 0], [0, 0, "1/2"]]))
    codes = []
    for args in (["jacobiator", "so3", "--arity", "3"], ["statement-check", "so3"],
                 ["leibniz", "so3", "--arity", "2"],
                 ["naturality", "so3", "--matrix", str(matrix)], ["build-poisson", "so3"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                main(args, standalone_mode=False)
            except SystemExit as exc:
                codes.append(exc.code)
    assert codes == [0] * 5
    gc.collect()
    made = [type(o).__name__ for o in gc.get_objects()
            if isinstance(o, kinds) and id(o) not in known]
    assert made == []


def test_readme_library_example_runs():
    """The README's Python example runs as written and prints what it shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "-eta3\n"


class TestDeterminism:
    def test_json_output_is_byte_stable(self):
        outs = set()
        for _ in range(3):
            result = invoke([
                "leibniz", "so3", "--arity", "2", "--trials", "6",
                "--seed", "11", "--json",
            ])
            assert result.exit_code == 0
            outs.add(result.output)
        assert len(outs) == 1

    def test_build_json_stable(self):
        a = invoke(["build-schouten", "lie-3-algebroid-demo", "--json"])
        b = invoke(["build-schouten", "lie-3-algebroid-demo", "--json"])
        assert a.output == b.output


class TestEveryBuiltinPasses:
    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_core_commands(self, name):
        for cmd in (
            ["check-q", name],
            ["build-schouten", name],
            ["build-poisson", name],
            ["jacobiator", name, "--arity", "2"],
            ["jacobiator", name, "--arity", "3"],
            ["jacobiator", name, "--arity", "4"],
            ["leibniz", name, "--arity", "2", "--trials", "6"],
        ):
            result = invoke(cmd)
            assert result.exit_code == 0, (cmd, result.output)

    @pytest.mark.parametrize("name", ["so3", "graded-3-lie"])
    def test_statement_on_point_base(self, name):
        result = invoke(["statement-check", name])
        assert result.exit_code == 0


class _Refusing(io.StringIO):
    """A stdout with no descriptor whose ``write`` (or only ``flush``, the
    way a buffered stream fails) raises ``error``."""

    def __init__(self, error: OSError, on: str = "write"):
        super().__init__()
        self.error, self.on = error, on

    def write(self, text):
        if self.on == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise self.error


def _cli_process(args, stdout, buffered: bool) -> subprocess.CompletedProcess:
    """``python -m qalgebroid.cli args`` in a fresh interpreter writing to ``stdout``."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "qalgebroid.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


WRITING = [["check-q", "so3"], ["check-q", "so3", "--json"], ["describe", "derham"],
           ["example", "so3"]]
# help goes to stdout too, through the parsers rather than a command
HELP = [["--help"], ["-h"], ["check-q", "--help"]]


class TestWriteFailure:
    """Output that cannot be written to stdout is neither a failed check nor a
    bug: one ``error:`` line on stderr, exit 2, and no traceback."""

    def assert_one_error_line(self, code, stderr):
        assert code == 2, stderr
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write to stdout: "), lines
        assert len(stderr.encode()) < 160

    @pytest.mark.parametrize("on", ["write", "flush"])
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")],
                             ids=["broken-pipe", "no-space"])
    @pytest.mark.parametrize("args", WRITING + HELP, ids=" ".join)
    def test_in_process(self, args, error, on):
        err = io.StringIO()
        with redirect_stdout(_Refusing(error, on)), redirect_stderr(err):
            with pytest.raises(SystemExit) as exit_:
                main(args)
        self.assert_one_error_line(exit_.value.code, err.getvalue())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", WRITING[:3] + HELP, ids=" ".join)
    def test_full_device(self, args, buffered):
        # a buffered stdout fails only when flushed; without the descriptor
        # pointed at os.devnull the flush at exit would fail again (exit 120)
        with open("/dev/full", "w") as full:
            done = _cli_process(args, full, buffered)
        self.assert_one_error_line(done.returncode, done.stderr)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", WRITING[1:3] + HELP, ids=" ".join)
    def test_closed_pipe(self, args, buffered):
        # the reader is gone before the first write, so the write always fails
        read, write = os.pipe()
        os.close(read)
        try:
            done = _cli_process(args, write, buffered)
        finally:
            os.close(write)
        self.assert_one_error_line(done.returncode, done.stderr)


def _dispatched_lines() -> list[list[str]]:
    """The JSON golden command lines and their human forms, with a path for
    the identity matrix (the parsers read no file)."""
    from test_cli_json_goldens import IDENTITY, cases

    lines = [["identity.json" if a == IDENTITY else a for a in args] for args in cases()]
    return lines + [[a for a in args if a != "--json"] for args in lines if "--json" in args]


def _top_level_main(args):
    """``main`` with every line read by the top-level parser alone."""
    parsed, extra = cli._PARSER.parse_known_args(args)
    if extra:
        cli._PARSER.error(f"unrecognized arguments: {cli.refused(' '.join(extra))}")
    options = vars(parsed)
    options.pop("run")(**options)


def _captured(run, args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            run(list(args))
        except SystemExit as exc:
            return exc.code or 0, out.getvalue(), err.getvalue()
    raise AssertionError(f"{args} did not exit")


class TestDispatch:
    """A line that starts with a command's name goes straight to that
    command's parser; what the top-level parser would have made of it is
    the reference."""

    def test_command_parser_gives_the_top_level_namespace(self):
        lines = _dispatched_lines()
        assert len(lines) > 200
        for args in lines:
            own = cli._COMMANDS.choices[args[0]].parse_known_args(args[1:])
            top = cli._PARSER.parse_known_args(args)
            assert (vars(own[0]), own[1]) == (vars(top[0]), top[1]), args

    @pytest.mark.parametrize("args", [
        [], ["-h"], ["--help"], ["nosuch", "so3"], ["--json", "check-q", "so3"], ["check-q"],
        ["jacobiator", "so3"], ["check-q", "--help"], ["check-q", "so3", "extra"],
        ["check-q", "so3", "--jso"], ["example"],
    ], ids=lambda a: " ".join(a) or "no-arguments")
    def test_usage_and_help_are_unchanged(self, args):
        assert _captured(main, args) == _captured(_top_level_main, args)


class _Count(int):
    """An int subclass, which json writes as an int and the writer leaves to it."""


# derandomized, as the properties of test_specdoc.py
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "é ", "\U0001f600", "\ud800", "a\nb"])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24,
)


class TestReportWriter:
    """``--json`` text is byte for byte ``json.dumps(report, indent=2, sort_keys=True)``."""

    @PROPERTY
    @given(_VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("extra", [
        {1: "a non-str key"}, {"nested": {None: [1]}}, {"a float": 0.5},
        {"deep": [{"x": float("inf")}]}, {"an int subclass": _Count(7)},
    ], ids=["int-key", "none-key", "float", "deep-inf", "int-subclass"])
    def test_emit_falls_back_to_json_dumps(self, extra):
        report = cli.Report("check-q", "so3", True)
        report.add("a check", True)
        report.extra = extra
        out = io.StringIO()
        with redirect_stdout(out):
            assert report.emit(0.0) == 0
        doc = {"command": "check-q", "source": "so3", "status": "pass",
               "checks": report.checks, "extra": extra}
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_unwritable_values(self):
        for value in ({1: "a"}, [0.5], {"x": {"y": object()}}, frozenset(), _Count(7)):
            with pytest.raises(cli._Unwritable):
                cli._json_text(value)

    def test_unsortable_keys_are_refused_as_json_dumps_refuses_them(self):
        report = cli.Report("check-q", "so3", True)
        report.extra = {1: "a", "b": 2}
        with redirect_stdout(io.StringIO()), pytest.raises(TypeError):
            report.emit(0.0)
