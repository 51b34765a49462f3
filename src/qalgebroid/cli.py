"""Command-line surface: verification reports over spec documents.

Every command reads a builtin name or a JSON document path, runs its checks
and writes a report to stdout.  Exit codes: 0 all checks passed, 1 a check
failed (a field that is not homological fails the "homological input" check
of every command that needs one), 2 the input was unreadable or malformed,
or the output could not be written to stdout (a closed pipe, a full device),
3 an internal error: an identity that holds for every input did not (the two
Jacobiator routes disagree, a self-bracket of a homological field is nonzero)
or an exception escaped that is not a verdict on the input.
With --json the report is emitted as one deterministic JSON object (no
timing field, so byte-identical reruns), byte for byte
``json.dumps(report, indent=2, sort_keys=True)``; human-readable output
appends the elapsed time.  A usage error (no command, an unknown one or a
missing or malformed option) is bad input too: one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .builtins import FIXTURES, builtin_spec
from .charts import all_charts, describe_chart
from .construction import (
    FLAVOURS,
    FibreChange,
    build_poisson,
    build_poisson_unchecked,
    build_schouten,
    build_schouten_unchecked,
    chart_change_naturality,
    is_strict,
    total_weight_audit,
)
from .fields import NotHomological, is_homological
from .gradedpoly import GradedAlgebraError
from .specdoc import (
    SpecError,
    assemble_field,
    parse_rational,
    parse_spec,
    refused,
    render_spec,
)


class Report:
    """The checks of one command on one source, and what it shows besides."""

    __slots__ = ("command", "source", "as_json", "checks", "extra")

    def __init__(self, command: str, source: str, as_json: bool):
        self.command = command
        self.source = source
        self.as_json = as_json
        self.checks: list[dict] = []
        self.extra: dict = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"Report({shown})"

    def add(self, name: str, ok: bool, detail: str = "", witness: str = ""):
        entry = {"name": name, "ok": ok}
        if detail:
            entry["detail"] = detail
        if witness:
            entry["witness"] = witness
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def emit(self, started: float) -> int:
        if self.as_json:
            doc = {
                "command": self.command,
                "source": self.source,
                "status": "pass" if self.ok else "fail",
                "checks": self.checks,
            }
            if self.extra:
                doc["extra"] = self.extra
            try:
                text = _json_text(doc)
            except _Unwritable:
                text = json.dumps(doc, indent=2, sort_keys=True)
            print(text)
        else:
            for c in self.checks:
                mark = "PASS" if c["ok"] else "FAIL"
                line = f"[{mark}] {c['name']}"
                if c.get("detail"):
                    line += f": {c['detail']}"
                print(line)
                if c.get("witness"):
                    print(f"       witness: {c['witness']}")
            for k, v in self.extra.items():
                print(f"{k}: {v}")
            status = "pass" if self.ok else "fail"
            elapsed = (time.perf_counter() - started) * 1000.0
            print(f"status: {status}  ({elapsed:.1f} ms)")
        return 0 if self.ok else 1


_quote = json.encoder.encode_basestring_ascii


class _Unwritable(Exception):
    """A value ``_json_text`` leaves to ``json.dumps``."""


def _json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    It writes dicts with str keys, lists, tuples, str, int, bool and None, the
    values a report holds, without json's pure-Python encoder, which
    ``json.dumps`` runs whenever it indents before Python 3.13; anything else
    raises _Unwritable.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        if any(type(k) is not str for k in value):
            raise _Unwritable
        items = [f"{_quote(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise _Unwritable


def _read_text(path, missing: str | None = None) -> str:
    """The text of the file at ``path``, read once with no check beforehand.

    A failure to open or decode it is "cannot read", shown through
    ``refused`` so that a long path does not fill the error line; a path
    naming nothing, the empty one too, is ``missing`` instead, when that is
    given."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        if missing and isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            raise SpecError(missing) from None
        raise SpecError(f"cannot read {refused(path, exc)}") from None


def load_spec(source: str):
    """Resolve a builtin name or a JSON file path into a parsed spec."""
    if source in FIXTURES:
        return builtin_spec(source)
    missing = f"{refused(source)} is neither a builtin ({', '.join(FIXTURES)}) nor a file"
    return parse_spec(_read_text(source, missing))


def _load_matrix(path: str) -> list[list[Fraction]]:
    """A matrix of rationals from a JSON file holding a list of rows."""
    try:
        raw = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested
        raise SpecError(f"the matrix is not valid JSON: {exc}") from None
    if isinstance(raw, list) and all(isinstance(row, list) for row in raw):
        return [[parse_rational(v, f"matrix[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(raw)]
    raise SpecError("the matrix must be a JSON list of rows")


def _fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _unwritable(exc: OSError):
    """Output that could not be written to stdout: one ``error:`` line, exit 2.

    What stdout still buffers would fail again when the interpreter flushes
    it at exit (a second message and exit 120), so its descriptor, when it
    has one, is first pointed at ``os.devnull``, as the note on SIGPIPE in
    the ``signal`` documentation advises for a broken pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream with no descriptor
        fd = None
    if fd is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    _fail(f"cannot write to stdout: {exc}")


# an argument argparse shows in an error, by its repr, when it is longer than
# the 40 characters ``refused`` shows
_LONG_QUOTED = re.compile(r"'(?:[^'\\]|\\.){41,}'|\"(?:[^\"\\]|\\.){41,}\"")
# argparse's list of every command after an unknown one, which grows with each command
_COMMAND_CHOICES = re.compile(r"^(argument COMMAND: .*) \(choose from .*\)$")


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: one ``error:`` line on stderr, exit 2.

    argparse shows a refused argument by its repr; a long one is cut the way
    ``specdoc.refused`` cuts a document value.  An unknown command points to
    ``--help`` instead of listing every command, so the line does not grow
    with their number.  Help that cannot be written to stdout is
    ``_unwritable``: argparse's own writer drops the error and exits 0."""

    def print_help(self, file=None):
        file = file or sys.stdout
        try:
            file.write(self.format_help())
            file.flush()
        except OSError as exc:
            _unwritable(exc)

    def error(self, message):
        message = _COMMAND_CHOICES.sub(r"\1 (see qalgebroid --help)", message)
        _fail(_LONG_QUOTED.sub(lambda m: refused(m[0][1:-1]), message))


_PARSER = _Parser(prog="qalgebroid", allow_abbrev=False,
                  description="Exact checks for homological fields and their bracket structures.")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def main(args=None, standalone_mode=True):
    """Run one command line (``sys.argv[1:]`` when ``args`` is None) and exit.

    Every path ends in ``SystemExit`` with the exit code, so
    ``standalone_mode`` has no effect; it is accepted because in-process
    callers (``perfbench/worker.py``) pass ``standalone_mode=False``.

    A line that starts with a command's name is parsed by that command's own
    parser, as the top-level parser would hand it on; the top-level parser
    reads only the lines that start otherwise, for help and usage errors."""
    if args is None:
        args = sys.argv[1:]
    command = _COMMANDS.choices.get(args[0]) if args else None
    if command is None:  # no command first: help, or a usage error
        parsed, extra = _PARSER.parse_known_args(args)
    else:
        parsed, extra = command.parse_known_args(args[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {refused(' '.join(extra))}")
    options = vars(parsed)
    options.pop("run")(**options)


def _subcommand(name: str, run, doc: str):
    """Add the command ``name``, which calls ``run`` with its parsed options."""
    sub = _COMMANDS.add_parser(name, help=doc, description=doc, allow_abbrev=False)
    sub.set_defaults(run=run)
    return sub


def option(*flags, **settings):
    """An option of a report command: ``add_argument``'s arguments."""
    return flags, settings


arity_option = option("--arity", type=int, required=True)


def report_command(name: str, *options):
    """Register ``body(report, spec, **options)`` as the command ``name``.

    The command takes SOURCE, ``--json`` and then ``options``.  The runner
    loads SOURCE, hands the body a fresh report and the parsed
    spec (bodies that check the field assemble it, so ``describe`` builds
    none), then emits the report and exits with its verdict.  A SpecError
    exits 2; a NotHomological raised by the body becomes a failed
    "homological input" check; any other exception (a GradedAlgebraError, a
    KeyError, ...) is a bug of the program, not a verdict on the input, and
    exits 3 with one line and without a report.  An OSError while the body
    or the report writes to stdout is output that could not be written:
    one line, exit 2.
    """
    def register(body):
        def run(source, as_json, **kwargs):
            started = time.perf_counter()
            try:
                spec = load_spec(source)
                report = Report(name, spec.name, as_json)
                body(report, spec, **kwargs)
            except SpecError as exc:
                _fail(str(exc))
            except NotHomological as exc:
                report.add("homological input", False, witness=str(exc))
            except OSError as exc:  # the body's own output (describe's) could not be written
                _unwritable(exc)
            except GradedAlgebraError as exc:
                _fail(f"internal: {exc}", 3)
            except Exception as exc:
                _fail(f"internal: {type(exc).__name__}: {exc}", 3)
            try:
                code = report.emit(started)
                sys.stdout.flush()  # so that a buffered write fails here, not at exit
            except OSError as exc:
                _unwritable(exc)
            sys.exit(code)

        sub = _subcommand(name, run, body.__doc__)
        sub.add_argument("source", metavar="SOURCE", help="a builtin name or a JSON document path")
        sub.add_argument("--json", dest="as_json", action="store_true", help="structured output")
        for flags, settings in options:
            sub.add_argument(*flags, **settings)
        return body
    return register


@report_command("describe")
def describe(report, spec):
    """Print the charts, parities and weights for a spec."""
    charts = all_charts(spec.presentation)
    report.add("charts constructed", True, detail=f"{len(charts)} charts")
    if report.as_json:
        report.extra = {
            name: [
                {"name": g.name, "parity": g.parity, "weight": list(g.weight)}
                for g in chart.generators
            ]
            for name, chart in charts.items()
        }
    else:
        for chart in charts.values():
            print(describe_chart(chart))
            print()


@report_command("check-q")
def check_q(report, spec):
    """Verify that the field is odd and supercommutes with itself."""
    q = assemble_field(spec)
    report.add("q is odd", q.parity == 1)
    w = q.square()
    report.add(
        "[Q,Q] = 0",
        w.is_zero(),
        witness="" if w.is_zero() else repr(w),
    )
    report.extra = {"strict": is_strict(q)}


def _build_checks(report, spec, build):
    h = build(assemble_field(spec))
    letter = FLAVOURS[h.flavor].letter
    report.add(f"{letter} constructed", True)
    zero = h.self_bracket.is_zero()
    report.add("self-bracket vanishes", zero, witness="" if zero else h.self_bracket.render())
    histogram, violations = total_weight_audit(h)
    report.add(
        "every term has total weight one", not violations,
        detail=str(histogram),
        witness="; ".join(violations),
    )
    report.extra = {
        letter: h.render(),
        "bi-weight histogram": {str(k): v for k, v in histogram.items()},
    }


@report_command("build-schouten")
def build_schouten_cmd(report, spec):
    """Construct S, check {S,S} = 0 and audit its weights."""
    _build_checks(report, spec, build_schouten)


@report_command("build-poisson")
def build_poisson_cmd(report, spec):
    """Construct P, check [[P,P]] = 0 and audit its weights."""
    _build_checks(report, spec, build_poisson)


@report_command(
    "brackets",
    option("--flavor", choices=list(FLAVOURS), required=True),
    arity_option,
)
def brackets(report, spec, flavor, arity):
    """Tabulate the n-ary brackets on fibre coordinate tuples."""
    from .homotopy import poisson_bracket_table, schouten_bracket_table

    q = assemble_field(spec)
    if arity < 0:
        raise SpecError("arity must be nonnegative")
    if flavor == "schouten":
        table = schouten_bracket_table(build_schouten(q), arity)
    else:
        table = poisson_bracket_table(build_poisson(q), arity)
    report.add(f"{flavor} table arity {arity}", True)
    if report.as_json:
        report.extra = {
            "table": {
                ",".join(table.labels[i] for i in tup): poly.render()
                for tup, poly in sorted(table.entries.items())
            }
        }
    else:
        report.extra = {"table": "\n" + table.render()}


@report_command("jacobiator", arity_option)
def jacobiator_cmd(report, spec, arity):
    """Two-way Jacobiator report on fibre-coordinate tuples."""
    from .homotopy import FieldEngine, PhaseEngine, jacobiator_sweep

    q = assemble_field(spec)
    if arity < 0:
        raise SpecError("arity must be nonnegative")
    homological = is_homological(q)
    report.add("[Q,Q] = 0", homological, detail="informational" if homological else
               "nonzero: Jacobiators need not vanish, two-way equality still must hold")
    engines = [
        PhaseEngine(build_schouten_unchecked(q)),
        PhaseEngine(build_poisson_unchecked(q)),
    ]
    if q.chart.n_base == 0:
        engines.append(FieldEngine(q))
    all_zero = True
    for eng in engines:
        render = repr if eng.flavor == "field" else lambda v: v.render()
        last = jacobiator_sweep(eng, arity)
        all_zero = all_zero and last is None
        report.add(
            f"{eng.flavor}: unshuffle sum equals squared-generator route", True,
            detail=f"arity {arity}",
            witness="" if last is None else f"nonzero at {last[0]}: {render(last[1])}",
        )
    if homological:
        report.add("all Jacobiators vanish", all_zero)
    report.extra = {"all-zero": all_zero}


@report_command(
    "leibniz",
    option("--arity", type=int, default=2, help="default: %(default)s"),
    option("--trials", type=int, default=25, help="default: %(default)s"),
    option("--seed", type=int, default=0, help="default: %(default)s"),
)
def leibniz(report, spec, arity, trials, seed):
    """Multiderivation identity on random homogeneous inputs."""
    from random import Random

    from .homotopy import PhaseEngine, higher_bracket, leibniz_check

    q = assemble_field(spec)
    if arity < 1 or trials < 1:
        raise SpecError("arity and trials must be positive")
    rng = Random(seed)
    for eng in (PhaseEngine(build_schouten(q)), PhaseEngine(build_poisson(q))):
        failures = leibniz_check(
            lambda args: higher_bracket(eng, args),
            eng.parent, eng.flavor, arity, trials, rng,
        )
        report.add(
            f"{eng.flavor} multiderivation rule, arity {arity}", not failures,
            detail=f"{trials} trials",
            witness="; ".join(failures[:1]),
        )


@report_command(
    "naturality",
    option("--matrix", dest="matrix_path", metavar="PATH", required=True,
           help="JSON file: square matrix of rationals, rows = old fibre index"),
    # the checks draw nothing; --seed is still accepted so that existing
    # command lines keep working, and has no effect
    option("--seed", type=int, help=argparse.SUPPRESS),
)
def naturality(report, spec, matrix_path, seed):
    """Rebuild after a constant fibre change and compare with the lift."""
    q = assemble_field(spec)
    try:
        change = FibreChange(spec.presentation, _load_matrix(matrix_path))
    except GradedAlgebraError as exc:  # the matrix is singular, misshapen or mixes parities
        raise SpecError(str(exc)) from None
    for name, ok, detail in chart_change_naturality(q, change):
        report.add(name, ok, detail=detail)


@report_command(
    "statement-check", option("--max-arity", type=int, default=4, help="default: %(default)s")
)
def statement_check(report, spec, max_arity):
    """Restriction of the derived brackets to weight-one functions."""
    from .homotopy import weight_one_restriction_check

    q = assemble_field(spec)
    if q.chart.n_base != 0:
        raise SpecError("statement-check needs a point base (no base symbols)")
    if max_arity < 0:
        raise SpecError("max-arity must be nonnegative")
    s = build_schouten(q)
    p = build_poisson(q)
    per_arity, details = weight_one_restriction_check(q, s, p, max_arity)
    for r, ok in per_arity.items():
        report.add(f"arity {r} restriction matches the input brackets", ok)
    if details:
        report.extra = {"details": details}


def example(name):
    """Emit a builtin spec document."""
    try:
        spec = builtin_spec(name)
    except KeyError as exc:
        _fail(str(exc.args[0]))
    try:
        print(render_spec(spec))
        sys.stdout.flush()
    except OSError as exc:
        _unwritable(exc)
    sys.exit(0)


_subcommand("example", example, example.__doc__).add_argument("name", metavar="NAME")


if __name__ == "__main__":
    main()
