"""Runs one ``qalgebroid`` command line in process and keeps what it wrote.

    result = invoke(["check-q", "so3", "--json"])
    result.exit_code, result.stdout, result.stderr, result.output

``output`` holds stdout and stderr together, in the order they were written.
``exception`` is None after exit 0, the ``SystemExit`` after any other exit
code, and the exception itself if one escaped (``exit_code`` is then 1).
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from qalgebroid.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """A captured stream that also copies every write into a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    exit_code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
