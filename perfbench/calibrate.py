"""A fixed reference kernel that tracks the host's speed during a run.

On a shared host the speed of one CPU changes by tens of percent from one
second to the next, as other tenants come and go.  The benchmark runs this
kernel in short slices on a timer, so that they land between jobs and
inside long ones alike, times them in process CPU time like the jobs,
and reports each job's time scaled to a fixed reference speed:
``scaled = measured * REFERENCE_S / mean(the slices during and beside it)``.

The kernel is a sparse polynomial product over dicts keyed by exponent
tuples with ``Fraction`` coefficients: the same mix of dict, tuple and
rational work as the package's own kernel, but none of its code, so a change
to the package cannot change the reference.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# About the median slice CPU time on the 2-vCPU shared host the bounds were
# set on (it ranged from 0.0022 to 0.0033 s), so scaled times there read
# close to measured ones.
REFERENCE_S = 0.0027


def _operands():
    a = {(i, j, (i * j) % 3): Fraction(i - j, j + 2) for i in range(6) for j in range(5)}
    b = {(j, (i + j) % 4, i): Fraction(i + 1, 3) for i in range(5) for j in range(4)}
    return a, b


_A, _B = _operands()


def kernel():
    out: dict = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            acc = out.get(m, 0) + c1 * c2
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def slice_seconds() -> float:
    """CPU time of one kernel slice."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


class Sampler:
    """Runs one kernel slice every ``every_s`` of wall time, from SIGALRM.

    A CPU-time timer (ITIMER_PROF) would be the natural choice, but while one
    is armed Linux reports process CPU time at tick resolution (4 ms), too
    coarse for 2 ms jobs.  ``slices`` holds each slice's process CPU start
    time and CPU duration, so that a job can take off the slices that
    interrupted it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.slices: list[tuple[float, float]] = []

    def tick(self, *_signal):
        t0 = time.process_time()
        kernel()
        self.slices.append((t0, time.process_time() - t0))  # one append: signal-safe

    def within(self, first: int, cpu_start: float, cpu_end: float) -> float:
        """CPU time of the slices from index ``first`` that ran inside the window."""
        return sum(d for t, d in self.slices[first:] if t >= cpu_start and t + d <= cpu_end)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
