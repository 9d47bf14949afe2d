"""A clock that runs at the speed of a fixed reference loop.

The speed of a shared machine drifts by up to a factor of two within a
second, so wall times swing by 20-50% between runs of the same work.  The
reference clock cancels most of that drift.  Every PERIOD_S a timer signal
interrupts the program and times a small loop.  The loop does the kind of
work the program does (small numpy products and float arithmetic in the
interpreter) and runs none of its code.  Until the next sample, the clock
advances at wall speed times REF_LOOP_S / loop time.  It stands still while
the loop runs, so the interruptions are not counted.

One reference second is the time the program would take on a machine where
the loop takes REF_LOOP_S, about its typical time on the 2-core machine this
benchmark was tuned on.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_LOOP_S = 1.2e-4
PERIOD_S = 0.01


def _loop_s() -> float:
    a = np.eye(4) * 0.5
    v = np.ones(4)
    s = 0.0
    tic = time.perf_counter()
    for i in range(60):
        v = a @ v + 0.1
        s += float(v[0]) * 0.5 + i % 7
    return time.perf_counter() - tic


class RefClock:
    """Reference seconds since creation; ``with`` arms the sampling timer."""

    def __init__(self):
        self.scales = []        # reference seconds per wall second, per sample
        self._state = (0.0, time.perf_counter(), 1.0)  # (total, wall, scale)
        self._previous_handler = None
        self.sample()

    def sample(self) -> None:
        """Close the current segment and time the loop; the clock does not
        advance while the loop runs."""
        total, wall, scale = self._state
        total += (time.perf_counter() - wall) * scale
        # the fastest of three: a preempted loop would read as a slow machine
        scale = REF_LOOP_S / min(_loop_s() for _ in range(3))
        self.scales.append(scale)
        self._state = (total, time.perf_counter(), scale)

    def now(self) -> float:
        # the signal handler swaps _state between bytecodes; read it on
        # both sides of the wall-clock read so both belong to one segment
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:
                total, wall, scale = state
                return total + (t - wall) * scale

    def _on_timer(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
