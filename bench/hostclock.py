"""Durations at a fixed reference host speed.

The speed of the same Python code on a shared host moves by up to 2x over
minutes (see NOTES.md), and that drift, not the program, would set the
run-to-run spread of wall-clock timings.  `HostClock` therefore times a
fixed pure-Python reference loop next to the timed work and reports every
duration at the reference speed:

    seconds at reference speed = wall seconds * REF_LOOP_S / loop seconds

The loop runs from an interval timer (SIGALRM) every INTERVAL_S of wall
time, in the benchmark's own single thread, between two bytecodes of
whatever is being timed; the time spent in it is left out of every
duration.  The loop touches nothing of quadfold, so a change to the library
moves the reported durations exactly as it moves wall time at a steady host
speed.

`current` is the clock the runner and the workloads time with; it is a
`WallClock` (plain wall seconds) unless a `HostClock` is installed.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

# The reference loop has two parts of about equal length, because the
# host's slow states do not slow all code alike: integer arithmetic, and
# float math through Python function calls.  Together they track quadfold's
# time closer than either alone.  Both run from the core's own caches, so
# what the timed work leaves in the caches does not move the loop.
INT_N = 7_000
CALL_N = 2_000
# The loop's time at the reference speed: about its median on a 2.0 GHz
# Xeon vCPU (see NOTES.md).
REF_LOOP_S = 1.7e-3
INTERVAL_S = 0.1   # wall seconds between two loops in a timed run


def _step(x: float) -> float:
    return math.atan2(math.sin(x), math.cos(x) + 2.0)


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = perf_counter()
    acc = 0
    for k in range(INT_N):
        acc = (acc + k * k) % 1_000_003
    x = 0.0
    for k in range(CALL_N):
        x += _step(k * 1e-3)
    return perf_counter() - t0


class WallClock:
    """Plain wall seconds."""

    def start(self):
        return perf_counter()

    def stop(self, token) -> float:
        return perf_counter() - token


class HostClock:
    """Wall seconds rescaled to the reference speed by the loop timings
    taken while the timed work ran."""

    def __init__(self):
        self.loops = [reference_loop()]   # seconds per loop, in order
        self.paused = 0.0                 # seconds spent in the loop so far
        self._previous_handler = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.loops.append(reference_loop())
        self.paused += perf_counter() - t0

    def install(self):
        global current
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        current = self

    def uninstall(self):
        global current
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        current = WallClock()

    def start(self):
        return perf_counter(), self.paused, len(self.loops)

    def stop(self, token) -> float:
        """Seconds since `start` at the reference speed; a span too short
        to hold a loop timing uses the latest one before it."""
        t0, paused0, k0 = token
        wall = perf_counter() - t0 - (self.paused - paused0)
        loops = self.loops[k0:] or self.loops[-1:]
        return wall * statistics.fmean(REF_LOOP_S / s for s in loops)


current = WallClock()
