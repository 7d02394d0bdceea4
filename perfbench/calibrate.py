"""Host-speed calibration: a fixed reference kernel, run at intervals inside
the execution it calibrates.

The host this benchmark runs on changes speed by up to half again over
periods of seconds to minutes: a fixed pure-Python loop read 0.12-0.25 s,
and the medians of its 40 s windows spread by 0.14 of their median.  No
window short enough for the benchmark's time budget averages that out.

So every PERIOD_S seconds of an execution, a SIGALRM handler runs one round
of a fixed kernel in the execution's own thread, on its own core, and times
it.  The median round time is the host's speed during the execution; the
rounds' total is taken out of the execution's wall time.  The kernel uses
none of qflow's code, so its time changes only with the host (and the
Python and numpy builds), never with qflow.

The drift is common to all code but not equal.  Five candidate kernels were
timed this way inside 39 disk-run and 24 heat-ladder executions, eight
minutes of each.  All correlated with the executions' wall time at 0.85 to
0.93, but pure-interpreter loops swung up to half again as much as the
executions did.  The kernel kept here, conjugate gradients on a five-point
Laplacian over small numpy arrays plus a sort and a reduction over one
large array, swung about as much as both workloads (log-log slopes 0.86 and
1.05).  Dividing by it cut the spread of single executions (interquartile
range over median) from 0.153 to 0.046 on disk-run and from 0.127 to 0.048
on heat-ladder.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

GRID = 48
CG_SOLVES = 5
CG_ITERATIONS = 40
LARGE = 200_000
PERIOD_S = 0.25
# Rounds taken after the execution when it ran too briefly to hold them.
MIN_ROUNDS = 3


def _apply_laplacian(u):
    """Five-point Laplacian with zero Dirichlet data outside the grid."""
    out = 4.0 * u
    out[1:] -= u[:-1]
    out[:-1] -= u[1:]
    out[:, 1:] -= u[:, :-1]
    out[:, :-1] -= u[:, 1:]
    return out


def _cg(b):
    """CG_ITERATIONS steps of conjugate gradients from zero; too few to
    reach the floating-point floor, so no step divides by zero."""
    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rs = float((r * r).sum())
    for _ in range(CG_ITERATIONS):
        ad = _apply_laplacian(d)
        alpha = rs / float((d * ad).sum())
        x += alpha * d
        r -= alpha * ad
        rs_new = float((r * r).sum())
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x


_LARGE_ARRAY = np.sin(np.arange(float(LARGE)))


def kernel() -> float:
    """One round of the reference work; returns a checksum of it."""
    total = 0.0
    for k in range(CG_SOLVES):
        b = np.sin(np.arange(k, k + GRID * GRID, dtype=float))
        total += float(_cg(b.reshape(GRID, GRID)).sum())
    ordered = np.sort(_LARGE_ARRAY)
    return total + float(ordered @ ordered)


def _timed_round() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrator:
    """Context manager that times its body: kernel rounds every PERIOD_S
    seconds while the body runs (none when interleave is False), then
    MIN_ROUNDS in all at least.  wall_s is the body's wall time without the
    rounds'."""

    def __init__(self, interleave=True):
        self.interleave = interleave
        self.during = []
        self.after = []
        self._busy = False
        self._previous = None
        self._t0 = None
        self.wall_s = None

    def _on_alarm(self, signum, frame):
        if self._busy:  # a round outlasted the period; skip, never nest
            return
        self._busy = True
        try:
            self.during.append(_timed_round())
        finally:
            self._busy = False

    def __enter__(self):
        kernel()  # warm the code paths; not a round
        if self.interleave:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        # Stop the timer first: every round then lies inside the interval.
        if self.interleave:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = time.perf_counter() - self._t0 - sum(self.during)
        while len(self.during) + len(self.after) < MIN_ROUNDS:
            self.after.append(_timed_round())
        return False

    @property
    def calibration_s(self) -> float:
        """Median round time."""
        return statistics.median(self.during + self.after)
