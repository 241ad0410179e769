"""Machine-speed calibration for the end-to-end times.

On a shared 2-core x86-64 machine, one fixed pure-Python loop took 15 ms
in one 3-second window and 24 ms a few seconds later; identical benchmark
runs moved by 20% with it.  regdyn's
queries speed up and slow down with that loop (a stable-manifold plus a
height query over 4-second windows: CV 12.5% raw, 3.6% as a ratio to the
loop).  So the worker samples the loop at least every INTERVAL_S of timed
work and divides each time by the loop's time near it over REF_S.  The
reported times are wall times scaled to a machine on which the loop takes
REF_S; the raw wall times are printed next to them.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_S = 0.005
INTERVAL_S = 0.2
WINDOW_S = 1.0


def kernel() -> Fraction:
    """Fixed rational arithmetic, the kind of work regdyn's queries do."""
    x, seen = Fraction(1, 3), {}
    for i in range(400):
        x = (x * Fraction(i + 1, i + 2) + Fraction(1, 7)) % 5
        seen[i & 63] = x
    return x


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel samples over a run, and the speed factor near any interval."""

    def __init__(self):
        self.at: list = []
        self.cost: list = []

    def sample(self):
        c = sample()
        self.at.append(time.perf_counter())
        self.cost.append(c)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Kernel time over REF_S: the median of the samples taken within
        WINDOW_S of [start, end], or else of the nearest one on each side."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.cost[lo:hi]
        if not near:
            i = bisect.bisect_left(self.at, start)
            near = self.cost[max(0, i - 1):i + 1]
        return statistics.median(near) / REF_S
