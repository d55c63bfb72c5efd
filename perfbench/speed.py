"""Host speed sampling, to take shared-machine contention out of timings.

On a shared host the same mission's wall time swings by 1.4-2x within
seconds, and CPU time swings with it. While a run measures,
``SpeedSampler`` fires every ``INTERVAL_S`` from a ``SIGALRM`` handler
and times a fixed reference loop that does not touch isobath. ``scale``
turns an interval's host seconds, with the sampler's own time taken
out, into seconds at reference speed: host seconds times
``REFERENCE_S`` over the median reference time around the interval.
On a shared 2-core x86-64 VM (Python 3.11, numpy 2.4), five runs of one
sweep-outputs seed whose host throughput varied 1.5x gave quartile
spreads of 0.03-0.08 this way, against 0.11-0.16 with a pure-Python
reference loop.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Median time of ``reference_loop`` on an uncontended core of that VM;
# scaled times are in seconds at this speed.
REFERENCE_S = 0.00035


_POINTS = np.linspace(0.0, 1.0, 400).reshape(200, 2)


def reference_loop() -> int:
    """Interpreter work plus small-array numpy calls, like isobath's mix."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    kept = np.empty((0, 2))
    for i in range(15):
        if np.sum((_POINTS - _POINTS[i]) ** 2, axis=1).min() >= 0.0:
            kept = np.vstack([kept, _POINTS[i : i + 1]])
    return total + len(kept)


class SpeedSampler:
    """Reference-loop timings taken every ``INTERVAL_S`` while entered.

    Only one sampler may run at a time: it owns ``SIGALRM`` and the real
    interval timer, and restores both on exit.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stamps: list[float] = []  # when each sample ended
        self.costs: list[float] = []  # reference loop seconds
        self.spent = 0.0  # seconds the handler has taken
        self._previous = None

    def _sample(self, signum, frame):
        start = self.clock()
        reference_loop()
        end = self.clock()
        self.stamps.append(end)
        self.costs.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` measured over [start, end], at reference speed.

        Uses the samples within one interval of either end, so a call
        shorter than the interval still has one. With no samples, as
        when no sampler ran, the seconds are returned unchanged.
        """
        lo = bisect.bisect_left(self.stamps, start - INTERVAL_S)
        hi = bisect.bisect_right(self.stamps, end + INTERVAL_S)
        if lo == hi:
            return seconds
        return seconds * REFERENCE_S / statistics.median(self.costs[lo:hi])
