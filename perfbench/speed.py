"""Timings scaled to a reference speed of the machine.

A shared machine's speed swings by a quarter and more, and a slow spell can
last a minute and cover a whole run. While a run measures, `Speed.sampling`
runs a fixed loop of Python and small-array numpy work, which shares no code
with spnexplain, every PERIOD_S of wall time (from a SIGALRM handler).
`Speed.timing` times an operation without the loop's own time in it, and
`at_reference` scales it by REFERENCE_S / (median loop time during and
around it): it reads as seconds on a machine where the loop takes
REFERENCE_S. A slower program reads slower; a slower spell mostly does not.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.020  # median loop time on x86_64, nproc 2, Python 3.11, numpy 2.4
PERIOD_S = 0.5
NEAR_S = 2.0         # loop samples this close to an operation scale it


@dataclass
class Timing:
    start: float
    end: float = 0.0
    seconds: float = 0.0  # wall time minus the loop's time inside it


class Speed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self._busy = 0.0
        self._x = np.linspace(0.0, 1.0, 200)

    def _loop(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(1000):
            z = (self._x - 0.5) / 0.2
            np.where(self._x > 0.1, -0.5 * z * z - 1.0, 0.0).sum()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        self._busy += t1 - t0

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._loop)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timing(self):
        busy = self._busy
        t = Timing(perf_counter())
        yield t
        t.end = perf_counter()
        t.seconds = t.end - t.start - (self._busy - busy)

    def at_reference(self, t: Timing) -> float:
        """t.seconds scaled by the loop times sampled during it and within
        NEAR_S of it (all of the run's samples if there are none that close)."""
        near = [s for end, s in self.samples
                if t.start - NEAR_S <= end <= t.end + NEAR_S]
        near = near or [s for _, s in self.samples]
        return t.seconds * REFERENCE_S / statistics.median(near)

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(s for _, s in self.samples)
