"""Fixed reference work that measures how fast the host is right now.

On a shared host the effective speed of a core drifts by a quarter or more
over minutes, and every timing in a run drifts with it.  The benchmark runs
the reference between cases and divides its timings by the run's median
reference time, so the reported times are in *reference units*: multiples
of the time the reference takes at the same moment on the same host.  The
reference is the benchmark's own code and never calls wavebank, so a change
to the program moves the reported times exactly as it moves the raw ones.

The reference mixes the kinds of work the workloads do: an interpreted
Python loop, a strided gather with a multiply-add on a 4 MiB complex array,
a small complex matrix product and a fresh 8 MiB allocation touched page by
page.  It takes about 10 ms and runs at most every `INTERVAL_S` seconds,
between operations, never inside a timed one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


INTERVAL_S = 0.4


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._y = rng.standard_normal(2**18) + 1j * rng.standard_normal(2**18)
        self._idx = (np.arange(2**18) * 7) % 2**18
        self._m = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.times: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        s = 0
        for i in range(20000):
            s += i * i % 7
        z = self._y[self._idx] * 1.0001 + self._y
        z[self._idx] * 0.9999 + self._y
        self._m @ self._m @ self._m
        buf = np.empty(2**20, dtype=np.float64)
        buf[::512] = 1.0

    def tick(self) -> None:
        """Sample the reference if the last sample is older than `INTERVAL_S`."""
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        self._kernel()
        self._last = time.perf_counter()
        self.times.append(self._last - now)

    def median(self) -> float:
        return statistics.median(self.times)
