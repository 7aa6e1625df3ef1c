"""Machine-speed probe for timing on a shared host.

Other tenants of the host slow every core by up to a third, in episodes of
a few seconds to tens of seconds, and neither wall time nor CPU time hides
that.  While the ops run, SIGALRM times a fixed reference kernel (a numpy
sort and an interpreter loop, ~5 ms) every PERIOD seconds.  An op's time
is then rescaled by how slow the kernel ran around it: reference seconds =
(op seconds - probe seconds inside the op) / (kernel seconds / KERNEL_S).
The kernel is part of the benchmark, so a change to the lab cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.5      # seconds between kernel runs
KERNEL_S = 0.005  # kernel seconds that make one reference second
WINDOW = 1.0      # samples this close to an op set its speed


class SpeedProbe:
    def __init__(self):
        self.data = np.random.default_rng(0).random(60_000)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def kernel(self, *_) -> None:
        t0 = time.perf_counter()
        np.sort(self.data)
        acc = 0
        for i in range(60_000):
            acc += i * i
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self.kernel()  # every phase has at least one sample
        self._previous = signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(probe seconds inside [t0, t1], slowdown factor around it)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[lo:hi])
        near_lo = bisect.bisect_left(self.starts, t0 - WINDOW)
        near_hi = bisect.bisect_right(self.starts, t1 + WINDOW)
        near = self.durations[near_lo:near_hi]
        if not near:  # no sample close by: the nearest one on either side
            near = self.durations[max(near_lo - 1, 0):near_hi + 1]
        return inside, statistics.median(near) / KERNEL_S
