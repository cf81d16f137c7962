"""Machine speed, sampled during a run, and times expressed at a fixed speed.

The benchmark runs on a few cores of a shared host.  There, the speed of
one core flips between a fast and a slow state (about 1.8x apart) many
times a second, and the share of slow time changes from minute to minute,
so a run of 20 s can take 60% longer than the same run a minute earlier.
CPU time moves with it (the core is slower, not descheduled), so it does
not help.  What repeats is the ratio of two pieces of work run side by
side over the same stretch of time: the ratio of a pressure evaluation's
mean time to the mean time of the reference loop below stays within a few
percent while both move by 30% or more.

So a run samples the reference loop every ``EVERY_S`` seconds, and every
time the benchmark reports is in *reference seconds*: the measured seconds
times ``REF_S`` over the mean time of the reference loop over the same
stretch of time (for an evaluation, the samples taken during it and one on
either side; for a pass, all of its samples).  In-process workloads take
the samples from a timer signal, so they fall evenly in time also inside
evaluations that last a second; the time spent in them is taken off the
evaluation they interrupted.  The CLI workload, whose evaluations run in
child processes pinned to the same core, samples between evaluations.

On the host the benchmark was written on (2 vCPUs of a shared x86-64 host,
Python 3.11, numpy 2.4) the reference loop took ``REF_S`` on average, so a
reference second is about one second there.  The loop does what the
program does most, numpy operations on small arrays inside Python loops,
and it is the benchmark's own code, so no change to the program changes it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

REF_S = 0.0035     # mean time of the reference loop, in seconds, on that host
EVERY_S = 0.05     # least wall time between two samples
_X = np.linspace(0.1, 1.0, 48)


def reference_loop() -> float:
    s = 0.0
    for k in range(400):
        y = np.exp(-_X * (1 + k % 7)) * _X
        s += float(np.sum(y / (1.0 - y))) + math.log1p(k * 0.5)
    return s


class Speed:
    """Samples of the reference loop: their end times and durations, and
    ``busy``, the seconds spent taking them."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0
        self.timed = False

    def sample(self) -> None:
        t0 = clock()
        reference_loop()
        t1 = clock()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.busy += clock() - t0

    def maybe_sample(self) -> None:
        """Between evaluations: sample unless a timer samples, or the last
        sample is younger than ``EVERY_S``."""
        if not self.timed and (not self.ends or clock() - self.ends[-1] >= EVERY_S):
            self.sample()

    def start_timer(self) -> None:
        """Sample every ``EVERY_S`` seconds from SIGALRM, until ``stop_timer``."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.timed = True

    def stop_timer(self) -> None:
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.timed = False

    def mark(self) -> int:
        """A position in the samples, for ``factor``."""
        return len(self.durations)

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """Reference seconds per second: ``REF_S`` over the mean duration of
        the samples from mark ``start`` to mark ``end`` (all by default)."""
        window = self.durations[start:end]
        if not window:
            raise RuntimeError("no speed sample in the window")
        return REF_S / statistics.fmean(window)

    def local_factor(self, t0: float, t1: float, extra: int = 1) -> float:
        """``factor`` over the samples that ended within [t0, t1] and the
        ``extra`` samples on either side."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return self.factor(max(0, lo - extra), hi + extra)
