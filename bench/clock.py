"""Timing in reference-kernel units, steady on a host whose speed drifts.

On a 2-vCPU virtual machine of a shared Xeon host the same sign_change pass
took anywhere from 1x to 2x its fastest time, in phases lasting tens of
seconds, so the median wall time of a 20-second run moves by more than any
bound worth setting.  Each vCPU switched between a fast speed and one about
1.5x slower every few seconds, independently of the other.  So the measured
run is pinned to the CPUs its timed calls use, and each call's time is
divided by the mean time of a fixed reference kernel run on those CPUs
around it.  The kernel is plain scipy, not fowlerlab code, and does the same
kind of work as the package (an adaptive Runge-Kutta integration driven from
Python with small numpy arrays), so a slow phase of the host stretches both
alike while a slower fowlerlab stretches only the call.  One ``ref`` is one
run of the kernel; a call that takes 200 ref costs as much as 200 kernel
runs.

A call computed in this process is also sampled while it runs: a SIGALRM
handler runs the kernel every ``SAMPLE_INTERVAL`` seconds and the kernel's
time is taken out of the call's, because a 5-second shoot spans several
speed switches.  A call whose work runs in pool workers (``in_pool``) is not
sampled, as the kernel would compete with the workers for their CPUs; the
kernel runs after it instead, on each pinned CPU, for ``DUTY`` of its time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

#: Kernel runs made before timing starts, to load scipy's code paths.
WARM_UP_RUNS = 20
#: Seconds between kernel samples inside a call computed in this process.
SAMPLE_INTERVAL = 0.1
#: Share of an ``in_pool`` call's time that the kernel runs after it.
DUTY = 0.1


def _duffing(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1] - y[0] ** 3])


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel (about 4 ms)."""
    start = time.perf_counter()
    solve_ivp(_duffing, (0.0, 3.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    return time.perf_counter() - start


class Clock:
    """The ``call`` of a measured pass: times each call, and the kernel around it.

    ``passes`` holds one list per pass of ``(wall_s, ref_s)`` for each call,
    in call order: ``wall_s`` is the call's time without the kernel samples
    taken inside it, and ``ref_s`` the mean kernel time over those samples
    and the kernel runs just before and just after the call.  Consecutive
    calls share the kernel runs between them.
    """

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        for _ in range(WARM_UP_RUNS):
            reference_seconds()
        self.passes: list[list[tuple[float, float]]] = []
        self._inner: list[float] = []
        self._last_batch = self._kernel_batch(0.0)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self._inner.append(reference_seconds())

    def _kernel_round(self) -> float:
        """The kernel once on each CPU; with several CPUs sharing a call's
        work, the harmonic mean of their times scales as the call does."""
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_seconds())
        os.sched_setaffinity(0, self.cpus)
        return len(times) / sum(1.0 / t for t in times)

    def _kernel_batch(self, seconds: float) -> list[float]:
        batch = [self._kernel_round()]
        while sum(batch) * len(self.cpus) < DUTY * seconds:
            batch.append(self._kernel_round())
        return batch

    def start_pass(self) -> None:
        self.passes.append([])

    def __call__(self, fn, *args, **kwargs):
        return self._timed(True, fn, args, kwargs)

    def in_pool(self, fn, *args, **kwargs):
        return self._timed(False, fn, args, kwargs)

    def _timed(self, sampled: bool, fn, args, kwargs):
        self._inner = []
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start
            inner = self._inner
            wall = elapsed - sum(inner)
            batch = self._kernel_batch(0.0 if sampled else wall)
            around = self._last_batch + inner + batch
            self.passes[-1].append((wall, sum(around) / len(around)))
            self._last_batch = batch

    def pass_ref(self) -> float:
        """Pass time in ref: per call position, the median over passes of
        wall / ref, summed over the positions of a pass."""
        return sum(
            statistics.median(wall / ref for wall, ref in calls)
            for calls in zip(*self.passes)
        )

    def pass_seconds(self) -> float:
        """The same sum of per-position medians, of raw wall time."""
        return sum(statistics.median(wall for wall, _ in calls) for calls in zip(*self.passes))

    def ref_seconds(self) -> float:
        """Median kernel time over the run."""
        return statistics.median(ref for calls in self.passes for _, ref in calls)
