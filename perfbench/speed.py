"""Scaling of measured times to a reference machine speed.

On a shared host each vCPU runs at a speed that changes as other tenants load
the same physical cores.  On the 2-vCPU machine this benchmark was built on,
a short fixed loop took 8 ms in one ten-minute window and 16 ms in another.
Within a window the speed moves quickly too: timed back to back for 30 s on
one CPU, a 25 ms loop varied by 21% (coefficient of variation), with an
autocorrelation of 0.84 after 25 ms, 0.41 after 0.6 s and 0.05 after 3 s.

So a calibration loop (small numpy calls plus interpreter work, like the
pipeline) is timed again and again *while* a repetition runs: a SIGALRM
timer interrupts the work every SAMPLE_PERIOD_S seconds, and the handler
times SAMPLE_ITERATIONS turns of the loop (about 0.5 ms).  The handler's time
is taken off the repetition's wall time, and the rest is divided by the
speed factor

    factor = reference speed / mean sampled speed,

which gives the time the work would take on a machine where CAL_ITERATIONS
turns take CAL_REF_S seconds (about this host's fast state).  Over 24
repetitions of ungm-default at R = 10 on one CPU, the per-repetition time
varied by 15.5% unscaled, by 14.2% scaled with one calibration before and
one after, and by 3.8% scaled with the samples.

Single-process work is pinned to whichever CPU calibrates faster just before
it starts; pooled work may use every CPU, and its samples are taken in the
waiting parent on whichever CPU it wakes on.  Forked pool workers inherit
the handler but not the timer.  A set-up probe runs in a child process, so
it is bracketed instead: one calibration before and one after, on the CPU it
is pinned to.  Pinning sets this process's own CPU affinity and nothing else,
and the affinity it started with is restored after the work.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import time

import numpy as np

CAL_ITERATIONS = 3000
CAL_REF_S = 0.016
SAMPLE_ITERATIONS = 100
SAMPLE_PERIOD_S = 0.02
MAX_CPUS = 4

_CAL_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds the fixed calibration loop takes on the current CPU."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        acc += float(np.linalg.inv(_CAL_MATRIX)[0, 0]) + math.sin(i * 1e-3)
    return time.perf_counter() - started


class Sampler:
    """Samples the speed of the CPU the process runs on while work runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0   # time spent in the handler, not in the work

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_ITERATIONS))
        self.spent_s += time.perf_counter() - started

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # work shorter than one period
            self.samples.append(calibrate(SAMPLE_ITERATIONS))

    def factor(self) -> float:
        """Reference speed over the mean sampled speed."""
        ref_s = CAL_REF_S * SAMPLE_ITERATIONS / CAL_ITERATIONS
        return len(self.samples) / sum(ref_s / s for s in self.samples)


class Speed:
    """Pins work to a CPU and brackets work that runs in a child process."""

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)[:MAX_CPUS]

    def _on_each_cpu(self, cpus) -> dict[int, float]:
        times = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = calibrate()
        return times

    def before(self, pin: bool) -> dict[int, float]:
        """Calibrate every CPU, then pin to the fastest (pin=True) or allow them all.

        Returns the calibration times of the CPUs the work may run on.
        """
        times = self._on_each_cpu(self.cpus)
        if pin:
            best = min(times, key=times.get)
            os.sched_setaffinity(0, {best})
            return {best: times[best]}
        os.sched_setaffinity(0, set(self.cpus))
        return times

    def release(self) -> None:
        """Allow every CPU the process started with again."""
        os.sched_setaffinity(0, self.allowed)

    def after(self, before: dict[int, float]) -> float:
        """Calibrate the same CPUs again, release the pinning and return the
        speed factor of the work."""
        after = self._on_each_cpu(before)
        self.release()
        mean = sum(before[c] + after[c] for c in before) / (2 * len(before))
        return mean / CAL_REF_S
