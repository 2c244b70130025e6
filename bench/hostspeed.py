"""Host speed, measured with a fixed reference kernel while the benchmark runs.

The benchmark shares a few cores of a busy host.  How fast those cores run
changes by tens of percent from minute to minute (time taken by other
guests, a busy sibling hyper-thread), so a wall time alone says as much
about the neighbours as about fracweyl.  ``HostSpeed`` times a fixed piece
of work, ``reference_kernel``, over and over while a pass runs: a SIGALRM
handler runs it every ``PERIOD_S`` seconds of wall time, in the benchmark's
own thread, between the library's Python bytecodes.  Its mean time says
how fast the host ran during the pass, and

    factor = NOMINAL_S / mean reference time

turns a measured time into the time at the speed where the kernel takes
``NOMINAL_S``.  The kernel's own time is left out of the times it scales
(``busy``).  The kernel is benchmark code and does not call the library,
so a change to fracweyl moves the scaled times and not the factor.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# Mean time of reference_kernel inside a coefficients pass on the 2-core
# Xeon host the benchmark was tuned on; it only fixes the unit.
NOMINAL_S = 2.75e-3
CALIBRATION_SAMPLES = 40


def reference_kernel() -> float:
    """Fixed work in the mix halfline spends its time in: scalar Python
    math and numpy calls on small arrays."""
    x = 0.0
    for i in range(1, 3000):
        x += math.exp(-i * 1e-3) * math.sqrt(i)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        a = np.exp(-a) * 0.5 + np.sqrt(a + 1.0) * 0.1
    return x + float(a[0])


class HostSpeed:
    """Reference-kernel samples: direct (``calibrate``) or, inside a
    ``with`` block, from a timer signal every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the kernel so far

    def sample(self, *_signal_args) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt
        return dt

    def calibrate(self, count: int = CALIBRATION_SAMPLES) -> list[float]:
        return [self.sample() for _ in range(count)]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def factor(samples: list[float]) -> float:
    """Scale that turns a time measured alongside ``samples`` into
    reference-speed seconds."""
    return NOMINAL_S / statistics.fmean(samples)
