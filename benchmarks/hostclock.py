"""Timing that corrects for the speed of the core the benchmark runs on.

On a shared host a core's speed varies: here a core runs at one of two
speeds about 1.6x apart, switching every few seconds and drifting for
minutes, so raw times of the same work spread by up to a third across runs.
A HostClock measures that speed while the benchmark runs: a timer signal
interrupts the main thread every TICK_S seconds and times a fixed reference
kernel (small numpy matmuls and Python arithmetic, no vrec code). An
interval's adjusted duration is its duration without the kernel runs inside
it, scaled by REFERENCE_S over the kernel's time around it: the time the
same work takes on a core that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

TICK_S = 0.1
REFERENCE_S = 2e-4  # about the kernel's time on an uncontended core of the build machine
_A = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24) / 24.0


def _kernel() -> float:
    x, acc = _A, 0.0
    for i in range(40):
        x = np.tanh(x @ _A + 0.5)
        acc += float(x[0, 0]) * 0.5 + i
    return acc


class HostClock:
    """Use as a context manager around everything that is timed; read
    ``stamp()`` at both ends of an interval and ``adjusted`` after exit."""

    def __init__(self):
        self.kernel_s = 0.0  # total time spent in the reference kernel
        self._starts: list[float] = []
        self._costs: list[float] = []
        self._speed: list[float] = []  # REFERENCE_S over the smoothed kernel time, per tick

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        cost = time.perf_counter() - t0
        self._starts.append(t0)
        self._costs.append(cost)
        self.kernel_s += cost

    def __enter__(self) -> "HostClock":
        for _ in range(5):  # numpy's first calls are slower than the steady state
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        c = self._costs
        # a median of three neighbours keeps one disturbed tick from counting
        self._speed = [REFERENCE_S / statistics.median(c[max(0, i - 1):i + 2])
                       for i in range(len(c))]

    def stamp(self) -> tuple[float, float]:
        return time.perf_counter(), self.kernel_s

    def raw(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Duration of the interval from stamp ``a`` to stamp ``b``, without
        the kernel runs inside it."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed relative to the reference core from time ``t0`` to
        ``t1``, over the ticks inside and the nearest one on each side."""
        i = max(0, bisect.bisect_left(self._starts, t0) - 1)
        speed = self._speed[i:bisect.bisect_right(self._starts, t1) + 1]
        return statistics.fmean(speed) if speed else 1.0

    def adjusted(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """``raw`` scaled to the reference core."""
        return self.raw(a, b) * self.speed(a[0], b[0])

    def slowdown(self) -> float:
        """Median kernel time over REFERENCE_S for the whole clock."""
        return statistics.median(self._costs) / REFERENCE_S if self._costs else 1.0
