"""Host-speed probe: what makes host times comparable between runs.

The sandbox this benchmark runs in wanders between CPU-speed modes
about 20 % apart, for seconds to minutes at a time, whatever else the
VM is doing; a 15 s run sits in one mode or the other and its raw
median inherits the whole difference.  Two tiny fixed kernels — an
interpreter loop and a chain of NumPy ufuncs over an L1-resident array,
neither touching ``repro`` — are timed right before and right after
every timed region, and the region's seconds are scaled by how much
faster or slower than nominal the kernels ran.  Measured on four-minute
series of every workload, that cuts the spread of 15 s medians by a
factor of two to three (README, "Noise on this host").

The kernels and constants never change between commits, so a ratio of
two calibrated times is a ratio of the programs; the raw times are kept
in every result next to the calibrated ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["probe", "factor", "HostClock"]

#: Seconds the two kernels take on this class of host in its usual mode.
#: Only their constancy matters: they set the speed that counts as 1.0.
_NOMINAL_S = (3.0e-3, 2.3e-3)

_PY_ITERATIONS = 60_000
_NP_ITERATIONS = 300
_NP_OPERAND = np.arange(4096, dtype=np.float64)


def probe() -> tuple[float, float]:
    """Seconds of the interpreter kernel and of the NumPy kernel, now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(_PY_ITERATIONS):
        x += i * i % 7
    t1 = time.perf_counter()
    a = _NP_OPERAND
    for _ in range(_NP_ITERATIONS):
        a = np.sqrt(a * a + 1.0)
    return t1 - t0, time.perf_counter() - t1


def factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Multiplier taking seconds measured between two probes to nominal
    host speed: the geometric mean over both kernels of nominal / measured."""
    ratios = [
        nominal / ((b + a) / 2.0) for nominal, b, a in zip(_NOMINAL_S, before, after)
    ]
    return math.sqrt(ratios[0] * ratios[1])


class HostClock:
    """Hands out the speed factor of the region since the previous call."""

    def __init__(self):
        self._last = probe()

    def factor(self) -> float:
        now = probe()
        value = factor(self._last, now)
        self._last = now
        return value
