"""Calibration loops: the machine's current speed, measured from outside su2haar.

On the shared machines this benchmark runs on, a CPU switches for seconds
at a time between speed regimes about 1.8x apart, CPU time tracks wall time,
and the CPUs switch independently, so neither CPU seconds nor best-of-N
remove it.  Each measured call is therefore timed between two runs of a
calibration loop on the same CPU, and its time is scaled by
reference / (mean loop time), which reads as seconds at the speed where the
loop takes its reference time.

Interpreter-bound and numpy-bound work slow down by different amounts, so
there are two loops: Fraction arithmetic for the exact engine, and complex
array arithmetic for the Monte Carlo oracle.  A workload names the one that
matches where its calls spend their time.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

CHUNKS = 3
_ARRAY = np.linspace(0.0, 6.0, 1 << 15)


def _interpreter_chunk() -> None:
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 11 + 2)
        if acc.denominator > 10 ** 12:
            acc = Fraction(acc.numerator % 1000, 7)


def _engine_chunk() -> None:
    table = {}
    for i in range(1, 600):
        key = (i % 97, (i * 31) % 89)
        table[key] = table.get(key, 0) + Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 11 + 2)
    coeffs = [(-1) ** i * (3 ** (i + 40) + i) for i in range(40)]
    out = [0] * (2 * len(coeffs) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            out[i + j] += a * b
    _interpreter_chunk()


def _array_chunk() -> None:
    for _ in range(2):
        (np.exp(-1j * _ARRAY) * np.cos(_ARRAY) ** 3).sum()


# kind -> (chunk, median chunk time in the fast regime of a 2-vCPU x86 VM, Python 3.11)
LOOPS = {
    "interpreter": (_interpreter_chunk, 0.0060),
    "engine": (_engine_chunk, 0.0093),
    "array": (_array_chunk, 0.0090),
}


def calibrate(kind: str) -> float:
    """Median time of a few chunks of the `kind` loop, in seconds."""
    chunk = LOOPS[kind][0]
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(kind: str, calib) -> float:
    """Factor taking a time measured between the loop times `calib` to reference speed."""
    return LOOPS[kind][1] / statistics.fmean(calib)
