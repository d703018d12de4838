"""Kernel backends side by side, and the power engine against its oracle.

The two kernel entry points (composition enumeration, integer convolution)
are timed on the pure-Python twin and, when built, the compiled kernel.
`power_scan` no longer runs on the kernel, so its row times the one-pass
engine against the composition oracle of the test suite (balanced
compositions on the pure kernel, base integrals from a cold cache).

Usage: python benchmarks/bench_backends.py [--quick]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from fractions import Fraction

from su2haar import _kernel, _kernel_py
from su2haar.integrals import clear_cache
from su2haar.powers import FiniteFunction, power_scan

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from conftest import composition_power_scan  # noqa: E402

try:
    from su2haar import _kernel_c
except ImportError:
    _kernel_c = None


def timed(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_enumeration(kernel, pmax):
    ms = [4, -4, 2, -2, 0]
    ns = [-4, 4, -2, 2, 0]

    def run():
        for p in range(1, pmax + 1):
            kernel.balanced_compositions(ms, ns, p, 0, 0)

    return timed(run)


def bench_convolution(kernel, rounds):
    vec = [((-1) ** i) * (i ** 3 + 1) for i in range(33)]

    def run():
        for _ in range(rounds):
            kernel.convolve(kernel.vec_pow(vec, 2), vec)

    return timed(run)


def bench_power_scan(scan, pmax):
    f = FiniteFunction.from_terms(
        [
            ((2, 2, -2), (1, 0)),
            ((2, -2, 2), (Fraction(1, 2), 0)),
            ((2, 1, -1), (0, 1)),
            ((2, -1, 1), (1, 1)),
            ((2, 0, 0), (-2, 0)),
        ]
    )
    saved = (_kernel.convolve, _kernel.vec_pow, _kernel.balanced_compositions)
    _kernel.convolve = _kernel_py.convolve
    _kernel.vec_pow = _kernel_py.vec_pow
    _kernel.balanced_compositions = _kernel_py.balanced_compositions
    try:
        def run():
            clear_cache()
            scan(f, pmax)

        return timed(run, repeat=2)
    finally:
        _kernel.convolve, _kernel.vec_pow, _kernel.balanced_compositions = saved
        clear_cache()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes, for smoke testing")
    ns = parser.parse_args(argv)

    pmax = 6 if ns.quick else 16
    rounds = 20 if ns.quick else 400

    backends = [("pure", _kernel_py)]
    if _kernel_c is not None:
        backends.append(("c", _kernel_c))
    else:
        print("note: compiled kernel not built; benchmarking pure only", file=sys.stderr)

    def table(header, rows, impls):
        print(f"{header:<34}" + "".join(f"{name:>12}" for name, _ in impls) + f"{'speedup':>10}")
        for label, bench in rows:
            times = [bench(impl) for _, impl in impls]
            cells = "".join(f"{t * 1e3:>10.2f}ms" for t in times)
            speedup = f"{times[0] / times[-1]:>9.1f}x" if len(times) > 1 else f"{'n/a':>10}"
            print(f"{label:<34}{cells}{speedup}")

    table("kernel", [
        (f"enumeration k=5 pmax={pmax}", lambda impl: bench_enumeration(impl, pmax)),
        (f"convolution chain x{rounds}", lambda impl: bench_convolution(impl, rounds)),
    ], backends)
    table("engine", [
        (f"power_scan k=5 pmax={pmax} (cold)", lambda scan: bench_power_scan(scan, pmax)),
    ], [("oracle", composition_power_scan), ("one-pass", power_scan)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
