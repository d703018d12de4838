"""Integer kernels: dense polynomial convolution and constrained composition search.

`convolve` and `vec_pow` multiply the integer u-polynomials of a product in
`integrate_product`.  `balanced_compositions` lists the frequency-balanced
compositions behind `enumerate_balanced_compositions`, which the test suite's
composition oracle sums over.  Coefficients are Python ints throughout, so
there is no overflow.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def backend_name() -> str:
    """Name of the kernel implementation; the package has one, in pure Python."""
    return "pure"


def convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two dense integer coefficient vectors."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def vec_pow(v: Sequence[int], p: int) -> List[int]:
    """p-th convolution power of v (p = 0 gives the unit [1])."""
    if p < 0:
        raise ValueError("negative power")
    result = [1]
    base = list(v)
    while p:
        if p & 1:
            result = convolve(result, base)
        p >>= 1
        if p:
            base = convolve(base, base)
    return result


def balanced_compositions(
    ms2: Sequence[int], ns2: Sequence[int], total: int, tm2: int, tn2: int
) -> List[Tuple[int, ...]]:
    """All alpha in N^k with sum(alpha) = total, alpha.ms2 = tm2, alpha.ns2 = tn2.

    Coordinates are twice-values so everything is integral.  Output is in
    descending lexicographic order (alpha_1 largest first).  Prunes on
    reachable-range bounds: with a residual budget R the remaining weighted
    sums lie in [R*min, R*max] of the remaining coordinates.
    """
    k = len(ms2)
    if k != len(ns2):
        raise ValueError("coordinate lists must have equal length")
    if k == 0:
        return [()] if (total == 0 and tm2 == 0 and tn2 == 0) else []

    min_m = [0] * k
    max_m = [0] * k
    min_n = [0] * k
    max_n = [0] * k
    min_m[k - 1] = max_m[k - 1] = ms2[k - 1]
    min_n[k - 1] = max_n[k - 1] = ns2[k - 1]
    for i in range(k - 2, -1, -1):
        min_m[i] = min(ms2[i], min_m[i + 1])
        max_m[i] = max(ms2[i], max_m[i + 1])
        min_n[i] = min(ns2[i], min_n[i + 1])
        max_n[i] = max(ns2[i], max_n[i + 1])

    out: List[Tuple[int, ...]] = []
    alpha = [0] * k

    def descend(i: int, budget: int, rm: int, rn: int) -> None:
        # rm, rn: remaining weighted sums still to be realized
        if i == k - 1:
            if budget * ms2[i] == rm and budget * ns2[i] == rn:
                alpha[i] = budget
                out.append(tuple(alpha))
            return
        for a in range(budget, -1, -1):
            rem = budget - a
            m_left = rm - a * ms2[i]
            n_left = rn - a * ns2[i]
            if not (rem * min_m[i + 1] <= m_left <= rem * max_m[i + 1]):
                continue
            if not (rem * min_n[i + 1] <= n_left <= rem * max_n[i + 1]):
                continue
            alpha[i] = a
            descend(i + 1, rem, m_left, n_left)
        alpha[i] = 0

    # quick global feasibility check before recursing
    if total * min_m[0] <= tm2 <= total * max_m[0] and total * min_n[0] <= tn2 <= total * max_n[0]:
        descend(0, total, tm2, tn2)
    return out
