"""Integer kernels: packed polynomial products and constrained composition search.

`pack` writes an integer u-polynomial as one int, sum_j c_j 2^(w j), with a
signed slot of w bits per power of u (Kronecker substitution); `unpack`
reads it back while every |c_j| < 2^(w-1).  `convolve` and `vec_pow`, the
products `integrate_product` uses, are one big-integer multiply or power
between the two, at a slot width taken from the bit lengths of the factors'
L1 norms; `power_scan` packs its states with the same pair.
`balanced_compositions` lists the frequency-balanced compositions behind
`enumerate_balanced_compositions`, which the test suite's composition oracle
sums over.  Coefficients are Python ints throughout, so there is no overflow.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def backend_name() -> str:
    """Name of the kernel implementation; the package has one, in pure Python."""
    return "pure"


def pack(coeffs: Iterable[int], width: int) -> int:
    """Kronecker substitution u = 2^width; slots are signed."""
    return sum(c << (width * j) for j, c in enumerate(coeffs))


def unpack(packed: int, width: int, length: int = 0) -> List[int]:
    """Coefficients of a packed polynomial with slots |c| < 2^(width-1), zero-padded to length."""
    mask, half, coeffs = (1 << width) - 1, 1 << (width - 1), []
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << width
        coeffs.append(c)
        packed = (packed - c) >> width
    return coeffs + [0] * (length - len(coeffs))


def _norm_bits(v: Sequence[int]) -> int:
    """Bit length of the L1 norm of v, so every |c| <= ||v|| < 2^_norm_bits(v)."""
    return sum(abs(c) for c in v).bit_length()


def convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two dense integer coefficient vectors."""
    if not a or not b:
        return []
    width = _norm_bits(a) + _norm_bits(b) + 1
    return unpack(pack(a, width) * pack(b, width), width, len(a) + len(b) - 1)


def vec_pow(v: Sequence[int], p: int) -> List[int]:
    """p-th convolution power of v (p = 0 gives the unit [1])."""
    if p < 0:
        raise ValueError("negative power")
    if p == 0:
        return [1]
    if not v:
        return []
    width = p * _norm_bits(v) + 1
    return unpack(pack(v, width) ** p, width, p * (len(v) - 1) + 1)


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
