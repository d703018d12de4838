"""Integer kernels: one packed polynomial product and the balanced compositions.

`pack` writes an integer u-polynomial as one int, sum_j c_j 2^(w j), with a
signed slot of w bits per power of u (Kronecker substitution); `unpack`
reads it back while every |c_j| < 2^(w-1).  `poly_product` multiplies
factors v_i^p_i between the two: every factor is packed at one width,
w = bits(max(prod_i ||v_i||_1^p_i, 1)) + 1 >= 2, which bounds every product
coefficient, raised to its power as one int, and the product is unpacked once.
`integrate_product` makes one such call per product; `convolve` and
`vec_pow` are its two-factor and one-factor views, and `power_scan` packs
its states with the same `pack`/`unpack` pair at its own width.
`balanced_compositions` lists the frequency-balanced compositions behind
`enumerate_balanced_compositions`, which the test suite's composition oracle
sums over.  Coefficients are Python ints throughout, so there is no overflow.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import Iterable, List, Sequence, Tuple


def backend_name() -> str:
    """Name of the kernel implementation; the package has one, in pure Python."""
    return "pure"


def pack(coeffs: Iterable[int], width: int) -> int:
    """Kronecker substitution u = 2^width; slots are signed."""
    return sum(c << (width * j) for j, c in enumerate(coeffs))


def unpack(packed: int, width: int, length: int = 0) -> List[int]:
    """Coefficients of a packed polynomial with slots |c| < 2^(width-1), zero-padded to length."""
    if width < 2:                       # a 1-bit slot reads 1 as -1 and never reaches 0
        raise ValueError("width must be >= 2")
    mask, half, coeffs = (1 << width) - 1, 1 << (width - 1), []
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << width
        coeffs.append(c)
        packed = (packed - c) >> width
    return coeffs + [0] * (length - len(coeffs))


def poly_product(factors: Iterable[Tuple[Sequence[int], int]]) -> List[int]:
    """Product of v^p over the (v, p) factors: [] if a v is empty, [1] if no p is positive.

    Every |c| of the product is at most the product of the ||v||_1^p, so one
    slot width bits(that) + 1 unpacks it exactly.
    """
    factors = [(v, p) for v, p in factors if p]
    if not all(v for v, _ in factors):
        return []
    width = max(prod(sum(map(abs, v)) ** p for v, p in factors), 1).bit_length() + 1
    length = 1 + sum(p * (len(v) - 1) for v, p in factors)
    return unpack(prod(pack(v, width) ** p for v, p in factors), width, length)


def convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two dense integer coefficient vectors."""
    return poly_product([(a, 1), (b, 1)])


def vec_pow(v: Sequence[int], p: int) -> List[int]:
    """p-th convolution power of v (p = 0 gives the unit [1])."""
    if p < 0:
        raise ValueError("negative power")
    return poly_product([(v, p)])


def balanced_compositions(
    ms2: Sequence[int], ns2: Sequence[int], total: int, tm2: int, tn2: int
) -> List[Tuple[int, ...]]:
    """All alpha in N^k with sum(alpha) = total, alpha.ms2 = tm2, alpha.ns2 = tn2.

    Coordinates are twice-values so everything is integral.  Every
    composition of `total` into k parts is tried, read off its k - 1 cut
    points among total + k - 1 slots; output is in descending lexicographic
    order (alpha_1 largest first).
    """
    k = len(ms2)
    if k != len(ns2):
        raise ValueError("coordinate lists must have equal length")
    if k == 0:
        return [()] if (total == 0 and tm2 == 0 and tn2 == 0) else []
    slots = total + k - 1
    out = []
    for cuts in combinations(range(slots), k - 1):
        alpha = tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (slots,)))
        if sum(a * m for a, m in zip(alpha, ms2)) == tm2 and sum(a * n for a, n in zip(alpha, ns2)) == tn2:
            out.append(alpha)
    return out[::-1]
