"""Exact Haar integration of products of powers of matrix elements.

In Euler coordinates g = k(phi) a(theta) k(psi) the Haar integral carries the
density sin(theta)/(16 pi^2) over phi in [0, 2pi), theta in [0, pi], psi in
[-2pi, 2pi).  A product of matrix elements picks up the character
exp(-i*M*phi - i*N*psi) with M = sum alpha_i m_i and N = sum alpha_i n_i, so
the phi and psi integrals kill everything unless M = N = 0 (half-integer
frequencies still integrate to zero because the psi range spans 4 pi and
M - N is always an integer).  Surviving integrals reduce to

    (2pi * 4pi) / (16 pi^2) * integral_0^pi (product at a(theta)) sin(theta) d(theta)
  = 1/2 * integral_0^pi ... ,

and with u = sin^2(theta/2) the measure 1/2 * sin(theta) d(theta) becomes du
on [0, 1].  A product is one `ProductSpec`; an extra element, such as the
"shift" of a product file, is one more factor (`ProductSpec.with_extra`), so
`integrate_product(spec)` and `frequency_of(spec)` take the spec alone.
`ProductSpec.from_json` reads a product file: a "factors" list of
{"l", "m", "n", "power"} objects (half-integers as ints or strings such as
"1/2", power a positive integer, 1 when absent) and an optional "shift"
{"l", "m", "n"} object, which becomes one more factor of power 1.

`integrate_product` works on the u-form of each element, the `radicand`,
`denom` and `poly` fields of `wigner.theta_restriction`
(i^(n-m) * sqrt(r) * c^eps * s^delta * q(u)).  It reads each factor's
parities off (m, n), as `power_scan` does; a balanced product has even
parity sums C and S, so its integrand is u^(S/2) times one packed product,
`_kernel.poly_product`, of (1 - u)^(C/2) and the factors' integer
u-polynomials at their powers.  It multiplies the radicands as one integer
and reads the integral off as sum_j c_j / (j + 1) with `u_integral`, the
read-out `power_scan` shares.
The closed form 2 * (a/2)! * (b/2)! / ((a+b)/2 + 1)! of a single monomial
c^a s^b, for the (c, s) route the tests compare against, lives with the
test oracles (`tests/oracles.py`).  No pi ever appears in a stored value.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence, Tuple

from . import _kernel
from .scalars import RadicalScalar
from .wigner import MatrixElementIndex, theta_restriction


class ProductSpec(namedtuple("ProductSpec", "factors")):
    """Multiset of (matrix element, power) factors, canonically merged and sorted into the tuple `factors`."""

    __slots__ = ()

    def __new__(cls, factors):
        merged: dict = {}
        for idx, power in factors:
            if not isinstance(idx, MatrixElementIndex):
                raise TypeError(f"factor index must be MatrixElementIndex, got {idx!r}")
            if power < 0:
                raise ValueError(f"factor power must be nonnegative, got {power}")
            if power:
                merged[idx] = merged.get(idx, 0) + power
        return super().__new__(cls, tuple(sorted(merged.items())))

    def with_extra(self, extra: Optional[MatrixElementIndex]) -> "ProductSpec":
        if extra is None:
            return self
        return ProductSpec(self.factors + ((extra, 1),))

    @staticmethod
    def from_json(obj: dict) -> "ProductSpec":
        """Parse the product-file format, its "shift" folded in; any malformed shape raises ValueError."""
        if "factors" not in obj:
            raise ValueError("missing field 'factors'")
        if not isinstance(obj["factors"], list):
            raise ValueError("factors must be a list of factor objects")
        factors = []
        for i, fac in enumerate(obj["factors"]):
            idx = MatrixElementIndex.from_json(fac, f"factors[{i}]")
            power = fac.get("power", 1)
            if not isinstance(power, int) or isinstance(power, bool) or power < 1:
                raise ValueError(f"factors[{i}].power must be a positive integer")
            factors.append((idx, power))
        shift = obj.get("shift")
        return ProductSpec(tuple(factors)).with_extra(
            None if shift is None else MatrixElementIndex.from_json(shift, "shift"))


def frequency_of(spec: ProductSpec) -> Tuple[int, int]:
    """Twice the frequencies, (2 sum alpha_i m_i, 2 sum alpha_i n_i)."""
    m2 = sum(idx.m2 * power for idx, power in spec.factors)
    n2 = sum(idx.n2 * power for idx, power in spec.factors)
    return (m2, n2)


# fuzz-verify's rounds on its eight fuzz seeds read out at 34 lengths, none above 41.  An entry at length n holds
# n ints of about 1.44 n bits, so a full cache at lengths up to 128 stays under 1 MB.
READ_OUT_CACHE_SIZE = 128


@functools.lru_cache(maxsize=READ_OUT_CACHE_SIZE)
def _read_out_weights(n: int) -> Tuple[int, Tuple[int, ...]]:
    """(L, (L // 1, ..., L // n)) with L = lcm(1, ..., n): sum_j c_j / (j + 1) over one denominator."""
    denom = lcm(*range(1, n + 1))
    return denom, tuple(denom // (j + 1) for j in range(n))


def u_integral(coeffs: Sequence[int], scale: int = 1) -> Fraction:
    """integral_0^1 sum_j coeffs[j] u^j du / scale, that is sum_j coeffs[j] / (j + 1) / scale."""
    denom, weights = _read_out_weights(len(coeffs))
    return Fraction(sum(map(mul, coeffs, weights)), denom * scale)


def integrate_product(spec: ProductSpec) -> RadicalScalar:
    """Exact Haar integral of prod_i t[l_i,m_i,n_i]^alpha_i.

    Total function: products failing the frequency filter integrate to exact
    zero.  Survivors are real (empty imaginary part).
    """
    if frequency_of(spec) != (0, 0):
        return RadicalScalar.zero()

    # zero frequency makes the phase i^(N - M) 1 and the parity sums C, S even; a factor's
    # c (s) parity is bit 1 of 2m + 2n (2m - 2n), so c2 = 2C, s2 = 2S; c^2 = 1 - u, s^2 = u
    c2 = sum(power * ((idx.m2 + idx.n2) & 2) for idx, power in spec.factors)
    s2 = sum(power * ((idx.m2 - idx.n2) & 2) for idx, power in spec.factors)
    radicand = denom = 1
    factors = [([1, -1], c2 // 4)]
    for idx, power in spec.factors:
        form = theta_restriction(idx)
        radicand *= form.radicand ** power
        denom *= form.denom ** power
        factors.append((form.poly, power))
    poly = [0] * (s2 // 4) + _kernel.poly_product(factors)
    return RadicalScalar.from_terms(real=[(u_integral(poly, denom), radicand)])
