"""Matrix elements of SU(2) irreducibles restricted to the rotation subgroup.

The spin-l irreducible has dimension 2l+1 and its (m, n) entry, evaluated on
the one-parameter subgroup

    a(theta) = [[cos(theta/2), i sin(theta/2)], [i sin(theta/2), cos(theta/2)]],

is an exact homogeneous polynomial of degree 2l in c = cos(theta/2) and
s = sin(theta/2).  The convention used throughout the package is

    t[l, m, n](a(theta)) = i**(n-m) * d[l, m, n](theta)

with the standard real d-function

    d[l, m, n](theta) = sqrt((l+m)!(l-m)!(l+n)!(l-n)!)
        * sum_k (-1)**(m-n+k) / ((l+n-k)! k! (m-n+k)! (l-m-k)!)
        * c**(2l+n-m-2k) * s**(m-n+2k),

k running over max(0, n-m) <= k <= min(l+n, l-m).  Together with the left and
right one-parameter phase laws

    t[l, m, n](k(phi) g) = exp(-i m phi) t[l, m, n](g)
    t[l, m, n](g k(psi)) = exp(-i n psi) t[l, m, n](g)

this pins the phase convention completely: at l = 1/2 the matrix of t over
a(theta) reproduces a(theta) itself (rows ordered m = +1/2, -1/2), and the
diagonal entries t[l, 0, 0](a(theta)) equal the Legendre polynomial
P_l(cos theta) (the tests check both against their own oracles in
`tests/oracles.py`).

`MatrixElementIndex` holds the label as the twice-values (2l, 2m, 2n), plain
ints; `MatrixElementIndex.of` and `from_json` parse half-integer input with
`scalars.parse_half`, and `to_json` and `str` write it back with `half_str`.

`theta_restriction` returns the one exact record of an element, its expansion in u = s**2,

    t[l, m, n](a(theta)) = i**(n-m) * sqrt(r) * c**eps * s**delta * q(u),

with r squarefree and q an integer polynomial over one denominator, in lowest
terms.  It is built from the Jacobi form of d (Edmonds 1957, (4.1.23)), not
from the sum above.  The phase i**(n-m) and the parities eps, delta (bit 1 of
2m + 2n and of 2m - 2n) are read off (m, n), not stored.  The integration
engines (`integrate_product`, `power_scan`) compute with the u-form and need
no phase, since a balanced product has phase 1.  `matrix_element_trigpoly`
sums the formula above into (c, s) terms with RadicalScalar coefficients and
never reads the record; the tests build their independent (c, s) product
route on it and check the record against its u-expansion.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, prod
from typing import Dict, NamedTuple, Tuple

from .scalars import RadicalScalar, half_str, parse_half, radical_normalize


# Twice the largest spin an index may carry, 500.  The exact record's loop runs about l^2/4 times: it
# takes 0.02 s at spin 500, 0.14 s at spin 1000 and 0.9 s at spin 2000, and a spin of 10^23 never ends;
# to spin 511 every float Jacobi prefactor and polynomial of `numeric` fits a double.
MAX_L2 = 1000


class MatrixElementIndex(namedtuple("MatrixElementIndex", "l2 m2 n2")):
    """Label (l, m, n) of one matrix element, held as twice-values (2l, 2m, 2n).

    m and n run over -l, -l+1, ..., l, and l is at most 500 (`MAX_L2`).  A
    tuple record of the three ints: equality, hashing and ordering all
    compare the tuple (l2, m2, n2).
    """

    __slots__ = ()

    def __new__(cls, l2, m2, n2):
        if not all(type(x) is int for x in (l2, m2, n2)):
            raise TypeError("index components must be twice-value ints")
        if l2 < 0:
            raise ValueError(f"spin must be nonnegative, got l={half_str(l2)}")
        if l2 > MAX_L2:
            raise ValueError(f"spin must be at most {half_str(MAX_L2)}, got l={half_str(l2)}")
        if abs(m2) > l2 or abs(n2) > l2:
            rule = "|m|,|n| must not exceed l"
        elif (l2 - m2) % 2 or (l2 - n2) % 2:
            rule = "l-m and l-n must be integers"
        else:
            return super().__new__(cls, l2, m2, n2)
        raise ValueError(f"{rule}: l={half_str(l2)}, m={half_str(m2)}, n={half_str(n2)}")

    @staticmethod
    def of(l, m, n) -> "MatrixElementIndex":
        """Build from half-integers given as ints, Fractions or text (see `parse_half`)."""
        return MatrixElementIndex(parse_half(l), parse_half(m), parse_half(n))

    @staticmethod
    def from_json(obj, where: str) -> "MatrixElementIndex":
        """Read an {"l", "m", "n"} object of ints or half-integer strings; errors start with `where`."""
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected an object with fields l, m, n")
        for key in ("l", "m", "n"):
            if key not in obj:
                raise ValueError(f"{where}: missing field {key!r}")
            if not isinstance(obj[key], (int, str)) or isinstance(obj[key], bool):
                raise ValueError(f"{where}.{key} must be a string such as \"1/2\" or an integer")
        try:
            return MatrixElementIndex.of(obj["l"], obj["m"], obj["n"])
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None

    def to_json(self) -> dict:
        return {"l": half_str(self.l2), "m": half_str(self.m2), "n": half_str(self.n2)}

    def __str__(self) -> str:
        return "t[{l},{m},{n}]".format(**self.to_json())


class ThetaRestriction(NamedTuple):
    """Exact u-form of t[l,m,n](a(theta)), in lowest terms.

    t[l,m,n](a(theta)) = i^(n-m) * sqrt(radicand) * c^eps * s^delta * sum_j poly[j] u^j / denom,
    eps and delta being bit 1 of 2m + 2n and of 2m - 2n; the phase and the
    parities are read off the index, not stored.
    """

    radicand: int               # squarefree
    denom: int                  # positive, coprime to the gcd of poly
    poly: Tuple[int, ...]       # integer u-polynomial with floor(l) + 1 coefficients


# One CLI call reads only the records of the indices in its input and witness:
# fuzz at --lmax 2 draws from 55 indices, verify stays at spin <= 2, and all
# indices of spin <= 8 number 1 785, so a call on such supports never evicts.
# The bound caps a long-lived process; an evicted record recomputes equal.
THETA_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=THETA_CACHE_SIZE)
def theta_restriction(idx: MatrixElementIndex) -> ThetaRestriction:
    """The u-form of the element, from the Jacobi form of d (Edmonds 1957, (4.1.23)).

    With a = |m-n|, b = |m+n| and k = l - max(|m|, |n|),

        t[l,m,n](a(theta)) = i^a sqrt(C(2l-k, k+a) / C(k+b, b)) s^a c^b P_k^(a,b)(1 - 2u),
        P_k^(a,b)(1 - 2u) = sum_j (-1)^j C(k+a, k-j) C(k+a+b+j, j) u^j.

    i^a is i^(n-m) times (-1)^a when m > n, and s^a c^b is s^delta c^eps u^(a//2) (1-u)^(b//2).
    """
    a, b = abs(idx.m2 - idx.n2) // 2, abs(idx.m2 + idx.n2) // 2
    k = (idx.l2 - max(abs(idx.m2), abs(idx.n2))) // 2
    below = comb(k + b, b)
    scale, radicand = radical_normalize(Fraction(-1 if idx.m2 > idx.n2 and a % 2 else 1, below),
                                        comb(idx.l2 - k, k + a) * below)
    one_minus_u = [(-1) ** i * comb(b // 2, i) for i in range(b // 2 + 1)]
    poly = [0] * (idx.l2 // 2 + 1)
    for j in range(k + 1):
        jacobi = (-1) ** j * comb(k + a, k - j) * comb(k + a + b + j, j)
        for i, w in enumerate(one_minus_u, a // 2 + j):
            poly[i] += jacobi * w
    content = gcd(*poly)
    scale *= content
    return ThetaRestriction(radicand, scale.denominator, tuple(scale.numerator * (x // content) for x in poly))


def matrix_element_trigpoly(idx: MatrixElementIndex) -> Dict[Tuple[int, int], RadicalScalar]:
    """The (c, s) terms of t[l,m,n](a(theta)) as {(c_exp, s_exp): coeff}: the Wigner sum of the module
    docstring, phase i^(n-m) and radicand folded in."""
    l2, m2, n2 = idx.l2, idx.m2, idx.n2
    lpn, lmm = (l2 + n2) // 2, (l2 - m2) // 2
    mn = (m2 - n2) // 2         # m - n, an integer
    root_scale, radicand = radical_normalize(Fraction(1), prod(factorial((l2 + x) // 2) for x in (m2, -m2, n2, -n2)))
    terms = {}
    for k in range(max(0, -mn), min(lpn, lmm) + 1):
        coeff = root_scale / (factorial(lpn - k) * factorial(k) * factorial(mn + k) * factorial(lmm - k))
        terms[l2 - mn - 2 * k, mn + 2 * k] = RadicalScalar.from_terms(
            real=[(-coeff if (mn + k) % 2 else coeff, radicand)]).times_i_power(-mn)
    return terms
