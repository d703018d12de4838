"""Correctness oracles built apart from su2haar.

Nothing here imports the package under test.  The oracles are:

* a float Haar quadrature on a product grid that is exact for the
  frequencies and degrees of the integrand, built on this module's own
  Wigner-d function;
* exact parsing and i^k rotation of the CLI's radical-rational JSON values;
* an exact rational test of origin membership in a convex hull (angular gap
  between support directions), a separating direction derived from it, and
  the least vanishing threshold P0 computed from that test;
* exact checks of hull certificates.

`self_test` checks the quadrature against known values (Schur pairings
1/(2l+1), Legendre moments, the spin-1/2 matrix of a(theta)) before a run
trusts it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Exact = Tuple[Dict[int, Fraction], Dict[int, Fraction]]
Point = Tuple[int, int]          # twice-coordinates (2m, 2n)


class Mismatch(Exception):
    """An output disagrees with an oracle."""


# ---- exact values -----------------------------------------------------------

def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return n >= 1


def parse_exact(obj) -> Exact:
    """Read {"real": [...], "imag": [...]} and check its canonical form."""
    parts = []
    for side in ("real", "imag"):
        terms: Dict[int, Fraction] = {}
        last = 0
        for term in obj[side]:
            r = term["radicand"]
            c = Fraction(term["coeff"])
            if not (isinstance(r, int) and r > last and _squarefree(r)):
                raise Mismatch(f"non-canonical radicand {r!r} in {obj}")
            if c == 0 or str(c) != term["coeff"]:
                raise Mismatch(f"non-canonical coefficient {term['coeff']!r} in {obj}")
            terms[r] = c
            last = r
        parts.append(terms)
    return parts[0], parts[1]


def exact_complex(v: Exact) -> complex:
    re = math.fsum(float(c) * math.sqrt(r) for r, c in v[0].items())
    im = math.fsum(float(c) * math.sqrt(r) for r, c in v[1].items())
    return complex(re, im)


def rotate(v: Exact, k: int) -> Exact:
    """v * i^k, exactly."""
    re, im = v
    k %= 4
    if k == 0:
        return re, im
    if k == 1:
        return {r: -c for r, c in im.items()}, dict(re)
    if k == 2:
        return {r: -c for r, c in re.items()}, {r: -c for r, c in im.items()}
    return dict(im), {r: -c for r, c in re.items()}


def is_zero(v: Exact) -> bool:
    return not v[0] and not v[1]


# ---- Wigner-d and the Haar quadrature ---------------------------------------

def wigner_d(l2: int, m2: int, n2: int, theta: np.ndarray) -> np.ndarray:
    """Real Wigner d^l_{mn}(theta) from the explicit factorial sum (twice-indices)."""
    lpm, lmm, lpn, lmn = (l2 + m2) // 2, (l2 - m2) // 2, (l2 + n2) // 2, (l2 - n2) // 2
    mn = (m2 - n2) // 2
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    norm = math.sqrt(math.factorial(lpm) * math.factorial(lmm) * math.factorial(lpn) * math.factorial(lmn))
    out = np.zeros_like(theta)
    for k in range(max(0, -mn), min(lpn, lmm) + 1):
        den = math.factorial(lpn - k) * math.factorial(k) * math.factorial(mn + k) * math.factorial(lmm - k)
        sign = -1.0 if (mn + k) % 2 else 1.0
        out = out + sign * norm / den * c ** (l2 - mn - 2 * k) * s ** (mn + 2 * k)
    return out


Term = Tuple[int, int, int, complex]     # (2l, 2m, 2n, coefficient)


class HaarGrid:
    """Product grid exact for integrands with |2M|, |2N| <= freq2 and degree <= degree.

    phi and psi run over [0, 4pi) with K = freq2 + 1 equal steps, so the
    grid mean of exp(-i(M phi + N psi)) is exactly [M = N = 0] for every
    half-integer M, N in range.  What survives is a polynomial of degree
    degree/2 in x = cos(theta), integrated against dx/2 by Gauss-Legendre.
    """

    def __init__(self, freq2: int, degree: int):
        k = freq2 + 1
        nodes, weights = np.polynomial.legendre.leggauss(degree // 4 + 2)
        self.theta = np.arccos(nodes)[:, None, None]
        angles = 4.0 * math.pi * np.arange(k) / k
        self.phi = angles[None, :, None]
        self.psi = angles[None, None, :]
        self.weights = (weights / 2.0)[:, None, None] / (k * k)

    def element(self, l2: int, m2: int, n2: int) -> np.ndarray:
        """t[l,m,n](k(phi) a(theta) k(psi)) = exp(-i m phi) i^(n-m) d(theta) exp(-i n psi)."""
        phase = 1j ** (((n2 - m2) // 2) % 4)
        return (np.exp(-0.5j * m2 * self.phi) * (phase * wigner_d(l2, m2, n2, self.theta))
                * np.exp(-0.5j * n2 * self.psi))

    def function(self, terms: Sequence[Term]) -> np.ndarray:
        return sum(coeff * self.element(l2, m2, n2) for l2, m2, n2, coeff in terms)

    def integrate(self, values: np.ndarray) -> Tuple[complex, float]:
        """Integral and the integral of |values|, the scale of its rounding error."""
        return complex(np.sum(self.weights * values)), float(np.sum(self.weights * np.abs(values)))


def grid_for(terms: Sequence[Term], pmax: int, extra: Sequence[Tuple[int, int, int]] = ()) -> HaarGrid:
    freq = pmax * max(max(abs(m2), abs(n2)) for _, m2, n2, _ in terms)
    degree = pmax * max(l2 for l2, _, _, _ in terms)
    for l2, m2, n2 in extra:
        freq += max(abs(m2), abs(n2))
        degree += l2
    return HaarGrid(freq, degree)


def power_quadrature(terms: Sequence[Term], pmax: int, witness=None) -> List[Tuple[complex, float]]:
    """(integral, scale) of f^P (times t[witness]) for P = 1..pmax."""
    grid = grid_for(terms, pmax, [witness] if witness else [])
    f = grid.function(terms)
    acc = grid.element(*witness) if witness else np.ones_like(f)
    out = []
    for _ in range(pmax):
        acc = acc * f
        out.append(grid.integrate(acc))
    return out


def product_quadrature(factors: Sequence[Tuple[int, int, int, int]]) -> Tuple[complex, float]:
    """(integral, scale) of prod t[l,m,n]^power over ((2l, 2m, 2n, power), ...)."""
    freq = sum(p * max(abs(m2), abs(n2)) for _, m2, n2, p in factors)
    grid = HaarGrid(freq, sum(p * l2 for l2, _, _, p in factors))
    acc = 1.0
    for l2, m2, n2, p in factors:
        acc = acc * grid.element(l2, m2, n2) ** p
    return grid.integrate(acc)


QUAD_RTOL = 1e-9


def check_close(exact: Exact, quad: Tuple[complex, float], what: str) -> None:
    value, scale = quad
    if abs(exact_complex(exact) - value) > QUAD_RTOL * scale + 1e-300:
        raise Mismatch(f"{what}: exact {exact_complex(exact)!r} but quadrature {value!r} (scale {scale:.3g})")


# ---- rational hull geometry --------------------------------------------------

def _cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _direction(p: Point) -> Point:
    g = math.gcd(p[0], p[1])
    return (p[0] // g, p[1] // g)


def _angle_order(a: Point, b: Point) -> int:
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    return -1 if _cross(a, b) > 0 else (1 if _cross(a, b) < 0 else 0)


def separating_direction(points: Iterable[Point]) -> Optional[Point]:
    """None when the origin lies in the closed hull, else an integer d with d.p > 0 on every point.

    The origin is outside iff the support directions, sorted by angle, leave
    a gap wider than pi.  The cone they span then has width below pi, and
    the sum of its edge directions, each turned a right angle inwards, has a
    positive dot product with every point in it.
    """
    dirs = set()
    for p in points:
        if p == (0, 0):
            return None
        dirs.add(_direction(p))
    order = sorted(dirs, key=cmp_to_key(_angle_order))
    if len(order) == 1:
        return order[0]
    for u, v in zip(order, order[1:] + order[:1]):
        if _cross(u, v) < 0:          # counterclockwise gap from u to v exceeds pi
            return (-v[1] + u[1], v[0] - u[0])
    return None


def origin_inside(points: Iterable[Point]) -> bool:
    return separating_direction(points) is None


def least_threshold(points: Sequence[Point], witness: Point) -> int:
    """Least P0 >= 1 with (-a, -b) outside P * conv(points) for every integer P >= P0.

    (-a, -b) lies in P * conv(S) iff the origin lies in conv(P*S + (a, b)).
    With d separating S, that needs d.(-a, -b) >= P * min d.s, which bounds
    the P worth testing.
    """
    d = separating_direction(points)
    if d is None:
        raise ValueError("origin inside the hull")
    reach = -(d[0] * witness[0] + d[1] * witness[1])
    floor_dot = min(d[0] * x + d[1] * y for x, y in points)
    for p in range(reach // floor_dot, 0, -1):
        if origin_inside([(p * x + witness[0], p * y + witness[1]) for x, y in points]):
            return p + 1
    return 1


def check_certificate(hull: dict, points: Sequence[Tuple[Fraction, Fraction]]) -> None:
    """Exact check of a `hull` envelope body against its support points."""
    if hull["origin_inside"]:
        w = [Fraction(x) for x in hull["weights"]]
        if len(w) != len(points) or any(x < 0 for x in w) or sum(w) != 1:
            raise Mismatch(f"weights {hull['weights']} are not convex weights over {len(points)} points")
        if sum(x * p[0] for x, p in zip(w, points)) != 0 or sum(x * p[1] for x, p in zip(w, points)) != 0:
            raise Mismatch("convex weights do not hit the origin")
    else:
        sep = hull["separator"]
        u, v, bound = Fraction(sep["u"]), Fraction(sep["v"]), Fraction(sep["min_dot"])
        if bound <= 0 or any(u * m + v * n < bound for m, n in points):
            raise Mismatch(f"separator {sep} does not separate the support")


# ---- self test ----------------------------------------------------------------

def _legendre_moment(l: int, power: int) -> Fraction:
    """(1/2) * integral_{-1}^{1} P_l(x)^power dx by exact polynomial arithmetic."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for n in range(1, l):
        nxt = [Fraction(0)] * (n + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += Fraction(2 * n + 1, n + 1) * c
        for j, c in enumerate(prev):
            nxt[j] -= Fraction(n, n + 1) * c
        prev, cur = cur, nxt
    poly = prev if l == 0 else cur
    acc = [Fraction(1)]
    for _ in range(power):
        out = [Fraction(0)] * (len(acc) + len(poly) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(poly):
                out[i + j] += a * b
        acc = out
    return sum((c / (j + 1) for j, c in enumerate(acc) if j % 2 == 0), Fraction(0))


def self_test() -> None:
    """Check the quadrature against values known in closed form."""
    for l2 in range(0, 5):
        for m2 in range(-l2, l2 + 1, 2):
            for n2 in range(-l2, l2 + 1, 2):
                # t * conj(t) = t[l,m,n] * (-1)^(m-n) t[l,-m,-n]; its integral is 1/(2l+1)
                sign = -1 if ((m2 - n2) // 2) % 2 else 1
                value, _ = product_quadrature([(l2, m2, n2, 1), (l2, -m2, -n2, 1)])
                if abs(sign * value - 1.0 / (l2 + 1)) > 1e-12:
                    raise Mismatch(f"Schur pairing at 2l={l2}, 2m={m2}, 2n={n2}: {value}")
    known = {(1, 2): Fraction(1, 3), (2, 2): Fraction(1, 5), (2, 3): Fraction(2, 35)}
    for (l, power), want in known.items():
        if _legendre_moment(l, power) != want:
            raise Mismatch(f"Legendre moment P_{l}^{power}")
    for l in range(0, 4):
        for power in range(1, 6):
            value, _ = product_quadrature([(2 * l, 0, 0, power)])
            if abs(value - float(_legendre_moment(l, power))) > 1e-12:
                raise Mismatch(f"quadrature of P_{l}^{power}: {value}")
    theta = np.array([0.7])
    c, s = math.cos(0.35), math.sin(0.35)
    spin_half = [[wigner_d(1, m2, n2, theta)[0] * 1j ** (((n2 - m2) // 2) % 4) for n2 in (1, -1)] for m2 in (1, -1)]
    if not np.allclose(spin_half, [[c, 1j * s], [1j * s, c]], atol=1e-15):
        raise Mismatch(f"spin-1/2 matrix of a(theta): {spin_half}")
    if origin_inside([(2, 1), (3, -1)]) or not origin_inside([(2, 2), (-1, -1), (4, 0)]):
        raise Mismatch("hull test on known supports")
    if least_threshold([(2, 0)], (-4, 0)) != 3 or least_threshold([(2, 0)], (4, 0)) != 1:
        raise Mismatch("threshold on a one-point support")
