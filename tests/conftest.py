"""Shared builders and independent oracles for the test suite (see also oracles.py)."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import su2haar
from oracles import TrigPolynomial, gaussian_mul, gaussian_pow, group_matrix, monomial_theta_integral
from su2haar.integrals import ProductSpec, frequency_of, integrate_product
from su2haar.powers import FiniteFunction, enumerate_balanced_compositions
from su2haar.scalars import RadicalScalar, parse_half
from su2haar.wigner import MatrixElementIndex


def run_capped(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a child Python under a 256 MB address-space cap and a 10 s timeout.

    A call that would build a huge integer or loop for ever then fails the
    test instead of stalling the suite.
    """
    cap = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
    src = str(pathlib.Path(su2haar.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", cap + textwrap.dedent(script)], capture_output=True, text=True,
                          timeout=10, env=dict(os.environ, PYTHONPATH=path))


def idx(l, m, n) -> MatrixElementIndex:
    return MatrixElementIndex.of(Fraction(l), Fraction(m), Fraction(n))


def pt(m, n) -> tuple:
    """The twice-int point (2m, 2n) of half-integers m, n given as ints or Fractions."""
    return (parse_half(Fraction(m)), parse_half(Fraction(n)))


H = Fraction(1, 2)

# ((l, m, n), coeff) terms of the acceptance instance: k=5, spin 2, support on n = -m, radicand 1
ACCEPTANCE = (
    ((2, 2, -2), (1, 0)),
    ((2, -2, 2), (H, 0)),
    ((2, 1, -1), (0, 1)),
    ((2, -1, 1), (1, 1)),
    ((2, 0, 0), (-2, 0)),
)

# spin 5/2 carrying sqrt(10) and sqrt(2), on a 2-D support with the origin inside
RADICALS_5_2 = (
    ((Fraction(5, 2), Fraction(5, 2), -H), (1, 0)),
    ((Fraction(5, 2), Fraction(-3, 2), H), (0, 1)),
    ((Fraction(5, 2), -H, Fraction(-3, 2)), (-2, 1)),
    ((2, -1, 1), (H, 0)),
)


def product(*entries) -> ProductSpec:
    """ProductSpec from indices or (index, power) pairs."""
    return ProductSpec(tuple((e, 1) if isinstance(e, MatrixElementIndex) else tuple(e) for e in entries))


def ff(*terms) -> FiniteFunction:
    """FiniteFunction from ((l, m, n), coeff) pairs; coeff int/Fraction or (re, im)."""
    return FiniteFunction.from_terms([(t, c) for t, c in terms])


def all_indices(l_max) -> list:
    out = []
    for l2 in range(0, parse_half(Fraction(l_max)) + 1):
        for m2 in range(-l2, l2 + 1, 2):
            for n2 in range(-l2, l2 + 1, 2):
                out.append(MatrixElementIndex(l2, m2, n2))
    return out


# ---------------------------------------------------------------------------
# oracle 1: integrate a product through full TrigPolynomial multiplication
# ---------------------------------------------------------------------------

def integrate_via_trigpoly(spec: ProductSpec, shift=None) -> RadicalScalar:
    """Same integral, assembled through TrigPolynomial products term by term."""
    merged = spec.with_extra(shift)
    if frequency_of(merged) != (0, 0):
        return RadicalScalar.zero()
    poly = TrigPolynomial.constant(RadicalScalar.one())
    for index, power in merged.factors:
        poly = poly * (TrigPolynomial.element(index) ** power)
    total = RadicalScalar.zero()
    for (p, q), coeff in poly.terms.items():
        total = total + coeff * RadicalScalar.from_rational(
            monomial_theta_integral(p, q) / 2
        )
    return total


# ---------------------------------------------------------------------------
# oracle 2: multinomial sums over compositions, with and without the frequency
# filter.  Both share no code with the one-pass engine behind power_scan.
# ---------------------------------------------------------------------------

def all_compositions(k: int, total: int):
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in all_compositions(k - 1, total - head):
            yield (head,) + rest


def _multinomial_sum(f: FiniteFunction, power: int, compositions, h=None) -> RadicalScalar:
    """sum over alpha of multinomial(P; alpha) * prod A_i^alpha_i * integral(prod t_i^alpha_i [* h])."""
    total = RadicalScalar.zero()
    fact = math.factorial
    for alpha in compositions:
        coeff = (Fraction(fact(power)), Fraction(0))
        factors = []
        for (index, a_coeff), a in zip(f.terms, alpha):
            coeff = gaussian_mul(coeff, gaussian_pow(a_coeff, a))
            coeff = (coeff[0] / fact(a), coeff[1] / fact(a))
            if a:
                factors.append((index, a))
        base = integrate_product(ProductSpec(tuple(factors)).with_extra(h))
        if base.is_zero():
            continue
        total = total + base * RadicalScalar.from_gaussian(*coeff)
    return total


def brute_force_power_integral(f: FiniteFunction, power: int, h=None) -> RadicalScalar:
    """Multinomial sum over every composition, no frequency pruning."""
    return _multinomial_sum(f, power, all_compositions(len(f.terms), power), h)


def composition_power_integral(f: FiniteFunction, power: int, h=None) -> RadicalScalar:
    """Multinomial sum over the frequency-balanced compositions the kernel enumerates."""
    target = (0, 0) if h is None else (-h.m2, -h.n2)
    return _multinomial_sum(f, power, enumerate_balanced_compositions(f, power, target), h)


def composition_power_scan(f: FiniteFunction, pmax: int, witness=None):
    """Drop-in for power_scan built on composition_power_integral, one P at a time."""
    return [(p, composition_power_integral(f, p, witness)) for p in range(1, pmax + 1)]


# ---------------------------------------------------------------------------
# oracle 3: numeric spin-l representation from symmetrized Kronecker powers
# ---------------------------------------------------------------------------

def spin_half_rep(g) -> np.ndarray:
    """The 2x2 representation as D conj(U) D^{-1}, built from raw group matrices."""
    u = group_matrix(g)
    d = np.diag([1.0, -1.0])
    return d @ np.conj(u) @ d


def sym_power_rep(l2: int, w: np.ndarray) -> np.ndarray:
    """Spin-(l2/2) matrix of w via the symmetrized Kronecker power, rows m = l..-l."""
    if l2 == 0:
        return np.array([[1.0 + 0j]])
    big = w
    for _ in range(l2 - 1):
        big = np.kron(big, w)
    dim = 2 ** l2
    cols = []
    for ones in range(l2 + 1):
        vec = np.zeros(dim)
        hits = [i for i in range(dim) if bin(i).count("1") == ones]
        for i in hits:
            vec[i] = 1.0
        cols.append(vec / math.sqrt(len(hits)))
    basis = np.array(cols).T
    return basis.T @ big @ basis


# ---------------------------------------------------------------------------
# oracle 4: Caratheodory search for convex weights hitting the origin, O(k^3)
# over Fraction points; shares no code with the monotone chain in su2haar.hull.
# ---------------------------------------------------------------------------

def caratheodory_weights(pts):
    """Convex weights over pts hitting the origin from at most three of them, or None."""
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    k = len(pts)
    zero = Fraction(0)
    for i, p in enumerate(pts):
        if p == (0, 0):
            w = [zero] * k
            w[i] = Fraction(1)
            return w
    for i in range(k):
        for j in range(i + 1, k):
            a, b = pts[i], pts[j]
            if cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] <= 0:
                # origin on segment [a, b]; both endpoints nonzero here
                d = (a[0] - b[0], a[1] - b[1])
                t = Fraction(-b[0]) / d[0] if d[0] else Fraction(-b[1]) / d[1]
                w = [zero] * k
                w[i] = t
                w[j] = 1 - t
                return w
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                a, b, c = pts[i], pts[j], pts[l]
                area = cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1]))
                if area == 0:
                    continue
                d1, d2, d3 = cross(b, c), cross(c, a), cross(a, b)
                if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
                    w = [zero] * k
                    w[i] = Fraction(d1) / area
                    w[j] = Fraction(d2) / area
                    w[l] = Fraction(d3) / area
                    return w
    return None


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
