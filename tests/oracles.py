"""Reference oracles the tests compare the package against.

None of these is reached by a command or by another library function; each
is an independent route to a value the package computes another way:

* `legendre_poly`: Legendre coefficients by the three-term recurrence, for
  the diagonal elements t[l,0,0](a(theta)) = P_l(cos theta);
* `TrigPolynomial` and `monomial_theta_integral`: polynomials in
  c = cos(theta/2), s = sin(theta/2) with RadicalScalar coefficients, built
  on the (c, s) view `matrix_element_trigpoly`, and the closed-form theta
  integral of c^a s^b, for the (c, s) route to `integrate_product`;
* `wigner_u_form`: the u-form of an element expanded from the same (c, s)
  view, for the exact check of the record `theta_restriction`;
* `conjugate_index`: the conjugation identity on indices, for the symmetry
  tests of `power_scan`;
* `gaussian_mul` and `gaussian_pow`: exact products and powers of Gaussian
  rationals, for the multinomial sums that check `power_scan`;
* `dense_convolve` and `dense_vec_pow`: the schoolbook coefficient loop, for
  the packed product `_kernel.poly_product` and its views `convolve` and
  `vec_pow`;
* `weyl_power_integrals`: integral(f^P) of a class function by the Weyl
  integration formula, a power of a one-variable Laurent polynomial, for
  deep scans of `power_scan`;
* `parse_value`: a printed exact value read back without the package, for
  the CLI tests that compare output with a value written out by hand;
* numeric group matrices: Haar sampling, the 2x2 matrix of Euler angles and
  back, spin-l representation matrices built on `eval_matrix_element`, and
  the homomorphism check T(g1) T(g2) = T(g1 g2).
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction
from re import fullmatch
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from su2haar.numeric import EulerAngles, eval_matrix_element
from su2haar.powers import GaussianRational
from su2haar.scalars import RadicalScalar
from su2haar.wigner import MatrixElementIndex, matrix_element_trigpoly


@functools.lru_cache(maxsize=None)
def legendre_poly(l: int) -> Tuple[Fraction, ...]:
    """Coefficients of the Legendre polynomial P_l (P_l(1) = 1), ascending powers."""
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {l!r}")
    p_prev, p_cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if l == 0:
        return tuple(p_prev)
    for n in range(1, l):
        # (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
        nxt = [Fraction(0)] * (n + 2)
        for j, c in enumerate(p_cur):
            nxt[j + 1] += Fraction(2 * n + 1, n + 1) * c
        for j, c in enumerate(p_prev):
            nxt[j] -= Fraction(n, n + 1) * c
        p_prev, p_cur = p_cur, nxt
    return tuple(p_cur)


def conjugate_index(idx: MatrixElementIndex) -> Tuple[int, MatrixElementIndex]:
    """Conjugation identity: conj(t[l,m,n]) = sign * t[l,-m,-n] with sign = (-1)**(m-n)."""
    sign = -1 if ((idx.m2 - idx.n2) // 2) % 2 else 1
    return sign, MatrixElementIndex(idx.l2, -idx.m2, -idx.n2)


class TrigPolynomial:
    """Polynomial in c = cos(theta/2), s = sin(theta/2) with RadicalScalar coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], RadicalScalar] = ()):
        data = {}
        for (p, q), coeff in dict(terms).items():
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent in trig monomial ({p},{q})")
            if not coeff.is_zero():
                data[(p, q)] = coeff
        self._terms = data

    @staticmethod
    def element(idx: MatrixElementIndex) -> "TrigPolynomial":
        """t[l,m,n](a(theta)) from its (c, s) view `matrix_element_trigpoly`."""
        return TrigPolynomial(matrix_element_trigpoly(idx))

    @staticmethod
    def zero() -> "TrigPolynomial":
        return TrigPolynomial()

    @staticmethod
    def constant(value: RadicalScalar) -> "TrigPolynomial":
        return TrigPolynomial({(0, 0): value})

    @property
    def terms(self) -> Dict[Tuple[int, int], RadicalScalar]:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = data.get(mono, RadicalScalar.zero()) + coeff
            if acc.is_zero():
                data.pop(mono, None)
            else:
                data[mono] = acc
        return TrigPolynomial(data)

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        data: dict = {}
        for (p1, q1), c1 in self._terms.items():
            for (p2, q2), c2 in other._terms.items():
                mono = (p1 + p2, q1 + q2)
                acc = data.get(mono, RadicalScalar.zero()) + c1 * c2
                if acc.is_zero():
                    data.pop(mono, None)
                else:
                    data[mono] = acc
        return TrigPolynomial(data)

    def __pow__(self, exponent: int) -> "TrigPolynomial":
        if exponent < 0:
            raise ValueError("negative power of a TrigPolynomial")
        result = TrigPolynomial.constant(RadicalScalar.one())
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, factor: RadicalScalar) -> "TrigPolynomial":
        return TrigPolynomial({mono: coeff * factor for mono, coeff in self._terms.items()})

    def conjugate(self) -> "TrigPolynomial":
        return TrigPolynomial({mono: coeff.conjugate() for mono, coeff in self._terms.items()})

    def eliminate_sin(self) -> Dict[int, RadicalScalar]:
        """Substitute s**2 = 1 - c**2; requires every s-exponent to be even.

        Returns the resulting univariate polynomial in c as exponent -> coefficient.
        """
        out: Dict[int, RadicalScalar] = {}
        for (p, q), coeff in self._terms.items():
            if q % 2:
                raise ValueError(f"odd sin exponent {q}; substitution needs even powers")
            h = q // 2
            for j in range(h + 1):
                sign = -1 if j % 2 else 1
                binom = Fraction(sign * math.factorial(h), math.factorial(j) * math.factorial(h - j))
                e = p + 2 * j
                acc = out.get(e, RadicalScalar.zero()) + coeff * RadicalScalar.from_rational(binom)
                if acc.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = acc
        return out


def wigner_u_form(idx: MatrixElementIndex) -> Tuple[int, int, Tuple[int, ...]]:
    """(radicand, denom, poly) of t[l,m,n](a(theta)) from its (c, s) view, in lowest terms.

    Each coefficient loses the phase i^(n-m), and c^p s^q becomes
    c^(p%2) s^(q%2) (1-u)^(p//2) u^(q//2), summed over one common denominator.
    """
    undo_phase = (idx.m2 - idx.n2) // 2
    radicands, terms = set(), []
    for (p, q), coeff in matrix_element_trigpoly(idx).items():
        real = coeff.times_i_power(undo_phase)
        assert not real.imag_terms()
        ((radicand, rational),) = real.real_terms()
        radicands.add(radicand)
        terms.append((p // 2, q // 2, rational))
    (radicand,) = radicands
    denom = math.lcm(*(rational.denominator for _, _, rational in terms))
    poly = [0] * (idx.l2 // 2 + 1)
    for a, b, rational in terms:
        scaled = rational.numerator * (denom // rational.denominator)
        for j in range(a + 1):
            poly[b + j] += -scaled * math.comb(a, j) if j % 2 else scaled * math.comb(a, j)
    g = math.gcd(denom, *poly)
    return radicand, denom // g, tuple(x // g for x in poly)


def monomial_theta_integral(c_exp: int, s_exp: int) -> Fraction:
    """Exact value of integral_0^pi c^a s^b sin(theta) d(theta) for even a, b.

    Equals 2 * (a/2)! * (b/2)! / ((a+b)/2 + 1)! by the substitution
    u = sin(theta/2)^2.
    """
    if c_exp < 0 or s_exp < 0:
        raise ValueError(f"exponents must be nonnegative, got ({c_exp}, {s_exp})")
    if c_exp % 2 or s_exp % 2:
        raise ValueError(f"odd exponent in theta integral ({c_exp}, {s_exp})")
    half_a, half_b = c_exp // 2, s_exp // 2
    fact = math.factorial
    return Fraction(2 * fact(half_a) * fact(half_b), fact(half_a + half_b + 1))


def gaussian_mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gaussian_pow(a: GaussianRational, n: int) -> GaussianRational:
    """Exact binary exponentiation over Gaussian rationals."""
    if n < 0:
        raise ValueError("negative power")
    result = (Fraction(1), Fraction(0))
    while n:
        if n & 1:
            result = gaussian_mul(result, a)
        a = gaussian_mul(a, a)
        n >>= 1
    return result


def dense_convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two dense integer coefficient vectors, one coefficient pair at a time."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def dense_vec_pow(v: Sequence[int], p: int) -> List[int]:
    """p-th convolution power of v by p dense products from [1] (p = 0 gives [1])."""
    result = [1]
    for _ in range(p):
        result = dense_convolve(result, v)
    return result


def weyl_power_integrals(chars: Sequence[Tuple[int, GaussianRational]], pmax: int) -> List[RadicalScalar]:
    """[integral(f^P) for P = 1..pmax] of the class function f = sum_l a_l chi_l.

    `chars` holds pairs (l2, a_l): twice a spin and a Gaussian-rational
    coefficient.  On the torus chi_l = sum_m t[l,m,m] is sum_m w^(2m), and the
    Weyl integration formula gives integral(f^P) = 1/2 CT[F(w)^P (2 - w^2 - w^-2)]
    with F(w) = sum_l a_l sum_m w^(2m).  F is a list of Gaussian-integer pairs
    (re, im) over one denominator `den`, index e + lmax holding w^e, and F^P is
    built by P schoolbook products; no u-form, state, pruning or radicand.
    """
    den = math.lcm(*(Fraction(x).denominator for _, a in chars for x in a))
    lmax = max(l2 for l2, _ in chars)
    base = [(0, 0)] * (2 * lmax + 1)
    for l2, a in chars:
        re, im = (int(Fraction(x) * den) for x in a)
        for e in range(-l2, l2 + 1, 2):
            base[e + lmax] = (base[e + lmax][0] + re, base[e + lmax][1] + im)
    values, power = [], [(1, 0)]            # F^0, w^0 at index 0
    for p in range(1, pmax + 1):
        out = [(0, 0)] * (len(power) + 2 * lmax)
        for i, (pr, pi) in enumerate(power):
            for j, (br, bi) in enumerate(base):
                re, im = out[i + j]
                out[i + j] = (re + pr * br - pi * bi, im + pr * bi + pi * br)
        power = out                          # w^e at index e + p * lmax
        at = lambda e: power[e + p * lmax] if 0 <= e + p * lmax < len(power) else (0, 0)
        ct = [2 * at(0)[k] - at(2)[k] - at(-2)[k] for k in (0, 1)]
        values.append(RadicalScalar.from_terms(real=[(Fraction(ct[0], 2 * den ** p), 1)],
                                               imag=[(Fraction(ct[1], 2 * den ** p), 1)]))
    return values


def parse_value(obj: Mapping) -> Dict[int, Tuple[Fraction, Fraction]]:
    """The map radicand -> (re, im) of a value as `to_json` prints it, each "p" or "p/q" read through Decimal,
    which has no 4 300-digit limit.  Each part's radicands must ascend strictly and no coefficient may be zero."""
    out: Dict[int, Tuple[Fraction, Fraction]] = {}
    for part in ("real", "imag"):
        radicands = [term["radicand"] for term in obj[part]]
        assert radicands == sorted(set(radicands)), (part, radicands)
        for term in obj[part]:
            assert fullmatch(r"-?[0-9]+(/[0-9]+)?", term["coeff"]), (part, term)
            num, _, den = term["coeff"].partition("/")
            coeff = Fraction(int(Decimal(num)), int(Decimal(den or "1")))
            assert coeff, (part, term)
            real, imag = out.get(term["radicand"], (Fraction(0), Fraction(0)))
            out[term["radicand"]] = (coeff, imag) if part == "real" else (real, coeff)
    return out


def sample_haar(rng: np.random.Generator) -> EulerAngles:
    """One Haar-distributed coordinate triple (density sin(theta) in theta)."""
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    psi = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    theta = float(np.arccos(1.0 - 2.0 * rng.uniform(0.0, 1.0)))
    return EulerAngles(phi, theta, psi)


def representation_matrix(l2: int, g: EulerAngles) -> np.ndarray:
    """Matrix of all t[l,m,n](g) at spin l = l2/2; rows and columns ordered m, n = l, l-1, ..., -l."""
    spins2 = range(l2, -l2 - 1, -2)
    return np.array(
        [[eval_matrix_element(MatrixElementIndex(l2, m2, n2), g) for n2 in spins2] for m2 in spins2]
    )


def group_matrix(g: EulerAngles) -> np.ndarray:
    """The 2x2 special-unitary matrix k(phi) a(theta) k(psi)."""
    c = math.cos(g.theta / 2.0)
    s = math.sin(g.theta / 2.0)
    k1 = np.array([[np.exp(0.5j * g.phi), 0], [0, np.exp(-0.5j * g.phi)]])
    a = np.array([[c, 1j * s], [1j * s, c]])
    k2 = np.array([[np.exp(0.5j * g.psi), 0], [0, np.exp(-0.5j * g.psi)]])
    return k1 @ a @ k2


def _wrap_psi(psi: float) -> float:
    return (psi + 2.0 * math.pi) % (4.0 * math.pi) - 2.0 * math.pi


def euler_from_matrix(u: np.ndarray, eps: float = 1e-12) -> EulerAngles:
    """Euler coordinates of a 2x2 special-unitary matrix.

    The factorization is non-unique at theta in {0, pi}; there the branch puts
    the whole phase on psi.  Generic phi lands in [0, 2pi), psi in [-2pi, 2pi).
    """
    absc = abs(u[0, 0])
    abss = abs(u[1, 0])
    theta = 2.0 * math.atan2(abss, absc)
    if abss <= eps:
        return EulerAngles(0.0, 0.0, _wrap_psi(2.0 * np.angle(u[0, 0])))
    if absc <= eps:
        # with phi = 0: u[1,0] = i exp(i psi / 2)
        return EulerAngles(0.0, math.pi, _wrap_psi(2.0 * np.angle(u[1, 0]) - math.pi))
    total = 2.0 * np.angle(u[0, 0])          # phi + psi
    diff = 2.0 * np.angle(u[0, 1]) - math.pi  # phi - psi
    phi = (total + diff) / 2.0
    psi = (total - diff) / 2.0
    shift = math.floor(phi / (2.0 * math.pi))
    phi -= shift * 2.0 * math.pi              # into [0, 2pi)
    psi += shift * 2.0 * math.pi              # k(phi+2pi) = -k(phi) pairs with k(psi-2pi)
    return EulerAngles(phi, theta, _wrap_psi(psi))


def compose_and_check(l2: int, g1: EulerAngles, g2: EulerAngles, tol: float) -> bool:
    """Check T(g1) T(g2) = T(g1 g2) at spin l = l2/2 within tol (max-abs entrywise)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    g12 = euler_from_matrix(group_matrix(g1) @ group_matrix(g2))
    lhs = representation_matrix(l2, g1) @ representation_matrix(l2, g2)
    rhs = representation_matrix(l2, g12)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)
