"""Floating-point Monte Carlo Haar integration and numeric matrix elements.

Everything here is an independent double-precision check on the exact engine:
Haar sampling in Euler coordinates and matrix-element evaluation from the
same pinned phase convention.  The test suite builds its numeric
representation matrices and the 2x2 composition check of every spin on
`eval_matrix_element` (`tests/oracles.py`).

Draws.  `mc_integral` and `mc_scan` draw chunks of `_CHUNK` samples from one
PCG64 stream, in a fixed order per chunk: phi uniform on [0, 2pi), then psi
uniform on [-2pi, 2pi), then U uniform on [0, 1).  U is already
u = sin^2(theta/2) of a Haar-distributed theta = arccos(1 - 2U), so
c = cos(theta/2) = sqrt(1 - U) and s = sin(theta/2) = sqrt(U), with no
inverse cosine.

Blocks.  Each chunk is evaluated in lazily made blocks of `_BLOCK` samples.
A block holds its tables: e^(-i phi/2) and e^(-i psi/2), each from one
tan(-angle/4) by the half-angle formulas, the powers of those and of c and
s, each power one multiplication from the one before (conj for negative
powers), and x = c^2 - s^2 = cos(theta).  An element reads the Jacobi form of
d (Edmonds 1957, (4.1.23), with (m', m) = (m, n)) from them,

    t[l,m,n](g) = i^a sqrt(C(2l-k, k+a) / C(k+b, b)) e^(-i phi/2)^(2m) s^a c^b P_k^(a,b)(x) e^(-i psi/2)^(2n),

a = |m - n|, b = |m + n|, k = l - max(|m|, |n|), with no complex exp and no
float pow per element (Edmonds' sign (-1)^lambda times the phase i^(n-m) is
i^a).  P_k^(a,b) takes one step of the three-term recurrence (DLMF 18.9.2)
per degree, its coefficients resolved from the index once per call.  No
element reads the exact record of `wigner`, so a wrong coefficient there
shows as a disagreement with the exact engine.  Unlike a sum of (c, s)
terms, the recurrence does not cancel: against exact sums in 120 digits
(700 at spin 500) its largest error was 2.4e-15 to spin 64, 1.6e-14 at
spin 100 and 1.5e-11 at spin 500, the rounding of x times the slope
125 250 of P_500 at x = 1.  `eval_matrix_element` reads a one-sample block.

Targets.  `mc_integral` estimates one product: a `ProductSpec` gives one
single-element factor per (index, power), each power one repeated squaring.
`mc_scan` estimates every integral(f^P [h]) for P = 1..pmax from one pass:
per block it sums f's elements once, evaluates h once, and forms base^P by
one multiplication from base^(P-1), folding each row into its sums before
the next is formed.  Its rows read the same draws, so they are correlated;
each row's mean and standard error are those of a run on that row alone.

numpy is imported by the functions that use it, on the first Monte Carlo or
`eval_matrix_element` call, so importing the package does not load it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .integrals import ProductSpec
from .powers import FiniteFunction
from .wigner import MatrixElementIndex

_CHUNK = 1 << 16
_BLOCK = 1 << 13
_I_POWERS = (1, 1j, -1, -1j)


class EulerAngles(NamedTuple):
    phi: float
    theta: float
    psi: float


class McEstimate(NamedTuple):
    mean: complex
    std_error: float
    samples: int
    seed: int


class _Element(NamedTuple):
    """scale * e^(-i phi/2)^m2 * s^a c^b P_k^(a,b)(x) * e^(-i psi/2)^n2, P_k by its recurrence steps."""

    m2: int
    n2: int
    scale: complex
    a: int
    b: int
    steps: Tuple[Tuple[float, float, float], ...]   # (A_j, B_j, C_j): P_j+1 = (A_j x + B_j) P_j - C_j P_j-1


def _resolve(idx: MatrixElementIndex, coeff: complex = 1.0) -> _Element:
    """coeff * t[l,m,n] in float form: the Jacobi form of d, read off the index alone."""
    a, b = abs(idx.m2 - idx.n2) // 2, abs(idx.m2 + idx.n2) // 2
    k = (idx.l2 - max(abs(idx.m2), abs(idx.n2))) // 2
    steps = [((a + b + 2) / 2, (a - b) / 2, 0.0)] if k else []     # P_1 = (a + 1) + (a + b + 2)(x - 1)/2
    for j in range(1, k):
        t = 2 * j + a + b
        den = 2 * (j + 1) * (j + a + b + 1) * t
        steps.append(((t + 1) * (t + 2) * t / den, (t + 1) * (a * a - b * b) / den,
                      2 * (j + a) * (j + b) * (t + 2) / den))
    root = math.sqrt(math.comb(idx.l2 - k, k + a) / math.comb(k + b, b))
    return _Element(idx.m2, idx.n2, coeff * _I_POWERS[a % 4] * root, a, b, tuple(steps))


class _Powers(dict):
    """base^k keyed by the signed exponent k, each filled on first use.

    base^0 is ones, base^k is base^(k-1) * base, and base^-k is conj(base^k),
    equal to base^-k for a base of modulus 1.
    """

    def __init__(self, base):
        super().__init__({1: base})

    def __missing__(self, k: int):
        import numpy as np
        if k < 0:
            self[k] = np.conj(self[-k])
        elif k == 0:
            self[0] = np.ones_like(self[1])
        else:
            low = k - 1
            while low not in self:
                low -= 1
            for j in range(low + 1, k + 1):
                self[j] = self[j - 1] * self[1]
        return self[k]


def _half_turn(angle):
    """e^(-i angle/2) from the tangent of angle/4: one tan, no cos or sin.

    With t = tan(-angle/4), cos(angle/2) = (1 - t^2)/(1 + t^2) and
    sin(-angle/2) = 2t/(1 + t^2), each within a few ulp for |angle| < 2pi.
    """
    import numpy as np
    t = np.tan(-0.25 * angle)
    t2 = t * t
    den = 1.0 + t2
    out = np.empty(t.shape, dtype=complex)
    out.real = (1.0 - t2) / den
    out.imag = (t + t) / den
    return out


class _Block:
    """Tables of one block of samples, shared by every element evaluated on it."""

    def __init__(self, phi, c, s, psi):
        z_phi, z_psi = _half_turn(phi), _half_turn(psi)
        self.size = len(c)
        self._c, self._s = _Powers(c), _Powers(s)
        self._phi, self._psi = _Powers(z_phi), _Powers(z_psi)

    @functools.cached_property
    def _x(self):
        return self._c[2] - self._s[2]

    def element(self, el: _Element):
        acc = self._c[el.b] * self._s[el.a]
        if el.steps:
            x = self._x
            (a0, b0, _), *rest = el.steps
            low, p = 1.0, a0 * x + b0
            for a_j, b_j, c_j in rest:
                low, p = p, (a_j * x + b_j) * p - c_j * low
            acc = acc * p
        return (el.scale * self._phi[el.m2]) * self._psi[el.n2] * acc


def _blocks(rng, samples: int) -> Iterator[_Block]:
    """The blocks of `samples` draws from the numpy Generator `rng`: chunk by chunk, phi, psi, then U = s^2."""
    import numpy as np
    remaining = samples
    while remaining > 0:
        size = min(_CHUNK, remaining)
        phi = rng.uniform(0.0, 2.0 * math.pi, size)
        psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size)
        u = rng.uniform(0.0, 1.0, size)
        for lo in range(0, size, _BLOCK):
            part = slice(lo, lo + _BLOCK)
            yield _Block(phi[part], np.sqrt(1.0 - u[part]), np.sqrt(u[part]), psi[part])
        remaining -= size


def _ipow(z, power: int):
    """z**power for an integer power >= 1, by repeated squaring."""
    result = None
    while power:
        if power & 1:
            result = z if result is None else result * z
        power >>= 1
        if power:
            z = z * z
    return result


def eval_matrix_element(idx: MatrixElementIndex, g: EulerAngles) -> complex:
    """exp(-i m phi) * t[l,m,n](a(theta)) * exp(-i n psi)."""
    import numpy as np
    half = 0.5 * g.theta
    block = _Block(np.array([g.phi]), np.array([math.cos(half)]),
                   np.array([math.sin(half)]), np.array([g.psi]))
    return complex(block.element(_resolve(idx))[0])


def _estimates(rows: int, integrand: Callable[[_Block], Iterable], samples: int, seed: int) -> List[McEstimate]:
    """The McEstimate of each of `rows` integrands over `samples` draws seeded with `seed`.

    integrand(block) yields the rows' values on a block in row order; each
    array is folded into its row's sums before the next is asked for.  Block
    sums merge by sample count.  Raises OverflowError, without numpy
    warnings, when a row's mean or standard error is not finite in floating
    point.
    """
    import numpy as np
    if samples < 1:
        raise ValueError("samples must be >= 1")
    total = [0.0 + 0.0j] * rows
    total_sq_re = [0.0] * rows
    total_sq_im = [0.0] * rows
    estimates = []
    with np.errstate(over="ignore", invalid="ignore"):      # a non-finite result raises below
        for block in _blocks(np.random.default_rng(seed), samples):
            for row, vals in enumerate(integrand(block)):
                total[row] += vals.sum()
                total_sq_re[row] += float(np.sum(vals.real ** 2))
                total_sq_im[row] += float(np.sum(vals.imag ** 2))

        for row in range(rows):
            mean = total[row] / samples
            if samples > 1:
                var_re = max(total_sq_re[row] / samples - mean.real ** 2, 0.0) * samples / (samples - 1)
                var_im = max(total_sq_im[row] / samples - mean.imag ** 2, 0.0) * samples / (samples - 1)
                std_error = math.sqrt((var_re + var_im) / samples)
            else:
                std_error = 0.0
            if not all(map(math.isfinite, (mean.real, mean.imag, std_error))):
                raise OverflowError("the Monte Carlo estimate is not finite in floating point")
            estimates.append(McEstimate(mean=complex(mean), std_error=std_error, samples=samples, seed=seed))
    return estimates


def mc_integral(target: ProductSpec, samples: int = 1_000_000, seed: int = 0) -> McEstimate:
    """Monte Carlo Haar estimate of the product integral `target`.

    Deterministic for a given (seed, samples): draws happen in fixed-size
    chunks from one PCG64 stream.  Raises OverflowError, without numpy
    warnings, when the mean or its standard error is not finite in floating
    point.
    """
    import numpy as np
    factors = [(_resolve(idx), power) for idx, power in target.factors]

    def integrand(block):
        acc = None                      # the first factor seeds it: no pass over ones per block
        for el, power in factors:
            value = _ipow(block.element(el), power)
            acc = value if acc is None else acc * value
        yield np.ones(block.size, dtype=complex) if acc is None else acc

    return _estimates(1, integrand, samples, seed)[0]


def mc_scan(
    f: FiniteFunction, pmax: int, witness: Optional[MatrixElementIndex] = None,
    samples: int = 1_000_000, seed: int = 0,
) -> List[McEstimate]:
    """Monte Carlo Haar estimates of integral(f^P), or of integral(f^P * witness), for P = 1..pmax.

    One pass over the draws of `mc_integral` at the same (samples, seed)
    serves every row, so the rows are correlated.  Raises OverflowError,
    without numpy warnings, when any row's mean or standard error is not
    finite in floating point.
    """
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    elements = [_resolve(idx, complex(float(re), float(im))) for idx, (re, im) in f.terms]
    h = _resolve(witness) if witness is not None else None

    def integrand(block):
        base = block.element(elements[0])
        for el in elements[1:]:
            base = base + block.element(el)
        h_vals = block.element(h) if h is not None else None
        power = base
        for p in range(1, pmax + 1):
            if p > 1:
                power = power * base
            yield power if h_vals is None else power * h_vals

    return _estimates(pmax, integrand, samples, seed)
