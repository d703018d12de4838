"""Power integrals of finite matrix-element combinations.

For f = sum_i A_i t[l_i, m_i, n_i], `power_scan` computes integral(f^P) (or
integral(f^P * h) for one extra element h = t[l, a, b]) for every
P = 1..pmax in a single pass that multiplies by f once per step.

The u-form.  In Euler coordinates g = k(phi) a(theta) k(psi) the phi and psi
integrals keep only the part of a product with total frequency (M, N) = 0,
and with u = sin^2(theta/2) the rest of the normalized Haar measure is du on
[0, 1].  Each element restricted to a(theta) reads (the u-form fields of
`wigner.theta_restriction`)

    t[l, m, n](a(theta)) = i^phase * sqrt(r) * c^eps * s^delta * q(u),

with c = cos(theta/2), s = sin(theta/2), r squarefree, q a rational
polynomial, and the parities eps, delta bit 1 of 2m + 2n and of 2m - 2n.
A product's parities are those of its total frequency, so a balanced
product has even parities and its integral is integral_0^1 poly(u) du =
sum_j c_j / (j + 1): the constant-term view of Duistermaat and van der
Kallen.  `integrate_product` computes single products from the same form.

States.  After step P a state is the part of f^P times the start with
total frequency (M, N) and radicand r, keyed by (2M, 2N, r).  The start is
h, or t[0,0,0] = 1 without a witness; a state's parities are read off
(2M, 2N).  Every coefficient is scaled by one common integer E per factor
of f, so the state's polynomial has Gaussian-integer coefficients.  Each
polynomial is Kronecker-packed (`_kernel.pack`) into two Python ints, its
real and imaginary parts, with one signed slot of w bits per power of u.
A step is a few big-integer multiplies per (state, element):
c^2 folds in as 1 - u, s^2 as u, and sqrt(a) * sqrt(b) as
g * sqrt(ab / g^2), g = gcd(a, b).

Slot bound.  Writing ||.|| for the sum of |re| + |im| over all coefficients,
one step multiplies the summed norm of all states by at most
sum_i 2 r_i ||Q_i|| (Q_i the scaled polynomial of element i, r_i its
radicand), so every coefficient any state can hold is bounded by
||H|| * (sum_i 2 r_i ||Q_i||)^pmax, with H the scaled polynomial of the
start (1 without a witness).  w is fixed from that bound up front, so every
slot unpacks exactly.

Pruning.  A state at step p can still reach the target (M, N) = 0 within at
most rem = pmax - p further steps only if -(M, N) lies in
rem * conv(support + {0}); other states are dropped, tested on the
half-planes of that hull.  With the origin outside the hull of the support
every state dies at step 1.

Read-out.  integral(f^P [h]) is the zero-frequency state after step P, read
per radicand as sum_j c_j / (j + 1) / (E_h E^P) by `integrals.u_integral`.

The test suite's oracle for this pass (`tests/conftest.py`) is the
multinomial sum over frequency-balanced compositions.
`enumerate_balanced_compositions` lists those compositions with
`_kernel.balanced_compositions`; of the kernel the pass itself uses only
`pack` and `unpack`, at its own slot width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

from . import _kernel
from ._kernel import pack, unpack
from .hull import _halfplanes, convex_hull_ccw
from .integrals import u_integral
from .scalars import RadicalScalar
from .wigner import MatrixElementIndex, theta_restriction

GaussianRational = Tuple[Fraction, Fraction]

Composition = Tuple[int, ...]


class NoSolutionError(ValueError):
    """The two-point balance system has no nonzero solution in N^2."""


def _as_gaussian(coeff) -> GaussianRational:
    if isinstance(coeff, tuple):
        re, im = coeff
        return (Fraction(re), Fraction(im))
    if isinstance(coeff, complex):
        raise TypeError("use exact (re, im) pairs, not floats")
    return (Fraction(coeff), Fraction(0))


def _is_json_int_or_str(value) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FiniteFunction:
    """f = sum_i A_i t[l_i, m_i, n_i] with nonzero exact complex-rational A_i."""

    terms: Tuple[Tuple[MatrixElementIndex, GaussianRational], ...]

    def __post_init__(self):
        seen = set()
        cleaned = []
        for idx, coeff in self.terms:
            if not isinstance(idx, MatrixElementIndex):
                raise TypeError(f"term index must be MatrixElementIndex, got {idx!r}")
            g = _as_gaussian(coeff)
            if g == (0, 0):
                raise ValueError(f"zero coefficient on {idx}")
            if idx in seen:
                raise ValueError(f"duplicate index {idx}")
            seen.add(idx)
            cleaned.append((idx, g))
        object.__setattr__(self, "terms", tuple(cleaned))
        if not self.terms:
            raise ValueError("a finite function needs at least one term")

    @staticmethod
    def from_terms(terms: Iterable[Tuple]) -> "FiniteFunction":
        built = []
        for idx, coeff in terms:
            if not isinstance(idx, MatrixElementIndex):
                idx = MatrixElementIndex.of(*idx)
            built.append((idx, coeff))
        return FiniteFunction(tuple(built))

    def __len__(self) -> int:
        return len(self.terms)

    def support_points(self) -> Tuple[Tuple[int, int], ...]:
        """The twice-int points (2m_i, 2n_i), one per term."""
        return tuple((idx.m2, idx.n2) for idx, _ in self.terms)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "terms": [
                {**idx.to_json(), "coeff": {"re": str(re), "im": str(im)}}
                for idx, (re, im) in self.terms
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteFunction":
        """Parse the function-file format; any malformed shape raises ValueError."""
        if "terms" not in obj:
            raise ValueError("missing field: terms")
        if not isinstance(obj["terms"], list):
            raise ValueError("terms must be a list of term objects")
        terms = []
        for i, t in enumerate(obj["terms"]):
            if not isinstance(t, dict):
                raise ValueError(f"terms[{i}] must be an object")
            idx = MatrixElementIndex.from_json(t, f"terms[{i}]")
            coeff = t.get("coeff", {})
            if not isinstance(coeff, dict):
                raise ValueError(f"terms[{i}].coeff must be an object with fields re and im")
            parts = (coeff.get("re", "0"), coeff.get("im", "0"))
            if not all(_is_json_int_or_str(x) or isinstance(x, float) for x in parts):
                raise ValueError(f"terms[{i}].coeff: re and im must be rationals such as \"-3/4\"")
            if any(isinstance(x, str) and "e" in x.lower() for x in parts):
                # Fraction("1e200000000") would build the integer 10^200000000
                raise ValueError(
                    f"terms[{i}].coeff: exponent notation is not accepted; write an integer, p/q or a decimal"
                )
            try:
                # a JSON number is the decimal it prints as (0.1 is 1/10); its exponent is at most 308
                re, im = (Fraction(repr(x) if isinstance(x, float) else x) for x in parts)
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"terms[{i}].coeff: invalid rational") from None
            terms.append((idx, (re, im)))
        return FiniteFunction(tuple(terms))


def enumerate_balanced_compositions(
    f: FiniteFunction, power: int, target: Tuple[int, int] = (0, 0)
) -> List[Composition]:
    """Compositions alpha of `power` with sum alpha*(2m, 2n) = target, a twice-int pair.

    Deterministic descending lexicographic order; the list may be empty.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    ms2 = [idx.m2 for idx, _ in f.terms]
    ns2 = [idx.n2 for idx, _ in f.terms]
    return _kernel.balanced_compositions(ms2, ns2, power, target[0], target[1])


_StateKey = Tuple[int, int, int]          # (2M, 2N, radicand)


def _scaled_u_polys(terms) -> Tuple[int, Dict[_StateKey, List[Tuple[int, int]]]]:
    """(E, polys): sum_i A_i t_i as Gaussian-integer u-polynomials over one denominator E.

    Keys are (2m, 2n, r).  Elements sharing (m, n) share their parities and
    phase, so terms that also share the radicand add into one polynomial.
    """
    forms = [(idx, coeff, theta_restriction(idx)) for idx, coeff in terms]
    scale = lcm(*(form.denom * lcm(re.denominator, im.denominator) for _, (re, im), form in forms))
    polys: Dict[_StateKey, List[Tuple[int, int]]] = {}
    for idx, (re, im), form in forms:
        unit = scale // form.denom
        re, im = re.numerator * (unit // re.denominator), im.numerator * (unit // im.denominator)
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[form.phase]      # times i^phase
        acc = polys.setdefault((idx.m2, idx.n2, form.radicand), [])
        acc.extend([(0, 0)] * (len(form.poly) - len(acc)))
        for j, q in enumerate(form.poly):
            acc[j] = (acc[j][0] + re * q, acc[j][1] + im * q)
    return scale, polys


def _norm(poly: List[Tuple[int, int]]) -> int:
    return sum(abs(re) + abs(im) for re, im in poly)


def _reachable(pos: Tuple[int, int], rem: int, hull) -> bool:
    """True iff -pos lies in rem * C for C = {x : u*x1 + v*x2 <= c for (u, v, c) in hull}."""
    x, y = pos
    for u, v, c in hull:
        if u * x + v * y + rem * c < 0:
            return False
    return True


def power_scan(
    f: FiniteFunction, pmax: int, witness: Optional[MatrixElementIndex] = None
) -> List[Tuple[int, RadicalScalar]]:
    """Values of integral(f^P), or integral(f^P * witness), for P = 1..pmax in one pass."""
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    scale_f, elements = _scaled_u_polys(f.terms)
    # the start is h, or t[0,0,0] = 1 without a witness
    scale_h, start = _scaled_u_polys(((witness or MatrixElementIndex(0, 0, 0), (1, 0)),))
    growth = sum(2 * key[2] * _norm(poly) for key, poly in elements.items())
    width = (sum(_norm(poly) for poly in start.values()) * growth ** pmax).bit_length() + 1

    def pack_parts(poly):
        return pack((re for re, _ in poly), width), pack((im for _, im in poly), width)

    packed = [(key, *pack_parts(poly)) for key, poly in elements.items()]
    states = {key: pack_parts(poly) for key, poly in start.items()}
    hull = _halfplanes(convex_hull_ccw([k[:2] for k in elements] + [(0, 0)]))
    one_minus_u = 1 - (1 << width)
    folded: dict = {}            # (state c and s bits, r, element) -> new radicand and folded element

    def fold(c, s, r, i):
        # the c (s) parity of a position (2m, 2n) is bit 1 of 2m + 2n (2m - 2n)
        (dm, dn, e_r), re, im = packed[i]
        g = gcd(r, e_r)
        factor = g * (one_minus_u if c & (dm + dn) else 1) << (width if s & (dm - dn) else 0)
        return (r // g) * (e_r // g), re * factor, im * factor

    values: List[Tuple[int, RadicalScalar]] = []
    denom = scale_h
    for p in range(1, pmax + 1):
        rem = pmax - p
        denom *= scale_f
        reachable: dict = {}
        nxt: dict = {}
        for (m2, n2, r), (sr, si) in states.items():
            c, s = (m2 + n2) & 2, (m2 - n2) & 2
            for i, ((dm, dn, _), _, _) in enumerate(packed):
                pos = (m2 + dm, n2 + dn)
                ok = reachable.get(pos)
                if ok is None:
                    ok = reachable[pos] = _reachable(pos, rem, hull)
                if not ok:
                    continue
                fkey = (c, s, r, i)
                entry = folded.get(fkey)
                if entry is None:
                    entry = folded[fkey] = fold(c, s, r, i)
                new_r, er, ei = entry
                if not ei:
                    re, im = sr * er, si * er
                else:
                    k1 = er * (sr + si)
                    re, im = k1 - si * (er + ei), k1 + sr * (ei - er)
                key = (pos[0], pos[1], new_r)
                acc = nxt.get(key)
                nxt[key] = (re, im) if acc is None else (acc[0] + re, acc[1] + im)
        states = {key: v for key, v in nxt.items() if v[0] or v[1]}
        terms = {}
        for (m2, n2, r), (sr, si) in states.items():
            if m2 or n2:
                continue
            re, im = u_integral(unpack(sr, width), denom), u_integral(unpack(si, width), denom)
            if re or im:
                terms[r] = (re, im)
        # each radicand is squarefree and keys one state: the map is canonical
        values.append((p, RadicalScalar(terms)))
    return values


def power_integral(f: FiniteFunction, power: int) -> RadicalScalar:
    """Exact value of integral(f^P) over the normalized Haar measure."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return power_scan(f, power)[-1][1]


def power_integral_with_witness(
    f: FiniteFunction, power: int, h: MatrixElementIndex
) -> RadicalScalar:
    """Exact value of integral(f^P * t[l, a, b]) with h = t[l, a, b]."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return power_scan(f, power, witness=h)[-1][1]


def minimal_balanced_pair(p1: Tuple[int, int], p2: Tuple[int, int]) -> Tuple[int, int]:
    """Componentwise-minimal nonzero (alpha, beta) in N^2 balancing two twice-int support points.

    Solves alpha*m1 + beta*m2 = 0 = alpha*n1 + beta*n2 for points satisfying
    the two-point vanishing criterion (zero determinant, nonpositive
    coordinate products, not both points zero).
    """
    (m1, n1), (m2, n2) = p1, p2
    if (m1, n1) == (0, 0) and (m2, n2) == (0, 0):
        raise NoSolutionError("both points are the origin")
    det = m1 * n2 - m2 * n1
    if det != 0 or m1 * m2 > 0 or n1 * n2 > 0:
        raise NoSolutionError(f"twice-int points {p1}, {p2} do not meet the two-point criterion")
    if (m1, n1) == (0, 0):
        return (1, 0)
    if (m2, n2) == (0, 0):
        return (0, 1)
    if m1 != 0 or m2 != 0:
        alpha, beta = abs(m2), abs(m1)
    else:
        alpha, beta = abs(n2), abs(n1)
    if alpha * m1 + beta * m2 != 0 or alpha * n1 + beta * n2 != 0:
        raise NoSolutionError(f"no nonzero natural solution for twice-int points {p1}, {p2}")
    g = gcd(alpha, beta)
    return (alpha // g, beta // g)
