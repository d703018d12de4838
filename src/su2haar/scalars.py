"""Exact scalar arithmetic: half-integer text and Gaussian-rational radical sums.

A half-integer j is carried as the plain int 2j from parsing to printing:
`parse_half` reads it, `half_str` writes it.

The value field for every integral in this package is the set of numbers

    (sum_j p_j * sqrt(N_j))  +  i * (sum_j q_j * sqrt(M_j))

with rational p_j, q_j and squarefree positive integer radicands.  Because
square roots of distinct squarefree integers are linearly independent over
the rationals, keeping coefficient maps canonical (squarefree keys, no zero
coefficients) makes equality and the zero test exact map comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Tuple


def parse_half(value) -> int:
    """Twice the half-integer given as an int, a Fraction or the text "k", "k/2" (or "p/1")."""
    if isinstance(value, str):
        s = value.strip()
        if "/" not in s:
            return 2 * int(s)
        num, _, den = s.partition("/")
        d = int(den)
        if d == 1:
            return 2 * int(num)
        if d == 2:
            return int(num)
        raise ValueError(f"not a half-integer: {value!r}")
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        if value.denominator in (1, 2):
            return int(value * 2)
        raise ValueError(f"not a half-integer: {value}")
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


def half_str(twice: int) -> str:
    """The text "k" or "k/2" of the half-integer twice/2."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def radical_normalize(coeff: Fraction, radicand: int) -> Tuple[Fraction, int]:
    """Rewrite coeff*sqrt(radicand) as (coeff*k)*sqrt(r) with r squarefree.

    Factorization is plain trial division; the radicands produced by the
    factorial normalizations in this package have only small prime factors,
    so nothing smarter is warranted.
    """
    if not isinstance(radicand, int) or radicand < 1:
        raise ValueError(f"radicand must be a positive integer, got {radicand!r}")
    square_part = 1
    free_part = 1
    n = radicand
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            square_part *= d ** (e // 2)
            if e % 2:
                free_part *= d
        d += 1 if d == 2 else 2
    free_part *= n
    return (Fraction(coeff) * square_part, free_part)


def _add_into(out: dict, r: int, c: Fraction) -> None:
    """Add c at radicand r of the canonical map `out`, dropping r when the sum is 0."""
    acc = out.get(r, 0) + c
    if acc:
        out[r] = acc
    else:
        out.pop(r, None)


def _canonical_map(terms: Iterable[Tuple[Fraction, int]]) -> dict:
    out: dict = {}
    for coeff, radicand in terms:
        c, r = radical_normalize(Fraction(coeff), radicand)
        _add_into(out, r, c)
    return out


class RadicalScalar:
    """Exact complex number of the form sum q_j*sqrt(N_j) + i*sum q'_j*sqrt(N'_j).

    Values are immutable and canonical: radicand keys are squarefree positive
    integers and no stored coefficient is zero, so equality is map equality
    and ``is_zero`` is decidable.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, re: Mapping[int, Fraction] = None, im: Mapping[int, Fraction] = None):
        """Wrap maps that are already canonical; `from_terms` normalises arbitrary terms."""
        self._re = dict(re or {})
        self._im = dict(im or {})

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RadicalScalar":
        return RadicalScalar({}, {})

    @staticmethod
    def one() -> "RadicalScalar":
        return RadicalScalar.from_rational(Fraction(1))

    @staticmethod
    def from_rational(q) -> "RadicalScalar":
        q = Fraction(q)
        return RadicalScalar({1: q} if q else {}, {})

    @staticmethod
    def from_gaussian(re, im) -> "RadicalScalar":
        re, im = Fraction(re), Fraction(im)
        return RadicalScalar({1: re} if re else {}, {1: im} if im else {})

    @staticmethod
    def from_terms(real: Iterable[Tuple[Fraction, int]] = (), imag: Iterable[Tuple[Fraction, int]] = ()) -> "RadicalScalar":
        """Build from (coefficient, radicand) pairs; radicands need not be squarefree."""
        return RadicalScalar(_canonical_map(real), _canonical_map(imag))

    # ---- structure ----------------------------------------------------

    def real_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(sorted(self._re.items()))

    def imag_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(sorted(self._im.items()))

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_rational(self) -> bool:
        return not self._im and set(self._re) <= {1}

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._re.get(1, Fraction(0))

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        re, im = dict(self._re), dict(self._im)
        for r, c in other._re.items():
            _add_into(re, r, c)
        for r, c in other._im.items():
            _add_into(im, r, c)
        return RadicalScalar(re, im)

    def __sub__(self, other: "RadicalScalar") -> "RadicalScalar":
        return self + (-other)

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar(
            {r: -c for r, c in self._re.items()},
            {r: -c for r, c in self._im.items()},
        )

    @staticmethod
    def _map_mul(a: Mapping[int, Fraction], b: Mapping[int, Fraction], out: dict, sign: int) -> None:
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                c, r = radical_normalize(c1 * c2, r1 * r2)
                _add_into(out, r, c if sign > 0 else -c)

    def __mul__(self, other) -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            if isinstance(other, (int, Fraction)):
                other = RadicalScalar.from_rational(other)
            else:
                return NotImplemented
        re: dict = {}
        im: dict = {}
        RadicalScalar._map_mul(self._re, other._re, re, +1)
        RadicalScalar._map_mul(self._im, other._im, re, -1)
        RadicalScalar._map_mul(self._re, other._im, im, +1)
        RadicalScalar._map_mul(self._im, other._re, im, +1)
        return RadicalScalar(re, im)

    __rmul__ = __mul__

    def conjugate(self) -> "RadicalScalar":
        return RadicalScalar(self._re, {r: -c for r, c in self._im.items()})

    def times_i_power(self, k: int) -> "RadicalScalar":
        """Multiply by i**k exactly (k may be negative)."""
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return RadicalScalar({r: -c for r, c in self._im.items()}, self._re)
        if k == 2:
            return -self
        return RadicalScalar(self._im, {r: -c for r, c in self._re.items()})

    # ---- comparison / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self.real_terms(), self.imag_terms()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # ---- conversions ----------------------------------------------------

    def to_complex(self) -> complex:
        re = sum(float(c) * math.sqrt(r) for r, c in self._re.items())
        im = sum(float(c) * math.sqrt(r) for r, c in self._im.items())
        return complex(re, im)

    def to_json(self) -> dict:
        return {
            "real": [{"radicand": r, "coeff": str(c)} for r, c in self.real_terms()],
            "imag": [{"radicand": r, "coeff": str(c)} for r, c in self.imag_terms()],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "RadicalScalar":
        def load(part):
            return [(Fraction(t["coeff"]), int(t["radicand"])) for t in obj.get(part, [])]

        return RadicalScalar.from_terms(real=load("real"), imag=load("imag"))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"

        def side(items, unit):
            chunks = []
            for r, c in items:
                if r == 1:
                    chunks.append(f"{c}{unit}")
                else:
                    chunks.append(f"{c}{unit}*sqrt({r})")
            return chunks

        parts = side(self.real_terms(), "") + side(self.imag_terms(), "*i")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"
