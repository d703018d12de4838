"""Exact scalar arithmetic: half-integer text and Gaussian-rational radical sums.

A half-integer j is carried as the plain int 2j from parsing to printing:
`parse_half` reads it, `half_str` writes it.

The value field for every integral in this package is the set of numbers

    sum_r (p_r + i q_r) * sqrt(r)

with rational p_r, q_r and squarefree positive integer radicands r.  Because
square roots of distinct squarefree integers are linearly independent over
the rationals, keeping the map {r: (p_r, q_r)} canonical (squarefree keys,
no (0, 0) value) makes equality and the zero test exact map comparisons.

Rationals print as "p" or "p/q" at any size (`_rational_str`).  Function
files read them from JSON by `read_rational` alone, which refuses text or a
JSON number of more than MAX_DIGITS digits.  No command reads a value back.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Tuple


# "k" or "p/q", each integer signed or not, spelled as int() reads it but with no "_", and whitespace around the
# text; next to "/" only what int() skips, which is all of str.strip()'s whitespace but "\x1c" to "\x1f"
_HALF = re.compile(r"\s*([-+]?\d+)(?:[^\S\x1c-\x1f]*/[^\S\x1c-\x1f]*([-+]?\d+))?\s*")


def parse_half(value) -> int:
    """Twice the half-integer given as an int, a Fraction or the text "k", "k/2" (or "p/1")."""
    if isinstance(value, str):
        match = _HALF.fullmatch(value)
        if match is not None:
            num, den = match.groups("1")
            if len(num.lstrip("+-")) + len(den.lstrip("+-")) > MAX_DIGITS:
                raise ValueError(f"a half-integer may have at most {MAX_DIGITS} digits")
            d = _digits_int(den)
            if d in (1, 2):
                return 2 // d * _digits_int(num)
        raise ValueError(f"not a half-integer: {value!r}")
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        if value.denominator in (1, 2):
            return int(value * 2)
        raise ValueError(f"not a half-integer: {value}")
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


def half_str(twice: int) -> str:
    """The text "k" or "k/2" of the half-integer twice/2, at any size."""
    return _rational_str(twice // 2) if twice % 2 == 0 else f"{_rational_str(twice)}/2"


def _divide_out(n: int, d: int) -> Tuple[int, int]:
    """(n / d^e, e) with d^e the highest power of d dividing n > 0, d > 1.

    It divides by d, d^2, d^4, ... while they divide, then by the same
    powers from the top down where they still do: O(log e) divisions, not
    e, so a smooth radicand such as 2^40000 costs milliseconds.
    """
    powers = []
    q = d
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    e = (1 << len(powers)) - 1
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return n, e


def radical_normalize(coeff: Fraction, radicand: int) -> Tuple[Fraction, int]:
    """Rewrite coeff*sqrt(radicand) as (coeff*k)*sqrt(r) with r squarefree.

    Factorization is trial division, each prime divided out by
    `_divide_out`; the radicands produced by the factorial normalizations in
    this package have only small prime factors, so nothing smarter is
    warranted.
    """
    if not isinstance(radicand, int) or radicand < 1:
        raise ValueError(f"radicand must be a positive integer, got {radicand!r}")
    square_part = 1
    free_part = 1
    n = radicand
    d = 2
    while d * d <= n:
        if n % d == 0:
            n, e = _divide_out(n, d)
            square_part *= d ** (e // 2)
            if e % 2:
                free_part *= d
        d += 1 if d == 2 else 2
    free_part *= n
    return (Fraction(coeff) * square_part, free_part)


_ZERO = Fraction(0)


def _rational_str(q: Fraction) -> str:
    """The text "p" or "p/q" of q at any size.

    str() of an int past the interpreter's digit limit (4 300 by default) raises ValueError and
    Decimal's has no limit; Decimal is the fallback only, since its first use costs about 0.7 MB.
    """
    try:
        return str(q)
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


# Reading costs grow with the square of the length (44 s at 10^6 digits); at the cap a number reads in under 10 ms.
MAX_DIGITS = 10_000
_TOO_LONG = f"a rational may have at most {MAX_DIGITS} digits"
# an exponent matches only after a decimal: "2.5E-3" is told that exponents are refused, "one" is an invalid rational
_TEXT = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?([eE][-+]?\d+)?)\s*")


def _digits_int(digits: str) -> int:
    """int(digits), through Decimal past the interpreter's digit limit, as in `_rational_str`."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def read_rational(value) -> Fraction:
    """The rational a JSON value spells: the one reader of a function file's coefficients.

    An int is itself.  Text is "p", "p/q" or a plain decimal, signed or not, with whitespace around it; exponent
    notation is refused, as "1e200000000" would build 10^200000000.  A JSON number, a float or the Decimal the CLI
    loads, is the decimal it prints as (0.1 is 1/10), its exponent in a double's range.  Text and numbers have at
    most MAX_DIGITS digits, read by one grammar at every length.  A bool or another type raises TypeError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str, float, Decimal)):
        raise TypeError(f'a rational is an int, a text such as "-3/4" or a JSON number, not {type(value).__name__}')
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _TEXT.fullmatch(value)
        if match is None:
            raise ValueError("invalid rational")
        sign, whole, den, frac, exponent = match.groups("")
        if exponent:
            raise ValueError("exponent notation is not accepted; write an integer, p/q or a decimal")
        if len(whole) + len(den) + len(frac) > MAX_DIGITS:
            raise ValueError(_TOO_LONG)
        num, den = _digits_int(whole + frac), _digits_int(den) if den else 10 ** len(frac)
        if not den:
            raise ValueError("invalid rational")
        return Fraction(-num if sign == "-" else num, den)
    if isinstance(value, float):
        value = Decimal(repr(value))
    if not value.is_finite():
        raise ValueError("invalid rational")
    # a nonzero number past a double's exponent range would build 10^|exponent|
    if value and not -324 <= value.adjusted() <= 308:
        raise ValueError("a JSON number's exponent must lie in -324..308")
    if len(value.as_tuple().digits) > MAX_DIGITS:
        raise ValueError(_TOO_LONG)
    return Fraction(value)


def _add_into(out: dict, r: int, p: Fraction, q: Fraction) -> None:
    """Add (p + i q) sqrt(r) into the canonical map `out`, dropping r when the sum is 0."""
    old = out.get(r)
    if old is not None:
        p, q = old[0] + p, old[1] + q
    if p or q:
        out[r] = (p, q)
    else:
        out.pop(r, None)


class RadicalScalar:
    """Exact complex number sum_r (p_r + i q_r) * sqrt(r), rational p_r and q_r.

    Values are immutable and canonical: the one map {r: (p_r, q_r)} has
    squarefree positive integer keys and no (0, 0) value, so equality is map
    equality and ``is_zero`` is decidable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Tuple[Fraction, Fraction]] = None):
        """Wrap a map that is already canonical; `from_terms` normalises arbitrary terms."""
        self._terms = dict(terms) if terms else {}

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RadicalScalar":
        return RadicalScalar()

    @staticmethod
    def one() -> "RadicalScalar":
        return RadicalScalar.from_rational(Fraction(1))

    @staticmethod
    def from_rational(q) -> "RadicalScalar":
        return RadicalScalar.from_gaussian(q, _ZERO)

    @staticmethod
    def from_gaussian(re, im) -> "RadicalScalar":
        re, im = Fraction(re), Fraction(im)
        return RadicalScalar({1: (re, im)} if re or im else None)

    @staticmethod
    def from_terms(real: Iterable[Tuple[Fraction, int]] = (), imag: Iterable[Tuple[Fraction, int]] = ()) -> "RadicalScalar":
        """Build from (coefficient, radicand) pairs; radicands need not be squarefree."""
        out: dict = {}
        for coeff, radicand in real:
            c, r = radical_normalize(coeff, radicand)
            _add_into(out, r, c, _ZERO)
        for coeff, radicand in imag:
            c, r = radical_normalize(coeff, radicand)
            _add_into(out, r, _ZERO, c)
        return RadicalScalar(out)

    # ---- structure ----------------------------------------------------

    def real_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((r, p) for r, (p, _) in sorted(self._terms.items()) if p)

    def imag_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((r, q) for r, (_, q) in sorted(self._terms.items()) if q)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(r == 1 and not q for r, (_, q) in self._terms.items())

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms.get(1, (_ZERO,))[0]

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        out = dict(self._terms)
        for r, (p, q) in other._terms.items():
            _add_into(out, r, p, q)
        return RadicalScalar(out)

    def __sub__(self, other: "RadicalScalar") -> "RadicalScalar":
        return self + (-other)

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar({r: (-p, -q) for r, (p, q) in self._terms.items()})

    def __mul__(self, other) -> "RadicalScalar":
        """sqrt(r1) * sqrt(r2) = g * sqrt(r1 r2 / g^2) with g = gcd(r1, r2), squarefree for squarefree r1, r2."""
        if not isinstance(other, RadicalScalar):
            if isinstance(other, (int, Fraction)):
                other = RadicalScalar.from_rational(other)
            else:
                return NotImplemented
        out: dict = {}
        for r1, (p1, q1) in self._terms.items():
            for r2, (p2, q2) in other._terms.items():
                g = math.gcd(r1, r2)
                _add_into(out, (r1 // g) * (r2 // g), (p1 * p2 - q1 * q2) * g, (p1 * q2 + q1 * p2) * g)
        return RadicalScalar(out)

    __rmul__ = __mul__

    def conjugate(self) -> "RadicalScalar":
        return RadicalScalar({r: (p, -q) for r, (p, q) in self._terms.items()})

    def times_i_power(self, k: int) -> "RadicalScalar":
        """Multiply by i**k exactly (k may be negative): k mod 4 turns (p, q) -> (-q, p)."""
        terms = self._terms
        for _ in range(k % 4):
            terms = {r: (-q, p) for r, (p, q) in terms.items()}
        return RadicalScalar(terms)

    # ---- comparison / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # ---- conversions ----------------------------------------------------

    def to_complex(self) -> complex:
        return sum((complex(p, q) * math.sqrt(r) for r, (p, q) in self._terms.items()), 0j)

    def to_json(self) -> dict:
        items = sorted(self._terms.items())
        return {
            "real": [{"radicand": r, "coeff": _rational_str(p)} for r, (p, _) in items if p],
            "imag": [{"radicand": r, "coeff": _rational_str(q)} for r, (_, q) in items if q],
        }

    def __str__(self) -> str:
        if self.is_zero():
            return "0"

        def side(items, unit):
            chunks = []
            for r, c in items:
                if r == 1:
                    chunks.append(f"{_rational_str(c)}{unit}")
                else:
                    chunks.append(f"{_rational_str(c)}{unit}*sqrt({r})")
            return chunks

        parts = side(self.real_terms(), "") + side(self.imag_terms(), "*i")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"
