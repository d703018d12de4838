"""Exact symmetries of deep power scans.

Each identity maps an instance f (and a witness h) to another one whose
power integrals follow from those of f; `power_scan` must honour them row by
row, on the acceptance instance to P = 32 and on a spin-5/2 instance
carrying sqrt(10) and sqrt(2) to P = 24:

* conjugation: conj(t[l,m,n]) = (-1)^(m-n) t[l,-m,-n], so
  integral(conj(f)^P conj(h)) = conj integral(f^P h);
* inversion: t[l,m,n](g^-1) = (-1)^(n-m) t[l,-n,-m](g) and the Haar measure
  is inversion invariant, so the image of f has the same integrals (the
  acceptance instance lies on n = -m, where inversion fixes every term, so
  only the spin-5/2 instance moves under it);
* prefix consistency: row P of a scan to pmax equals the last row of a scan
  to P;
* translations: t[l,m,n](a(pi) g) = t[l,m,-m](a(pi)) t[l,-m,n](g) and
  t[l,m,n](g a(pi)) = t[l,m,-n](g) t[l,-n,n](a(pi)) (the Weyl maps; T(a(pi)) is
  antidiagonal), and t[l,m,n](k(pi) g k(pi)) = (-i)^(2m) t[l,m,n](g) (-i)^(2n).
  The Haar measure is invariant under both sides, so every image has the
  same power integrals as f, on the two instances above and, as a Hypothesis
  property, on small supports to P = 12.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE, RADICALS_5_2, all_indices, ff, idx
from oracles import conjugate_index, gaussian_mul
from su2haar.powers import FiniteFunction, power_scan
from su2haar.scalars import RadicalScalar
from su2haar.wigner import MatrixElementIndex, matrix_element_trigpoly

H = Fraction(1, 2)

INSTANCES = [
    pytest.param(ACCEPTANCE, idx(2, -1, 1), 32, id="acceptance-pmax32"),
    pytest.param(RADICALS_5_2, idx(Fraction(3, 2), -H, H), 24, id="radicals-5/2-pmax24"),
]


def invert(index):
    """(sign, image) with t[index](g^-1) = sign * t[image](g): the conjugate index, transposed."""
    sign, flipped = conjugate_index(index)
    return sign, MatrixElementIndex(flipped.l2, flipped.n2, flipped.m2)


def mapped(f, index_map, conj):
    """The image of f under an index map, with coefficients conjugated when `conj`."""
    terms = []
    for index, (re, im) in f.terms:
        sign, image = index_map(index)
        terms.append((image, (sign * re, sign * (-im if conj else im))))
    return FiniteFunction(tuple(terms))


I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def weyl_factor(l2, m2):
    """t[l,m,-m](a(pi)) as an exact Gaussian rational.

    At theta = pi, c = 0 and s = 1, so only the (c, s) term with c-exponent 0
    is left; T(a(pi)) is unitary and antidiagonal, so it is a unit with radicand 1.
    The term carries the phase i^(n-m) already.
    """
    terms = matrix_element_trigpoly(MatrixElementIndex(l2, m2, -m2))
    (coeff,) = [coeff for (p, _), coeff in terms.items() if p == 0]
    real, imag = dict(coeff.real_terms()), dict(coeff.imag_terms())
    assert set(real) | set(imag) == {1}
    value = (real.get(1, Fraction(0)), imag.get(1, Fraction(0)))
    assert value in I_POWERS
    return value


# Each translation gives (factor, image) with t[index](translated g) = factor * t[image](g).
def weyl_left(index):
    return weyl_factor(index.l2, index.m2), MatrixElementIndex(index.l2, -index.m2, index.n2)


def weyl_right(index):
    return weyl_factor(index.l2, -index.n2), MatrixElementIndex(index.l2, index.m2, -index.n2)


def k_left(index):
    return I_POWERS[-index.m2 % 4], index


def k_right(index):
    return I_POWERS[-index.n2 % 4], index


TRANSLATIONS = (weyl_left, weyl_right, k_left, k_right)


def translated(f, translation):
    """The function g -> f(translated g), as a FiniteFunction."""
    terms = []
    for index, coeff in f.terms:
        factor, image = translation(index)
        terms.append((image, gaussian_mul(factor, coeff)))
    return FiniteFunction(tuple(terms))


@functools.lru_cache(maxsize=None)
def scan(terms, witness, pmax):
    """The values of power_scan(f, pmax, witness) for f built from `terms`, shared by the tests."""
    return [value for _, value in power_scan(ff(*terms), pmax, witness=witness)]


def values(rows):
    return [value for _, value in rows]


@pytest.mark.parametrize("terms, witness, pmax", INSTANCES)
def test_conjugation(terms, witness, pmax):
    g = mapped(ff(*terms), conjugate_index, conj=True)
    assert values(power_scan(g, pmax)) == [v.conjugate() for v in scan(terms, None, pmax)]
    sign, h = conjugate_index(witness)
    expected = [v.conjugate() * sign for v in scan(terms, witness, pmax)]
    assert values(power_scan(g, pmax, witness=h)) == expected
    assert any(not v.is_zero() for v in expected)


@pytest.mark.parametrize("terms, witness, pmax", INSTANCES)
def test_inversion(terms, witness, pmax):
    g = mapped(ff(*terms), invert, conj=False)
    assert values(power_scan(g, pmax)) == scan(terms, None, pmax)
    sign, h = invert(witness)
    assert values(power_scan(g, pmax, witness=h)) == [v * sign for v in scan(terms, witness, pmax)]


@pytest.mark.parametrize("terms, witness, pmax", INSTANCES)
def test_prefix_consistency(terms, witness, pmax):
    f = ff(*terms)
    for h in (None, witness):
        full = scan(terms, h, pmax)
        for p in range(1, pmax + 1):
            assert power_scan(f, p, witness=h)[-1] == (p, full[p - 1])


@pytest.mark.parametrize("translation", TRANSLATIONS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("terms, witness, pmax", INSTANCES)
def test_translations(terms, witness, pmax, translation):
    g = translated(ff(*terms), translation)
    assert values(power_scan(g, pmax)) == scan(terms, None, pmax)
    factor, h = translation(witness)
    scaled = [RadicalScalar.from_gaussian(*factor) * v for v in values(power_scan(g, pmax, witness=h))]
    assert scaled == scan(terms, witness, pmax)


SMALL_INDICES = all_indices(Fraction(3, 2))


@st.composite
def small_functions(draw):
    """Up to four terms of spin <= 3/2 with small Gaussian-integer coefficients."""
    indices = draw(st.lists(st.sampled_from(SMALL_INDICES), min_size=1, max_size=4, unique=True))
    part = st.integers(-2, 2)
    coeffs = draw(st.lists(st.tuples(part, part).filter(any), min_size=len(indices), max_size=len(indices)))
    return FiniteFunction(tuple(zip(indices, coeffs)))


@settings(max_examples=60, deadline=None)
@given(small_functions())
def test_translations_keep_power_integrals(f):
    expected = values(power_scan(f, 12))
    for translation in TRANSLATIONS:
        assert values(power_scan(translated(f, translation), 12)) == expected


def test_instances_reach_irrational_values():
    """The spin-5/2 instance's scans carry sqrt(5), sqrt(2) and sqrt(10), so the maps move radicals."""
    terms, witness, pmax = INSTANCES[1].values
    radicands = set()
    for h in (None, witness):
        for value in scan(terms, h, pmax):
            radicands.update(r for r, _ in value.real_terms() + value.imag_terms())
    assert {2, 5, 10} <= radicands


def test_conjugation_deep():
    """Conjugation on the acceptance instance at pmax 64, plain scan only."""
    g = mapped(ff(*ACCEPTANCE), conjugate_index, conj=True)
    expected = [v.conjugate() for v in scan(ACCEPTANCE, None, 64)]
    assert values(power_scan(g, 64)) == expected
    assert any(not v.is_zero() for v in expected)
