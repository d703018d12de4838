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
  to P.
"""

import functools
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE, RADICALS_5_2, ff, idx
from oracles import conjugate_index
from su2haar.powers import FiniteFunction, power_scan
from su2haar.wigner import MatrixElementIndex

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


def test_instances_reach_irrational_values():
    """The spin-5/2 instance's scans carry sqrt(5), sqrt(2) and sqrt(10), so the maps move radicals."""
    terms, witness, pmax = INSTANCES[1].values
    radicands = set()
    for h in (None, witness):
        for value in scan(terms, h, pmax):
            radicands.update(r for r, _ in value.real_terms() + value.imag_terms())
    assert {2, 5, 10} <= radicands
