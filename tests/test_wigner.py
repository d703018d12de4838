from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_indices, idx, spin_half_rep, sym_power_rep
from oracles import TrigPolynomial, conjugate_index, legendre_poly, representation_matrix, sample_haar
from su2haar.numeric import eval_matrix_element
from su2haar.scalars import RadicalScalar, parse_half
from su2haar.wigner import THETA_CACHE_SIZE, MatrixElementIndex, matrix_element_trigpoly, theta_restriction

H = Fraction(1, 2)


def poly_of(pairs):
    return TrigPolynomial({mono: RadicalScalar.from_gaussian(*coeff) for mono, coeff in pairs.items()})


class TestIndexValidation:
    def test_valid(self):
        idx(H, H, -H)
        idx(2, -1, 0)
        idx(0, 0, 0)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            idx(H, Fraction(3, 2), H)

    def test_non_integral_difference(self):
        with pytest.raises(ValueError):
            idx(1, H, 0)

    def test_negative_spin(self):
        with pytest.raises(ValueError):
            idx(-1, 0, 0)


class TestDefiningRepresentation:
    def test_diagonal_is_cos(self):
        assert TrigPolynomial.element(idx(H, H, H)) == poly_of({(1, 0): (1, 0)})
        assert TrigPolynomial.element(idx(H, -H, -H)) == poly_of({(1, 0): (1, 0)})

    def test_off_diagonal_is_i_sin(self):
        assert TrigPolynomial.element(idx(H, H, -H)) == poly_of({(0, 1): (0, 1)})
        assert TrigPolynomial.element(idx(H, -H, H)) == poly_of({(0, 1): (0, 1)})

    def test_spin_one_diagonal(self):
        assert TrigPolynomial.element(idx(1, 0, 0)) == poly_of({(2, 0): (1, 0), (0, 2): (-1, 0)})

    def test_spin_one_corner(self):
        assert TrigPolynomial.element(idx(1, -1, -1)) == poly_of({(2, 0): (1, 0)})

    def test_constant(self):
        assert TrigPolynomial.element(idx(0, 0, 0)) == poly_of({(0, 0): (1, 0)})


class TestExpansionStructure:
    @pytest.mark.parametrize("index", all_indices(3))
    def test_degree_homogeneity_and_parity(self, index):
        mn = (index.n2 - index.m2) // 2
        for (p, q) in matrix_element_trigpoly(index):
            assert p + q == index.l2
            assert (q - mn) % 2 == 0

    def test_parities_are_bit_1_of_the_position(self):
        """eps and delta are bit 1 of 2m + 2n and of 2m - 2n, and every (c, s) term has them.

        `power_scan` reads a state's parities off its position on this rule.
        """
        for index in all_indices(4):
            form = theta_restriction(index)
            parities = ((index.m2 + index.n2) >> 1 & 1, (index.m2 - index.n2) >> 1 & 1)
            assert (form.eps, form.delta) == parities, index
            for c_exp, s_exp, _ in form.terms:
                assert (c_exp % 2, s_exp % 2) == parities, index

    @pytest.mark.parametrize("l", range(0, 7))
    def test_legendre_consistency(self, l):
        """t[l,0,0](a(theta)) equals P_l(c^2 - s^2) expanded."""
        x_poly = poly_of({(2, 0): (1, 0), (0, 2): (-1, 0)})
        expected = TrigPolynomial.zero()
        power = poly_of({(0, 0): (1, 0)})
        for j, coeff in enumerate(legendre_poly(l)):
            if j > 0:
                power = power * x_poly
            expected = expected + power.scale(RadicalScalar.from_rational(coeff))
        # homogenize: multiply degree-d monomials by (c^2+s^2)^((2l-d)/2)
        unit = poly_of({(2, 0): (1, 0), (0, 2): (1, 0)})
        homog = TrigPolynomial.zero()
        for (p, q), coeff in expected.terms.items():
            pad = (2 * l - p - q) // 2
            homog = homog + (unit ** pad).scale(coeff) * poly_of({(p, q): (1, 0)})
        assert TrigPolynomial.element(idx(l, 0, 0)) == homog

    @pytest.mark.parametrize("l", [0, H, 1, Fraction(3, 2), 2])
    def test_unitarity_rows(self, l):
        """Row sums of |t|^2 collapse to 1 after s^2 -> 1 - c^2."""
        l2 = parse_half(Fraction(l))
        for m2 in range(-l2, l2 + 1, 2):
            total = TrigPolynomial.zero()
            for n2 in range(-l2, l2 + 1, 2):
                index = MatrixElementIndex(l2, m2, n2)
                poly = TrigPolynomial.element(index)
                total = total + poly * poly.conjugate()
            reduced = total.eliminate_sin()
            assert reduced == {0: RadicalScalar.one()}


class TestThetaCache:
    def test_evicted_record_recomputes_equal(self):
        """Past its bound the cache drops the least recent record; reading it again rebuilds an equal one."""
        first = MatrixElementIndex(0, 0, 0)
        record = theta_restriction(first)
        others = [i for i in all_indices(Fraction(17, 2)) if i != first]
        assert len(others) > THETA_CACHE_SIZE
        for index in others:
            theta_restriction(index)
        info = theta_restriction.cache_info()
        assert (info.maxsize, info.currsize) == (THETA_CACHE_SIZE, THETA_CACHE_SIZE)
        again = theta_restriction(first)
        assert theta_restriction.cache_info().misses == info.misses + 1
        assert again is not record and again == record
        assert theta_restriction.__wrapped__(first) == record      # the hook the benchmark tracer wraps


class TestAgainstSymmetricPowerOracle:
    def test_matrix_elements_match_kronecker_construction(self, rng):
        for l2 in range(0, 5):
            for _ in range(10):
                g = sample_haar(rng)
                ours = representation_matrix(l2, g)
                oracle = sym_power_rep(l2, spin_half_rep(g))
                assert np.max(np.abs(ours - oracle)) < 1e-12


class TestConjugateIndex:
    @pytest.mark.parametrize("index", all_indices(Fraction(3, 2)))
    def test_identity_numerically(self, index, rng):
        sign, flipped = conjugate_index(index)
        for _ in range(5):
            g = sample_haar(rng)
            lhs = np.conj(eval_matrix_element(index, g))
            rhs = sign * eval_matrix_element(flipped, g)
            assert abs(lhs - rhs) < 1e-10


class TestLegendre:
    def test_first_values(self):
        assert legendre_poly(0) == (Fraction(1),)
        assert legendre_poly(1) == (Fraction(0), Fraction(1))
        assert legendre_poly(2) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))

    @pytest.mark.parametrize("l", range(0, 9))
    def test_normalization_at_one(self, l):
        assert sum(legendre_poly(l)) == 1       # P_l(1) is the coefficient sum

    @pytest.mark.parametrize("l", range(0, 9))
    def test_matches_numpy_legendre(self, l):
        ours = [float(c) for c in legendre_poly(l)]
        ref = np.polynomial.legendre.Legendre.basis(l).convert(kind=np.polynomial.Polynomial).coef
        assert np.allclose(ours, ref[: len(ours)], atol=1e-9)

    def test_rejects_half_integer(self):
        with pytest.raises(ValueError):
            legendre_poly(H)
        with pytest.raises(ValueError):
            legendre_poly(-1)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40)
    def test_orthogonality_by_exact_quadrature(self, a, b):
        """integral_{-1}^{1} P_a P_b dx = 2/(2a+1) delta_ab via exact monomial moments."""
        pa, pb = legendre_poly(a), legendre_poly(b)
        total = Fraction(0)
        for i, ca in enumerate(pa):
            for j, cb in enumerate(pb):
                if (i + j) % 2 == 0:
                    total += ca * cb * Fraction(2, i + j + 1)
        assert total == (Fraction(2, 2 * a + 1) if a == b else 0)
