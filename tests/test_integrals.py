import itertools
import random
from fractions import Fraction

import pytest

from conftest import all_indices, idx, integrate_via_trigpoly, product
from oracles import TrigPolynomial, monomial_theta_integral
from su2haar.integrals import (
    READ_OUT_CACHE_SIZE,
    ProductSpec,
    _read_out_weights,
    frequency_of,
    integrate_product,
    u_integral,
)
from su2haar.scalars import RadicalScalar, parse_half
from su2haar.wigner import MatrixElementIndex

H = Fraction(1, 2)


class TestFrequency:
    def test_power_two(self):
        spec = product((idx(H, H, H), 2))
        assert frequency_of(spec) == (2, 2)

    def test_cancelling_pair(self):
        spec = product(idx(H, H, -H), idx(H, -H, H))
        assert frequency_of(spec) == (0, 0)

    def test_shift(self):
        spec = product((idx(H, H, H), 2))
        assert frequency_of(spec.with_extra(idx(1, -1, -1))) == (0, 0)


class TestProductSpec:
    def test_merges_duplicates(self):
        spec = product((idx(H, H, H), 1), (idx(H, H, H), 2))
        assert spec.factors == ((idx(H, H, H), 3),)

    def test_drops_zero_powers(self):
        spec = ProductSpec(((idx(H, H, H), 0), (idx(1, 0, 0), 2)))
        assert spec.factors == ((idx(1, 0, 0), 2),)

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            ProductSpec(((idx(H, H, H), -1),))

    def test_canonical_order_is_stable(self):
        a = product(idx(1, 0, 0), idx(H, H, H))
        b = product(idx(H, H, H), idx(1, 0, 0))
        assert a == b

    def test_from_json_folds_the_shift_in(self):
        obj = {"factors": [{"l": "1/2", "m": "1/2", "n": "1/2", "power": 2}, {"l": 1, "m": 0, "n": 0}],
               "shift": {"l": "1/2", "m": "1/2", "n": "1/2"}}
        assert ProductSpec.from_json(obj) == product((idx(H, H, H), 3), idx(1, 0, 0))

    @pytest.mark.parametrize("extra", [{}, {"shift": None}], ids=["absent", "null"])
    def test_from_json_without_shift(self, extra):
        obj = {"factors": [{"l": "1", "m": "-1", "n": "1", "power": 3}], **extra}
        assert ProductSpec.from_json(obj) == product((idx(1, -1, 1), 3))

    def test_from_json_empty_product(self):
        spec = ProductSpec.from_json({"factors": []})
        assert spec.factors == ()
        assert integrate_product(spec) == RadicalScalar.one()

    def test_from_json_errors_name_the_field(self):
        with pytest.raises(ValueError, match=r"^factors\[1\]\.power must be a positive integer$"):
            ProductSpec.from_json({"factors": [{"l": 0, "m": 0, "n": 0}, {"l": 0, "m": 0, "n": 0, "power": 0}]})
        with pytest.raises(ValueError, match=r"^shift: expected an object with fields l, m, n$"):
            ProductSpec.from_json({"factors": [], "shift": 7})


class TestThetaIntegral:
    def test_examples(self):
        assert monomial_theta_integral(0, 0) == 2
        assert monomial_theta_integral(2, 0) == 1
        assert monomial_theta_integral(2, 2) == Fraction(1, 3)

    def test_cos_substitution_oracle(self):
        """integral c^(2j) sin = integral ((1+x)/2)^j dx over [-1, 1], exactly."""
        for j in range(0, 6):
            expected = Fraction(0)
            # ((1+x)/2)^j expanded: sum binom(j,i) x^i / 2^j ; integral x^i = 2/(i+1) for even i
            from math import comb

            for i in range(j + 1):
                if i % 2 == 0:
                    expected += Fraction(comb(j, i), 2 ** j) * Fraction(2, i + 1)
            assert monomial_theta_integral(2 * j, 0) == expected

    def test_beta_symmetry(self):
        for a in range(0, 8, 2):
            for b in range(0, 8, 2):
                assert monomial_theta_integral(a, b) == monomial_theta_integral(b, a)

    def test_odd_exponent_raises_value_error(self):
        with pytest.raises(ValueError):
            monomial_theta_integral(1, 0)
        with pytest.raises(ValueError):
            monomial_theta_integral(2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            monomial_theta_integral(-2, 0)

    def test_u_integral_through_a_bounded_cache(self):
        """sum_j c_j / (j + 1) / scale at every length, past the cache's size; the weights are cached per length."""
        rnd = random.Random(7)
        for n in range(READ_OUT_CACHE_SIZE + 20):
            coeffs = [rnd.randint(-10 ** 30, 10 ** 30) for _ in range(n)]
            scale = rnd.randint(1, 10 ** 6)
            expected = sum((Fraction(c, j + 1) for j, c in enumerate(coeffs)), Fraction(0)) / scale
            assert u_integral(coeffs, scale) == expected
        info = _read_out_weights.cache_info()
        assert (info.maxsize, info.currsize) == (READ_OUT_CACHE_SIZE, READ_OUT_CACHE_SIZE)


class TestIntegrateProduct:
    def test_constant(self):
        assert integrate_product(product(idx(0, 0, 0))) == RadicalScalar.one()

    def test_schur_pair(self):
        spec = product(idx(H, H, H), idx(H, -H, -H))
        assert integrate_product(spec) == RadicalScalar.from_rational(Fraction(1, 2))

    def test_off_diagonal_pair(self):
        spec = product(idx(H, H, -H), idx(H, -H, H))
        assert integrate_product(spec) == RadicalScalar.from_rational(Fraction(-1, 2))

    def test_shifted_square(self):
        spec = product((idx(H, H, H), 2))
        value = integrate_product(spec.with_extra(idx(1, -1, -1)))
        assert value == RadicalScalar.from_rational(Fraction(1, 3))

    def test_single_element_filter(self):
        assert integrate_product(product(idx(1, 1, 0))).is_zero()
        assert integrate_product(product(idx(H, H, H))).is_zero()

    def test_empty_product_is_haar_mass(self):
        assert integrate_product(ProductSpec(())) == RadicalScalar.one()

    def test_irrational_value_appears(self):
        spec = product((idx(2, 2, 0), 1), (idx(1, -1, 0), 2))
        value = integrate_product(spec)
        assert not value.is_zero()
        assert not value.is_rational()
        assert not value.imag_terms()

    def test_agrees_with_trigpoly_route(self):
        """Equal to the (c, s) route on hand-picked products, on every balanced
        product of <= 3 elements at spin <= 3/2, and on spin-5/2 products whose
        values carry sqrt(2), sqrt(3) or sqrt(6)."""
        specs = [
            product(idx(H, H, H), idx(H, -H, -H)),
            product((idx(1, 1, -1), 2), (idx(1, -1, 1), 2)),
            product((idx(2, 2, 0), 1), (idx(1, -1, 0), 2)),
            product((idx(Fraction(3, 2), H, -H), 2), (idx(1, -1, 1), 1)),
            product((idx(H, H, H), 4), (idx(1, -1, -1), 2)),
        ]
        cases = [(spec, None) for spec in specs + list(balanced_small_products())]
        H3, H5 = Fraction(3, 2), Fraction(5, 2)
        radical_cases = [
            (product(idx(1, 1, 1), idx(H3, H, -H), idx(H5, -H3, -H)), None, 2),
            (product(idx(1, 0, 1), idx(H3, H3, -H), idx(H5, -H3, -H)), None, 3),
            (product(idx(1, 0, 1), idx(H3, H3, H), idx(H5, -H3, -H3)), None, 6),
            (product(idx(1, 0, 1), idx(1, 1, 1), idx(H5, -H5, -H5)), idx(H3, H3, H), 6),
        ]
        for spec, shift, radicand in radical_cases:
            assert [r for r, _ in integrate_product(spec.with_extra(shift)).real_terms()] == [radicand]
            cases.append((spec, shift))
        for spec, shift in cases:
            assert integrate_product(spec.with_extra(shift)) == integrate_via_trigpoly(spec, shift), spec.factors

    @pytest.mark.parametrize("a", [1, 2, 3, 7, 40, 101])
    def test_closed_forms_at_large_powers(self, a):
        """c^2a, (i s)^2a and cos(theta)^2a: the c fold, the s fold with its phase, and no fold.

        c^2a cos(theta) = (1 - u)^a (1 - 2u) is not symmetric under u <-> 1 - u, so it tells the folds apart.
        """
        c_pair = product((idx(H, H, H), a), (idx(H, -H, -H), a))
        s_pair = product((idx(H, H, -H), a), (idx(H, -H, H), a))
        assert integrate_product(c_pair) == RadicalScalar.from_rational(Fraction(1, a + 1))
        assert integrate_product(s_pair) == RadicalScalar.from_rational(Fraction((-1) ** a, a + 1))
        assert integrate_product(product((idx(1, 0, 0), 2 * a))) == RadicalScalar.from_rational(Fraction(1, 2 * a + 1))
        value = integrate_product(c_pair.with_extra(idx(1, 0, 0)))
        assert value == RadicalScalar.from_rational(Fraction(a, (a + 1) * (a + 2)))

    @pytest.mark.parametrize("a", [5, 7])
    def test_odd_power_of_radicand_6(self, a):
        """t[2,-1,0] carries sqrt(6); at an odd power the value keeps one sqrt(6), equal to the (c, s) route."""
        spec = product((idx(2, -1, 0), a), (idx(H, H, -H), a), (idx(Fraction(3, 2), H, H), a))
        value = integrate_product(spec)
        assert [r for r, _ in value.real_terms()] == [6] and not value.imag_terms()
        assert value == integrate_via_trigpoly(spec)

    def test_repeated_calls_return_equal_results(self):
        spec = product((idx(1, 1, 1), 2), (idx(1, -1, -1), 2))
        first = integrate_product(spec)
        second = integrate_product(spec)
        assert first == second

    def test_concurrent_calls_are_deterministic(self):
        """Threaded calls give the same results as sequential ones."""
        import threading

        indices = all_indices(Fraction(3, 2))
        specs = [
            product(a, b)
            for a in indices
            for b in indices
            if frequency_of(product(a, b)) == (0, 0)
        ]
        sequential = [integrate_product(s) for s in specs]
        results = [None] * len(specs)

        def worker(chunk):
            for j in chunk:
                results[j] = integrate_product(specs[j])

        stripes = [range(stripe, len(specs), 4) for stripe in range(4)]
        threads = [threading.Thread(target=worker, args=(chunk,)) for chunk in stripes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == sequential


def balanced_small_products():
    """Every multiset of <= 3 elements with spin <= 3/2 passing the filter."""
    indices = all_indices(Fraction(3, 2))
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(indices, r):
            spec = ProductSpec(tuple((i, 1) for i in combo))
            if frequency_of(spec) == (0, 0):
                yield spec


class TestFilterGuarantees:
    def test_parity_guarantee_exhaustive(self):
        """Balanced products of <= 3 elements at spin <= 3/2 have only even (c, s) exponents."""
        count = 0
        for spec in balanced_small_products():
            poly = TrigPolynomial.constant(RadicalScalar.one())
            for index, power in spec.factors:
                poly = poly * (TrigPolynomial.element(index) ** power)
            for (p, q) in poly.terms:
                assert p % 2 == 0 and q % 2 == 0
            count += 1
        assert count >= 100  # nontrivial coverage of the enumeration

    def test_reality_exhaustive(self):
        for spec in balanced_small_products():
            assert not integrate_product(spec).imag_terms()

    def test_filtered_products_exactly_zero(self):
        """1000 random frequency-violating products: exact zero, MC-zero on a subsample."""
        import random

        from su2haar.numeric import mc_integral

        rnd = random.Random(11)
        indices = all_indices(2)
        rejected = []
        while len(rejected) < 1000:
            count = rnd.randint(1, 4)
            spec = ProductSpec(
                tuple((rnd.choice(indices), rnd.randint(1, 3)) for _ in range(count))
            )
            if frequency_of(spec) == (0, 0):
                continue
            assert integrate_product(spec).is_zero()
            rejected.append(spec)
        for i, spec in enumerate(rnd.sample(rejected, 30)):
            est = mc_integral(spec, samples=20_000, seed=500 + i)
            assert abs(est.mean) <= 5 * max(est.std_error, 1e-12), spec.factors


class TestExactSymmetries:
    def test_negating_all_weights_preserves_value(self):
        """(m_i, n_i) -> (-m_i, -n_i) is complex conjugation; balanced values are real."""
        import random

        rnd = random.Random(21)
        indices = all_indices(Fraction(3, 2))
        done = 0
        while done < 60:
            spec = ProductSpec(
                tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(rnd.randint(1, 3)))
            )
            flipped = ProductSpec(
                tuple(
                    (MatrixElementIndex(i.l2, -i.m2, -i.n2), p)
                    for i, p in spec.factors
                )
            )
            assert integrate_product(spec) == integrate_product(flipped)
            done += 1

    def test_transposing_weights_preserves_value(self):
        """The restriction to a(theta) is a symmetric matrix: (m, n) -> (n, m) is free."""
        import random

        from su2haar.wigner import matrix_element_trigpoly

        rnd = random.Random(22)
        indices = all_indices(2)
        for _ in range(40):
            i = rnd.choice(indices)
            swapped = MatrixElementIndex(i.l2, i.n2, i.m2)
            assert matrix_element_trigpoly(i) == matrix_element_trigpoly(swapped)


class TestQuadratureOracle:
    def test_exact_values_match_independent_quadrature(self):
        """Deterministic check: 1/2 * quad of the symmetric-power integrand over theta.

        The integrand is built from Kronecker powers of the raw 2x2 group
        matrix, sharing nothing with the closed-form expansion.
        """
        import random

        import numpy as np
        from scipy.integrate import quad

        from conftest import spin_half_rep, sym_power_rep
        from su2haar.numeric import EulerAngles

        rnd = random.Random(23)
        indices = all_indices(Fraction(3, 2))
        cases = 0
        while cases < 12:
            spec = ProductSpec(
                tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(rnd.randint(1, 3)))
            )
            if frequency_of(spec) != (0, 0):
                continue
            if sum(p * i.l2 for i, p in spec.factors) > 10:
                continue

            def integrand(theta, factors=spec.factors):
                total = 1.0 + 0.0j
                for index, power in factors:
                    rep = sym_power_rep(index.l2, spin_half_rep(EulerAngles(0.0, theta, 0.0)))
                    row = (index.l2 - index.m2) // 2
                    col = (index.l2 - index.n2) // 2
                    total *= rep[row, col] ** power
                return total * np.sin(theta)

            real_part, _ = quad(lambda t: integrand(t).real, 0.0, np.pi, limit=200)
            imag_part, _ = quad(lambda t: integrand(t).imag, 0.0, np.pi, limit=200)
            exact = integrate_product(spec).to_complex()
            assert abs(0.5 * complex(real_part, imag_part) - exact) < 1e-10, spec.factors
            cases += 1


class TestSchurOrthogonality:
    @pytest.mark.parametrize("l", [0, H, 1, Fraction(3, 2), 2])
    def test_diagonal_values(self, l):
        l2 = parse_half(Fraction(l))
        for m2 in range(-l2, l2 + 1, 2):
            for n2 in range(-l2, l2 + 1, 2):
                a = idx(l, Fraction(m2, 2), Fraction(n2, 2))
                b = idx(l, Fraction(-m2, 2), Fraction(-n2, 2))
                sign = -1 if ((m2 - n2) // 2) % 2 else 1
                expected = RadicalScalar.from_rational(Fraction(sign, l2 + 1))
                assert integrate_product(product(a, b)) == expected

    def test_cross_terms_vanish(self):
        pairs = [
            (idx(H, H, H), idx(1, -1, -1)),
            (idx(1, 1, 0), idx(2, -1, 0)),
            (idx(1, 0, 0), idx(2, 0, 0)),
            (idx(2, 1, 1), idx(2, -1, 1)),
        ]
        for a, b in pairs:
            assert integrate_product(product(a, b)).is_zero()


class TestPositivity:
    @pytest.mark.parametrize("l", range(0, 7))
    def test_diagonal_squares_positive(self, l):
        value = integrate_product(product((idx(l, 0, 0), 2)))
        assert value.is_rational() and value.as_rational() > 0
        assert value.as_rational() == Fraction(1, 2 * l + 1)
