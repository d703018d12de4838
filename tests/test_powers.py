import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_indices, brute_force_power_integral, ff, idx, pt, run_capped
from oracles import gaussian_mul, gaussian_pow
from su2haar import _kernel
from su2haar.hull import SupportHull, origin_in_hull
from su2haar.integrals import ProductSpec, integrate_product
from su2haar.numeric import mc_integral, mc_scan
from su2haar.powers import (
    FiniteFunction,
    NoSolutionError,
    enumerate_balanced_compositions,
    minimal_balanced_pair,
    power_integral,
    power_integral_with_witness,
    power_scan,
)
from su2haar.scalars import RadicalScalar
from su2haar.wigner import MatrixElementIndex

H = Fraction(1, 2)


COEFF_FAULT = "coefficient on t[1,0,0] must be an (re, im) pair of ints or Fractions"


class TestFiniteFunction:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            ff(((H, H, H), (0, 0)))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            FiniteFunction.from_terms([((0, 0, 0), 1), ((0, 0, 0), 2)])

    def test_rejects_inexact_coefficients_at_once(self):
        """A float, bool, text or Decimal part is a TypeError before any conversion.

        Fraction("1e200000000") would build 10^200000000, so the calls run in a capped child.
        """
        proc = run_capped("""
            from decimal import Decimal
            from su2haar import FiniteFunction, MatrixElementIndex
            for coeff in [(0.1, 0), (True, 0), ("1/3", 0), ("1e200000000", 0), (1, Decimal("0.5")), 1, (1, 0, 0)]:
                try:
                    FiniteFunction(((MatrixElementIndex(2, 0, 0), coeff),))
                    print("accepted")
                except TypeError as e:
                    print(e)
        """)
        got = ("(0.1, 0)", "(True, 0)", "('1/3', 0)", "('1e200000000', 0)", "(1, Decimal('0.5'))", "1", "(1, 0, 0)")
        expected = "".join(f"{COEFF_FAULT}, got {c}\n" for c in got)
        assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr

    def test_keeps_exact_pairs_as_given(self):
        """The constructor stores its terms tuple; `from_terms` reads an index tuple and a bare rational c as (c, 0)."""
        terms = ((idx(1, 0, 0), (Fraction(1, 3), -2)), (idx(0, 0, 0), (0, 1)))
        assert FiniteFunction(terms).terms is terms
        f = ff(((1, 0, 0), 3), ((1, 1, 0), Fraction(1, 2)), ((0, 0, 0), (0, Fraction(-1, 4))))
        assert f.terms == ((idx(1, 0, 0), (3, 0)), (idx(1, 1, 0), (Fraction(1, 2), 0)),
                           (idx(0, 0, 0), (0, Fraction(-1, 4))))
        for bad in (0.5, True, 1j):
            with pytest.raises(TypeError):
                ff(((1, 0, 0), bad))
        with pytest.raises(TypeError, match="terms must be a tuple, got list"):
            FiniteFunction(list(terms))

    def test_json_round_trip(self):
        f = ff(((H, H, -H), (Fraction(1, 2), -1)), ((1, 0, 0), (2, 0)))
        assert FiniteFunction.from_json(f.to_json()) == f

    @given(st.lists(
        st.tuples(
            st.integers(0, 12).flatmap(lambda l2: st.tuples(
                st.just(l2), st.integers(0, l2).map(lambda k: 2 * k - l2), st.integers(0, l2).map(lambda k: 2 * k - l2))),
            st.tuples(st.fractions(max_denominator=50), st.fractions(max_denominator=50)),
        ),
        min_size=1, max_size=6, unique_by=lambda term: term[0],
    ))
    @settings(max_examples=100)
    def test_json_round_trip_random_indices(self, terms):
        """Half-integer labels survive half_str on the way out and parse_half on the way in."""
        terms = [(MatrixElementIndex(*key), coeff) for key, coeff in terms if coeff != (0, 0)]
        assume(terms)
        f = FiniteFunction(tuple(terms))
        assert FiniteFunction.from_json(json.loads(json.dumps(f.to_json()))) == f

    def test_json_round_trip_past_the_digit_limit(self):
        """str() of an int refuses past 4 300 digits; a 5 000-digit coefficient writes out in full and reads back."""
        big = Fraction(10 ** 5000 + 1, 3)
        f = ff(((0, 0, 0), big), ((1, 0, 0), (Fraction(1, 7), -big)))
        obj = json.loads(json.dumps(f.to_json()))
        assert obj["terms"][0]["coeff"] == {"re": f"1{'0' * 4999}1/3", "im": "0"}
        assert FiniteFunction.from_json(obj) == f

    def test_json_rejects_bad_field(self):
        with pytest.raises(ValueError, match="terms"):
            FiniteFunction.from_json({"schema": 1})
        with pytest.raises(ValueError, match=r"terms\[0\]"):
            FiniteFunction.from_json({"terms": [{"l": "1/2", "m": "1/2"}]})
        with pytest.raises(ValueError, match=r"terms\[0\]"):
            FiniteFunction.from_json(
                {"terms": [{"l": "1/2", "m": "3/2", "n": "1/2", "coeff": {"re": "1", "im": "0"}}]}
            )


class TestGaussianPow:
    def test_i_powers(self):
        i = (Fraction(0), Fraction(1))
        assert gaussian_pow(i, 2) == (Fraction(-1), Fraction(0))
        assert gaussian_pow(i, 3) == (Fraction(0), Fraction(-1))
        assert gaussian_pow(i, 0) == (Fraction(1), Fraction(0))

    def test_matches_complex_float(self):
        rnd = random.Random(3)
        for _ in range(50):
            a = (Fraction(rnd.randint(-3, 3)), Fraction(rnd.randint(-3, 3)))
            n = rnd.randint(0, 6)
            exact = gaussian_pow(a, n)
            approx = complex(a[0], a[1]) ** n
            assert complex(exact[0], exact[1]) == pytest.approx(approx, abs=1e-6)


class TestEnumerateBalanced:
    def test_surviving_pair(self):
        f = ff(((H, H, -H), 1), ((H, -H, H), 1))
        assert enumerate_balanced_compositions(f, 2) == [(1, 1)]

    def test_unreachable(self):
        f = ff(((H, H, H), 1))
        assert enumerate_balanced_compositions(f, 3) == []

    def test_all_zero_support(self):
        f = ff(((0, 0, 0), 1), ((1, 0, 0), 1))
        assert enumerate_balanced_compositions(f, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_with_target(self):
        f = ff(((H, H, H), 1))
        target = (3, 3)
        assert enumerate_balanced_compositions(f, 3, target) == [(3,)]


class TestPowerIntegral:
    def test_single_element_vanishes(self):
        f = ff(((H, H, H), 1))
        for p, v in power_scan(f, 12):
            assert v.is_zero()

    def test_legendre_square(self):
        f = ff(((1, 0, 0), 1))
        assert power_integral(f, 2) == RadicalScalar.from_rational(Fraction(1, 3))

    def test_two_term_square(self):
        f = ff(((H, H, -H), 1), ((H, -H, H), 1))
        assert power_integral(f, 2) == RadicalScalar.from_rational(-1)

    def test_scan_values(self):
        f = ff(((1, 0, 0), 1))
        scan = power_scan(f, 2)
        assert scan[0][1].is_zero()
        assert scan[1][1] == RadicalScalar.from_rational(Fraction(1, 3))

    def test_constant_function(self):
        f = ff(((0, 0, 0), 1))
        assert [v for _, v in power_scan(f, 3)] == [RadicalScalar.one()] * 3

    def test_coefficient_scaling(self):
        base = ff(((1, 0, 0), 1))
        doubled = ff(((1, 0, 0), 2))
        assert power_integral(doubled, 2) == RadicalScalar.from_rational(Fraction(4, 3))
        assert power_integral(base, 2) == RadicalScalar.from_rational(Fraction(1, 3))

    def test_imaginary_coefficient(self):
        f = ff(((1, 0, 0), (0, 1)))
        assert power_integral(f, 2) == RadicalScalar.from_rational(Fraction(-1, 3))


class TestWitnessIntegral:
    def test_spec_cases(self):
        f = ff(((H, H, H), 1))
        h = idx(1, -1, -1)
        assert power_integral_with_witness(f, 2, h) == RadicalScalar.from_rational(Fraction(1, 3))
        assert power_integral_with_witness(f, 3, h).is_zero()
        assert power_integral_with_witness(f, 1, idx(0, 0, 0)).is_zero()

    def test_matches_brute_force_with_shift(self):
        rnd = random.Random(5)
        indices = all_indices(1)
        for _ in range(25):
            k = rnd.randint(1, 3)
            chosen = rnd.sample(indices, k)
            f = FiniteFunction.from_terms(
                [(i, (Fraction(rnd.randint(1, 2)), Fraction(rnd.randint(-1, 1)))) for i in chosen]
            )
            h = rnd.choice(indices)
            p = rnd.randint(1, 4)
            assert power_integral_with_witness(f, p, h) == brute_force_power_integral(f, p, h)

    def test_linearity_over_witnesses(self):
        """integral(f^P (c1 h1 + c2 h2)) built term by term matches the MC oracle."""
        from su2haar.numeric import mc_scan

        f = ff(((H, H, H), 1), ((H, -H, -H), 1))
        h1, h2 = idx(1, -1, -1), idx(0, 0, 0)
        p = 2
        exact = (
            power_integral_with_witness(f, p, h1) * RadicalScalar.from_rational(3)
            + power_integral_with_witness(f, p, h2) * RadicalScalar.from_rational(-2)
        )
        rough = mc_scan(f, p, h1, samples=120_000, seed=8)[-1]
        rough2 = mc_scan(f, p, h2, samples=120_000, seed=9)[-1]
        combo = 3 * rough.mean - 2 * rough2.mean
        err = 3 * rough.std_error + 2 * rough2.std_error
        assert abs(exact.to_complex() - combo) <= 5 * err


class TestBruteForceEquivalence:
    def test_filter_completeness_small(self):
        """Pruned enumeration equals the unfiltered multinomial sum."""
        rnd = random.Random(9)
        indices = all_indices(1)
        coeff_pool = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(-2), Fraction(0))]
        for _ in range(30):
            k = rnd.randint(1, 3)
            chosen = rnd.sample(indices, k)
            f = FiniteFunction.from_terms([(i, rnd.choice(coeff_pool)) for i in chosen])
            for p in range(1, 5):
                assert power_integral(f, p) == brute_force_power_integral(f, p)


class TestProvenDirection:
    def test_500_random_hull_excluding_instances_vanish(self):
        rnd = random.Random(123)
        indices = all_indices(Fraction(3, 2))
        pool = [
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1)),
        ]
        done = 0
        while done < 500:
            k = rnd.randint(1, 3)
            chosen = rnd.sample(indices, k)
            f = FiniteFunction.from_terms([(i, rnd.choice(pool)) for i in chosen])
            if origin_in_hull(SupportHull(f.support_points())):
                continue
            for _, v in power_scan(f, 12):
                assert v.is_zero(), f.to_json()
            done += 1


class TestDeterminism:
    def test_order_independence(self):
        """Summing compositions in reverse yields the same exact value."""
        f = ff(((1, 1, -1), (1, 1)), ((1, -1, 1), (2, 0)), ((1, 0, 0), (0, 1)))
        p = 6
        expected = power_integral(f, p)
        total = RadicalScalar.zero()
        from math import factorial

        for alpha in reversed(enumerate_balanced_compositions(f, p)):
            coeff = (Fraction(factorial(p)), Fraction(0))
            factors = []
            for (index, a_coeff), a in zip(f.terms, alpha):
                coeff = gaussian_mul(coeff, gaussian_pow(a_coeff, a))
                coeff = (coeff[0] / factorial(a), coeff[1] / factorial(a))
                if a:
                    factors.append((index, a))
            total = total + integrate_product(ProductSpec(tuple(factors))) * RadicalScalar.from_gaussian(*coeff)
        assert total == expected


class TestMinimalBalancedPair:
    def test_symmetric(self):
        assert minimal_balanced_pair(pt(H, -H), pt(-H, H)) == (1, 1)

    def test_ratio(self):
        assert minimal_balanced_pair(pt(1, 0), pt(-2, 0)) == (2, 1)

    def test_origin_point(self):
        assert minimal_balanced_pair((0, 0), pt(1, -1)) == (1, 0)
        assert minimal_balanced_pair(pt(1, -1), (0, 0)) == (0, 1)

    def test_criterion_violations(self):
        with pytest.raises(NoSolutionError):
            minimal_balanced_pair(pt(1, 1), pt(1, -1))
        with pytest.raises(NoSolutionError):
            minimal_balanced_pair((0, 0), (0, 0))
        with pytest.raises(NoSolutionError):
            minimal_balanced_pair(pt(1, 1), pt(-2, -1))

    def test_solution_balances(self):
        rnd = random.Random(2)
        found = 0
        while found < 200:
            p1 = (rnd.randint(-4, 4), rnd.randint(-4, 4))
            p2 = (rnd.randint(-4, 4), rnd.randint(-4, 4))
            try:
                alpha, beta = minimal_balanced_pair(p1, p2)
            except NoSolutionError:
                continue
            assert (alpha, beta) != (0, 0)
            assert alpha >= 0 and beta >= 0
            assert alpha * p1[0] + beta * p2[0] == 0
            assert alpha * p1[1] + beta * p2[1] == 0
            from math import gcd

            assert gcd(alpha, beta) == 1
            found += 1


class TestTwoTermPositivityMechanism:
    def test_double_power_nonzero_for_positive_real_coefficients(self):
        """Criterion-true pairs with positive real coefficients: P = 2M is a square."""
        from su2haar.hull import two_term_criterion

        pts = [(m2, n2) for m2 in range(-3, 4) for n2 in range(-3, 4) if (m2 - n2) % 2 == 0]
        checked = 0
        for p1, p2 in itertools.combinations(pts, 2):
            if p1 == p2 == (0, 0):
                continue
            if not two_term_criterion(p1, p2):
                continue
            alpha, beta = minimal_balanced_pair(p1, p2)
            total = alpha + beta

            def min_index(point):
                return MatrixElementIndex(max(abs(point[0]), abs(point[1])), *point)

            f = FiniteFunction.from_terms(
                [(min_index(p1), (Fraction(1), Fraction(0))), (min_index(p2), (Fraction(2), Fraction(0)))]
            )
            assert not power_integral(f, 2 * total).is_zero(), (p1, p2)
            checked += 1
        assert checked >= 20


@pytest.mark.parametrize("call, error, message", [
    (lambda: SupportHull(()), ValueError, "a support hull needs at least one point"),
    (lambda: ff(((1, 0, 0), 1j)), TypeError, f"{COEFF_FAULT}, got 1j"),
    (lambda: FiniteFunction((((1, 0, 0), (1, 0)),)), TypeError, "term index must be MatrixElementIndex, got (1, 0, 0)"),
    (lambda: ProductSpec((((1, 0, 0), 1),)), TypeError, "factor index must be MatrixElementIndex, got (1, 0, 0)"),
    (lambda: MatrixElementIndex(2.0, 0, 0), TypeError, "index components must be twice-value ints"),
    (lambda: power_scan(ff(((1, 0, 0), 1)), 0), ValueError, "pmax must be >= 1"),
    (lambda: mc_scan(ff(((1, 0, 0), 1)), 0), ValueError, "pmax must be >= 1"),
    (lambda: mc_integral(ProductSpec(((idx(1, 0, 0), 2),)), samples=0), ValueError, "samples must be >= 1"),
    (lambda: power_integral(ff(((1, 0, 0), 1)), 0), ValueError, "power must be >= 1"),
    (lambda: power_integral_with_witness(ff(((1, 0, 0), 1)), 0, idx(1, 0, 0)), ValueError, "power must be >= 1"),
    (lambda: enumerate_balanced_compositions(ff(((1, 0, 0), 1)), 0), ValueError, "power must be >= 1"),
    (lambda: _kernel.balanced_compositions([0, 2], [0], 1, 0, 0), ValueError,
     "coordinate lists must have equal length"),
], ids=["empty-hull", "complex-coeff", "non-index-term", "non-index-factor", "float-index", "power-scan-pmax-0",
        "mc-scan-pmax-0", "mc-integral-no-samples", "power-integral-power-0", "witness-power-0",
        "compositions-power-0", "compositions-unequal-coordinates"])
def test_library_input_checks(call, error, message):
    """Each library constructor and entry point rejects what the CLI never passes it."""
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
