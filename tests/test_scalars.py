import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_capped
from su2haar.scalars import RadicalScalar, half_str, parse_half, radical_normalize


class TestHalfInt:
    """Half-integers travel as their twice-values: `parse_half` reads them, `half_str` writes them."""

    def test_parse_and_str(self):
        assert parse_half("3/2") == 3
        assert parse_half("-1/2") == -1
        assert parse_half("2") == 4
        assert parse_half("6/1") == 12
        assert parse_half(Fraction(3, 2)) == 3
        assert parse_half(-2) == -4
        assert half_str(3) == "3/2"
        assert half_str(4) == "2"
        assert half_str(-1) == "-1/2"

    def test_rejects_non_half_integers(self):
        for bad in (Fraction(1, 3), "1/3", "1/4", "1/0", "x", "", "1.5"):
            with pytest.raises(ValueError):
                parse_half(bad)
        for bad in (1.5, None, [1], (1, 2)):
            with pytest.raises(TypeError):
                parse_half(bad)

    @given(st.integers(-10**6, 10**6), st.sampled_from(["", " ", "\t", " \n"]))
    def test_text_round_trip(self, twice, pad):
        assert parse_half(pad + half_str(twice) + pad) == twice
        assert parse_half(Fraction(twice, 2)) == twice
        if twice % 2 == 0:
            assert parse_half(twice // 2) == twice
            assert parse_half(f"{twice // 2}/1") == twice


def sqrt_int(n: int, coeff=1) -> RadicalScalar:
    return RadicalScalar.from_terms(real=[(Fraction(coeff), n)])


class TestRadicalNormalize:
    def test_examples(self):
        assert radical_normalize(Fraction(1), 8) == (Fraction(2), 2)
        assert radical_normalize(Fraction(3, 2), 1) == (Fraction(3, 2), 1)
        assert radical_normalize(Fraction(1), 12) == (Fraction(2), 3)

    def test_invalid_radicand(self):
        with pytest.raises(ValueError):
            radical_normalize(Fraction(1), 0)
        with pytest.raises(ValueError):
            radical_normalize(Fraction(1), -4)

    @given(st.fractions(max_denominator=50), st.integers(min_value=1, max_value=5000))
    def test_value_preserved(self, coeff, radicand):
        out_coeff, out_rad = radical_normalize(coeff, radicand)
        before = float(coeff) * math.sqrt(radicand)
        after = float(out_coeff) * math.sqrt(out_rad)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=1, max_value=5000))
    def test_squarefree_output(self, radicand):
        _, free = radical_normalize(Fraction(1), radicand)
        for d in range(2, 70):
            assert free % (d * d) != 0


coeffs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 8, 10, 12, 18, 45])
term_lists = st.lists(st.tuples(coeffs, radicands), max_size=4)
scalars = st.builds(
    lambda re, im: RadicalScalar.from_terms(real=re, imag=im), term_lists, term_lists
)


class TestRadicalScalar:
    def test_add_examples(self):
        s2 = sqrt_int(2)
        assert (s2 + (-s2)).is_zero()
        one = RadicalScalar.one()
        assert (one + s2).to_json() == {
            "real": [{"radicand": 1, "coeff": "1"}, {"radicand": 2, "coeff": "1"}],
            "imag": [],
        }
        half_r3 = sqrt_int(3, Fraction(1, 2))
        assert half_r3 + one + half_r3 == one + sqrt_int(3)

    def test_mul_examples(self):
        s2 = sqrt_int(2)
        s3 = sqrt_int(3)
        assert s2 * s2 == RadicalScalar.from_rational(2)
        assert s2 * s3 == sqrt_int(6)
        i_s2 = RadicalScalar.from_terms(imag=[(Fraction(1), 2)])
        assert i_s2 * i_s2 == RadicalScalar.from_rational(-2)

    def test_is_zero(self):
        s2 = sqrt_int(2)
        assert (s2 - s2).is_zero()
        assert not (RadicalScalar.one() - s2).is_zero()
        assert RadicalScalar.zero().is_zero()

    def test_canonical_form_merges_radicands(self):
        messy = RadicalScalar.from_terms(real=[(Fraction(1), 8), (Fraction(-2), 2)])
        assert messy.is_zero()

    def test_times_i_power(self):
        x = RadicalScalar.from_gaussian(Fraction(2), Fraction(3))
        assert x.times_i_power(1) == RadicalScalar.from_gaussian(Fraction(-3), Fraction(2))
        assert x.times_i_power(2) == -x
        assert x.times_i_power(4) == x
        assert x.times_i_power(-1) == x.times_i_power(3)

    def test_json_round_trip(self):
        x = RadicalScalar.from_terms(
            real=[(Fraction(1, 2), 1), (Fraction(-2, 3), 6)], imag=[(Fraction(5), 2)]
        )
        assert RadicalScalar.from_json(x.to_json()) == x
        radicands = [t["radicand"] for t in x.to_json()["real"]]
        assert radicands == sorted(radicands)

    def test_prints_values_past_the_digit_limit(self):
        """str() of an int refuses past 4 300 digits; the JSON and text forms print every digit, and the JSON
        form reads back."""
        big = 3 ** 9100                                      # 4 342 digits
        x = RadicalScalar.from_terms(real=[(Fraction(-1, big), 2)], imag=[(Fraction(big), 1)])
        (real,), (imag,) = x.to_json()["real"], x.to_json()["imag"]
        num, den = real["coeff"].split("/")
        assert (num, int(Decimal(den)), int(Decimal(imag["coeff"]))) == ("-1", big, big)
        assert str(x) == f"{real['coeff']}*sqrt(2) + {imag['coeff']}*i"
        assert RadicalScalar.from_json(x.to_json()) == x

    def test_from_json_rejects_exponent_notation(self):
        """Fraction("1e200000000") would build 10^200000000, so the calls run in a capped child."""
        proc = run_capped("""
            from su2haar.scalars import RadicalScalar
            for part, coeff in (("real", "1e200000000"), ("imag", "2.5E-3")):
                try:
                    RadicalScalar.from_json({part: [{"radicand": 1, "coeff": coeff}]})
                    print("accepted")
                except ValueError as e:
                    print(e)
            print(RadicalScalar.from_json({"real": [{"radicand": 2, "coeff": "0.25"}, {"radicand": 3, "coeff": 7}]}))
        """)
        refused = "exponent notation is not accepted; write an integer, p/q or a decimal"
        expected = f"real: {refused}\nimag: {refused}\n1/4*sqrt(2) + 7*sqrt(3)\n"
        assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr

    def test_rational_accessors(self):
        assert RadicalScalar.from_rational(Fraction(3, 4)).as_rational() == Fraction(3, 4)
        with pytest.raises(ValueError):
            sqrt_int(2).as_rational()

    @given(scalars, scalars, scalars)
    @settings(max_examples=150)
    def test_distributivity(self, x, y, z):
        assert (x + y) * z == x * z + y * z

    @given(scalars, scalars)
    @settings(max_examples=150)
    def test_commutativity(self, x, y):
        assert x * y == y * x
        assert x + y == y + x

    @given(scalars)
    def test_self_difference_is_zero(self, x):
        assert (x - x).is_zero()

    @given(scalars)
    def test_canonicalization_idempotent(self, x):
        rebuilt = RadicalScalar.from_terms(
            real=[(c, r) for r, c in x.real_terms()],
            imag=[(c, r) for r, c in x.imag_terms()],
        )
        assert rebuilt == x

    @given(scalars)
    def test_float_agrees_with_structure(self, x):
        z = x.to_complex()
        manual = sum(float(c) * math.sqrt(r) for r, c in x.real_terms()) + 1j * sum(
            float(c) * math.sqrt(r) for r, c in x.imag_terms()
        )
        assert z == pytest.approx(manual)

    @given(scalars, scalars)
    @settings(max_examples=100)
    def test_mul_matches_float(self, x, y):
        exact = (x * y).to_complex()
        approx = x.to_complex() * y.to_complex()
        assert exact == pytest.approx(approx, rel=1e-9, abs=1e-9)

    def test_conjugate(self):
        x = RadicalScalar.from_terms(real=[(Fraction(1), 2)], imag=[(Fraction(3), 5)])
        assert x.conjugate() == RadicalScalar.from_terms(
            real=[(Fraction(1), 2)], imag=[(Fraction(-3), 5)]
        )
        assert not (x * x.conjugate()).imag_terms()


class TestRadicalScalarLaws:
    """Laws of the one-map value type that the examples above leave open."""

    @given(scalars)
    def test_times_i_power_is_repeated_multiplication_by_i(self, x):
        for k in range(-9, 10):
            unit = RadicalScalar.from_gaussian(0, 1 if k >= 0 else -1)
            expected = x
            for _ in range(abs(k)):
                expected = expected * unit
            assert x.times_i_power(k) == expected, k

    @given(scalars, scalars, scalars)
    @settings(max_examples=100)
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(term_lists, term_lists, st.randoms(use_true_random=False))
    def test_equal_values_hash_equal(self, real, imag, rnd):
        """Each term c*sqrt(r) rewritten as (c/2)*sqrt(r) + (c/4k)*sqrt(4k^2 r), then shuffled."""
        def disguise(terms):
            out = []
            for c, r in terms:
                k = rnd.choice((1, 2, 3))
                out += [(c / 2, r), (c / (4 * k), 4 * k * k * r)]
            rnd.shuffle(out)
            return out

        x = RadicalScalar.from_terms(real=real, imag=imag)
        y = RadicalScalar.from_terms(real=disguise(real), imag=disguise(imag))
        assert y == x
        assert hash(y) == hash(x)
        assert len({x, y}) == 1

    @given(scalars, coeffs, st.integers(1, 12))
    def test_as_rational_returns_a_fraction(self, x, c, k):
        square = RadicalScalar.from_terms(real=[(c, k * k)])
        assert square.as_rational() == c * k
        for value in (square, x - x, x * 0, RadicalScalar.from_rational(k), RadicalScalar.from_gaussian(c, 0)):
            assert type(value.as_rational()) is Fraction
        if x.is_rational():
            assert type(x.as_rational()) is Fraction
