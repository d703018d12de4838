import contextlib
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import run_capped
from oracles import parse_value
from su2haar.scalars import MAX_DIGITS, RadicalScalar, half_str, parse_half, radical_normalize, read_rational


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
        for bad in (Fraction(1, 3), "1/3", "1/4", "1/0", "x", "", "1.5", "1_0", "1/2_0"):
            with pytest.raises(ValueError, match="^not a half-integer: "):
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


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's 4 300-digit limit on int/str conversion, and restore it afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# digit strings on both sides of the int/str digit limit and of the cap
digit_strings = st.builds(
    lambda n, seed: "".join(random.Random(seed).choices("0123456789", k=n)),
    st.integers(1, 30) | st.integers(4295, 4305) | st.integers(MAX_DIGITS - 5, MAX_DIGITS + 5),
    st.integers(0, 2 ** 32),
)
signs = st.sampled_from(["", "-", "+"])
spellings = st.one_of(
    st.tuples(st.just("int"), signs, digit_strings, st.just("")),
    st.tuples(st.just("p"), signs, digit_strings, st.just("")),
    st.tuples(st.just("p/q"), signs, digit_strings, digit_strings | st.just("0")),
    st.tuples(st.just("decimal"), signs, digit_strings | st.just(""), digit_strings | st.just("")),
    st.tuples(st.just("Decimal"), signs, digit_strings, st.integers(-420, 420)),
)


class TestReadRational:
    """`read_rational` is the one reader of exact rationals out of JSON values."""

    @given(spellings, st.sampled_from(["", " ", "\t\n "]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction(self, spelling, pad):
        """Fraction, with no digit limit, is the oracle up to the cap; past it text and numbers are refused."""
        kind, sign, a, b = spelling
        with no_digit_limit():
            if kind == "int":
                value = int(sign + a)                   # an int is itself at any size
                digits = 0
            elif kind == "Decimal":
                # b moves the point from just after the last digit, so the exponent lands on both sides of the range
                value = Decimal(f"{sign}{a}E{b - len(a)}")
                digits = len(value.as_tuple().digits)
            else:
                assume(a or b)
                value = pad + sign + a + {"p": "", "p/q": "/", "decimal": "."}[kind] + b + pad
                digits = len(a) + len(b)
            try:
                expected = Fraction(value)
            except (ValueError, ZeroDivisionError):
                expected = None
            if digits > MAX_DIGITS or (kind == "Decimal" and value and not -324 <= value.adjusted() <= 308):
                expected = None
        if expected is None:
            with pytest.raises(ValueError):
                read_rational(value)
        else:
            assert read_rational(value) == expected

    @given(st.floats())
    def test_float_is_the_decimal_it_prints_as(self, x):
        if math.isfinite(x):
            assert read_rational(x) == Fraction(repr(x))
        else:
            with pytest.raises(ValueError, match="^invalid rational$"):
                read_rational(x)

    def test_faults(self):
        for bad in (True, False, None, [1], {"p": 1}, Fraction(1, 2), 1j):
            with pytest.raises(TypeError):
                read_rational(bad)
        faults = {
            "exponent notation is not accepted; write an integer, p/q or a decimal": [
                "1e5", "2.5E-3", ".5e2", " -7.E+12 ", "1" * (MAX_DIGITS + 1) + "e5"],
            "a JSON number's exponent must lie in -324..308": [Decimal("1E+309"), Decimal("-1E-325")],
            f"a rational may have at most {MAX_DIGITS} digits": [
                "1" * (MAX_DIGITS + 1), "1/" + "1" * MAX_DIGITS,
                "." + "0" * (MAX_DIGITS + 1), Decimal("0." + "7" * (MAX_DIGITS + 1))],
            "invalid rational": ["", ".", "-", "1/", "/2", "1/0", "1.5/2", "1 / 2", "1_000", "--1", "nan", "inf",
                                 "none", "one", "yes", "e", "1e", "E5", ".e5", "1e5.", "1/2e5", "1e+-5", "1e 5",
                                 Decimal("NaN"), Decimal("-Infinity"), Decimal("sNaN")],
        }
        for message, values in faults.items():
            for bad in values:
                with pytest.raises(ValueError) as raised:
                    read_rational(bad)
                assert str(raised.value) == message

    def test_spellings(self):
        assert [read_rational(v) for v in (" -3/4\n", "+.5", "7.", "0.25", 0.1, Decimal("-2.50"), Decimal("1E+3"))] == [
            Fraction(-3, 4), Fraction(1, 2), 7, Fraction(1, 4), Fraction(1, 10), Fraction(-5, 2), 1000]
        big = 3 ** 9100                                      # 4 342 digits
        assert read_rational("-1/" + str(Decimal(big))) == Fraction(-1, big)
        assert read_rational(big ** 3) == big ** 3            # an int is itself at any size
        assert read_rational("0." + "7" * 5000) == Fraction(int(Decimal("7" * 5000)), 10 ** 5000)


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

    @given(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 997]), st.integers(0, 300)), max_size=4))
    def test_smooth_radicands_match_one_factor_at_a_time(self, factors):
        """Dividing out each prime by repeated squaring finds the exponents that one division per factor does."""
        radicand = math.prod(p ** e for p, e in factors)
        square, free = 1, 1
        for p in sorted({p for p, _ in factors}):
            e = sum(k for q, k in factors if q == p)
            square, free = square * p ** (e // 2), free * p ** (e % 2)
        assert radical_normalize(Fraction(-2, 3), radicand) == (Fraction(-2, 3) * square, free)

    def test_smooth_radicands_are_fast(self):
        """One division per factor costs time quadratic in a prime's exponent; 2^40000 and 3^20000 must not."""
        proc = run_capped("""
            import time
            from fractions import Fraction
            from su2haar.scalars import RadicalScalar, radical_normalize
            start = time.process_time()
            value = RadicalScalar.from_terms(real=[(Fraction(1), 2 ** 40000)])
            coeff, radicand = radical_normalize(Fraction(1), 3 ** 20000)
            elapsed = time.process_time() - start
            print(value == RadicalScalar.from_rational(Fraction(2 ** 20000)), (coeff, radicand) == (3 ** 10000, 1))
            print(elapsed < 0.15 or elapsed)
        """)
        assert (proc.returncode, proc.stdout) == (0, "True True\nTrue\n"), proc.stderr


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
        assert parse_value(x.to_json()) == {1: (Fraction(1, 2), 0), 2: (0, 5), 6: (Fraction(-2, 3), 0)}
        radicands = [t["radicand"] for t in x.to_json()["real"]]
        assert radicands == sorted(radicands)

    def test_prints_values_past_the_digit_limit(self):
        """str() of an int refuses past 4 300 digits; the JSON and text forms print every digit, and the JSON
        form reads back through Decimal."""
        big = 3 ** 9100                                      # 4 342 digits
        x = RadicalScalar.from_terms(real=[(Fraction(-1, big), 2)], imag=[(Fraction(big), 1)])
        (real,), (imag,) = x.to_json()["real"], x.to_json()["imag"]
        num, den = real["coeff"].split("/")
        assert (num, int(Decimal(den)), int(Decimal(imag["coeff"]))) == ("-1", big, big)
        assert str(x) == f"{real['coeff']}*sqrt(2) + {imag['coeff']}*i"
        assert parse_value(x.to_json()) == {1: (0, big), 2: (Fraction(-1, big), 0)}

    @pytest.mark.parametrize("square, free", [(2 ** 20000, 1), (3 ** 10000, 3), (2 ** 700 * 997 ** 3, 2 * 997)],
                             ids=["2^40000", "3^20001", "2^1401*997^7"])
    def test_json_round_trip_at_smooth_radicands(self, square, free):
        """A value built at radicand square^2 * free is the value at free with the square folded in, and prints so."""
        x = RadicalScalar.from_terms(imag=[(Fraction(-3, 5), square ** 2 * free)])
        assert x == RadicalScalar.from_terms(imag=[(Fraction(-3, 5) * square, free)])
        assert parse_value(x.to_json()) == {free: (0, Fraction(-3, 5) * square)}

    def test_json_round_trip_at_primes_near_max_l2(self):
        """991 and 997 are the largest primes below MAX_L2; a square of 997 folds into the coefficient."""
        x = RadicalScalar.from_terms(real=[(Fraction(-5, 7), 991 * 997)],
                                     imag=[(Fraction(1, 3), 997), (Fraction(2), 2)])
        assert parse_value(x.to_json()) == {2: (0, 2), 997: (0, Fraction(1, 3)), 991 * 997: (Fraction(-5, 7), 0)}
        assert RadicalScalar.from_terms(imag=[(Fraction(1, 997), 2 * 997 ** 2)]) == RadicalScalar.from_terms(
            imag=[(Fraction(1), 2)])

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
        assert y.to_json() == x.to_json()

    @given(scalars)
    def test_printed_form_is_canonical(self, x):
        """Each part prints its radicands ascending and squarefree, and no zero coefficient (`parse_value` checks
        the order and the zeros), so equal values print alike and the printed map is the value's own."""
        printed = x.to_json()
        assert all(term["radicand"] % (d * d) for part in printed.values() for term in part
                   for d in range(2, math.isqrt(term["radicand"]) + 1))
        value = parse_value(printed)
        assert tuple((r, p) for r, (p, _) in sorted(value.items()) if p) == x.real_terms()
        assert tuple((r, q) for r, (_, q) in sorted(value.items()) if q) == x.imag_terms()

    @given(scalars, coeffs, st.integers(1, 12))
    def test_as_rational_returns_a_fraction(self, x, c, k):
        square = RadicalScalar.from_terms(real=[(c, k * k)])
        assert square.as_rational() == c * k
        for value in (square, x - x, x * 0, RadicalScalar.from_rational(k), RadicalScalar.from_gaussian(c, 0)):
            assert type(value.as_rational()) is Fraction
        if x.is_rational():
            assert type(x.as_rational()) is Fraction
