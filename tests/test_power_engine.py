"""Differential tests of the one-pass power engine behind power_scan.

Every value must equal the composition oracle (the multinomial sum over
frequency-balanced compositions) and, where it is cheap enough, the
unfiltered brute-force sum.  Fuzz streams must be byte-identical to the ones
the harness writes with the oracle in place of the engine.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ACCEPTANCE,
    all_indices,
    brute_force_power_integral,
    composition_power_integral,
    composition_power_scan,
    ff,
    idx,
)
from su2haar.cli import main
from su2haar.powers import FiniteFunction, power_scan
from su2haar.wigner import MatrixElementIndex, theta_restriction

H = Fraction(1, 2)

COMPLEX_POOL = [
    (Fraction(1), Fraction(0)),
    (Fraction(-2), Fraction(1)),
    (Fraction(1, 2), Fraction(-3, 2)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1, 3), Fraction(0)),
]

SPIN_5_2 = all_indices(Fraction(5, 2))
RADICAL = {r: [i for i in SPIN_5_2 if theta_restriction(i).radicand == r] for r in (2, 3, 6)}


def random_instance(rnd: random.Random, radicand: int) -> FiniteFunction:
    """2 to 4 distinct elements of spin <= 5/2, the first carrying sqrt(radicand).

    The second sits at the negated support point of the first, so the origin
    is inside the hull and most powers do not vanish.
    """
    first = rnd.choice(RADICAL[radicand])
    chosen = [first, rnd.choice([i for i in SPIN_5_2 if (i.m2, i.n2) == (-first.m2, -first.n2)])]
    while len(chosen) < rnd.randint(2, 4):
        extra = rnd.choice(SPIN_5_2)
        if extra not in chosen:
            chosen.append(extra)
    return FiniteFunction.from_terms([(i, rnd.choice(COMPLEX_POOL)) for i in chosen])


def assert_scan_matches_oracle(f, pmax, witness=None):
    got = power_scan(f, pmax, witness=witness)
    assert [p for p, _ in got] == list(range(1, pmax + 1))
    for p, value in got:
        assert value == composition_power_integral(f, p, witness), (f.to_json(), str(witness), p)


class TestAgainstOracles:
    def test_random_instances_with_radicals(self):
        """Integer and half-integer spins <= 5/2, sqrt 2, 3 and 6, complex coefficients."""
        rnd = random.Random(20261018)
        spins = set()
        nonzero = 0
        for trial in range(36):
            f = random_instance(rnd, (2, 3, 6)[trial % 3])
            spins.update(i.l2 % 2 for i, _ in f.terms)
            got = power_scan(f, 6)
            for p, value in got:
                assert value == composition_power_integral(f, p), (f.to_json(), p)
                nonzero += not value.is_zero()
            if len(f) <= 3:
                for p, value in got[:3]:
                    assert value == brute_force_power_integral(f, p), (f.to_json(), p)
        assert spins == {0, 1}
        assert nonzero >= 10

    def test_irrational_values_appear(self):
        """sqrt 6 * sqrt 2 folds into 2 sqrt 3; sqrt 2, sqrt 3 and sqrt 6 reach the values."""
        f = ff(((2, 0, 1), 1), ((1, 0, -1), (0, 1)), ((H, -H, -H), 1), ((H, H, -H), -2),
               ((H, H, H), (1, 1)), ((Fraction(3, 2), Fraction(3, 2), H), 1), ((1, -1, 0), 1))
        radicands = set()
        for p, value in power_scan(f, 4):
            assert value == composition_power_integral(f, p)
            radicands.update(r for r, _ in value.real_terms() + value.imag_terms())
        assert {2, 3, 6} <= radicands

    @pytest.mark.parametrize("seed", range(3))
    def test_witness_on_and_off_the_support(self, seed):
        rnd = random.Random(seed)
        f = random_instance(rnd, (2, 3, 6)[seed])
        first = f.terms[0][0]
        on = [i for i in SPIN_5_2 if (i.m2, i.n2) == (-first.m2, -first.n2)]
        off = [i for i in all_indices(2) if (i.m2, i.n2) == (3, -1)]
        for witness in (rnd.choice(on), rnd.choice(off), idx(0, 0, 0)):
            assert_scan_matches_oracle(f, 5, witness)
            for p, value in power_scan(f, 3, witness=witness):
                assert value == brute_force_power_integral(f, p, witness)

    def test_large_coefficients_fill_the_slots(self):
        big = (Fraction(10 ** 6, 7), Fraction(-999_999, 11))
        f = ff(((2, 1, -1), big), ((2, -1, 1), (Fraction(10 ** 6, 7), 0)),
               ((Fraction(3, 2), H, -H), (0, Fraction(-10 ** 6, 13))), ((1, 0, 0), big))
        assert_scan_matches_oracle(f, 8)
        assert_scan_matches_oracle(f, 6, idx(1, 0, 0))
        assert not power_scan(f, 8)[-1][1].is_zero()

    def test_acceptance_instance_pmax_16(self):
        f = ff(*ACCEPTANCE)
        assert_scan_matches_oracle(f, 16)
        assert_scan_matches_oracle(f, 16, idx(2, -1, 1))

    def test_origin_outside(self):
        """Origin outside the hull: f^P always vanishes, f^P * h not below its threshold.

        The nonzero P = 2 row of the witness scan lies below pmax, so the
        pruning must keep states that reach the target before the last step.
        """
        f = ff(((2, 2, 1), (1, 1)), ((1, 1, 0), 2), ((H, H, -H), (0, -1)))
        assert all(value.is_zero() for _, value in power_scan(f, 40))
        g = ff(((H, H, H), 1), ((1, 1, 0), (0, 2)))
        h = idx(Fraction(3, 2), Fraction(-3, 2), Fraction(-1, 2))
        scan = power_scan(g, 8, witness=h)
        assert [p for p, value in scan if not value.is_zero()] == [2]
        assert_scan_matches_oracle(g, 8, h)


@st.composite
def pool_functions(draw):
    """1 to 4 distinct elements of spin <= 3/2 with coefficients from COMPLEX_POOL."""
    indices = draw(st.lists(st.sampled_from(all_indices(Fraction(3, 2))), min_size=1, max_size=4, unique=True))
    return FiniteFunction(tuple((i, draw(st.sampled_from(COMPLEX_POOL))) for i in indices))


@settings(max_examples=60, deadline=None)
@given(pool_functions(), st.integers(1, 8))
def test_plain_scan_is_the_scan_with_witness_t000(f, pmax):
    """Without a witness the scan starts from t[0,0,0] = 1, so naming that witness changes nothing."""
    assert power_scan(f, pmax, MatrixElementIndex(0, 0, 0)) == power_scan(f, pmax)


class TestFuzzStreamIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_composition_oracle_stream(self, capsys, monkeypatch, seed):
        import su2haar.harness as harness_mod

        argv = ["fuzz", "--seed", str(seed), "--trials", "100"]
        assert main(argv) == 0
        engine = capsys.readouterr().out
        monkeypatch.setattr(harness_mod, "power_scan", composition_power_scan)
        assert main(argv) == 0
        oracle = capsys.readouterr().out
        assert engine == oracle
        assert engine.count("\n") == 101
