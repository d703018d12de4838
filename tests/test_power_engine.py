"""Differential tests of the one-pass power engine behind power_scan.

Every value must equal the composition oracle (the multinomial sum over
frequency-balanced compositions) and, where it is cheap enough, the
unfiltered brute-force sum.  Fuzz streams must be byte-identical to the ones
the harness writes with the oracle in place of the engine.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ACCEPTANCE,
    RADICALS_5_2,
    all_indices,
    brute_force_power_integral,
    composition_power_integral,
    composition_power_scan,
    ff,
    idx,
)
from oracles import weyl_power_integrals
from su2haar import powers
from su2haar.cli import main
from su2haar.hull import _halfplanes, _reach, convex_hull_ccw
from su2haar.powers import FiniteFunction, power_scan
from su2haar.scalars import RadicalScalar
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
            if len(f.terms) <= 3:
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

    @pytest.mark.parametrize("witness", [None, (H, H, H)], ids=["plain", "witness"])
    def test_every_element_folds(self, witness):
        """Both elements have an odd c parity, so each step can fold in c^2 = 1 - u, of norm 2.

        f is not a class function.  A slot bound that charges the factor 2 of
        that fold to too few elements lets the slots carry into each other.
        """
        f = ff(((H, H, H), 1), ((H, -H, -H), (0, 1)))
        h = None if witness is None else idx(*witness)
        assert power_scan(f, 16, h) == composition_power_scan(f, 16, h)

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


SPIN_3_2 = all_indices(Fraction(3, 2))


@st.composite
def pool_functions(draw, indices=SPIN_3_2):
    """1 to 4 distinct elements of `indices` (every index of spin <= 3/2 by default), coefficients from COMPLEX_POOL."""
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
    return FiniteFunction(tuple((i, draw(st.sampled_from(COMPLEX_POOL))) for i in chosen))


# supports with 2m > 0, so the origin lies outside their hull
RIGHT_OF_ORIGIN = [i for i in SPIN_3_2 if i.m2 > 0]

# A function whose scans cancel states to exactly zero, which power_scan keeps as zero
# states.  The plain scan cancels the state at (2M, 2N, r) = (-1, 1, 3) at steps 3 and
# 7, and those at (1, -1, 3) and (-3, 3, 3) at step 5; with the witness t[1,1,0] the
# same steps cancel states with r = 6.  3 of 5 228 random functions (spin <= 3/2, 2 to
# 5 terms, pmax 6) cancel a state.
CANCELLING = ff(((1, -1, 0), -1), ((Fraction(3, 2), -H, Fraction(-3, 2)), H),
                ((Fraction(3, 2), Fraction(3, 2), H), (0, 1)), ((1, 0, 1), (1, -1)))


@settings(max_examples=120, deadline=None)
@given(pool_functions() | pool_functions(RIGHT_OF_ORIGIN), st.none() | st.sampled_from(SPIN_3_2), st.integers(1, 6))
@example(CANCELLING, None, 8)
@example(CANCELLING, idx(1, 1, 0), 8)
def test_scan_matches_the_composition_oracle(f, witness, pmax):
    """Dead first steps included: the scan returns its zeros early exactly when the oracle finds only zeros."""
    assert power_scan(f, pmax, witness) == composition_power_scan(f, pmax, witness)


@settings(max_examples=100, deadline=None)
@given(pool_functions(RIGHT_OF_ORIGIN), st.sampled_from(SPIN_3_2), st.integers(1, 8))
def test_origin_outside_rows_lie_in_the_reach(f, witness, pmax):
    """With the origin outside, pruning reads both ends of the reach; the scan still equals the oracle.

    A row can be nonzero only if -(2a, 2b) lies in P times the hull of the support.
    """
    scan = power_scan(f, pmax, witness)
    assert scan == composition_power_scan(f, pmax, witness)
    reach = _reach(_halfplanes(convex_hull_ccw(f.support_points())), (-witness.m2, -witness.n2))
    for p, value in scan:
        assert value.is_zero() or (reach is not None and reach[0] <= p <= reach[1])


@pytest.mark.parametrize("terms, witness, pmax", [
    ((((1, 1, 0), 1),), None, 5),                                          # one point off the origin
    ((((H, H, H), 1), ((1, 1, 0), (0, 2)), ((2, 2, -1), (1, 1))), None, 8),  # all on 2m > 0
    ((((H, H, H), 1), ((1, 1, 0), (0, 2))), (1, 1, 1), 6),                 # the witness on the same side
    ((((H, H, H), 1), ((1, 1, 0), (0, 2))), (2, -2, 0), 1),                # one step short of the origin
], ids=["one-point", "half-plane", "witness-same-side", "witness-too-far"])
def test_dead_scan_builds_no_element(monkeypatch, terms, witness, pmax):
    """With no first-step position that can reach the origin in time, no element record is read."""
    def unread(index):
        raise AssertionError(f"record of {index} read by a dead scan")

    f = ff(*terms)
    h = None if witness is None else idx(*witness)
    monkeypatch.setattr(powers, "theta_restriction", unread)
    assert power_scan(f, pmax, h) == [(p, RadicalScalar.zero()) for p in range(1, pmax + 1)]
    monkeypatch.undo()
    assert power_scan(f, pmax, h) == composition_power_scan(f, pmax, h)


@pytest.mark.parametrize("terms, witness, pmax", [
    (ACCEPTANCE, None, 18),
    (ACCEPTANCE, (2, -1, 1), 18),
    (RADICALS_5_2, None, 12),
    ((((1, 0, 0), 1), ((2, 0, 0), 1), ((2, 1, 1), 1)), (2, 1, 1), 4),    # two elements at one position
], ids=["acceptance", "acceptance-with-h", "radicals", "shared-position"])
def test_each_step_count_is_computed_once(monkeypatch, terms, witness, pmax):
    """A scan computes a position's step count at most once, however many states and elements reach it."""
    counted = []

    def counting(hull, point):
        counted.append(point)
        return _reach(hull, point)

    f = ff(*terms)
    h = None if witness is None else idx(*witness)
    monkeypatch.setattr(powers, "_reach", counting)
    values = power_scan(f, pmax, h)
    monkeypatch.undo()
    assert counted and len(counted) == len(set(counted))
    assert values == power_scan(f, pmax, h)


@settings(max_examples=60, deadline=None)
@given(pool_functions(), st.integers(1, 8))
def test_plain_scan_is_the_scan_with_witness_t000(f, pmax):
    """Without a witness the scan starts from t[0,0,0] = 1, so naming that witness changes nothing."""
    assert power_scan(f, pmax, MatrixElementIndex(0, 0, 0)) == power_scan(f, pmax)


def reachable(pos, rem, hull) -> bool:
    """The half-plane rule itself: -pos lies in rem * C, C the intersection of the half-planes `hull`."""
    x, y = pos
    return all(u * x + v * y + rem * c >= 0 for u, v, c in hull)


@st.composite
def supports(draw):
    """1 to 5 points with |2m|, |2n| <= 8, half of the draws on one line through the origin, and half with the origin added.

    One-point and collinear supports give a point or segment hull, whose half-planes through the origin have c = 0;
    without the origin added, the hull may leave it outside.
    """
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=5))
    else:
        dm, dn = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        k = 8 // max(abs(dm), abs(dn), 1)
        points = [(j * dm, j * dn) for j in draw(st.lists(st.integers(-k, k), min_size=1, max_size=5))]
    return points + [(0, 0)] if draw(st.booleans()) else points


@settings(max_examples=500, deadline=None)
@given(supports(), st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
@example([(0, 0)], (0, 0)).via("point hull at the origin")
@example([(0, 0)], (1, -3)).via("point hull at the origin, c = 0 excludes")
@example([(2, 1)], (-6, -3)).via("point hull off the origin, one j")
@example([(2, 1)], (-6, -4)).via("point hull off the origin, no j")
@example([(2, 2), (6, 6)], (-8, -8)).via("segment towards the origin, j in [2, 4]")
@example([(2, 2), (6, 6)], (-8, -6)).via("segment towards the origin, c = 0 excludes")
@example([(-2, 0), (4, 0)], (4, 0)).via("segment through the origin, unbounded above")
def test_reach_matches_a_scan_over_j(support, pos):
    """`_reach(hull, -pos)` is the set of j >= 0 with -pos in j * hull: a scan of j over [0, 60] and both ends."""
    hull = _halfplanes(convex_hull_ccw(support))
    reach = _reach(hull, (-pos[0], -pos[1]))
    scanned = [j for j in range(61) if reachable(pos, j, hull)]
    if reach is None:
        assert scanned == []
        return
    lo, hi = reach
    assert scanned == [j for j in range(61) if lo <= j and (hi is None or j <= hi)]
    assert reachable(pos, lo, hull) and (lo == 0 or not reachable(pos, lo - 1, hull))
    if hi is None:
        assert all(c >= 0 for _, _, c in hull) and reachable(pos, lo + 10 ** 6, hull)
    else:
        assert reachable(pos, hi, hull) and not reachable(pos, hi + 1, hull)


def class_function(chars) -> FiniteFunction:
    """f = sum_l a_l chi_l, chi_l = sum_m t[l,m,m], from pairs (l2, a_l) of distinct twice-spins."""
    return FiniteFunction(tuple((MatrixElementIndex(l2, m2, m2), a) for l2, a in chars for m2 in range(-l2, l2 + 1, 2)))


def scan_values(f, pmax):
    return [value for _, value in power_scan(f, pmax)]


class TestWeylOracle:
    """Class functions against the Weyl integration formula, which shares no code with power_scan."""

    def test_chi_half_gives_the_catalan_numbers(self):
        values = weyl_power_integrals([(1, (1, 0))], 20)
        catalan = [math.comb(p, p // 2) // (p // 2 + 1) if p % 2 == 0 else 0 for p in range(1, 21)]
        assert values == [RadicalScalar.from_terms(real=[(Fraction(c), 1)]) for c in catalan]
        assert scan_values(class_function([(1, (1, 0))]), 20) == values

    # P = 48 costs about 1.4 s per row in power_scan and grows fast (about 6 s at P = 64)
    @pytest.mark.parametrize("chars", [
        ((2, (1, 0)), (4, (H, H)), (1, (-3, 0))),        # chi_1 + (1+i)/2 chi_2 - 3 chi_1/2
        ((5, (1, 0)), (3, (0, -1))),                     # chi_5/2 - i chi_3/2
    ], ids=["chi1+chi2-chi1/2", "chi5/2-i*chi3/2"])
    def test_deep_rows(self, chars):
        assert scan_values(class_function(chars), 48) == weyl_power_integrals(chars, 48)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.tuples(
        st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3)).filter(any)),
        min_size=1, max_size=3, unique_by=lambda char: char[0]), st.integers(1, 16))
    def test_random_class_functions(self, chars, pmax):
        assert scan_values(class_function(chars), pmax) == weyl_power_integrals(chars, pmax)


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
