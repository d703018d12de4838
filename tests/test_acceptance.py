"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines
and timings.  Every exact assertion is equality in the radical-rational value
field; tolerances appear only in the Monte Carlo agreement criterion, where
they are statistical (5 standard errors).
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import all_indices, brute_force_power_integral, ff, idx
from su2haar.harness import FuzzConfig, fuzz
from su2haar.hull import SupportHull, origin_in_hull, two_term_criterion, vanishing_threshold
from su2haar.integrals import ProductSpec, frequency_of, integrate_product
from su2haar.numeric import mc_integral
from su2haar.powers import (
    FiniteFunction,
    minimal_balanced_pair,
    power_integral,
    power_integral_with_witness,
    power_scan,
)
from su2haar.scalars import RadicalScalar

H = Fraction(1, 2)


def report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS in {time.perf_counter() - started:.2f}s")


def test_acceptance_1_schur_orthogonality():
    started = time.perf_counter()
    indices = all_indices(2)
    for a in indices:
        for b in indices:
            value = integrate_product(ProductSpec(((a, 1), (b, 1))))
            is_dual = (
                b.l2 == a.l2 and b.m2 == -a.m2 and b.n2 == -a.n2
            )
            if is_dual:
                sign = -1 if ((a.m2 - a.n2) // 2) % 2 else 1
                assert value == RadicalScalar.from_rational(Fraction(sign, a.l2 + 1)), (a, b)
            else:
                assert value.is_zero(), (a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"Schur table took {elapsed:.1f}s, budget 10s"
    report(1, "Schur orthogonality, spin <= 2", started)


def test_acceptance_2_legendre_moments():
    started = time.perf_counter()
    for l in range(1, 6):
        scan = power_scan(ff(((l, 0, 0), 1)), 2)
        assert scan[0][1].is_zero(), l
        assert scan[1][1] == RadicalScalar.from_rational(Fraction(1, 2 * l + 1)), l
    report(2, "diagonal second moments 1/(2l+1)", started)


def test_acceptance_3_single_element_exhaustive():
    started = time.perf_counter()
    for index in all_indices(2):
        f = FiniteFunction(((index, (Fraction(1), Fraction(0))),))
        scan = power_scan(f, 8)
        if index.m2 == 0 and index.n2 == 0:
            value = scan[1][1]
            assert value.is_rational() and value.as_rational() > 0, index
        else:
            assert all(v.is_zero() for _, v in scan), index
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"exhaustive single-element scan took {elapsed:.1f}s, budget 60s"
    report(3, "single elements vanish iff (m,n) != (0,0)", started)


def test_acceptance_4_two_term_equivalence():
    started = time.perf_counter()
    points = [(m2, n2) for m2 in range(-3, 4) for n2 in range(-3, 4) if (m2 - n2) % 2 == 0]

    def min_index(point):
        from su2haar.wigner import MatrixElementIndex

        return MatrixElementIndex(max(abs(point[0]), abs(point[1])), *point)

    mismatches = []
    for p1, p2 in itertools.combinations(points, 2):
        if p1 == p2 == (0, 0):
            continue
        f = FiniteFunction(
            ((min_index(p1), (Fraction(1), Fraction(0))), (min_index(p2), (Fraction(1), Fraction(0))))
        )
        if two_term_criterion(p1, p2):
            alpha, beta = minimal_balanced_pair(p1, p2)
            m_total = alpha + beta
            found = (not power_integral(f, m_total).is_zero()) or (
                not power_integral(f, 2 * m_total).is_zero()
            )
            if not found:
                mismatches.append((p1, p2))
        else:
            if any(not v.is_zero() for _, v in power_scan(f, 8)):
                mismatches.append((p1, p2))
    assert mismatches == []

    witness = ff(((H, H, -H), 1), ((H, -H, H), 1))
    assert power_integral(witness, 2) == RadicalScalar.from_rational(-1)
    report(4, "two-term criterion equivalence, |m|,|n| <= 3/2", started)


def test_acceptance_5_threshold_soundness():
    started = time.perf_counter()

    # concrete case: f = t[1/2,1/2,1/2], h = t[1,-1,-1]
    f = ff(((H, H, H), 1))
    h = idx(1, -1, -1)
    assert power_integral_with_witness(f, 2, h) == RadicalScalar.from_rational(Fraction(1, 3))
    for p in range(3, 13):
        assert power_integral_with_witness(f, p, h).is_zero(), p
    p0 = vanishing_threshold(SupportHull(f.support_points()), (h.m2, h.n2))
    assert p0 == 3

    rnd = random.Random(0xACCE5)
    indices = all_indices(Fraction(3, 2))
    witness_pool = all_indices(2)
    done = 0
    while done < 50:
        k = rnd.randint(1, 3)
        chosen = rnd.sample(indices, k)
        f = FiniteFunction.from_terms(
            [(i, (Fraction(rnd.choice([1, -1, 2])), Fraction(rnd.choice([0, 1])))) for i in chosen]
        )
        hull = SupportHull(f.support_points())
        if origin_in_hull(hull):
            continue
        witness = rnd.choice(witness_pool)
        p0 = vanishing_threshold(hull, (witness.m2, witness.n2))
        for p in range(p0, p0 + 11):
            assert power_integral_with_witness(f, p, witness).is_zero(), (f.to_json(), str(witness), p)
        done += 1
    report(5, "vanishing threshold sound on 50 random (f, h)", started)


def test_acceptance_6_fuzz_1000_reproducible():
    started = time.perf_counter()
    cfg = FuzzConfig(seed=20260808, trials=1000, l_max2=4, k_max=4, p_max=12)
    reports_a, summary_a = fuzz(cfg)
    assert summary_a.violations == []
    assert summary_a.trials_run == 1000
    assert summary_a.counts_by_verdict.get("violation", 0) == 0

    stream_a = "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports_a)
    reports_b, summary_b = fuzz(cfg)
    stream_b = "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports_b)
    assert stream_a == stream_b
    assert summary_a.to_json() == summary_b.to_json()

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"fuzz run took {elapsed:.1f}s, budget 600s"
    report(6, "1000-instance fuzz, zero violations, byte-reproducible", started)


def test_acceptance_7_monte_carlo_agreement():
    started = time.perf_counter()
    rnd = random.Random(0x02ACE)
    indices = all_indices(Fraction(3, 2))

    checked_exact = 0
    seed = 1000
    while checked_exact < 20:
        spec = ProductSpec(
            tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(rnd.randint(1, 3)))
        )
        if frequency_of(spec) != (0, 0):
            continue
        if sum(p * i.l2 for i, p in spec.factors) > 8:
            continue
        exact = integrate_product(spec).to_complex()
        est = mc_integral(spec, samples=1_000_000, seed=seed)
        seed += 1
        assert abs(est.mean - exact) <= 5 * max(est.std_error, 1e-12), (spec.factors, exact, est)
        checked_exact += 1

    checked_zero = 0
    while checked_zero < 10:
        spec = ProductSpec(
            tuple((rnd.choice(indices), rnd.randint(1, 2)) for _ in range(rnd.randint(1, 3)))
        )
        if frequency_of(spec) == (0, 0):
            continue
        est = mc_integral(spec, samples=1_000_000, seed=seed)
        seed += 1
        assert abs(est.mean) <= 5 * max(est.std_error, 1e-12), (spec.factors, est)
        checked_zero += 1
    report(7, "MC agreement within 5 sigma (20 exact + 10 filtered)", started)


def test_acceptance_8_brute_force_equivalence():
    started = time.perf_counter()
    indices = all_indices(1)
    coeffs = [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    ]
    supports = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations(indices, k):
            f = FiniteFunction.from_terms(
                [(index, coeffs[j % len(coeffs)]) for j, index in enumerate(combo)]
            )
            for power in range(1, 5):
                assert power_integral(f, power) == brute_force_power_integral(f, power), (
                    f.to_json(),
                    power,
                )
            supports += 1
    assert supports == 14 + 91 + 364
    report(8, "pruned enumeration equals unfiltered multinomial sum", started)


def test_acceptance_9_performance_envelope():
    started = time.perf_counter()
    f = ff(
        ((2, 2, -2), (1, 0)),
        ((2, -2, 2), (H, 0)),
        ((2, 1, -1), (0, 1)),
        ((2, -1, 1), (1, 1)),
        ((2, 0, 0), (-2, 0)),
    )
    scan = power_scan(f, 16)
    assert len(scan) == 16
    assert not scan[1][1].is_zero()  # P=2 moment of a hull-containing instance
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"k=5 Pmax=16 scan took {elapsed:.1f}s, budget 60s"
    report(9, "k=5, spin <= 2, Pmax=16 power scan inside 60s", started)
