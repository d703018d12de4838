import json
import math
import random
from fractions import Fraction

import pytest

from conftest import all_indices, composition_power_scan, ff, idx
from su2haar.harness import (
    DEFAULT_COEFF_POOL,
    FuzzConfig,
    FuzzSummary,
    InstanceReport,
    SuiteItem,
    SuiteReport,
    _origin_combination_by_solve,
    _random_rank2_indices,
    check_proven_direction,
    classify_instance,
    fuzz,
    generate_instance,
    run_verification_suite,
    trial_rng,
)
from su2haar.hull import HullCertificate, SupportHull, hull_certificate, origin_in_hull, rank_classification
from su2haar.integrals import ProductSpec
from su2haar.numeric import EulerAngles, eval_matrix_element
from su2haar.powers import power_scan
from su2haar.scalars import RadicalScalar
from su2haar.wigner import MAX_L2, MatrixElementIndex, matrix_element_trigpoly

H = Fraction(1, 2)


class TestClassify:
    def test_single(self):
        assert classify_instance(ff(((H, H, H), 1))) == "single"

    def test_two_term(self):
        assert classify_instance(ff(((H, H, H), 1), ((1, 0, 0), 1))) == "two-term"

    def test_three_term_rank_1(self):
        f = ff(((0, 0, 0), 1), ((1, 0, 0), 1), ((2, 0, 0), 1))
        assert classify_instance(f) == "three-term-rank-1"

    def test_three_term_rank_2(self):
        f = ff(((0, 0, 0), 1), ((1, 1, 1), 1), ((2, 2, 2), 1))
        assert classify_instance(f) == "three-term-rank-2"

    def test_three_term_rank_3(self):
        f = ff(((1, 1, 0), 1), ((1, 0, 1), 1), ((1, -1, -1), 1))
        assert classify_instance(f) == "three-term-rank-3"

    def test_general(self):
        f = ff(((1, 1, 0), 1), ((1, 0, 1), 1), ((1, -1, -1), 1), ((0, 0, 0), 1))
        assert classify_instance(f) == "general-k"


class TestProvenDirection:
    def test_hull_excluding_consistent(self):
        report = check_proven_direction(ff(((H, H, H), 1)), 8)
        assert report.verdict == "consistent"
        assert not report.origin_inside
        assert report.first_nonzero_p is None

    def test_hull_containing_with_nonzero(self):
        report = check_proven_direction(ff(((1, 0, 0), 1)), 2)
        assert report.verdict == "consistent"
        assert report.origin_inside
        assert report.first_nonzero_p == 2

    def test_two_term_witness_instance(self):
        f = ff(((H, H, -H), 1), ((H, -H, H), 1))
        report = check_proven_direction(f, 2)
        assert report.verdict == "consistent"
        assert report.scan[1][1].as_rational() == -1

    def test_inconclusive_needs_origin_inside_and_all_zero(self):
        # rank-2 style cancellation cannot be ruled out by a scan; at small
        # pmax even honest instances look inconclusive
        f = ff(((1, 0, 0), 1))
        report = check_proven_direction(f, 1)
        assert report.verdict == "inconclusive-candidate"

    def test_report_json_shape(self):
        report = check_proven_direction(ff(((H, H, H), 1)), 3, trial=7)
        obj = report.to_json()
        assert obj["schema"] == 1
        assert obj["trial"] == 7
        assert obj["case"] == "single"
        assert len(obj["scan"]) == 3


class TestVerdictRule:
    """The verdict, first nonzero P, pmax and case of a hand-built report are read off its evidence."""

    ZERO, ONE = RadicalScalar.zero(), RadicalScalar.from_rational(1)
    F = ff(((1, 1, 0), 1), ((1, 0, 1), 1), ((1, -1, -1), 1))

    @pytest.mark.parametrize(
        "inside, values, verdict, first",
        [
            (False, (ZERO, ONE, ZERO), "violation", 2),
            (False, (ZERO, ZERO, ZERO), "consistent", None),
            (True, (ZERO, ONE, ZERO), "consistent", 2),
            (True, (ZERO, ZERO, ZERO), "inconclusive-candidate", None),
        ],
        ids=["outside-nonzero", "outside-zero", "inside-nonzero", "inside-zero"],
    )
    def test_verdict(self, inside, values, verdict, first):
        report = InstanceReport(self.F, inside, tuple(enumerate(values, 1)), trial=5)
        assert (report.verdict, report.first_nonzero_p) == (verdict, first)
        obj = report.to_json()
        assert (obj["verdict"], obj["first_nonzero_p"], obj["trial"]) == (verdict, first, 5)
        assert obj["pmax"] == len(values) == 3
        assert obj["case"] == classify_instance(self.F) == "three-term-rank-3"

    def test_summary_tallies_its_reports(self):
        zeros = ((1, self.ZERO), (2, self.ZERO))
        reports = (InstanceReport(self.F, True, zeros, 0), InstanceReport(ff(((H, H, H), 1)), False, zeros, 1),
                   InstanceReport(self.F, False, ((1, self.ONE),), 2))
        summary = FuzzSummary(seed=9, reports=reports)
        assert summary.to_json() == {
            "schema": 1, "summary": True, "seed": 9, "trials_run": 3,
            "counts_by_verdict": {"consistent": 1, "inconclusive-candidate": 1, "violation": 1},
            "counts_by_case": {"single": 1, "three-term-rank-3": 2},
            "violations": [2],
        }


class TestRecords:
    """Every value record is immutable and compares and hashes as the tuple of its fields."""

    ZERO = RadicalScalar.zero()

    @pytest.mark.parametrize(
        "make, fields",
        [
            (lambda: MatrixElementIndex(2, 0, -2), ("l2", "m2", "n2")),
            (lambda: ff(((1, 0, 0), 1), ((H, H, -H), (0, 1))), ("terms",)),
            (lambda: ProductSpec(((idx(1, 0, 0), 2), (idx(H, H, H), 1))), ("factors",)),
            (lambda: SupportHull(((2, 0), (-2, 0))), ("points",)),
            (lambda: HullCertificate(weights=(H, H)), ("weights", "separator")),
            (lambda: InstanceReport(ff(((1, 0, 0), 1)), True, ((1, TestRecords.ZERO),), 3),
             ("function", "origin_inside", "scan", "trial")),
            (lambda: FuzzConfig(seed=1, trials=2), ("seed", "trials", "l_max2", "k_max", "p_max", "rank2_bias")),
            (lambda: FuzzSummary(1, ()), ("seed", "reports")),
            (lambda: SuiteItem("item", True, "ok"), ("name", "passed", "detail")),
            (lambda: SuiteReport((SuiteItem("item", True, "ok"),)), ("items",)),
        ],
        ids=["MatrixElementIndex", "FiniteFunction", "ProductSpec", "SupportHull", "HullCertificate",
             "InstanceReport", "FuzzConfig", "FuzzSummary", "SuiteItem", "SuiteReport"],
    )
    def test_frozen_equal_and_hashed_by_fields(self, make, fields):
        a, b = make(), make()
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in fields))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))


class TestFuzz:
    def test_determinism_byte_identical(self):
        cfg = FuzzConfig(seed=42, trials=25, l_max2=4, k_max=4, p_max=6)
        r1, s1 = fuzz(cfg)
        r2, s2 = fuzz(cfg)
        lines1 = [json.dumps(r.to_json(), sort_keys=True) for r in r1]
        lines2 = [json.dumps(r.to_json(), sort_keys=True) for r in r2]
        assert lines1 == lines2
        assert s1.to_json() == s2.to_json()

    def test_no_violations_small_run(self):
        cfg = FuzzConfig(seed=1, trials=50, p_max=8)
        reports, summary = fuzz(cfg)
        assert summary.trials_run == 50
        assert summary.violations == []
        assert len(reports) == 50
        assert sum(summary.counts_by_verdict.values()) == 50

    def test_rank2_bias_generator_contract(self):
        cfg = FuzzConfig(seed=5, trials=40, rank2_bias=1.0, k_max=3, p_max=2)
        for trial in range(cfg.trials):
            f = generate_instance(trial_rng(cfg.seed, trial), cfg)
            assert classify_instance(f) == "three-term-rank-2"

    @pytest.mark.parametrize("l_max2", range(1, 9))
    def test_rank2_indices_hold_by_construction(self, l_max2):
        """Without re-checking them, the drawn indices are distinct, within the spin bound and of rank 2."""
        for seed in range(200):
            indices = _random_rank2_indices(random.Random(seed), l_max2)
            if indices is None:
                continue
            assert len(set(indices)) == 3
            assert all(index.l2 <= l_max2 for index in indices)
            assert rank_classification(*((index.m2, index.n2) for index in indices)) == 2

    def test_trial_rng_stability(self):
        a = trial_rng(9, 3).random()
        b = trial_rng(9, 3).random()
        c = trial_rng(9, 4).random()
        assert a == b != c

    def test_generated_instances_respect_config(self):
        cfg = FuzzConfig(seed=11, trials=1, l_max2=3, k_max=3, p_max=2)
        for trial in range(60):
            f = generate_instance(trial_rng(cfg.seed, trial), cfg)
            assert 1 <= len(f) <= 3
            for index, coeff in f.terms:
                assert index.l2 <= 3
                assert coeff in DEFAULT_COEFF_POOL

    def test_config_validation(self):
        """Each of the eight rules rejects its input; the message starts with the field it names."""
        cases = [
            ({"l_max2": -1}, "l_max2"),
            ({"l_max2": MAX_L2 + 1}, "l_max2"),             # the index cap, checked before any trial
            ({"trials": 0}, "trials"),
            ({"k_max": 0}, "k_max"),
            ({"p_max": 0}, "p_max"),
            ({"rank2_bias": 1.5}, "rank2_bias"),
            ({"rank2_bias": -0.25}, "rank2_bias"),
            ({"rank2_bias": float("nan")}, "rank2_bias"),
            ({"rank2_bias": 0.5, "k_max": 2}, "rank2_bias"),
            ({"rank2_bias": 0.5, "l_max2": 0}, "rank2_bias"),
            ({"l_max2": 1, "k_max": 6}, "k_max"),
        ]
        for kwargs, field in cases:
            with pytest.raises(ValueError, match=f"^{field} ") as info:
                FuzzConfig(**{"seed": 0, "trials": 1, **kwargs})
            assert "\n" not in str(info.value)
        # the precondition speaks of spin, not of the twice-int field a CLI user never types
        with pytest.raises(ValueError, match="largest spin of at least 1/2$"):
            FuzzConfig(seed=0, trials=1, rank2_bias=0.5, k_max=3, l_max2=0)


    @pytest.mark.parametrize("l_max2", range(0, 6))
    def test_k_max_bounded_by_index_count(self, l_max2):
        """A trial draws k distinct indices, so k_max may not exceed how many exist."""
        count = len(all_indices(Fraction(l_max2, 2)))
        cfg = FuzzConfig(seed=3, trials=4, l_max2=l_max2, k_max=count, p_max=1)
        reports, summary = fuzz(cfg)
        assert summary.trials_run == 4
        assert all(len(r.function) <= count for r in reports)
        with pytest.raises(ValueError, match=f"k_max must be <= {count}"):
            FuzzConfig(seed=3, trials=4, l_max2=l_max2, k_max=count + 1)


class TestLegendreMoments:
    """integral(f^P) for f = sum_l A_l t[l,0,0] is the moment (1/2) integral_{-1}^{1} (sum_l A_l P_l)^P dx."""

    @staticmethod
    def first_nonzero(f, pmax):
        return next(((p, v) for p, v in power_scan(f, pmax) if not v.is_zero()), None)

    def test_constant(self):
        assert self.first_nonzero(ff(((0, 0, 0), 1)), 3) == (1, RadicalScalar.one())

    def test_pure_p1(self):
        assert self.first_nonzero(ff(((1, 0, 0), 1)), 4) == (2, RadicalScalar.from_rational(Fraction(1, 3)))

    def test_mixed(self):
        f = ff(((1, 0, 0), 1), ((2, 0, 0), 1))
        assert self.first_nonzero(f, 4) == (2, RadicalScalar.from_rational(Fraction(8, 15)))

    @pytest.mark.parametrize("l", range(0, 5))
    def test_cross_check_against_power_scan(self, l):
        """power_scan on A*t[l,0,0] matches the composition oracle term by term."""
        f = ff(((l, 0, 0), (Fraction(1), Fraction(2))))
        assert power_scan(f, 6) == composition_power_scan(f, 6)


class TestVerificationSuite:
    def test_all_items_pass(self):
        report = run_verification_suite()
        for item in report.items:
            assert item.passed, f"{item.name}: {item.detail}"
        assert report.all_passed
        names = [i.name for i in report.items]
        assert "schur-orthogonality" in names
        assert "two-term-criterion" in names
        assert "threshold-soundness" in names

    def test_failing_check_reports_its_detail(self, monkeypatch):
        import su2haar.harness as harness_mod

        monkeypatch.setattr(harness_mod, "integrate_product", lambda spec: RadicalScalar.zero())
        report = run_verification_suite()
        assert not report.all_passed
        failed = {item.name: item.detail for item in report.items if not item.passed}
        assert failed == {"schur-orthogonality": "pair t[0,0,0] x t[0,0,0]: got 0, expected 1"}
        assert [item.name for item in report.items] == [
            "schur-orthogonality", "single-element-scans", "two-term-criterion",
            "three-term-rank-consistency", "threshold-soundness",
        ]

    @pytest.mark.parametrize("pts, solvable", [
        ([(0, 0)] * 3, True),
        ([(2, 0)] * 3, False),
        ([(0, 0), (2, 0), (4, 0)], None),
        ([(2, 0), (-2, 2), (-2, -2)], True),
    ], ids=["rank-1-origin", "rank-1-off-origin", "rank-2", "rank-3"])
    def test_origin_combination_by_solve(self, pts, solvable):
        """The rank-consistency item's exact solve at each rank; its seeded triples never reach rank 1."""
        assert _origin_combination_by_solve(pts) is solvable


# Origin inside the hull, yet every power integral vanishes: the converse of the
# proven direction, stated on the raw (m, n) support, is false.  Each is a one-sided
# translate of a function with the origin outside its hull (TRANSLATES below); the
# Haar measure is bi-invariant, so both vanish by the proven direction on that translate.
INSIDE_BUT_VANISHING = [
    # -t[1,-1,-1] + t[1/2,-1/2,1/2] - t[1/2,1/2,1/2] + t[1,1,-1]
    pytest.param((((1, -1, -1), -1), ((H, -H, H), 1), ((H, H, H), -1), ((1, 1, -1), 1)), id="A"),
    # 1/2 t[1,0,-1] - i t[1,0,0] - t[1,0,1] - t[2,-2,0]: t[2,-2,0] enters no balanced
    # product, and (1/2, -i, -1) is a null vector of the spin-1 row n = 0
    pytest.param((((1, 0, -1), H), ((1, 0, 0), (0, -1)), ((1, 0, 1), -1), ((2, -2, 0), -1)), id="B"),
]


@pytest.mark.parametrize("terms", INSIDE_BUT_VANISHING)
def test_inside_instance_with_all_powers_zero(terms):
    f = ff(*terms)
    assert origin_in_hull(SupportHull(f.support_points()))
    assert all(v.is_zero() for _, v in power_scan(f, 40))
    assert all(v.is_zero() for _, v in composition_power_scan(f, 8))
    report = check_proven_direction(f, 40)
    assert report.verdict == "inconclusive-candidate"
    assert report.origin_inside and report.first_nonzero_p is None


def _translate(f, side, element, scalar):
    """Coefficients of x -> f(g x) (side "left") or f(x g) ("right") by T(g x) = T(g) T(x).

    element(index) is t[index](g) and scalar(re, im) a coefficient of f, both floats or both exact.
    """
    out = {}
    for index, (re, im) in f.terms:
        for k2 in range(-index.l2, index.l2 + 1, 2):
            if side == "left":      # t[l,m,n](g x) = sum_k t[l,m,k](g) t[l,k,n](x)
                at, factor = MatrixElementIndex(index.l2, k2, index.n2), MatrixElementIndex(index.l2, index.m2, k2)
            else:                   # t[l,m,n](x g) = sum_k t[l,m,k](x) t[l,k,n](g)
                at, factor = MatrixElementIndex(index.l2, index.m2, k2), MatrixElementIndex(index.l2, k2, index.n2)
            term = scalar(re, im) * element(factor)
            out[at] = out[at] + term if at in out else term
    return out


B_ROW = (2 * math.sqrt(6) / 9, -2j * math.sqrt(3) / 9, 1 / 3, -2j * math.sqrt(3) / 9, 2 * math.sqrt(6) / 9)
TRANSLATES = [
    # A's left translate by g = k(-pi/2) a(pi/2)
    pytest.param(INSIDE_BUT_VANISHING[0].values[0], "left", EulerAngles(-math.pi / 2, math.pi / 2, 0.0),
                 {idx(1, 0, -1): -math.sqrt(2), idx(H, -H, H): 1 - 1j}, id="A"),
    # B's right translate by g = a(theta) k(-pi), cos(theta/2) = sqrt(6)/3
    pytest.param(INSIDE_BUT_VANISHING[1].values[0], "right",
                 EulerAngles(0.0, 2 * math.acos(math.sqrt(6) / 3), -math.pi),
                 {idx(1, 0, 1): 1.5, **{idx(2, -2, n): b for n, b in zip(range(-2, 3), B_ROW)}}, id="B"),
]


@pytest.mark.parametrize("terms, side, g, expected", TRANSLATES)
def test_vanishing_inside_instances_are_translates_of_outside_ones(terms, side, g, expected):
    """Both counterexamples to the raw-support converse translate to a function with the origin outside its hull."""
    got = _translate(ff(*terms), side, lambda index: eval_matrix_element(index, g), complex)
    assert all(abs(got.get(index, 0) - expected.get(index, 0)) <= 1e-12 for index in set(got) | set(expected))
    assert not origin_in_hull(SupportHull(tuple((index.m2, index.n2) for index in expected)))


def _exact_element(c, s, phi_half, psi_half):
    """index -> t[index](g) exactly, at g = k(phi) a(theta) k(psi) given by RadicalScalars.

    c = cos(theta/2), s = sin(theta/2), phi_half = e^(-i phi/2) and psi_half = e^(-i psi/2);
    the last two have modulus 1, so a negative power is a power of the conjugate.
    """
    def power(z, k):
        out = RadicalScalar.one()
        for _ in range(abs(k)):
            out = out * (z if k >= 0 else z.conjugate())
        return out

    def element(index):
        trig = sum((coeff * power(c, p) * power(s, q) for (p, q), coeff in matrix_element_trigpoly(index).items()),
                   RadicalScalar.zero())
        return power(phi_half, index.m2) * trig * power(psi_half, index.n2)

    return element


def radical(coeff, radicand=1, imag=False) -> RadicalScalar:
    """coeff * sqrt(radicand), times i when `imag`."""
    return RadicalScalar.from_terms(**{"imag" if imag else "real": [(Fraction(coeff), radicand)]})


EXACT_TRANSLATES = [
    # c = s = sqrt(2)/2, e^(-i phi/2) = (1 + i)/sqrt(2), psi = 0
    pytest.param(INSIDE_BUT_VANISHING[0].values[0], "left",
                 (radical(H, 2), radical(H, 2), radical(H, 2) + radical(H, 2, imag=True), RadicalScalar.one()),
                 {idx(1, 0, -1): radical(-1, 2), idx(H, -H, H): RadicalScalar.from_gaussian(1, -1)}, id="A"),
    # c = sqrt(6)/3, s = sqrt(3)/3, phi = 0, e^(-i psi/2) = i
    pytest.param(INSIDE_BUT_VANISHING[1].values[0], "right",
                 (radical(Fraction(1, 3), 6), radical(Fraction(1, 3), 3), RadicalScalar.one(), radical(1, imag=True)),
                 {idx(1, 0, 1): radical(Fraction(3, 2)),
                  **{idx(2, -2, n): b for n, b in zip(range(-2, 3), (
                      radical(Fraction(2, 9), 6), radical(Fraction(-2, 9), 3, imag=True), radical(Fraction(1, 3)),
                      radical(Fraction(-2, 9), 3, imag=True), radical(Fraction(2, 9), 6)))}}, id="B"),
]


@pytest.mark.parametrize("terms, side, g, expected", EXACT_TRANSLATES)
def test_translates_are_exact(terms, side, g, expected):
    """The exact twin of the float test: every coefficient of the translate is pinned, the rest are exactly 0.

    A coefficient of 1e-13 passes the float test as 0, yet it would put its point in the
    support; here the support is exactly `expected`, and its hull has a separator.
    """
    got = _translate(ff(*terms), side, _exact_element(*g), RadicalScalar.from_gaussian)
    assert {index: value for index, value in got.items() if value} == expected
    assert hull_certificate(SupportHull(tuple((index.m2, index.n2) for index in expected))).separator is not None
