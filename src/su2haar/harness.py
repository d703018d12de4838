"""Instance classification, seeded fuzzing, and the built-in verification suite.

The harness ties the geometry to the integration engine.  The proven
direction is one-sided: when the origin lies outside the convex hull of the
support points, every power integral must vanish exactly, so any nonzero
value is an implementation bug ("violation").  When the origin is inside,
some nonzero power is "consistent", and an all-zero scan up to the horizon
is only "inconclusive-candidate": no finite horizon proves anything.  The
converse of the proven direction, stated on the raw (m, n) support, is
false: some functions with the origin inside the hull have every power
integral zero (two are pinned in tests/test_harness.py).  Both pinned ones
are one-sided translates, x -> f(g x) or f(x g), of functions with the
origin outside their hull, and the Haar measure is bi-invariant, so they
vanish by the proven direction applied to the translate.  A report keeps
its evidence and reads its verdict off it; a summary tallies its reports.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .hull import (
    SupportHull,
    origin_in_hull,
    rank_classification,
    two_term_criterion,
    vanishing_threshold,
)
from .powers import (
    FiniteFunction,
    GaussianRational,
    minimal_balanced_pair,
    power_scan,
)
from .integrals import ProductSpec, integrate_product
from .scalars import RadicalScalar, half_str
from .wigner import MAX_L2, MatrixElementIndex

VERDICT_CONSISTENT = "consistent"
VERDICT_INCONCLUSIVE = "inconclusive-candidate"
VERDICT_VIOLATION = "violation"

DEFAULT_COEFF_POOL: Tuple[GaussianRational, ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(2), Fraction(0)),
    (Fraction(-2), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(-1)),
)


def classify_instance(f: FiniteFunction) -> str:
    """Case tag: single | two-term | three-term-rank-r | general-k."""
    k = len(f)
    if k == 1:
        return "single"
    if k == 2:
        return "two-term"
    if k == 3:
        pts = f.support_points()
        return f"three-term-rank-{rank_classification(*pts)}"
    return "general-k"


class InstanceReport(namedtuple("InstanceReport", "function origin_inside scan trial", defaults=(None,))):
    """One instance, its hull verdict and its scan; the verdict is read off them.

    `scan` is the tuple of (P, value) pairs of `power_scan`, `trial` the fuzz trial number or None.
    """

    # no __slots__: the instance __dict__ holds what first_nonzero_p computes, once
    @functools.cached_property
    def first_nonzero_p(self) -> Optional[int]:
        return next((p for p, v in self.scan if not v.is_zero()), None)

    @property
    def verdict(self) -> str:
        if self.first_nonzero_p is None:
            # inside and all zero: some translate of f may have the origin outside its hull
            return VERDICT_INCONCLUSIVE if self.origin_inside else VERDICT_CONSISTENT
        return VERDICT_CONSISTENT if self.origin_inside else VERDICT_VIOLATION

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "trial": self.trial,
            "function": self.function.to_json(),
            "case": classify_instance(self.function),
            "origin_inside": self.origin_inside,
            "pmax": len(self.scan),
            "first_nonzero_p": self.first_nonzero_p,
            "scan": [[p, v.to_json()] for p, v in self.scan],
            "verdict": self.verdict,
        }


def check_proven_direction(f: FiniteFunction, pmax: int, trial: Optional[int] = None) -> InstanceReport:
    """Scan integral(f^P) for P <= pmax and judge it against the hull verdict."""
    inside = origin_in_hull(SupportHull(f.support_points()))
    return InstanceReport(f, inside, tuple(power_scan(f, pmax)), trial)


class FuzzConfig(namedtuple("FuzzConfig", "seed trials l_max2 k_max p_max rank2_bias", defaults=(4, 4, 12, 0.0))):
    """A fuzz run's settings; `l_max2` is twice the largest spin, `k_max` and `p_max` the largest term count and power."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # each message starts with the field it rejects; the CLI maps that name to its flag
        if self.l_max2 < 0:
            raise ValueError("l_max2 (twice the largest spin) must be >= 0")
        if self.l_max2 > MAX_L2:      # the index cap: a fuzz trial would otherwise fail inside fuzz()
            raise ValueError(f"l_max2 (twice the largest spin) must be <= {MAX_L2}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")
        if not (0.0 <= self.rank2_bias <= 1.0):
            raise ValueError("rank2_bias must be in [0, 1]")
        if self.rank2_bias > 0 and (self.k_max < 3 or self.l_max2 < 1):
            raise ValueError("rank2_bias > 0 needs k_max >= 3 and a largest spin of at least 1/2")
        # a trial draws k distinct indices; there are sum_{2l <= L} (2l+1)^2 of them
        count = (self.l_max2 + 1) * (self.l_max2 + 2) * (2 * self.l_max2 + 3) // 6
        if self.k_max > count:
            raise ValueError(
                f"k_max must be <= {count}, the number of distinct indices with l <= {half_str(self.l_max2)}"
            )
        return self


class FuzzSummary(namedtuple("FuzzSummary", "seed reports")):
    """A fuzz run's seed and its tuple of InstanceReports; the tallies are read off them."""

    __slots__ = ()

    @property
    def trials_run(self) -> int:
        return len(self.reports)

    @property
    def counts_by_verdict(self) -> Dict[str, int]:
        return Counter(r.verdict for r in self.reports)

    @property
    def counts_by_case(self) -> Dict[str, int]:
        return Counter(classify_instance(r.function) for r in self.reports)

    @property
    def violations(self) -> List[int]:
        return [r.trial for r in self.reports if r.verdict == VERDICT_VIOLATION]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "summary": True,
            "seed": self.seed,
            "trials_run": self.trials_run,
            "counts_by_verdict": dict(sorted(self.counts_by_verdict.items())),
            "counts_by_case": dict(sorted(self.counts_by_case.items())),
            "violations": self.violations,
        }


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent per-trial generator: Mersenne Twister seeded by SHA-256(seed:trial).

    Derivation is recorded here so report streams are reproducible: parallel
    or sequential evaluation of trials yields identical instances.
    """
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_index(rng: random.Random, l_max2: int) -> MatrixElementIndex:
    l2 = rng.randint(0, l_max2)
    m2 = -l2 + 2 * rng.randint(0, l2)
    n2 = -l2 + 2 * rng.randint(0, l2)
    return MatrixElementIndex(l2, m2, n2)


def _random_distinct_indices(rng: random.Random, l_max2: int, k: int) -> List[MatrixElementIndex]:
    chosen: List[MatrixElementIndex] = []
    while len(chosen) < k:
        idx = _random_index(rng, l_max2)
        if idx not in chosen:
            chosen.append(idx)
    return chosen


def _index_for_point(rng: random.Random, l_max2: int, m2: int, n2: int) -> Optional[MatrixElementIndex]:
    """A valid index at (m, n), given |m2|, |n2| <= l_max2, of uniformly random spin; None off the lattice."""
    if (m2 - n2) % 2:
        return None
    return MatrixElementIndex(rng.choice(range(max(abs(m2), abs(n2)), l_max2 + 1, 2)), m2, n2)


def _random_rank2_indices(rng: random.Random, l_max2: int) -> Optional[List[MatrixElementIndex]]:
    """Three distinct indices whose (m, n) points have rank exactly 2.

    The third point is p1 + t (p2 - p1) for a rational t outside {0, 1}, kept
    on the half-integer lattice.  With p1 != p2 it is a third distinct point
    on their line, so the indices are distinct and the rank is 2 by
    construction.
    """
    for _ in range(80):
        i1, i2 = _random_distinct_indices(rng, l_max2, 2)
        p1 = (i1.m2, i1.n2)
        p2 = (i2.m2, i2.n2)
        if p1 == p2:
            continue
        t_num, t_den = rng.choice([(-1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (-1, 2)])
        dm, dn = p2[0] - p1[0], p2[1] - p1[1]
        if (t_num * dm) % t_den or (t_num * dn) % t_den:
            continue
        m3 = p1[0] + (t_num * dm) // t_den
        n3 = p1[1] + (t_num * dn) // t_den
        if abs(m3) > l_max2 or abs(n3) > l_max2:
            continue
        i3 = _index_for_point(rng, l_max2, m3, n3)
        if i3 is None:
            continue
        return [i1, i2, i3]
    return None


def generate_instance(rng: random.Random, cfg: FuzzConfig) -> FiniteFunction:
    indices: Optional[List[MatrixElementIndex]] = None
    if cfg.rank2_bias > 0 and rng.random() < cfg.rank2_bias:
        indices = _random_rank2_indices(rng, cfg.l_max2)
    if indices is None:
        k = rng.randint(1, cfg.k_max)
        indices = _random_distinct_indices(rng, cfg.l_max2, k)
    coeffs = [rng.choice(DEFAULT_COEFF_POOL) for _ in indices]
    return FiniteFunction(tuple(zip(indices, coeffs)))


def fuzz(cfg: FuzzConfig) -> Tuple[List[InstanceReport], FuzzSummary]:
    """Deterministic fuzzing run; aborts at the first violation.

    The violating report (with full reproduction data) is the last element of
    the returned list when the summary records a violation.
    """
    reports: List[InstanceReport] = []
    for trial in range(cfg.trials):
        f = generate_instance(trial_rng(cfg.seed, trial), cfg)
        reports.append(check_proven_direction(f, cfg.p_max, trial=trial))
        if reports[-1].verdict == VERDICT_VIOLATION:
            break
    return reports, FuzzSummary(cfg.seed, tuple(reports))


SuiteItem = namedtuple("SuiteItem", "name passed detail")


class SuiteReport(namedtuple("SuiteReport", "items")):
    """The verification suite's tuple of SuiteItems."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "all_passed": self.all_passed,
            "items": [
                {"name": i.name, "passed": i.passed, "detail": i.detail} for i in self.items
            ],
        }


class _CheckFailed(Exception):
    """A verification check failed; the message is the item's detail."""


def _all_indices(l_max_twice: int) -> List[MatrixElementIndex]:
    out = []
    for l2 in range(0, l_max_twice + 1):
        for m2 in range(-l2, l2 + 1, 2):
            for n2 in range(-l2, l2 + 1, 2):
                out.append(MatrixElementIndex(l2, m2, n2))
    return out


def _suite_schur() -> str:
    """Pairings t[l,m,n] * t[l',-p,-q]: diagonal value (-1)^(m-n)/(2l+1), rest zero.

    Only pairs with (m', n') = (-m, -n) are integrated; every other pair is
    zero by the frequency filter of `integrate_product` and counts as checked.
    """
    indices = _all_indices(4)
    checked = 0
    for a in indices:
        for b in indices:
            checked += 1
            if b.m2 != -a.m2 or b.n2 != -a.n2:
                continue
            value = integrate_product(ProductSpec(((a, 1), (b, 1))))
            if b.l2 == a.l2:
                sign = -1 if ((a.m2 - a.n2) // 2) % 2 else 1
                expected = RadicalScalar.from_rational(Fraction(sign, a.l2 + 1))
            else:
                expected = RadicalScalar.zero()
            if value != expected:
                raise _CheckFailed(f"pair {a} x {b}: got {value}, expected {expected}")
    return f"{checked} pairings at spin <= 2 exact"


def _suite_single_scans() -> str:
    horizon = 8
    count = 0
    for idx in _all_indices(4):
        f = FiniteFunction(((idx, (Fraction(1), Fraction(0))),))
        scan = power_scan(f, horizon)
        nonzero = [p for p, v in scan if not v.is_zero()]
        if idx.m2 == 0 and idx.n2 == 0:
            p2 = scan[1][1]
            if not (p2.is_rational() and p2.as_rational() > 0):
                raise _CheckFailed(f"{idx}: square integral not positive: {p2}")
            continue
        if nonzero:
            raise _CheckFailed(f"{idx}: unexpected nonzero at P={nonzero[0]}")
        count += 1
    return f"{count} off-origin elements vanish to P={horizon}"


def _lattice_points(bound_twice: int) -> List[Tuple[int, int]]:
    return [(m2, n2) for m2 in range(-bound_twice, bound_twice + 1)
            for n2 in range(-bound_twice, bound_twice + 1) if (m2 - n2) % 2 == 0]


def _min_spin_index(point: Tuple[int, int]) -> MatrixElementIndex:
    m2, n2 = point
    return MatrixElementIndex(max(abs(m2), abs(n2)), m2, n2)


def _suite_two_term() -> str:
    pts = _lattice_points(3)
    indices = [_min_spin_index(p) for p in pts]
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p1, p2 = pts[i], pts[j]
            i1, i2 = indices[i], indices[j]
            f = FiniteFunction(
                ((i1, (Fraction(1), Fraction(0))), (i2, (Fraction(1), Fraction(0))))
            )
            if two_term_criterion(p1, p2):
                alpha, beta = minimal_balanced_pair(p1, p2)
                m_total = alpha + beta
                scan = power_scan(f, 2 * m_total)
                if scan[m_total - 1][1].is_zero() and scan[-1][1].is_zero():
                    raise _CheckFailed(f"{p1},{p2}: criterion holds but powers {m_total},{2*m_total} vanish")
            else:
                scan = power_scan(f, 8)
                bad = [p for p, v in scan if not v.is_zero()]
                if bad:
                    raise _CheckFailed(f"{p1},{p2}: criterion fails but P={bad[0]} is nonzero")
            checked += 1
    witness = FiniteFunction.from_terms(
        [
            ((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)), (Fraction(1), Fraction(0))),
            ((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))),
        ]
    )
    square = power_scan(witness, 2)[-1][1]
    if square != RadicalScalar.from_rational(-1):
        raise _CheckFailed(f"witness pair square is {square}, expected -1")
    return f"{checked} two-point supports agree; witness pair squares to -1"


def _origin_combination_by_solve(pts: Sequence[Tuple[int, int]]) -> Optional[bool]:
    """Rank != 2 triples only: solvability of M alpha = (1,0,0)^T with alpha >= 0 in Q.

    The points are twice-int pairs; doubling every coordinate scales the
    determinant and each Cramer numerator by 4, so the solution is the same.
    Rank 3 has the unique Cramer solution; rank 1 means all points coincide.
    Returns None for rank 2 (no unique solve exists).
    """
    (m1, n1), (m2, n2), (m3, n3) = pts
    det = (m2 * n3 - m3 * n2) - (m1 * n3 - m3 * n1) + (m1 * n2 - m2 * n1)
    if det != 0:
        a1 = Fraction(m2 * n3 - m3 * n2, det)
        a2 = Fraction(m3 * n1 - m1 * n3, det)
        a3 = Fraction(m1 * n2 - m2 * n1, det)
        return a1 >= 0 and a2 >= 0 and a3 >= 0
    if rank_classification(*pts) == 2:
        return None
    return (m1, n1) == (0, 0)


def _suite_rank_consistency() -> str:
    trials = 200
    rng = random.Random(0x5EED)
    for t in range(trials):
        idxs = _random_distinct_indices(rng, 4, 3)
        pts = [(i.m2, i.n2) for i in idxs]
        solvable = _origin_combination_by_solve(pts)
        if solvable is None:
            continue
        inside = origin_in_hull(SupportHull(tuple(pts)))
        if inside != solvable:
            raise _CheckFailed(f"trial {t}: hull={inside} but exact solve={solvable} for {pts}")
    return f"{trials} random triples agree"


def _suite_threshold() -> str:
    trials = 50
    rng = random.Random(0xBEEF)
    done = 0
    while done < trials:
        k = rng.randint(1, 3)
        idxs = _random_distinct_indices(rng, 3, k)
        f = FiniteFunction(tuple((i, (Fraction(1), Fraction(0))) for i in idxs))
        h = SupportHull(f.support_points())
        if origin_in_hull(h):
            continue
        witness = _random_index(rng, 4)
        p0 = vanishing_threshold(h, (witness.m2, witness.n2))
        for p, value in power_scan(f, p0 + 10, witness=witness)[p0 - 1:]:
            if not value.is_zero():
                raise _CheckFailed(f"f={f.to_json()} h={witness}: nonzero at P={p} >= P0={p0}")
        done += 1
    return f"{trials} random (f, h) pairs vanish beyond P0"


def run_verification_suite() -> SuiteReport:
    """Exact re-checks of the proven statements; every item must pass.

    Each check returns its pass detail or raises `_CheckFailed` with the
    failure detail.
    """
    items = []
    for name, check in (
        ("schur-orthogonality", _suite_schur),
        ("single-element-scans", _suite_single_scans),
        ("two-term-criterion", _suite_two_term),
        ("three-term-rank-consistency", _suite_rank_consistency),
        ("threshold-soundness", _suite_threshold),
    ):
        try:
            items.append(SuiteItem(name, True, check()))
        except _CheckFailed as e:
            items.append(SuiteItem(name, False, str(e)))
    return SuiteReport(tuple(items))
