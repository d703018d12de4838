import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import caratheodory_weights, pt
from su2haar.hull import (
    OriginInHullError,
    SupportHull,
    convex_hull_ccw,
    hull_certificate,
    origin_in_hull,
    rank_classification,
    two_term_criterion,
    vanishing_threshold,
)

H = Fraction(1, 2)


def hull_of(*pts):
    return SupportHull(tuple(pt(m, n) for m, n in pts))


def fractions(h):
    """The support points of h as half-integer Fraction pairs (m, n)."""
    return [(Fraction(m2, 2), Fraction(n2, 2)) for m2, n2 in h.points]


class TestOriginInHull:
    def test_spec_examples(self):
        assert origin_in_hull(hull_of((0, 0)))
        assert origin_in_hull(hull_of((H, -H), (-H, H)))
        assert not origin_in_hull(hull_of((H, H)))
        assert origin_in_hull(hull_of((1, 0), (0, 1), (-1, -1)))

    def test_boundary_counts_as_inside(self):
        assert origin_in_hull(hull_of((0, 0), (1, 1)))
        assert origin_in_hull(hull_of((-1, 0), (1, 0), (0, 1)))  # on an edge
        assert origin_in_hull(hull_of((0, 0), (1, 0), (0, 1)))   # at a vertex

    def test_single_point_agreement(self):
        for m2 in range(-4, 5):
            for n2 in range(-4, 5):
                h = SupportHull(((m2, n2),))
                assert origin_in_hull(h) == (m2 == 0 and n2 == 0)

    def test_certificate_weights_are_convex_combination(self):
        h = hull_of((1, 0), (0, 1), (-1, -1), (2, 2))
        cert = hull_certificate(h)
        assert cert.inside
        assert sum(cert.weights) == 1
        assert all(w >= 0 for w in cert.weights)
        pts = fractions(h)
        sx = sum(w * p[0] for w, p in zip(cert.weights, pts))
        sy = sum(w * p[1] for w, p in zip(cert.weights, pts))
        assert (sx, sy) == (0, 0)

    def test_certificate_separator_is_strict(self):
        h = hull_of((H, H), (1, 0), (2, -1))
        cert = hull_certificate(h)
        assert not cert.inside
        u, v, bound = cert.separator
        assert bound > 0
        for m, n in fractions(h):
            assert u * m + v * n >= bound


points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


class TestOriginInHullProperties:
    @given(st.lists(points, min_size=1, max_size=7), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_invariance_under_permutation_and_scaling(self, pts, rnd):
        h = SupportHull(tuple(pts))
        base = origin_in_hull(h)
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert origin_in_hull(SupportHull(tuple(shuffled))) == base
        scale = rnd.choice([2, 3, 5])
        scaled = SupportHull(tuple((m2 * scale, n2 * scale) for m2, n2 in pts))
        assert origin_in_hull(scaled) == base

    @given(st.lists(points, min_size=3, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_polygon_route(self, pts):
        """Monotone chain + halfplane membership vs the Caratheodory oracle."""
        h = SupportHull(tuple(pts))
        assert origin_in_hull(h) == (caratheodory_weights(fractions(h)) is not None)


def check_certificate(h, cert):
    """Exact check: convex weights (one per stored point) hitting the origin, or a tight separator."""
    pts = fractions(h)
    if cert.inside:
        w = cert.weights
        assert len(w) == len(pts)
        assert all(x >= 0 for x in w) and sum(w) == 1
        assert sum(x * p[0] for x, p in zip(w, pts)) == 0
        assert sum(x * p[1] for x, p in zip(w, pts)) == 0
    else:
        u, v, bound = cert.separator
        assert bound > 0
        assert bound == min(u * m + v * n for m, n in pts)


wide_points = st.tuples(st.integers(-16, 16), st.integers(-16, 16))


class TestCertificateProperties:
    @given(
        st.lists(wide_points, min_size=1, max_size=40),
        st.tuples(st.integers(-24, 24), st.integers(-24, 24)),
    )
    @settings(max_examples=300, deadline=None)
    def test_certificate_checks_exactly(self, twice, shift):
        """Shifted clouds of 1-40 half-integer points, origin inside, outside or on the boundary."""
        h = SupportHull(tuple((m + shift[0], n + shift[1]) for m, n in twice))
        cert = hull_certificate(h)
        check_certificate(h, cert)
        assert cert.inside == origin_in_hull(h)
        if len(h.points) <= 12:
            assert cert.inside == (caratheodory_weights(fractions(h)) is not None)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_collinear_supports(self, multiples, direction):
        """Point and segment hulls: multiples k * direction, through the origin or not."""
        h = SupportHull(tuple((k * direction[0], k * direction[1]) for k in multiples))
        cert = hull_certificate(h)
        check_certificate(h, cert)
        assert cert.inside == (caratheodory_weights(fractions(h)) is not None)

    def test_wide_outside_support(self):
        """120 points (x/2, (x^2 + 1)/2) on a convex arc above the m-axis, every one a hull vertex."""
        h = SupportHull(tuple((x, x * x + 1) for x in range(-60, 60)))
        cert = hull_certificate(h)
        assert not cert.inside
        check_certificate(h, cert)
        assert not origin_in_hull(h)


class TestRepeatedSupport:
    """A support keeps a point repeated at another spin; its certificate has one weight per entry."""

    def test_repeated_vertex_weighs_at_its_first_entry(self):
        h = SupportHull(((2, 0), (2, 0), (-2, 0), (-2, 0), (2, 0), (0, 2)))
        assert h.points == ((2, 0), (2, 0), (-2, 0), (-2, 0), (2, 0), (0, 2))
        assert hull_certificate(h).weights == (H, 0, H, 0, 0, 0)

    @given(st.lists(points, min_size=1, max_size=8, unique=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_per_entry(self, distinct, data):
        repeats = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
        entries = data.draw(st.permutations(distinct + repeats))
        h = SupportHull(tuple(entries))
        assert h.points == tuple(entries)
        cert = hull_certificate(h)
        check_certificate(h, cert)
        if cert.inside:
            assert all(w == 0 for i, (p, w) in enumerate(zip(entries, cert.weights)) if p in entries[:i])
        else:
            u, v, bound = cert.separator
            assert all(u * m + v * n >= bound for m, n in fractions(h))
        distinct_h = SupportHull(tuple(distinct))
        assert cert.inside == (caratheodory_weights(fractions(distinct_h)) is not None)


class TestConvexHullChain:
    def test_triangle(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
               (Fraction(1, 4), Fraction(1, 4))]
        hull = convex_hull_ccw(pts)
        assert len(hull) == 3
        assert set(hull) == {pts[0], pts[1], pts[2]}

    def test_collinear(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
        assert convex_hull_ccw(pts) == [pts[0], pts[2]]

    def test_ccw_orientation(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(2), Fraction(2)),
               (Fraction(0), Fraction(2))]
        hull = convex_hull_ccw(pts)
        area2 = sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1] - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
        assert area2 > 0


class TestTwoTermCriterion:
    def test_spec_examples(self):
        assert two_term_criterion(pt(H, -H), pt(-H, H))
        assert not two_term_criterion(pt(H, H), pt(-H, H))
        assert not two_term_criterion(pt(1, 0), pt(2, 0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            two_term_criterion((0, 0), (0, 0))

    def test_exhaustive_agreement_with_hull(self):
        """Criterion == origin-on-segment for all half-integer points of magnitude <= 3."""
        vals = range(-6, 7)
        pts = [(m2, n2) for m2 in vals for n2 in vals]
        checked = 0
        for p1, p2 in itertools.product(pts, repeat=2):
            if p1 == p2 == (0, 0):
                continue
            expected = origin_in_hull(SupportHull((p1, p2)))
            assert two_term_criterion(p1, p2) == expected, (p1, p2)
            checked += 1
        assert checked == 169 * 169 - 1


class TestRankClassification:
    def test_all_equal(self):
        assert rank_classification(pt(1, 1), pt(1, 1), pt(1, 1)) == 1

    def test_triangle(self):
        assert rank_classification(pt(1, 0), pt(0, 1), pt(-1, -1)) == 3

    def test_collinear(self):
        assert rank_classification(pt(0, 0), pt(1, 1), pt(2, 2)) == 2

    def test_rank_matches_exact_elimination(self):
        rnd = random.Random(77)
        for _ in range(300):
            pts = [(rnd.randint(-4, 4), rnd.randint(-4, 4)) for _ in range(3)]
            rows = [
                [Fraction(1)] * 3,
                [Fraction(p[0], 2) for p in pts],
                [Fraction(p[1], 2) for p in pts],
            ]
            assert rank_classification(*pts) == _gauss_rank(rows)


def _gauss_rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0])
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] / rows[pivot_row][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


class TestVanishingThreshold:
    def test_spec_examples(self):
        assert vanishing_threshold(hull_of((H, H)), pt(-1, -1)) == 3
        assert vanishing_threshold(hull_of((1, 0)), pt(0, 1)) == 1
        with pytest.raises(OriginInHullError):
            vanishing_threshold(hull_of((H, -H), (-H, H)), pt(1, 1))

    def test_zero_witness(self):
        assert vanishing_threshold(hull_of((1, 1)), (0, 0)) == 1

    def test_no_integer_in_window(self):
        # the ray meets the segment for t in [7/3, 14/5]; no integer P in there
        h = hull_of((Fraction(5, 2), Fraction(5, 2)), (3, 3))
        assert vanishing_threshold(h, pt(-7, -7)) == 1

    @staticmethod
    def dense_scan(seed, bound, trials, max_points):
        """P0 is minimal: P0-1 hits the hull (when P0 > 1) and nothing >= P0 does.

        Twice-coordinates and witnesses are drawn from [-bound, bound].
        Returns the P0 of every support with the origin outside.
        """
        rnd = random.Random(seed)
        seen = []
        for _ in range(trials):
            pts = [(rnd.randint(-bound, bound), rnd.randint(-bound, bound)) for _ in range(rnd.randint(1, max_points))]
            h = SupportHull(tuple(pts))
            if origin_in_hull(h):
                continue
            witness = (rnd.randint(-bound, bound), rnd.randint(-bound, bound))
            p0 = vanishing_threshold(h, witness)
            seen.append(p0)
            a, b = Fraction(witness[0], 2), Fraction(witness[1], 2)

            def point_in(p):
                # (-a/p, -b/p) in conv(pts) iff the origin is in the shifted hull
                shifted = [(Fraction(m2, 2) + a / p, Fraction(n2, 2) + b / p) for m2, n2 in pts]
                return caratheodory_weights(shifted) is not None

            for p in range(p0, p0 + 30):
                assert not point_in(p)
            if p0 > 1:
                assert point_in(p0 - 1)
        return seen

    def test_definition_via_dense_scan(self):
        self.dense_scan(31, 4, 200, 4)

    def test_definition_via_dense_scan_spin8(self):
        """The same at the spin-8 range of the `hull-wide` benchmark: P0 in the hundreds, large negative k."""
        seen = self.dense_scan(16, 16, 200, 3)
        assert sum(p0 > 1 for p0 in seen) >= 10 and max(seen) > 100
