"""Exact geometry of the support {(m_i, n_i)}.

Points are the integer twice-coordinates (2m_i, 2n_i), plain int pairs, in
and out: ``SupportHull.points``, the ``vanishing_threshold`` witness and the
arguments of ``two_term_criterion`` and ``rank_classification``.  A support
keeps a point repeated at another spin; only ``convex_hull_ccw`` drops it.  No floating
point: the certificates divide integers through ``Fraction(num, den)`` and
are stated in the half-integer units of (m, n); ``_reach`` needs only
integer floor and ceiling division.
One route serves them all: the monotone chain ``convex_hull_ccw`` gives the
hull, ``_halfplanes`` its tight half-planes, and membership and both
certificates are read off those.  ``_reach`` gives the integers j with a
point in j times the hull; the vanishing threshold and the pruning in
``power_scan`` both read it.  The convex hull of finitely many points is
closed, so boundary points count as contained.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Point = Tuple[int, int]
HalfPlane = Tuple[int, int, int]    # {(x, y) : u*x + v*y <= c}


class OriginInHullError(ValueError):
    """vanishing_threshold called with the origin inside the hull."""


class SupportHull(namedtuple("SupportHull", "points")):
    """Twice-int support points (2m_i, 2n_i), one per support entry, repeats kept, as a tuple `points`."""

    __slots__ = ()

    def __new__(cls, points):
        if not points:
            raise ValueError("a support hull needs at least one point")
        return super().__new__(cls, points)


class HullCertificate(namedtuple("HullCertificate", "weights separator", defaults=(None, None))):
    """Rational witness for an origin-membership verdict; the verdict is read off it.

    Inside: `weights`, a tuple of Fraction convex weights, one per entry of
    ``SupportHull.points`` and summing to 1, that hit the origin; at most
    three are nonzero (the hull vertices of the point, segment or fan
    triangle that holds the origin), and a repeated point carries its
    weight at its first entry only.
    Outside: `separator`, a Fraction triple (u, v, bound) with
    u*m + v*n >= bound > 0 on every support point, the bound being the
    minimum; (u, v) is the negated normal of a hull half-plane that
    excludes the origin.  The field not given is None.
    """

    __slots__ = ()

    @property
    def inside(self) -> bool:
        return self.weights is not None


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def convex_hull_ccw(points: Sequence[Point]) -> List[Point]:
    """Monotone chain over exact coordinates; repeated and collinear interior points dropped.

    Returns hull vertices in counterclockwise order (1 or 2 points for
    degenerate inputs).
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def half(iterable):
        chain: List[Point] = []
        for p in iterable:
            while len(chain) >= 2 and _cross(_sub(chain[-1], chain[-2]), _sub(p, chain[-2])) <= 0:
                chain.pop()
            chain.append(p)
        return chain
    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _halfplanes(hull: List[Point]) -> List[HalfPlane]:
    """Half-planes whose intersection is the hull, each tight on a vertex.

    Takes the vertices from ``convex_hull_ccw``; the origin lies in the hull
    iff every c >= 0.
    """
    if len(hull) == 1:
        (x, y), = hull
        return [(1, 0, x), (-1, 0, -x), (0, 1, y), (0, -1, -y)]
    if len(hull) == 2:
        a, b = hull
        e = _sub(b, a)
        n = (-e[1], e[0])
        return [(n[0], n[1], _dot(n, a)), (-n[0], -n[1], -_dot(n, a)),
                (e[0], e[1], _dot(e, b)), (-e[0], -e[1], -_dot(e, a))]
    cons = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        n = (b[1] - a[1], a[0] - b[0])      # outward normal of a ccw edge
        cons.append((n[0], n[1], _dot(n, a)))
    return cons


def _fan_weights(hull: List[Point]) -> Dict[Point, Fraction]:
    """Convex weights on at most three hull vertices that hit the origin; the hull must hold it."""
    if len(hull) == 1:
        return {hull[0]: Fraction(1)}
    if len(hull) == 2:
        a, b = hull
        d = _sub(a, b)
        t = Fraction(-b[0], d[0]) if d[0] else Fraction(-b[1], d[1])
        return {a: t, b: 1 - t}
    o = hull[0]
    for b, c in zip(hull[1:], hull[2:]):
        area = _cross(_sub(b, o), _sub(c, o))
        wo, wb, wc = _cross(b, c), _cross(c, o), _cross(o, b)
        if wo >= 0 and wb >= 0 and wc >= 0:
            return {o: Fraction(wo, area), b: Fraction(wb, area), c: Fraction(wc, area)}
    raise AssertionError("no fan triangle holds the origin; it should be outside")


def hull_certificate(h: SupportHull) -> HullCertificate:
    """Origin membership with a rational certificate either way."""
    hull = convex_hull_ccw(h.points)
    for u, v, c in _halfplanes(hull):
        if c < 0:
            # u*x + v*y <= c < 0 on every twice-coordinate point
            return HullCertificate(separator=(Fraction(-u), Fraction(-v), Fraction(-c, 2)))
    weights = _fan_weights(hull)
    return HullCertificate(weights=tuple(weights.pop(p, Fraction(0)) for p in h.points))


def origin_in_hull(h: SupportHull) -> bool:
    """True iff (0, 0) lies in the closed convex hull of the support points."""
    return all(c >= 0 for _, _, c in _halfplanes(convex_hull_ccw(h.points)))


def two_term_criterion(p1: Point, p2: Point) -> bool:
    """Two-point vanishing criterion on twice-int points: zero determinant and nonpositive products.

    Equivalent to the origin lying on the segment from (m1, n1) to (m2, n2).
    The all-zero configuration is excluded by contract.
    """
    (m1, n1), (m2, n2) = p1, p2
    if m1 == n1 == m2 == n2 == 0:
        raise ValueError("two-point criterion needs at least one nonzero coordinate")
    return m1 * n2 - m2 * n1 == 0 and m1 * m2 <= 0 and n1 * n2 <= 0


def rank_classification(p1: Point, p2: Point, p3: Point) -> int:
    """Exact rank of the 3x3 matrix [[1,1,1],[m-row],[n-row]] of three twice-int points."""
    if _cross(_sub(p2, p1), _sub(p3, p1)):
        return 3
    return 1 if p1 == p2 == p3 else 2


def _reach(cons: List[HalfPlane], point: Point) -> Optional[Tuple[int, Optional[int]]]:
    """The integers j >= 0 with `point` in j*H, H the intersection of `cons`, as (lo, hi); None if none.

    `point` lies in j*H iff a <= c*j with a = u*x + v*y for every half-plane
    (u, v, c): a c > 0 with a > 0 raises lo to ceil(a/c), a c < 0 lowers
    hi to floor(a/c), and a c = 0 with a > 0 excludes every j.  hi is None
    when no c < 0 bounds it, that is when the origin is in H.
    """
    x, y = point
    lo, hi = 0, None
    for u, v, c in cons:
        a = u * x + v * y
        if c > 0 and a > 0:
            lo = max(lo, -(-a // c))
        elif c < 0:
            hi = a // c if hi is None else min(hi, a // c)
        elif a > 0:
            return None
    return None if hi is not None and hi < lo else (lo, hi)


def vanishing_threshold(h: SupportHull, witness: Point) -> int:
    """Least P0 >= 1 with (-a/P, -b/P) outside the hull for every integer P >= P0.

    `witness` is the twice-int point (2a, 2b) of the extra element t[l, a, b].

    Requires the origin outside the hull.  In twice-coordinates the point
    is -witness/P, so the P that hit the hull are those with -witness in
    P times the hull: the interval [lo, hi] of ``_reach``, bounded since
    some c < 0.  P0 is hi + 1, or 1 when no P hits it.
    """
    cons = _halfplanes(convex_hull_ccw(h.points))
    if all(c >= 0 for _, _, c in cons):
        raise OriginInHullError("origin inside hull: no finite threshold guaranteed")
    reach = _reach(cons, (-witness[0], -witness[1]))
    return 1 if reach is None else reach[1] + 1
