"""Power integrals of finite matrix-element combinations.

For f = sum_i A_i t[l_i, m_i, n_i], `power_scan` computes integral(f^P) (or
integral(f^P * h) for one extra element h = t[l, a, b]) for every
P = 1..pmax in a single pass that multiplies by f once per step.

The u-form.  In Euler coordinates g = k(phi) a(theta) k(psi) the phi and psi
integrals keep only the part of a product with total frequency (M, N) = 0,
and with u = sin^2(theta/2) the rest of the normalized Haar measure is du on
[0, 1].  Each element restricted to a(theta) reads (the u-form fields of
`wigner.theta_restriction`)

    t[l, m, n](a(theta)) = i^(n - m) * sqrt(r) * c^eps * s^delta * q(u),

with c = cos(theta/2), s = sin(theta/2), r squarefree, q a rational
polynomial, and the parities eps, delta bit 1 of 2m + 2n and of 2m - 2n.
A product's phase and parities are those of its total frequency, so a
balanced product has phase i^(N - M) = 1 and even parities, and its
integral is integral_0^1 poly(u) du = sum_j c_j / (j + 1): the
constant-term view of Duistermaat and van der Kallen.  Both engines
therefore integrate phase-free: `integrate_product` computes single products
from the same form, and `power_scan` applies no phase.

States.  After step P a state is the part of f^P times the start with
total frequency (M, N) and radicand r, keyed by (2M, 2N, r).  The start is
the element h, by default t[0,0,0] = 1, read like every other element; a
state's parities are read off (2M, 2N), and so is its phase i^(N - M),
which no state carries: only the states at (0, 0), of phase 1, are read
out.  Every coefficient is scaled by one common integer E per factor of f,
so the state's polynomial has Gaussian-integer coefficients.  Each frequency component of a product
carries s^|M - N| c^|M + N| (the triangle inequality on the Jacobi form of
d, Edmonds (4.1.23)), so with x = 2M - 2N the polynomial at (2M, 2N) is
divisible by u^a(x), a(x) = |x| // 4, the u-part of s^|M - N|.  Every
state, every element and the start is kept as its quotient by u^a:
`_scaled_u_polys` drops the a known zero coefficients once.  Each quotient
is Kronecker-packed (`_kernel.pack`) into two Python ints, its real and
imaginary parts, with one signed slot of w bits per power of u.
A step is a few big-integer multiplies per (state, element): c^2 folds in
as 1 - u, and sqrt(a) * sqrt(b) as g * sqrt(ab / g^2), g = gcd(a, b).  The
product of the quotients at x and at an element's e = dm - dn is the
quotient at x + e times u^sh, sh = (|x| + |e| - |x + e|) / 4, which is
min(|x|, |e|) // 2 when x * e < 0 and 0 otherwise, so the step shifts that
product up by sh slots; the shift also holds the s^2 = u of two odd s
parities.  What an element becomes otherwise depends on the state only
through its class, its c parity bit and its radicand, so each class gets
one row of (dm, dn, e, new radicand, folded element) on first use; a folded
element is kept with its Karatsuba sums, (re, im, re + im, im - re).  All
states at one key share their a, so they add without alignment, and the
read-out states at (0, 0) have a = 0.

The move table.  Everything else a step does for a (state, element) pair
depends only on the state's key, so each key gets a small int id when it is
first seen, and each id, the first time a state sits there, its list of
moves: (last step of the target position, target id, shift in bits, folded
element), one per element of its class row, sharing the row's element
tuple.  The last step is read from the per-position memo of the pruning
below.  A move whose last step is below 1 is dropped, and the list runs
latest first, so a step stops at the first move that has expired.  The step
loop only multiplies, shifts and adds, into a dict keyed by id, and that
dict is the next step's table of states: a state that cancels to zero stays
in it, multiplies into zeros and reads out as 0.  Once every move of an id
has expired, its list is dropped.

Slot bound.  Writing ||.|| for the sum of |re| + |im| over all coefficients,
one step multiplies the summed norm of all states by at most
sum_i k_i r_i ||Q_i|| (Q_i the scaled polynomial of element i, r_i its
radicand, k_i 2 when element i's c parity bit, bit 1 of 2m + 2n, is set and
1 otherwise), so every coefficient any state can hold is bounded by
||H|| * (sum_i k_i r_i ||Q_i||)^pmax, with H the scaled polynomial of the
start (1 without a witness).  A product with element i is g * S * Q_i,
times (1 - u) only when both the state's and the element's c bits are set;
g = gcd(r, r_i) <= r_i and ||1 - u|| = 2, so no other element can double
a norm.  w is fixed from that bound up front, so every slot unpacks
exactly.  A quotient has the same coefficients as the polynomial it
divides, only moved down a slots, so the norms, the bound and w are those
of the unstripped polynomials.

Pruning.  A state at (M, N) reaches the target (M, N) = 0 in j more steps
only if -(M, N) lies in j * conv(support).  `hull._reach` gives the least
such j, the position's step count, or none; it is computed once per
position per scan and memoised as the position's last step, and a state at
step p is dropped when its position has no step count or one above
pmax - p.  The hull and the step counts come first: if no first-step
position (the start plus a support point) can be kept at step 1, which is
always so with neither a witness nor the origin inside the hull of the
support, every value is 0, and the scan returns them before it reads any
element record or packs anything.  Otherwise it stops at the first step
that reaches no position: the remaining values are 0.

Read-out.  integral(f^P [h]) is the zero-frequency part after step P.
The scan reads the states of the table whose key is (0, 0, r), one term per
radicand r, each as sum_j c_j / (j + 1) / (E_h E^P) by
`integrals.u_integral`, whose weights lcm(1..n) / (j + 1) are cached per
length n.

The test suite's oracle for this pass (`tests/conftest.py`) is the
multinomial sum over frequency-balanced compositions.
`enumerate_balanced_compositions` lists those compositions with
`_kernel.balanced_compositions`; of the kernel the pass itself uses only
`pack` and `unpack`, at its own slot width.

Function files.  `FiniteFunction.from_json` reads each coefficient part
with `scalars.read_rational`, and `to_json` writes it as the value field
prints it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

from . import _kernel
from ._kernel import pack, unpack
from .hull import _halfplanes, _reach, convex_hull_ccw, two_term_criterion
from .integrals import u_integral
from .scalars import RadicalScalar, _rational_str, read_rational
from .wigner import MatrixElementIndex, theta_restriction

GaussianRational = Tuple[Fraction, Fraction]

Composition = Tuple[int, ...]


class NoSolutionError(ValueError):
    """The two-point balance system has no nonzero solution in N^2."""


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class FiniteFunction(namedtuple("FiniteFunction", "terms")):
    """f = sum_i A_i t[l_i, m_i, n_i], each A_i a nonzero (re, im) pair of ints or Fractions, kept as given.

    The one field `terms` is the tuple of (index, A_i) pairs; `len(f.terms)` counts the terms.
    """

    __slots__ = ()

    def __new__(cls, terms):
        if not isinstance(terms, tuple):
            raise TypeError(f"terms must be a tuple, got {type(terms).__name__}")
        if not terms:
            raise ValueError("a finite function needs at least one term")
        seen = set()
        for idx, coeff in terms:
            if not isinstance(idx, MatrixElementIndex):
                raise TypeError(f"term index must be MatrixElementIndex, got {idx!r}")
            if not (isinstance(coeff, tuple) and len(coeff) == 2 and all(map(_is_exact, coeff))):
                raise TypeError(f"coefficient on {idx} must be an (re, im) pair of ints or Fractions, got {coeff!r}")
            if coeff == (0, 0):
                raise ValueError(f"zero coefficient on {idx}")
            if idx in seen:
                raise ValueError(f"duplicate index {idx}")
            seen.add(idx)
        return super().__new__(cls, terms)

    @staticmethod
    def from_terms(terms: Iterable[Tuple]) -> "FiniteFunction":
        """f from (index, coeff) pairs: an index may be an (l, m, n) tuple, a coeff one int or Fraction."""
        return FiniteFunction(tuple(
            (idx if isinstance(idx, MatrixElementIndex) else MatrixElementIndex.of(*idx),
             (coeff, 0) if isinstance(coeff, (int, Fraction)) else coeff)
            for idx, coeff in terms
        ))

    def support_points(self) -> Tuple[Tuple[int, int], ...]:
        """The twice-int points (2m_i, 2n_i), one per term."""
        return tuple((idx.m2, idx.n2) for idx, _ in self.terms)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "terms": [
                {**idx.to_json(), "coeff": {"re": _rational_str(re), "im": _rational_str(im)}}
                for idx, (re, im) in self.terms
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteFunction":
        """Parse the function-file format; any malformed shape raises ValueError."""
        if "terms" not in obj:
            raise ValueError("missing field 'terms'")
        if not isinstance(obj["terms"], list):
            raise ValueError("terms must be a list of term objects")
        terms = []
        for i, t in enumerate(obj["terms"]):
            if not isinstance(t, dict):
                raise ValueError(f"terms[{i}] must be an object")
            idx = MatrixElementIndex.from_json(t, f"terms[{i}]")
            coeff = t.get("coeff", {})
            if not isinstance(coeff, dict):
                raise ValueError(f"terms[{i}].coeff must be an object with fields re and im")
            try:
                re, im = (read_rational(coeff.get(part, 0)) for part in ("re", "im"))
            except TypeError:
                raise ValueError(f"terms[{i}].coeff: re and im must be rationals such as \"-3/4\"") from None
            except ValueError as e:
                raise ValueError(f"terms[{i}].coeff: {e}") from None
            terms.append((idx, (re, im)))
        return FiniteFunction(tuple(terms))


def enumerate_balanced_compositions(
    f: FiniteFunction, power: int, target: Tuple[int, int] = (0, 0)
) -> List[Composition]:
    """Compositions alpha of `power` with sum alpha*(2m, 2n) = target, a twice-int pair.

    Deterministic descending lexicographic order; the list may be empty.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    ms2 = [idx.m2 for idx, _ in f.terms]
    ns2 = [idx.n2 for idx, _ in f.terms]
    return _kernel.balanced_compositions(ms2, ns2, power, target[0], target[1])


_StateKey = Tuple[int, int, int]          # (2M, 2N, radicand)


def _scaled_u_polys(terms) -> Tuple[int, Dict[_StateKey, List[Tuple[int, int]]]]:
    """(E, polys): sum_i A_i t_i as Gaussian-integer u-polynomials over one denominator E.

    Keys are (2m, 2n, r).  Elements sharing (m, n) share their parities, so
    terms that also share the radicand add into one polynomial.  Each
    polynomial is kept as its quotient by u^a, a = |2m - 2n| // 4: the
    factor s^|m - n| of the element's u-form holds u^a, so its first a
    coefficients are 0 and are dropped.  No phase i^(n - m) is applied: the
    read-out state at (0, 0) has phase 1.
    """
    forms = [(idx, coeff, theta_restriction(idx)) for idx, coeff in terms]
    scale = lcm(*(form.denom * lcm(re.denominator, im.denominator) for _, (re, im), form in forms))
    polys: Dict[_StateKey, List[Tuple[int, int]]] = {}
    for idx, (re, im), form in forms:
        unit = scale // form.denom
        re, im = re.numerator * (unit // re.denominator), im.numerator * (unit // im.denominator)
        quotient = form.poly[abs(idx.m2 - idx.n2) // 4:]
        acc = polys.setdefault((idx.m2, idx.n2, form.radicand), [])
        acc.extend([(0, 0)] * (len(quotient) - len(acc)))
        for j, q in enumerate(quotient):
            acc[j] = (acc[j][0] + re * q, acc[j][1] + im * q)
    return scale, polys


def _norm(poly: List[Tuple[int, int]]) -> int:
    return sum(abs(re) + abs(im) for re, im in poly)


def power_scan(
    f: FiniteFunction, pmax: int, witness: Optional[MatrixElementIndex] = None
) -> List[Tuple[int, RadicalScalar]]:
    """Values of integral(f^P), or integral(f^P * witness), for P = 1..pmax in one pass."""
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    support = f.support_points()
    hull = _halfplanes(convex_hull_ccw(support))
    last: dict = {}              # position -> the last step whose states there can still reach (0, 0)

    def end_of(pos):
        end = last.get(pos)
        if end is None:
            reach = _reach(hull, (-pos[0], -pos[1]))
            end = last[pos] = 0 if reach is None else pmax - reach[0]
        return end

    # the start is h, or the constant 1 = t[0,0,0] without a witness; if no first step can be kept, every value is 0
    h = MatrixElementIndex(0, 0, 0) if witness is None else witness
    if all(end_of((h.m2 + dm, h.n2 + dn)) < 1 for dm, dn in support):
        return [(p, RadicalScalar.zero()) for p in range(1, pmax + 1)]
    scale_f, elements = _scaled_u_polys(f.terms)
    scale_h, start = _scaled_u_polys(((h, (1, 0)),))
    # the c^2 = 1 - u fold, of norm 2, can only meet an element whose c parity bit, bit 1 of 2m + 2n, is set
    growth = sum((2 if (m2 + n2) & 2 else 1) * r * _norm(poly) for (m2, n2, r), poly in elements.items())
    width = (sum(_norm(poly) for poly in start.values()) * growth ** pmax).bit_length() + 1

    def pack_parts(poly):
        return pack((re for re, _ in poly), width), pack((im for _, im in poly), width)

    packed = [(key, *pack_parts(poly)) for key, poly in elements.items()]
    one_minus_u = 1 - (1 << width)
    rows: dict = {}              # (state c bit, r) -> (dm, dn, dm - dn, new radicand, folded element) per element

    def class_row(c, r):
        # the c parity of a position (2m, 2n) is bit 1 of 2m + 2n; a folded element is (re, im, re + im, im - re)
        row = []
        for (dm, dn, e_r), re, im in packed:
            g = gcd(r, e_r)
            factor = g * (one_minus_u if c & (dm + dn) else 1)
            re, im = re * factor, im * factor
            row.append((dm, dn, dm - dn, (r // g) * (e_r // g), (re, im, re + im, im - re)))
        return row

    index: dict = {}             # state key (2M, 2N, r) -> its id
    keys: list = []              # id -> state key
    moves: list = []             # id -> its moves (last step, target id, shift, folded element); None before first use

    def new_id(key):
        sid = index[key] = len(keys)
        keys.append(key)
        moves.append(None)
        return sid

    def moves_of(sid):
        m2, n2, r = keys[sid]
        cls = ((m2 + n2) & 2, r)
        row = rows.get(cls)
        if row is None:
            row = rows[cls] = class_row(*cls)
        x = m2 - n2
        kept = []
        for dm, dn, ex, new_r, element in row:
            key = (m2 + dm, n2 + dn, new_r)
            tid = index.get(key)
            if tid is None:
                tid = new_id(key)
            end = end_of(key[:2])
            if end < 1:
                continue
            # u^a(x) u^a(e), times s^2 = u when both s bits are set, is u^a(x + e) u^k,
            # k = min(|x|, |e|) // 2 when x * e < 0, and 0 otherwise
            sh = min(abs(x), abs(ex)) // 2 * width if x * ex < 0 else 0
            kept.append((end, tid, sh, element))
        # latest first, so a step stops at its first expired move
        kept.sort(reverse=True)
        return kept

    states = {new_id(key): pack_parts(poly) for key, poly in start.items()}
    expiry: dict = {}            # step -> the ids whose moves all expire after it
    values: List[Tuple[int, RadicalScalar]] = []
    denom = scale_h
    for p in range(1, pmax + 1):
        denom *= scale_f
        nxt: dict = {}
        for sid, (sr, si) in states.items():
            state_moves = moves[sid]
            if state_moves is None:
                state_moves = moves[sid] = moves_of(sid)
                if state_moves:
                    expiry.setdefault(state_moves[0][0], []).append(sid)
            ss = sr + si
            for end, tid, sh, (er, ei, es, ed) in state_moves:
                if p > end:
                    break
                if not ei:
                    re, im = sr * er, si * er
                else:
                    k1 = er * ss
                    re, im = k1 - si * es, k1 + sr * ed
                if sh:
                    re, im = re << sh, im << sh
                acc = nxt.get(tid)
                nxt[tid] = (re, im) if acc is None else (acc[0] + re, acc[1] + im)
        for sid in expiry.pop(p, ()):
            moves[sid] = ()      # no move of sid can run after step p
        states = nxt             # a state that cancels to zero stays, and reads out as 0
        if not states:
            values.extend((q, RadicalScalar.zero()) for q in range(p, pmax + 1))
            break
        terms = {}
        for sid, state in states.items():
            m2, n2, r = keys[sid]
            if not (m2 or n2):
                re, im = (u_integral(unpack(part, width), denom) for part in state)
                if re or im:
                    terms[r] = (re, im)
        # each radicand is squarefree and keys one state: the map is canonical
        values.append((p, RadicalScalar(terms)))
    return values


def power_integral(f: FiniteFunction, power: int) -> RadicalScalar:
    """Exact value of integral(f^P) over the normalized Haar measure."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return power_scan(f, power)[-1][1]


def power_integral_with_witness(
    f: FiniteFunction, power: int, h: MatrixElementIndex
) -> RadicalScalar:
    """Exact value of integral(f^P * t[l, a, b]) with h = t[l, a, b]."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return power_scan(f, power, witness=h)[-1][1]


def minimal_balanced_pair(p1: Tuple[int, int], p2: Tuple[int, int]) -> Tuple[int, int]:
    """Componentwise-minimal nonzero (alpha, beta) in N^2 balancing two twice-int support points.

    Solves alpha*m1 + beta*m2 = 0 = alpha*n1 + beta*n2 for points satisfying
    `hull.two_term_criterion`, not both zero.  Under the criterion one point
    is a nonpositive multiple of the other, so (||p2||_1, ||p1||_1) solves it
    and its quotient by the gcd is the minimal solution.
    """
    (m1, n1), (m2, n2) = p1, p2
    if (m1, n1) == (0, 0) and (m2, n2) == (0, 0):
        raise NoSolutionError("both points are the origin")
    if not two_term_criterion(p1, p2):
        raise NoSolutionError(f"twice-int points {p1}, {p2} do not meet the two-point criterion")
    alpha, beta = abs(m2) + abs(n2), abs(m1) + abs(n1)
    g = gcd(alpha, beta)
    return (alpha // g, beta // g)
