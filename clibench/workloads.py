"""The benchmark's workloads: seeded CLI calls per round, and their checks.

A workload builds its inputs from the run's seed, writes them as files in
the run's work directory, and hands out rounds: lists of `Op`s, each one
CLI call with a check of its result.  A check raises `Mismatch`.  An op
marked `known_fault` exposes a fault of the program: when its check fails
the call counts as failed, not as a wrong answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import oracles
from oracles import Mismatch

Coeff = Tuple[Fraction, Fraction]
TermSpec = Tuple[int, int, int, Coeff]          # (2l, 2m, 2n, (re, im))


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Op:
    argv: List[str]
    check: Callable[[Result], None]
    known_fault: bool = False


def half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def function_json(terms: Sequence[TermSpec]) -> dict:
    return {"schema": 1, "terms": [
        {"l": half(l2), "m": half(m2), "n": half(n2), "coeff": {"re": str(re), "im": str(im)}}
        for l2, m2, n2, (re, im) in terms]}


def quad_terms(terms: Sequence[TermSpec]) -> List[oracles.Term]:
    return [(l2, m2, n2, complex(float(re), float(im))) for l2, m2, n2, (re, im) in terms]


def envelope(res: Result) -> dict:
    if res.rc != 0:
        raise Mismatch(f"exit {res.rc}: {res.stderr.strip()[-300:]}")
    lines = res.stdout.splitlines()
    if len(lines) != 1:
        raise Mismatch(f"expected one JSON line on stdout, got {len(lines)}")
    env = json.loads(lines[0])
    if env.get("schema") != 1:
        raise Mismatch("envelope without schema 1")
    return env


def check_mc(numeric: dict, exact: complex, what: str) -> None:
    mean = complex(numeric["mean_re"], numeric["mean_im"])
    if abs(mean - exact) > 5.0 * numeric["std_error"] + 1e-9:
        raise Mismatch(f"{what}: MC mean {mean} is more than 5 sigma ({numeric['std_error']:.3g}) from {exact}")


def random_index(rng: random.Random, l2: int) -> Tuple[int, int, int]:
    return l2, -l2 + 2 * rng.randint(0, l2), -l2 + 2 * rng.randint(0, l2)


COEFF_POOL: Tuple[Coeff, ...] = tuple(
    (Fraction(re), Fraction(im)) for re, im in
    [(1, 0), (-1, 0), (2, 0), (0, 1), (0, -1), (1, 1), (1, -1), ("1/2", 0), (0, "-1/2"), ("-1/2", "1/2")])


class Workload:
    """Base: a seeded generator of rounds writing its inputs under `workdir`."""

    calibration = "interpreter"          # the calibration loop its calls are scaled by

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self._files = 0

    def write(self, obj) -> str:
        self._files += 1
        path = self.workdir / f"in{self._files}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def round(self, index: int) -> List[Op]:
        raise NotImplementedError


class ScanDeep(Workload):
    """power-scan of the acceptance instance times a seeded unit i^k, plain and with a witness.

    Every round costs the same: multiplying all coefficients by a unit changes
    no composition, base integral or coefficient size, only signs and the
    placement of i.  The quadrature of the unscaled instance is computed once;
    each value must match it times i^(kP), and, exactly, the first round's
    value times the ratio of the units (homogeneity of the P-th power).
    """

    name = "scan-deep"
    calibration = "engine"
    PMAX = 18
    WITNESS = (4, -2, 2)                 # t[2,-1,1]: (1,-1) lies on the support line n = -m
    TERMS: Tuple[TermSpec, ...] = (
        (4, 4, -4, (Fraction(1), Fraction(0))),
        (4, -4, 4, (Fraction(1, 2), Fraction(0))),
        (4, 2, -2, (Fraction(0), Fraction(1))),
        (4, -2, 2, (Fraction(1), Fraction(1))),
        (4, 0, 0, (Fraction(-2), Fraction(0))),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        terms = quad_terms(self.TERMS)
        self.quad = {None: oracles.power_quadrature(terms, self.PMAX),
                     self.WITNESS: oracles.power_quadrature(terms, self.PMAX, self.WITNESS)}
        self.base: Dict[object, List[oracles.Exact]] = {}
        self.files: Dict[int, str] = {}

    def _file(self, k: int) -> str:
        if k not in self.files:
            unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][k]
            scaled = [(l2, m2, n2, (re * unit[0] - im * unit[1], re * unit[1] + im * unit[0]))
                      for l2, m2, n2, (re, im) in self.TERMS]
            self.files[k] = self.write(function_json(scaled))
        return self.files[k]

    def round(self, index):
        k = self.rng.randrange(4)
        path = self._file(k)
        plain = ["power-scan", path, "--pmax", str(self.PMAX)]
        witness = plain + ["--with-h", ",".join(half(x) for x in self.WITNESS)]
        return [Op(plain, lambda res: self._check(res, k, None)),
                Op(witness, lambda res: self._check(res, k, self.WITNESS))]

    def _check(self, res, k, witness):
        env = envelope(res)
        rows = env["scan"]
        if [row["P"] for row in rows] != list(range(1, self.PMAX + 1)):
            raise Mismatch("scan rows are not P = 1..pmax")
        values = [oracles.parse_exact(row["exact"]) for row in rows]
        for p, (value, (quad, scale)) in enumerate(zip(values, self.quad[witness]), start=1):
            oracles.check_close(value, (quad * 1j ** ((k * p) % 4), scale), f"P={p} witness={witness}")
        unscaled = [oracles.rotate(v, -k * p) for p, v in enumerate(values, start=1)]
        first = self.base.setdefault(witness, unscaled)
        if unscaled != first:
            raise Mismatch(f"integral((i^{k} f)^P) is not i^({k}P) integral(f^P) (witness={witness})")


class FuzzVerify(Workload):
    """fuzz at the CLI defaults, fuzz at pmax 20, then verify, each round on the next fuzz seed.

    A fuzz seed's 120 instances cost between about 0.4 and 0.8 s at
    reference speed.  Drawing fresh fuzz seeds for every run would let the
    mix of instances move a run's median by several percent, so the fuzz
    seeds cycle through a fixed pool of POOL seeds, in an order drawn from
    the run's seed: a 20 s run of about 20 rounds visits each two or three
    times.
    """

    name = "fuzz-verify"
    calibration = "engine"
    TRIALS = 100
    DEEP_TRIALS = 20
    DEEP_PMAX = 20
    POOL = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.order = list(range(1, self.POOL + 1))
        self.rng.shuffle(self.order)

    def round(self, index):
        seed = str(self.order[index % self.POOL])
        return [
            Op(["fuzz", "--seed", seed, "--trials", str(self.TRIALS)],
               lambda res: self._check_fuzz(res, self.TRIALS, 12)),
            Op(["fuzz", "--seed", seed, "--trials", str(self.DEEP_TRIALS), "--pmax", str(self.DEEP_PMAX)],
               lambda res: self._check_fuzz(res, self.DEEP_TRIALS, self.DEEP_PMAX)),
            Op(["verify"], self._check_verify),
        ]

    @staticmethod
    def _check_fuzz(res, trials, pmax):
        if res.rc != 0:
            raise Mismatch(f"fuzz exit {res.rc}: {res.stderr.strip()[-300:]}")
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        reports, summary = lines[:-1], lines[-1]
        if not summary.get("summary") or summary["trials_run"] != trials or len(reports) != trials:
            raise Mismatch(f"fuzz ran {summary.get('trials_run')} trials, {trials} asked")
        if summary["violations"] or sum(summary["counts_by_verdict"].values()) != trials:
            raise Mismatch(f"fuzz summary {summary}")
        for trial, rep in enumerate(reports):
            points = [(Fraction(t["m"]) * 2, Fraction(t["n"]) * 2) for t in rep["function"]["terms"]]
            inside = oracles.origin_inside([(int(m), int(n)) for m, n in points])
            if rep["trial"] != trial or rep["pmax"] != pmax or rep["origin_inside"] != inside:
                raise Mismatch(f"trial {trial}: origin_inside {rep['origin_inside']}, hull test says {inside}")
            scan = [oracles.parse_exact(v) for _, v in rep["scan"]]
            nonzero = [p for p, v in enumerate(scan, start=1) if not oracles.is_zero(v)]
            if not inside and nonzero:
                raise Mismatch(f"trial {trial}: origin outside the hull but P={nonzero[0]} is nonzero")
            verdict = "consistent" if (nonzero or not inside) else "inconclusive-candidate"
            if rep["verdict"] != verdict or rep["first_nonzero_p"] != (nonzero[0] if nonzero else None):
                raise Mismatch(f"trial {trial}: verdict {rep['verdict']}, first nonzero {rep['first_nonzero_p']}")

    @staticmethod
    def _check_verify(res):
        body = envelope(res)["verification"]
        if not body["all_passed"] or not all(item["passed"] for item in body["items"]):
            raise Mismatch(f"verify: {body}")


class HullWide(Workload):
    """hull and threshold --h on two seeded supports of POINTS distinct points, spin <= 8.

    One support has a point in each open quadrant, so the origin is inside
    by construction; the other lies in a seeded open half-plane, so the
    origin is outside.  The three malformed files are the same in every run.
    """

    name = "hull-wide"
    POINTS = 40
    MAX_TWICE = 16
    MALFORMED = (
        {"schema": 1, "terms": [{"l": 1.5, "m": "1/2", "n": "1/2", "coeff": {"re": "1", "im": "0"}}]},
        {"schema": 1, "terms": [{"l": "1", "m": "0", "n": "0", "coeff": "1"}]},
        {"schema": 1, "terms": "x"},
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.malformed = [self.write(obj) for obj in self.MALFORMED]
        self.lattice = [(m2, n2) for m2 in range(-self.MAX_TWICE, self.MAX_TWICE + 1)
                        for n2 in range(-self.MAX_TWICE, self.MAX_TWICE + 1) if (m2 - n2) % 2 == 0]

    def _support(self, inside: bool) -> List[Tuple[int, int]]:
        rng = self.rng
        if inside:
            quadrants = [[p for p in self.lattice if sx * p[0] > 0 and sy * p[1] > 0]
                         for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
            points = [rng.choice(q) for q in quadrants]
            pool = self.lattice
        else:
            d = (0, 0)
            while d == (0, 0):
                d = (rng.randint(-3, 3), rng.randint(-3, 3))
            points = []
            pool = [p for p in self.lattice if d[0] * p[0] + d[1] * p[1] > 0]
        while len(points) < self.POINTS:
            p = rng.choice(pool)
            if p not in points:
                points.append(p)
        rng.shuffle(points)
        return points

    def _function(self, points) -> str:
        terms = []
        for m2, n2 in points:
            low = max(abs(m2), abs(n2))
            l2 = self.rng.choice(range(low, self.MAX_TWICE + 1, 2))
            terms.append((l2, m2, n2, self.rng.choice(COEFF_POOL)))
        return self.write(function_json(terms))

    def round(self, index):
        ops = []
        for inside in (True, False):
            points = self._support(inside)
            if oracles.origin_inside(points) != inside:
                raise AssertionError("support generator broke its construction")
            path = self._function(points)
            a2, b2 = 0, 0
            while (a2, b2) == (0, 0):
                l2, a2, b2 = random_index(self.rng, self.rng.choice((2, 4)))
            ops.append(Op(["hull", path], lambda res, pts=points: self._check_hull(res, pts)))
            ops.append(Op(["threshold", path, "--h", f"{half(l2)},{half(a2)},{half(b2)}"],
                          lambda res, pts=points, w=(a2, b2): self._check_threshold(res, pts, w)))
        for path in self.malformed:
            ops.append(Op(["hull", path], self._check_rejected, known_fault=True))
        return ops

    @staticmethod
    def _check_hull(res, points):
        env = envelope(res)
        support = [(Fraction(m), Fraction(n)) for m, n in env["support"]]
        if [(int(2 * m), int(2 * n)) for m, n in support] != points:
            raise Mismatch("hull envelope support differs from the input")
        if env["hull"]["origin_inside"] != oracles.origin_inside(points):
            raise Mismatch(f"hull verdict {env['hull']['origin_inside']} disagrees with the hull test")
        oracles.check_certificate(env["hull"], support)

    @staticmethod
    def _check_threshold(res, points, witness):
        if oracles.origin_inside(points):
            if res.rc != 3 or res.stdout:
                raise Mismatch(f"threshold with the origin inside: exit {res.rc}, want 3")
            return
        p0 = envelope(res)["threshold"]
        want = oracles.least_threshold(points, witness)
        if p0 != want:
            raise Mismatch(f"threshold {p0}, least threshold is {want}")

    @staticmethod
    def _check_rejected(res):
        if res.rc != 2 or res.stdout or "Traceback" in res.stderr:
            raise Mismatch(f"malformed input: exit {res.rc}, want 2 without a traceback")


class McCheck(Workload):
    """power-scan --mc and integrate --mc on seeded small instances.

    The cost of a round is set by the sample count, pmax and the number and
    spins of the terms, which are fixed; the seed picks only (m, n) and the
    coefficients.
    """

    name = "mc-check"
    calibration = "array"
    SAMPLES = 200_000
    PMAX = 4
    TERMS = 3
    SPIN2 = 2

    def round(self, index):
        rng = self.rng
        indices = set()
        while len(indices) < self.TERMS:
            indices.add(random_index(rng, self.SPIN2))
        terms = [(l2, m2, n2, rng.choice(COEFF_POOL)) for l2, m2, n2 in sorted(indices)]
        scan_path = self.write(function_json(terms))
        factors = [random_index(rng, self.SPIN2) + (rng.randint(1, 2),) for _ in range(3)]
        product_path = self.write({"schema": 1, "factors": [
            {"l": half(l2), "m": half(m2), "n": half(n2), "power": p} for l2, m2, n2, p in factors]})
        seed = str(rng.randrange(10 ** 6))
        return [
            Op(["power-scan", scan_path, "--pmax", str(self.PMAX), "--mc", str(self.SAMPLES), "--seed", seed],
               lambda res: self._check_scan(res, terms)),
            Op(["integrate", product_path, "--mc", str(self.SAMPLES), "--seed", seed],
               lambda res: self._check_integrate(res, factors)),
        ]

    def _check_scan(self, res, terms):
        rows = envelope(res)["scan"]
        quad = oracles.power_quadrature(quad_terms(terms), self.PMAX)
        if [row["P"] for row in rows] != list(range(1, self.PMAX + 1)):
            raise Mismatch("scan rows are not P = 1..pmax")
        for row, q in zip(rows, quad):
            value = oracles.parse_exact(row["exact"])
            oracles.check_close(value, q, f"P={row['P']}")
            check_mc(row["numeric"], oracles.exact_complex(value), f"P={row['P']}")

    @staticmethod
    def _check_integrate(res, factors):
        env = envelope(res)
        value = oracles.parse_exact(env["exact"])
        oracles.check_close(value, oracles.product_quadrature(factors), "product")
        check_mc(env["numeric"], oracles.exact_complex(value), "product")


WORKLOADS = {cls.name: cls for cls in (ScanDeep, FuzzVerify, HullWide, McCheck)}
