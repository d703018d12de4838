"""su2haar CLI benchmark.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  An operation is one CLI call
`su2haar.cli.main(argv)` made in a fresh fork of a call server that has
imported `su2haar.cli` once, so every call starts with cold caches, like a
real invocation, while interpreter start-up is measured apart as `setup_s`.
The benchmark pins itself and its calls to one CPU, runs calls one at a
time, and scales each call's time by the calibration loop timed right before
and after it (see calibration.py).  Rounds of the workload's calls repeat
until S seconds have passed; every output is checked against the oracles in
oracles.py.  The last line of stdout is the JSON result.  With --trace 1,
odd rounds run with per-layer spans (tracer.py) and the result holds the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
os.environ["OPENBLAS_NUM_THREADS"] = "1"      # before numpy: no idle BLAS threads off the pinned CPU

from calibration import scale  # noqa: E402
from oracles import Mismatch, self_test  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = 4
RUN_SLACK_S = 150                # a run is abandoned, without a result, after --seconds plus this
SERVER_GROWTH_KB = 4096

PER_LAYER_UNITS = {
    "kernel.compositions": "count",
    "kernel.enum.incl_s": "s",
    "kernel.convolve.calls": "count",
    "kernel.convolve.incl_s": "s",
    "integrals.products": "count",
    "integrals.distinct_products": "count",
    "integrals.reuse_ratio": "ratio",
    "integrals.nonzero_ratio": "ratio",
    "integrals.self_s": "s",
    "powers.values": "count",
    "powers.self_s": "s",
    "scalars.ops": "count",
    "scalars.self_s": "s",
    "scalars.to_json.self_s": "s",
    "scalars.max_coeff_bits": "bits",
    "wigner.expansions": "count",
    "wigner.distinct_expansions": "count",
    "wigner.incl_s": "s",
    "hull.certificates": "count",
    "hull.points": "count",
    "hull.certificate.incl_s": "s",
    "hull.membership.calls": "count",
    "hull.threshold.incl_s": "s",
    "harness.trials": "count",
    "harness.trial_p50_ms": "ms",
    "harness.trial_p99_ms": "ms",
    "harness.verify.incl_s": "s",
    "numeric.samples": "count",
    "numeric.mc.incl_s": "s",
    "numeric.samples_per_s": "1/s",
    "cli.main.incl_s": "s",
    "bench.calib_ms": "ms",
    "bench.raw_round_s": "s",
    "bench.trace_overhead": "ratio",
    "trace.escaped_calls": "count",
}


class CallServer:
    """The forker.py process, in a process group of its own so that it can be stopped whole."""

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "forker.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=cwd, start_new_session=True)
        self.info = json.loads(self._readline())
        self.first_rss_kb = None
        self.last_rss_kb = None

    def _readline(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("call server exited")
        return line

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()
        answer = json.loads(self._readline())
        self.last_rss_kb = answer["server_maxrss_kb"]
        if self.first_rss_kb is None:
            self.first_rss_kb = self.last_rss_kb
        return answer["reply"]

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"op": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)       # a call child left behind
        except ProcessLookupError:
            pass


def measure_setup(server: CallServer, calibs: list) -> float:
    server.request({"op": "spawn"})                  # writes bytecode caches once
    times = []
    for _ in range(SETUP_SAMPLES):
        reply = server.request({"op": "spawn"})
        if reply["rc"] != 0:
            raise RuntimeError("a fresh interpreter failed to import su2haar.cli")
        calibs.extend(reply["calib"])
        times.append(reply["raw_s"] * scale("interpreter", reply["calib"]))
    return statistics.median(times)


class Run:
    def __init__(self, workload, server: CallServer, workdir: Path):
        self.workload = workload
        self.server = server
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calibs = []
        self.peak_rss_kb = 0
        self.rounds = []             # (traced, normalised s, raw s)
        self.traces = []             # (scale factor, summary)

    def call(self, op, traced: bool):
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        kind = self.workload.calibration
        reply = self.server.request({"op": "call", "argv": op.argv, "stdout": str(out),
                                     "stderr": str(err), "trace": traced, "calibration": kind})
        child = reply["child"]
        factor = scale(kind, reply["calib"])
        self.calibs.extend(reply["calib"])
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        if traced:
            self.traces.append((factor, child["trace"]))
        res = Result(child["rc"], out.read_text(), err.read_text())
        self.attempted += 1
        try:
            op.check(res)
        except Mismatch as e:
            if op.known_fault:
                self.failed += 1
            else:
                self.errors.append(f"{' '.join(op.argv)}: {e}")
        return child["raw_s"] * factor, child["raw_s"]

    def round(self, index: int, traced: bool) -> None:
        norm = raw = 0.0
        for op in self.workload.round(index):
            n, r = self.call(op, traced)
            norm += n
            raw += r
        self.rounds.append((traced, norm, raw))

    def times(self, traced: bool, which: int):
        return [r[which] for r in self.rounds if r[0] == traced]


def per_layer(run: Run) -> dict:
    """Per-round means over traced rounds, times at reference speed."""
    n = max(1, len(run.times(True, 1)))
    incl, self_s, calls, counts, distinct, entries = (defaultdict(float) for _ in range(6))
    trial_ms, bits, escaped = [], 0, Counter()
    for factor, s in run.traces:
        for key, value in s["incl"].items():
            incl[key] += factor * value
        for key, value in s["self"].items():
            self_s[key] += factor * value
        for source, target in ((s["calls"], calls), (s["counts"], counts), (s["distinct"], distinct),
                               (s["entries"], entries)):
            for key, value in source.items():
                target[key] += value
        trial_ms.extend(factor * t * 1000.0 for t in s["trial_s"])
        bits = max(bits, s["max_bits"])
        escaped.update(s["escaped"])
    products = counts["integrals.products"]
    trial_ms.sort()

    def pct(q):
        return trial_ms[min(len(trial_ms) - 1, int(q * len(trial_ms)))] if trial_ms else 0.0

    untraced = statistics.median(run.times(False, 1))
    values = {
        "kernel.compositions": counts["kernel.compositions"] / n,
        "kernel.enum.incl_s": incl["kernel.enum"] / n,
        "kernel.convolve.calls": counts["kernel.convolve.calls"] / n,
        "kernel.convolve.incl_s": incl["kernel.convolve"] / n,
        "integrals.products": products / n,
        "integrals.distinct_products": distinct["integrals.products"] / n,
        "integrals.reuse_ratio": 1.0 - distinct["integrals.products"] / products if products else 0.0,
        "integrals.nonzero_ratio": counts["integrals.nonzero"] / products if products else 0.0,
        "integrals.self_s": self_s["integrals"] / n,
        "powers.values": counts["powers.values"] / n,
        "powers.self_s": self_s["powers"] / n,
        "scalars.ops": entries["scalars"] / n,
        "scalars.self_s": self_s["scalars"] / n,
        "scalars.to_json.self_s": self_s["scalars.to_json"] / n,
        "scalars.max_coeff_bits": bits,
        "wigner.expansions": counts["wigner.expansions"] / n,
        "wigner.distinct_expansions": distinct["wigner.expansions"] / n,
        "wigner.incl_s": incl["wigner"] / n,
        "hull.certificates": calls["hull.certificate"] / n,
        "hull.points": counts["hull.points"] / n,
        "hull.certificate.incl_s": incl["hull.certificate"] / n,
        "hull.membership.calls": calls["hull.membership"] / n,
        "hull.threshold.incl_s": incl["hull.threshold"] / n,
        "harness.trials": len(trial_ms) / n,
        "harness.trial_p50_ms": pct(0.50),
        "harness.trial_p99_ms": pct(0.99),
        "harness.verify.incl_s": incl["harness.verify"] / n,
        "numeric.samples": counts["numeric.samples"] / n,
        "numeric.mc.incl_s": incl["numeric.mc"] / n,
        "numeric.samples_per_s": counts["numeric.samples"] / incl["numeric.mc"] if incl["numeric.mc"] else 0.0,
        "cli.main.incl_s": incl["cli.main"] / n,
        "bench.calib_ms": statistics.median(run.calibs) * 1000.0,
        "bench.raw_round_s": statistics.median(run.times(False, 2)),
        "bench.trace_overhead": statistics.median(run.times(True, 1)) / untraced,
        "trace.escaped_calls": sum(escaped.values()),
    }
    if escaped:
        print(f"calls outside their span: {dict(escaped)}", file=sys.stderr)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def execute(args, workdir: Path) -> dict:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # The calls see the interpreter's defaults (buffered stdout, bytecode
    # caches written), whatever PYTHON* settings the caller has.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    correct = True
    try:
        self_test()
    except Mismatch as e:
        print(f"oracle self-test failed: {e}", file=sys.stderr)
        correct = False
    workload = WORKLOADS[args.workload](args.seed, workdir)
    server = CallServer(env, workdir)
    try:
        info = server.info
        if info["threads"] != 1 or not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"call server is not a single-threaded su2haar from this checkout: {info}")
        setup_calibs = []
        setup_s = measure_setup(server, setup_calibs)
        run = Run(workload, server, workdir)
        run.calibs.extend(setup_calibs)
        started = time.perf_counter()
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
            run.round(index, traced=bool(args.trace) and index % 2 == 1)
            index += 1
        growth = server.last_rss_kb - server.first_rss_kb
    finally:
        server.close()
    if growth > SERVER_GROWTH_KB:
        raise RuntimeError(f"call server grew by {growth} kB during the run")
    for line in run.errors[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    untraced = run.times(False, 1)
    print(f"{args.workload} seed {args.seed}: {len(run.rounds)} rounds in "
          f"{time.perf_counter() - started:.1f} s on cpu {cpu}; backend {info['backend']}; "
          f"untraced rounds at reference speed {[round(t, 3) for t in untraced]}; "
          f"raw_round_s {statistics.median(run.times(False, 2)):.6f}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": run.peak_rss_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": correct and not run.errors, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "su2haar" / "cli.py").is_file():
        print(f"error: no su2haar sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, signal.default_int_handler)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="clibench-", dir=build))
    signal.alarm(int(args.seconds) + RUN_SLACK_S)
    try:
        result = execute(args, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
