"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 clibench/spread.py [--runs 10] [--seconds 20] [--first-seed 1] [WORKLOAD ...]

Runs `run.py` once per seed and workload, one run at a time, and prints for
every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the interquartile range as a share of the median, plus the share
of failed operations.  `raw_round_s` is the same round time without the
calibration scaling, read from the run's diagnostics, for comparison.
These are the figures README.md records.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    table = []
    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            raw = re.search(r"raw_round_s ([0-9.]+)", proc.stderr)
            result["metrics"]["raw_round_s"] = {"value": float(raw.group(1)), "unit": "s"}
            results.append(result)
            print(name, seed, json.dumps(result), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            table.append(f"| {name} | {metric} | {q2:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / q2:.1%} "
                         f"| {all(r['correct'] for r in results)} | {', '.join(f'{s:.4f}' for s in sorted(shares))} |")
    print("| workload | metric | median | Q1 | Q3 | IQR/median | correct | failed share |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
