"""Write BENCH_<label>.json: the benchmark's end-to-end record of one source tree.

    python3 tools/bench.py LABEL [--seed N] [--seconds T]

For each workload named in BENCHMARK.json, at --trace 0 and then --trace 1,
this runs the unchanged benchmark command

    python3 clibench/run.py --workload W --seed N --seconds T --trace X

from the repository root, one run at a time, and keeps the run's exit code
and its last stdout line, parsed as JSON.  The file also records the seed,
--seconds and the environment: the Python and numpy versions, os.cpu_count(),
`git rev-parse HEAD` and whether src/ differs from that commit.  The seed
and --seconds default to 1 and 8.

If any run exits nonzero or its last stdout line is not JSON, nothing is
written and the tool exits 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _label(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", text):
        raise argparse.ArgumentTypeError("letters, digits, '_', '.' and '-' only")
    return text


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu_count": os.cpu_count(),
        "git_head": _git("rev-parse", "HEAD"),
        "src_differs_from_head": bool(_git("status", "--porcelain", "--", "src")),
    }


def run_once(command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its exit code and its last stdout line as JSON (None when that line is not JSON)."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "trace": trace, "exit_code": proc.returncode, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", type=_label, help="the file written is BENCH_<label>.json at the repository root")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for trace in (0, 1):
        for workload in (w["name"] for w in benchmark["workloads"]):
            run = run_once(benchmark["command"], workload, args.seed, args.seconds, trace)
            print(f"{workload} --trace {trace}: exit {run['exit_code']}", file=sys.stderr)
            if run["exit_code"] != 0 or not isinstance(run["result"], dict):
                print(f"error: {workload} --trace {trace} exited {run['exit_code']} "
                      f"or its last line is not JSON; nothing written", file=sys.stderr)
                return 1
            runs.append(run)
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(), "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
