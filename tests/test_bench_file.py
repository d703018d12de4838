"""The checked-in BENCH_*.json records and the tool that writes them (tools/bench.py)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("scan-deep", "fuzz-verify", "hull-wide", "mc-check")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_workloads_are_the_benchmarks():
    assert set(WORKLOADS) <= {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_a_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_every_run_is_correct_with_no_failed_call(path):
    record = json.loads(path.read_text())
    assert {"python", "numpy", "cpu_count", "git_head", "src_differs_from_head"} <= set(record["environment"])
    runs = {(run["workload"], run["trace"]): run for run in record["runs"]}
    assert set(runs) >= {(w, trace) for w in WORKLOADS for trace in (0, 1)}
    for key, run in runs.items():
        assert run["exit_code"] == 0, key
        assert run["result"]["correct"] is True, key
        assert run["result"]["failed"] == 0, key


def result(correct=True):
    return {"correct": correct, "attempted": 1, "failed": 0, "metrics": {}}


@pytest.mark.parametrize("bad", [{"exit_code": 1, "result": result()}, {"exit_code": 0, "result": None}],
                         ids=["nonzero-exit", "last-line-not-json"])
def test_a_bad_run_writes_nothing(tmp_path, monkeypatch, bad):
    tool = load_tool()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    calls = []

    def run_once(command, workload, seed, seconds, trace):
        calls.append((workload, trace))
        good = {"exit_code": 0, "result": result()}
        return {"workload": workload, "trace": trace, **(bad if len(calls) == 6 else good)}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "environment", dict)
    assert tool.main(["t"]) == 1
    assert len(calls) == 6
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_good_set_of_runs_is_written(tmp_path, monkeypatch):
    tool = load_tool()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "run_once", lambda command, workload, seed, seconds, trace: {
        "workload": workload, "trace": trace, "exit_code": 0, "result": result(), "seeded": (seed, seconds)})
    monkeypatch.setattr(tool, "environment", lambda: {"python": "x"})
    assert tool.main(["t", "--seed", "3"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (record["label"], record["seed"], record["seconds"]) == ("t", 3, 8)
    assert [(run["workload"], run["trace"]) for run in record["runs"]] == [
        (w, trace) for trace in (0, 1) for w in WORKLOADS]
    assert all(run["seeded"] == [3, 8] for run in record["runs"])
