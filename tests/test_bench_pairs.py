"""Tests for tools/bench_pairs.py: the summary of paired runs, and the
refusal to compare trees whose benchmark harness differs.  No test here
runs the benchmark."""

import argparse
import json
import subprocess
from pathlib import Path

import pytest

from conftest import load_tool

END_TO_END = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "peak_rss_mb", "better": "lower"},
]


@pytest.fixture
def tool():
    return load_tool("bench_pairs")


def _run(ops, rss, attempted=100, failed=0):
    return {"returncode": 0, "correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}}


def test_summary_of_synthetic_runs(tool):
    runs = {
        "parent": [_run(10.0, 50.0), _run(12.0, 50.0), _run(11.0, 51.0), _run(13.0, 49.0)],
        "change": [_run(11.0, 50.0), _run(11.0, 49.0), _run(14.0, 52.0, failed=2),
                   _run(13.0, 48.0)],
    }
    assert tool.summary(END_TO_END, runs) == [
        # Pairs 1 and 3 win, pair 2 loses, pair 4 ties.
        "ops_per_s (higher is better): parent median 11.5 [10.75, 12.25]; "
        "change median 12 [11, 13.25]; change wins 2, loses 1 of 4 pairs",
        # Lower is better: pairs 2 and 4 win, pair 3 loses, pair 1 ties.
        "peak_rss_mb (lower is better): parent median 50 [49.75, 50.25]; "
        "change median 49.5 [48.75, 50.5]; change wins 2, loses 1 of 4 pairs",
        "parent: attempted 400, failed 0",
        "change: attempted 400, failed 2",
    ]


def test_summary_leaves_out_a_run_without_metrics(tool):
    crashed = {"returncode": 1, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    runs = {"parent": [_run(10.0, 50.0), _run(12.0, 50.0)], "change": [_run(11.0, 50.0), crashed]}
    lines = tool.summary(END_TO_END[:1], runs)
    assert lines[0] == ("ops_per_s (higher is better): parent median 11 [10.5, 11.5]; "
                        "change median 11 [11, 11]; change wins 1, loses 0 of 1 pairs")
    assert tool.summary(END_TO_END[:1], {"parent": runs["parent"], "change": [crashed]})[0] == (
        "ops_per_s: no value on one side")


def test_seed_ranges(tool):
    assert tool.seed_range("1-10") == list(range(1, 11))
    assert tool.seed_range("4") == [4]
    with pytest.raises(argparse.ArgumentTypeError):
        tool.seed_range("5-3")


def _spec(end_to_end="[]") -> str:
    return ('{"command": ["python3", "bench/run.py"], "paths": ["bench"], "run_seconds": 7, '
            '"workloads": [{"name": "verify"}], "end_to_end": ' + end_to_end + '}')


def _tree(root: Path, run_py: str, spec: str) -> Path:
    (root / "bench" / "__pycache__").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(run_py)
    (root / "bench" / "__pycache__" / "run.cpython.pyc").write_bytes(root.name.encode())
    (root / "BENCHMARK.json").write_text(spec)
    (root / "src").mkdir()
    return root


def test_refuses_trees_whose_harness_differs(tool, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(subprocess, "run", no_run)
    spec = _spec()
    parent = _tree(tmp_path / "parent", "print(1)\n", spec)
    change = _tree(tmp_path / "change", "print(2)\n", spec)
    assert tool.harness_differences(parent, change) == ["bench/run.py"]
    assert tool.main([str(parent), str(change), "--workload", "verify"]) == 2

    same = _tree(tmp_path / "same", "print(1)\n", spec.replace("[]", "[{}]"))
    assert tool.harness_differences(parent, same) == ["BENCHMARK.json"]
    assert tool.main([str(parent), str(same), "--workload", "verify"]) == 2
    (same / "bench" / "extra.py").write_text("")
    assert tool.harness_differences(parent, same) == ["BENCHMARK.json", "bench/extra.py"]

    twin = _tree(tmp_path / "twin", "print(1)\n", spec)
    assert tool.harness_differences(parent, twin) == []


def test_pair_order_and_a_wrong_run_fail_the_comparison(tool, tmp_path, monkeypatch, capsys):
    spec = _spec('[{"name": "ops_per_s", "better": "higher"}]')
    parent = _tree(tmp_path / "parent", "print(1)\n", spec)
    change = _tree(tmp_path / "change", "print(1)\n", spec)
    order = []
    real_run = subprocess.run

    def fake_run(command, cwd=None, **kwargs):
        if cwd is None:  # platform.platform() asks uname for the processor
            return real_run(command, **kwargs)
        seed = int(command[command.index("--seed") + 1])
        order.append((cwd.name, seed))
        # The command and run length come from BENCHMARK.json.
        assert command == ["python3", "bench/run.py", "--workload", "verify", "--seed", str(seed),
                           "--seconds", "7", "--trace", "0"]
        last = {"correct": (cwd.name, seed) != ("change", 2), "attempted": 5, "failed": 0,
                "metrics": {"ops_per_s": {"value": 10.0}}}
        return subprocess.CompletedProcess(command, 0, "record\n" + json.dumps(last) + "\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    args = [str(parent), str(change), "--workload", "verify", "--seeds", "1-3"]
    assert tool.main(args[:-1] + ["1"]) == 0
    assert tool.main(args) == 1
    assert order == [("parent", 1), ("change", 1), ("parent", 1), ("change", 1),
                     ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]
    out = capsys.readouterr().out
    assert "pair 2 change: exit=0 correct=False attempted=5 failed=0 ops_per_s=10" in out
    assert "change: attempted 15, failed 0" in out
    # The last line is the comparison as one JSON object.
    record = json.loads(out.splitlines()[-1])
    assert record["workload"] == "verify" and record["seeds"] == [1, 2, 3]
    assert sorted(record["machine"]) == ["cpus", "numpy", "platform", "python"]
    assert record["metrics"]["ops_per_s"] == {
        "better": "higher",
        "parent": {"values": [10.0, 10.0, 10.0], "median": 10.0, "quartiles": [10.0, 10.0]},
        "change": {"values": [10.0, 10.0, 10.0], "median": 10.0, "quartiles": [10.0, 10.0]},
        "wins": 0, "losses": 0, "pairs": 3,
    }
    assert record["operations"] == {"parent": {"attempted": 15, "failed": 0},
                                    "change": {"attempted": 15, "failed": 0}}
