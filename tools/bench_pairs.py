#!/usr/bin/env python3
"""Run the benchmark on two source trees in interleaved pairs and compare.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seeds 1-10]

PARENT and CHANGE are directories that each hold ``src/``,
``BENCHMARK.json`` and the harness directories that its ``paths`` name,
such as the outputs of ``git archive`` of two commits.  The script exits
2, running nothing, if the two trees' ``BENCHMARK.json`` or harness files
differ in bytes: a comparison is only fair when one harness measures both
programs.

Pair k, for each seed k of ``--seeds`` (``A-B`` or one number), runs
``BENCHMARK.json``'s ``command`` with

    --workload W --seed k --seconds RUN_SECONDS --trace 0

(``RUN_SECONDS`` is its ``run_seconds``) from each tree's root: the parent
first on odd k and the change first on even k, so a slow stretch of the
machine falls on both sides alike.  It prints each run's metrics as the
run ends, then, per end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles and the change's wins and losses over the pairs by
the metric's ``better`` (ties count for neither), and each side's
``attempted`` and ``failed`` operations.  Its last line holds the same
comparison as one JSON object, with the workload, the seeds, each side's
values in pair order and a record of the machine, ready to append to a
``BENCH_*.jsonl`` file.  It exits 1 if any run exits non-zero or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def harness_differences(parent: Path, change: Path) -> list[str]:
    """Paths, relative to the tree roots, of ``BENCHMARK.json`` and of the
    files under the directories its ``paths`` name, in either tree, that
    differ in bytes or exist in one tree only.  Bytecode caches are not
    part of the harness."""

    def harness(root):
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        files = [path for directory in spec["paths"] for path in (root / directory).rglob("*")
                 if path.is_file() and "__pycache__" not in path.parts]
        return {path.relative_to(root).as_posix() for path in files} | {"BENCHMARK.json"}

    names = harness(parent) | harness(change)
    return sorted(
        name for name in names
        if not ((parent / name).is_file() and (change / name).is_file()
                and (parent / name).read_bytes() == (change / name).read_bytes())
    )


def seed_range(text: str) -> list[int]:
    """The seeds of ``A-B`` (both ends included) or of one number."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One run of spec's command in the tree at root: its exit code and its last
    output line's JSON (``correct``, ``attempted``, ``failed`` and the
    metrics' values), or ``correct`` False with no metrics when it printed
    none."""
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    result = {"returncode": done.returncode, "correct": False, "attempted": 0, "failed": 0,
              "metrics": {}}
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
        result.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
                      metrics={name: m["value"] for name, m in last["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(done.stderr[-2000:])
    return result


def run_line(seed: int, side: str, result: dict) -> str:
    metrics = " ".join(f"{name}={value:.6g}" for name, value in result["metrics"].items())
    return (f"pair {seed} {side}: exit={result['returncode']} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} {metrics}").rstrip()


def spread(values: list[float]) -> dict:
    """values, their median and their quartiles [Q1, Q3], inclusive of the ends."""
    low, median, high = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "quartiles": [low, high]}


def comparison(end_to_end: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric, its ``better``, each side's values in pair
    order with their median and quartiles, and the change's wins and losses
    over the pairs (None for a metric with no value on one side); then each
    side's operations.  ``runs`` holds each side's runs in pair order; a run with
    no value of a metric is left out of that metric."""
    metrics: dict[str, dict | None] = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [r["metrics"][name] for r in runs[side] if name in r["metrics"]]
                  for side in SIDES}
        if not all(values.values()):
            metrics[name] = None
            continue
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        metrics[name] = {
            "better": metric["better"],
            **{side: spread(values[side]) for side in SIDES},
            "wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "losses": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
        }
    operations = {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                         "failed": sum(r["failed"] for r in runs[side])} for side in SIDES}
    return {"metrics": metrics, "operations": operations}


def summary(end_to_end: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """The comparison of runs as lines: per end-to-end metric, each side's
    median [Q1, Q3] and the change's wins and losses; then each side's
    operations."""
    compared = comparison(end_to_end, runs)
    lines = []
    for name, entry in compared["metrics"].items():
        if entry is None:
            lines.append(f"{name}: no value on one side")
            continue
        sides = "; ".join("{} median {:.6g} [{:.6g}, {:.6g}]".format(
            side, entry[side]["median"], *entry[side]["quartiles"]) for side in SIDES)
        lines.append(f"{name} ({entry['better']} is better): {sides}; change wins "
                     f"{entry['wins']}, loses {entry['losses']} of {entry['pairs']} pairs")
    lines += [f"{side}: attempted {ops['attempted']}, failed {ops['failed']}"
              for side, ops in compared["operations"].items()]
    return lines


def machine() -> dict:
    """The interpreter, numpy and platform the comparison ran on."""
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(), "cpus": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differ = harness_differences(trees["parent"], trees["change"])
    if differ:
        print("error: the trees' benchmark harness differs: " + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed in args.seeds:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            runs[side].append(run_bench(trees[side], spec, args.workload, seed))
            print(run_line(seed, side, runs[side][-1]), flush=True)
    for line in summary(spec["end_to_end"], runs):
        print(line)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "machine": machine(),
                      **comparison(spec["end_to_end"], runs)}))
    bad = [r for side in SIDES for r in runs[side] if r["returncode"] != 0 or not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
