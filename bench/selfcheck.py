"""Checks of the benchmark itself: oracle, output checks, tracer, workload purity.

Run from the root of a source checkout:

    python3 bench/selfcheck.py

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

import oracle
import run
import tracer as tracing
import workloads as wl

RESULTS: list[tuple[str, bool, str]] = []


def record(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}", flush=True)


def check_oracle_references() -> None:
    """The degree-200, a = 0.99 unit-circle distances known to 7 digits."""
    m = 199
    for sign, expected in ((1, 0.0060334), (-1, 0.0122187)):
        shift = 0.0 if sign == 1 else math.pi
        zeros = np.array([complex(np.exp(1j * (shift + 2 * np.pi * k) / m)) for k in range(m)])
        d = oracle.circle_distance(0.99, 0.0, sign, zeros)
        also = oracle.sendov_distance(0.99, zeros)
        ok = abs(d - expected) < 5e-8 and abs(d - also) < 1e-12
        record(f"oracle.circle_reference sign={sign:+d}", ok,
               f"trinomial {d!r}, eigen {also!r}, expected {expected}")


def _check_call(op, distance, verdict="PASS", code=0) -> run.Call:
    rec = {"critical_points": [], "sendov_distance": distance, "mean_real_part": 0.0,
           "residuals": [], "converged": verdict != "UNRESOLVED", "verdict": verdict}
    return run.Call(op, 0.1, code, json.dumps(rec) + "\n")


def check_output_checks(work: Path) -> None:
    """The check-hard, fuzz-matrix and verify checks flag bad outputs."""
    hard = run.CheckHard(7, work)
    by_name = {inst.name: inst for inst in hard.instances}
    inst = by_name["random-n128-0"]
    ref = hard.reference(inst)
    cases = [
        ("exact distance", _check_call(inst, ref), 0, True),
        ("distance off by 1e-7", _check_call(inst, ref + 1e-7), 1, True),
        ("UNRESOLVED report", _check_call(inst, ref, "UNRESOLVED", 1), 1, True),
        ("exit code 2", run.Call(inst, 0.1, 2, ""), 1, True),
        ("FAIL verdict on a passing input", _check_call(inst, 1.5, "FAIL", 1), 1, False),
    ]
    for label, call, failed, correct in cases:
        got = hard.check([call])
        ok = got.failed == failed and got.correct == correct and got.attempted == 1
        record(f"check-hard flags: {label}", ok,
               f"failed={got.failed} correct={got.correct}")

    origin = by_name["ref-origin-n200-a0.99"]
    got = hard.check([_check_call(origin, 0.99 / 200 + 2e-8)])
    record("check-hard flags: origin family off by 2e-8", got.failed == 1)

    fuzz = run.FuzzMatrix(7, work)
    cell = wl.FuzzCell(a=0.3, degree=8, trials=5, seed=11)
    trials = np.array([wl.fuzz_trial_zeros(cell, i) for i in range(cell.trials)])
    ref_max = oracle.max_distance(cell.a, trials)
    direct = max(oracle.sendov_distance(cell.a, t) for t in trials)
    record("oracle.max_distance equals the max of per-trial distances",
           abs(ref_max - direct) < 1e-12, f"{ref_max!r} vs {direct!r}")
    for label, shift, failed in (("exact max", 0.0, 0), ("max off by 1e-7", 1e-7, 1)):
        rec = {"a": cell.a, "degree": cell.degree, "trials": cell.trials,
               "max_sendov_distance": ref_max + shift, "violations": 0,
               "seed": cell.seed, "non_converged": 0, "violation_instances": []}
        got = fuzz.check([run.Call(cell, 0.1, 0, json.dumps(rec) + "\n")])
        record(f"fuzz-matrix flags: {label}", got.failed == failed and got.correct,
               f"failed={got.failed}")

    ver = run.Verify(7, work)
    vseed = wl.VERIFY_SEEDS[0]
    line = json.dumps({"check_id": "x", "passed": True}) + "\n"
    got = ver.check([run.Call(vseed, 0.1, 0, line)])
    record("verify flags: bytes differing from the golden digest", not got.correct)


def check_self_times() -> None:
    """Self time on a synthetic tree with overlapping and overhanging children."""
    #   0 root [0, 10]; 1 [1, 4] and 2 [3, 6] overlap; 3 [2, 3] inside 1;
    #   4 [9, 12] overhangs the root's end.
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = tracing.self_times(start, end, parent).tolist()
    expected = [4.0, 2.0, 3.0, 1.0, 3.0]
    record("tracer.self_times on a synthetic tree", got == expected, f"{got} vs {expected}")


def check_tracer(modules) -> None:
    """Install wraps what callers reach; restore puts back the same objects."""
    before = {
        (name, key): value
        for name, module in modules.items()
        for key, value in vars(module).items() if callable(value)
    }
    init_before = modules["polynomial"].SendovInstance.__init__
    tr = tracing.Tracer()
    tr.install(modules)
    try:
        tr.op_index = 0
        inst = modules["polynomial"].SendovInstance(a=0.5, other_zeros=(0.1j, -0.5, 0.3))
        modules["cli"].critical_report(inst)
        modules["verify"].run_inequality_suite(grid_step=0.01, extra_random=0)
    finally:
        tr.restore()
    after = {
        (name, key): value
        for name, module in modules.items()
        for key, value in vars(module).items() if callable(value)
    }
    record("tracer.restore leaves every module attribute as it was",
           before == after and modules["polynomial"].SendovInstance.__init__ is init_before)
    values = tracing.aggregate(tr)
    names = [tr.names[i] for i in tr.name_id]
    arr = tr.arrays()
    report = names.index("polynomial.critical_report")
    children = {names[i] for i in np.nonzero(arr["parent"] == report)[0]}
    self_sum = tracing.self_times(arr["start"], arr["end"], arr["parent"]).sum()
    top = arr["parent"] == -1
    wall = float((arr["end"][top] - arr["start"][top]).sum())
    ok = (
        children == {"polynomial.from_roots", "polynomial.derivative", "polynomial.find_roots"}
        and values["polynomial.find_roots.calls"] == 1
        and values["bounds.d_function.calls"] == 99 * 99
        and abs(self_sum - wall) < 1e-9
    )
    record("tracer spans nest and self times add up to the top-level wall", ok,
           f"children={sorted(children)} d_function calls={values['bounds.d_function.calls']}")


def check_workload_purity() -> None:
    first, again, other = wl.plan_bytes(5), wl.plan_bytes(5), wl.plan_bytes(6)
    record("workloads are a pure function of the seed", first == again and first != other,
           f"{len(first)} bytes")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = (
        [w["name"] for w in spec["workloads"]] == list(wl.WHY)
        and all(w["why"] == wl.WHY[w["name"]] for w in spec["workloads"])
        and [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    )
    record("BENCHMARK.json matches the workloads and metrics in the code", ok)
    cycles = {name: run.cycle_count(runner, spec["run_seconds"])
              for name, runner in run.RUNNERS.items()}
    record(f"a {spec['run_seconds']} s run makes a fixed number of cycles per workload",
           all(n >= 1 for n in cycles.values()), str(cycles))


def main() -> None:
    modules = run.load_program()
    check_oracle_references()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        check_output_checks(Path(work))
    check_self_times()
    check_tracer(modules)
    check_workload_purity()
    check_benchmark_json()
    failed = [name for name, ok, _ in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-checks passed")
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
