"""sendov-lab benchmark: one workload, timed or traced, with checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fuzz-matrix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are fuzz-matrix, check-hard and verify (see workloads.WHY), or
``all`` for the three in turn, each in its own process.  Every operation
goes in-process through ``sendov_lab.cli.main``, the path the
``sendov-lab`` command takes, with inputs generated from ``--seed``.  A
run makes a fixed number of cycles for its ``--seconds`` (see cycle_count),
so the operations it attempts depend on its arguments alone.

Untimed, after the timed loop, every output is checked against oracle.py,
which does not use ``sendov_lab.polynomial``, or, for verify, against the
golden digests in verify_golden.json.  The last line of standard output is
one JSON object: ``correct`` (no wrong verdict or wrong bytes), ``attempted``
and ``failed`` (operations: fuzz trials, checks, verify checks) and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of tracer.py with ``--trace 1``).  Lines before it are the run
record and every metric under its reporting name, with unit and sample
count.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are capped before numpy loads, in this process and
# the set-up probes it starts.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "verify_golden.json"

WORKLOADS = tuple(wl.WHY)
# A converged distance farther than this from the reference is wrong.
DISTANCE_TOL = 1e-8
# The CLI's verdict threshold: a distance above it is a violation (FAIL).
VIOLATION_THRESHOLD = 1.0 + 1e-9
# Set-up probes per run, half before the timed loop and half after it, so
# a slow stretch of the machine on either side moves the median less.
SETUP_REPEATS = 10
# A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# Gated end-to-end metrics, the same on every workload.  Rates and set-up
# times are scaled by the calibration kernel (see Calibration).  ".low" counts only the
# calls of degree <= workloads.LOW_DEGREE, where per-call overhead rules;
# check-hard and verify have none and count every call.  Percentiles of call times are
# printed but not gated: a check-hard cycle mixes calls of 0.05 s to 4 s in
# equal shares per degree, so its median sits between two clusters and
# moves by 20% from seed to seed.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("ops_per_s.low", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PROBE = r"""
import contextlib, io, json, sys, time
root, argv = sys.argv[1], json.loads(sys.argv[2])
t0 = time.perf_counter()
sys.path.insert(0, root + "/src")
import sendov_lab.cli as cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t0]))
"""


def say(text: str) -> None:
    print(text, flush=True)


def metric_line(name: str, value: float, unit: str, n, note: str = "") -> None:
    say(f"metric {name} = {value:.6g} {unit} (n={n}){'  ' + note if note else ''}")


# --------------------------------------------------------------------------
# Program loading and calls


def load_program():
    """Import sendov_lab from this checkout's src/, and nothing else."""
    if not (SRC / "sendov_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no sendov_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sendov_lab
    from sendov_lab import bounds, cli, polynomial, verify

    if SRC.resolve() not in Path(sendov_lab.__file__).resolve().parents:
        raise SystemExit(f"error: sendov_lab imported from {sendov_lab.__file__}, not {SRC}")
    return {"cli": cli, "verify": verify, "polynomial": polynomial, "bounds": bounds,
            "package": sendov_lab}


@dataclass
class Call:
    op: object
    seconds: float
    code: int | None
    out: str
    error: str | None = None
    warnings: int = 0
    # Calibration kernel time around the call (see Calibration).
    kernel_s: float = 0.0


def run_call(cli, op, argv: list[str], count_warnings: bool = False) -> Call:
    """One `sendov-lab` invocation through ``cli.main``, timed around the call."""
    buf = io.StringIO()
    code = None
    error = None
    caught: list = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(buf))
        if count_warnings:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, recorded with its traceback
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    numpy_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return Call(op, seconds, code, buf.getvalue(), error, numpy_warnings)


# --------------------------------------------------------------------------
# Workloads: operation lists and output checks.  Each workload class gives
# CYCLE_S (the time of one cycle, see cycle_count), cycle(k) (the
# operations of cycle k), argv(op), probe_argv() (a small first call for
# set-up), ops(call) (operations in one call), low(op), check(calls) and
# aliases (the names the metrics are also known by).


def parse_record(call: Call) -> dict | None:
    """The JSON record a call printed, or None if it crashed, exited 2 or printed garbage."""
    if call.error or call.code not in (0, 1):
        return None
    try:
        record = json.loads(call.out)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class Checked:
    """Outcome of checking the calls of one run against the oracle."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    unresolved: int = 0
    errors: int = 0
    correct: bool = True
    solves: int = 0
    lines: list[str] = field(default_factory=list)

    def add(self, other: "Checked") -> None:
        for name in ("attempted", "failed", "wrong", "unresolved", "errors", "solves"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.correct = self.correct and other.correct
        self.lines += other.lines

    def summary(self) -> str:
        return (
            f"outcome correct={self.correct} attempted={self.attempted} failed={self.failed} "
            f"(wrong {self.wrong}, unresolved {self.unresolved}, errors {self.errors})"
        )


class FuzzMatrix:
    """54 `fuzz --format json` cells per sweep; an operation is one trial."""

    CYCLE_S = 2.5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self._refs: dict[wl.FuzzCell, float] = {}

    def cycle(self, k: int):
        return wl.fuzz_sweep(self.seed, k)

    def reference(self, cell) -> float:
        if cell not in self._refs:
            trials = np.array([wl.fuzz_trial_zeros(cell, i) for i in range(cell.trials)])
            self._refs[cell] = oracle.max_distance(cell.a, trials)
        return self._refs[cell]

    @staticmethod
    def argv(cell) -> list[str]:
        return cell.argv()

    def probe_argv(self) -> list[str]:
        return wl.FuzzCell(a=0.5, degree=64, trials=2, seed=self.seed).argv()

    @staticmethod
    def ops(call: Call) -> int:
        return call.op.trials

    def check(self, calls: list[Call]) -> Checked:
        out = Checked()
        for call in calls:
            cell = call.op
            out.attempted += cell.trials
            rec = parse_record(call)
            if rec is None:
                out.errors += 1
                out.failed += cell.trials
                out.lines.append(f"error fuzz {cell.argv()}: code={call.code} {call.error or ''}")
                continue
            out.solves += cell.trials
            bad = rec["violations"] + rec["non_converged"]
            out.unresolved += rec["non_converged"]
            ref = self.reference(cell)
            violated = ref > VIOLATION_THRESHOLD
            if (rec["violations"] > 0) != violated or rec["trials"] != cell.trials:
                out.correct = False
                out.lines.append(
                    f"wrong verdict fuzz a={cell.a} degree={cell.degree} seed={cell.seed}: "
                    f"violations={rec['violations']} reference max={ref!r}"
                )
            elif rec["non_converged"] == 0 and abs(rec["max_sendov_distance"] - ref) > DISTANCE_TOL:
                out.wrong += 1
                bad += 1
                out.lines.append(
                    f"wrong fuzz a={cell.a} degree={cell.degree} seed={cell.seed}: "
                    f"max={rec['max_sendov_distance']!r} reference={ref!r}"
                )
            out.failed += bad
        return out

    aliases = {"ops_per_s": "trials_per_s", "ops_per_s.low": "trials_per_s.low"}

    @staticmethod
    def low(cell) -> bool:
        return cell.degree <= wl.LOW_DEGREE


class CheckHard:
    """`check --format json` on degree-128/200 inputs; an operation is one check."""

    CYCLE_S = 22.0

    def __init__(self, seed: int, work: Path):
        self.instances = wl.check_instances(seed)
        self.probe = wl.probe_instance(seed)
        self.paths = {}
        for inst in self.instances + [self.probe]:
            path = work / f"{inst.name}.json"
            path.write_bytes(inst.payload())
            self.paths[inst.name] = str(path)
        self._refs: dict[str, float] = {}

    def cycle(self, k: int):
        return self.instances

    def argv(self, inst) -> list[str]:
        return ["check", "--instance", self.paths[inst.name], "--format", "json"]

    def probe_argv(self) -> list[str]:
        return self.argv(self.probe)

    @staticmethod
    def ops(call: Call) -> int:
        return 1

    def reference(self, inst) -> float:
        if inst.name not in self._refs:
            zeros = np.array(inst.zeros)
            if inst.family == "origin":
                ref = oracle.origin_distance(inst.a, len(zeros))
            elif inst.family == "random":
                ref = oracle.sendov_distance(inst.a, zeros)
            else:
                sign = 1 if inst.family == "circle-minus" else -1
                ref = oracle.circle_distance(inst.a, inst.theta, sign, zeros)
            self._refs[inst.name] = ref
        return self._refs[inst.name]

    def check(self, calls: list[Call]) -> Checked:
        out = Checked()
        # The last status of each distinct input, by group.
        groups: dict[str, dict[str, str]] = {}
        for call in calls:
            inst = call.op
            ref = self.reference(inst)
            out.attempted += 1
            distance = None
            rec = parse_record(call)
            if rec is None:
                status = "error"
                out.errors += 1
            else:
                distance = rec["sendov_distance"]
                out.solves += 1
                if rec["verdict"] == "UNRESOLVED":
                    status = "unresolved"
                    out.unresolved += 1
                else:
                    if (rec["verdict"] == "FAIL") != (ref > VIOLATION_THRESHOLD):
                        out.correct = False
                        status = "wrong-verdict"
                    elif abs(distance - ref) > DISTANCE_TOL:
                        status = "wrong"
                    else:
                        status = "ok"
                    out.wrong += status != "ok"
            out.failed += status != "ok"
            groups.setdefault(inst.group, {})[inst.name] = status
            out.lines.append(
                f"check {inst.name}: a={inst.a:.6g} theta={inst.theta:.6g} {status} "
                f"distance={distance!r} reference={ref!r} {call.seconds * 1e3:.1f} ms"
            )
        for group, named in groups.items():
            bad = {name: status for name, status in named.items() if status != "ok"}
            kinds = ", ".join(
                f"{s} {list(bad.values()).count(s)}" for s in sorted(set(bad.values()))
            ) or "none"
            out.lines.append(
                f"check-hard {group}: {len(bad)}/{len(named)} inputs failed ({kinds})"
            )
        return out

    aliases = {"call_ms.p50": "check_ms.p50", "call_ms.tail": "check_ms.tail"}

    @staticmethod
    def low(inst) -> bool:
        return True


class Verify:
    """Full `verify --format json` passes; an operation is one verify check."""

    CYCLE_S = 0.5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.golden = json.loads(GOLDEN.read_text())

    def cycle(self, k: int):
        return [wl.verify_seed(self.seed)]

    @staticmethod
    def argv(vseed) -> list[str]:
        return wl.verify_argv(vseed)

    def probe_argv(self) -> list[str]:
        return ["verify", "--grid-step", "0.01", "--format", "json"]

    def ops(self, call: Call) -> int:
        return self.golden["checks"]

    def check(self, calls: list[Call]) -> Checked:
        out = Checked()
        for call in calls:
            checks = self.golden["checks"]
            out.attempted += checks
            if call.error or call.code not in (0, 1):
                out.errors += 1
                out.failed += checks
                out.lines.append(
                    f"error verify --seed {call.op}: code={call.code} {call.error or ''}"
                )
                continue
            digest = hashlib.sha256(call.out.encode()).hexdigest()
            if digest != self.golden["digests"][str(call.op)]:
                out.correct = False
                out.lines.append(f"verify --seed {call.op}: output differs from the golden bytes")
            if call.code == 1:  # verify exits 1 exactly when a check fails
                out.failed += sum('"passed": false' in line for line in call.out.splitlines())
        return out

    aliases = {"call_ms.p50": "verify_ms.p50"}

    @staticmethod
    def low(vseed) -> bool:
        return True


RUNNERS = {"fuzz-matrix": FuzzMatrix, "check-hard": CheckHard, "verify": Verify}


# --------------------------------------------------------------------------
# Measurement


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max: {n} samples are too few for a tail"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f}, {TAIL_BEYOND} samples beyond"


def measure_setup(argv: list[str], repeats: int, cal: "Calibration") -> list[list[float]]:
    """Import plus first call, each in a fresh interpreter, ``repeats`` times.

    Each probe gives [import seconds, import plus first call seconds,
    median kernel seconds of the three kernel runs before and the three
    after it].
    """
    totals = []
    for _ in range(repeats):
        before = [cal.run() for _ in range(3)]
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(ROOT), json.dumps(argv)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        kernel = statistics.median(before + [cal.run() for _ in range(3)])
        totals.append(json.loads(done.stdout.strip().splitlines()[-1]) + [kernel])
    return totals


def run_record(workload: str, seed: int, args) -> None:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    mem = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem = line.split(":", 1)[1].strip()
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=False,
            ).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    ld = np.finfo(np.longdouble)
    say(f"record workload={workload} seed={seed} seconds={args.seconds} trace={args.trace}")
    say(f"record why: {wl.WHY[workload]}")
    say(f"record machine: nproc={os.cpu_count()} cpu={cpu!r} memory={mem!r} "
        f"platform={platform.platform()}")
    versions = " ".join(
        f"{name}={importlib.metadata.version(name)}" for name in ("numpy", "scipy", "mpmath")
    )
    say(f"record python={platform.python_version()} {versions}")
    say(f"record longdouble: dtype={ld.dtype} precision={ld.precision} eps={ld.eps} "
        f"nmant={ld.nmant}")
    say(f"record commit={commit} src_sha256={digest.hexdigest()[:16]}")
    say("record thread caps: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


class Calibration:
    """A fixed piece of interpreter and numpy work, timed between calls.

    On shared cores (measured on a 2-core cloud VM) the same call can take
    20-50% longer for tens of seconds at a time, and a run's throughput
    moves with it.  The kernel does not touch the program but does the
    same kinds of work, small-array numpy sweeps, a 64-square matrix
    product, a Python Horner loop and JSON encoding, so it slows in step,
    and throughput or set-up time scaled by the kernel's speed stays put.
    """

    # Scaled values are those of a machine where one kernel run takes this
    # long, about its time on a quiet core of that 2-core VM.
    REFERENCE_S = 0.001

    def __init__(self) -> None:
        self._matrix = np.exp(1j * np.linspace(0.0, 1.0, 64 * 64)).reshape(64, 64)
        self._vector = np.ones(64, dtype=np.complex128)
        self._points = 0.9 * np.exp(1j * np.linspace(0.1, 6.0, 32))
        self._coeffs = np.linspace(1.0, 2.0, 33) + 0.5j

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(60):
            self._matrix @ self._vector
        z = self._points
        for _ in range(20):
            p = np.vander(z, len(self._coeffs), increasing=True) @ self._coeffs
            d = z[:, None] - z[None, :]
            np.fill_diagonal(d, np.inf)
            z = z - 1e-3 * p / (1.0 + (1.0 / d).sum(axis=1))
        coeffs = [complex(c) for c in self._coeffs]
        values = []
        for w in z.tolist() * 3:
            acc = 0j
            for c in reversed(coeffs):
                acc = acc * w + c
            values.append([acc.real, acc.imag])
        json.dumps(values)
        return time.perf_counter() - t0


def cycle_count(runner, seconds: float) -> int:
    """How many cycles a run of about ``seconds`` makes: at least one.

    The count depends on ``seconds`` alone, never on a clock, so runs of
    one seed attempt the same operations and fail the same ones however
    fast the machine happens to be.  CYCLE_S is the time of one cycle on
    2 shared cores of a cloud VM when the benchmark was defined; a faster
    program measures for less than ``seconds``.
    """
    return max(1, round(seconds / runner.CYCLE_S))


def timed_loop(cli, runner, seconds: float) -> list[list[Call]]:
    """cycle_count(runner, seconds) whole cycles, each call timed.

    The calibration kernel runs before every call and after the last; each
    call keeps the median kernel time of the two runs before and the two
    after it.
    """
    cal = Calibration()
    kernel = [cal.run()]
    cycles = []
    for k in range(cycle_count(runner, seconds)):
        cycle = []
        for op in runner.cycle(k):
            cycle.append(run_call(cli, op, runner.argv(op)))
            kernel.append(cal.run())
        cycles.append(cycle)
    for i, call in enumerate(c for cycle in cycles for c in cycle):
        call.kernel_s = statistics.median(kernel[max(0, i - 1):i + 3])
    return cycles


def rates(runner, calls: list[Call]) -> tuple[float, float]:
    """(scaled, raw) operations per second of call time over ``calls``.

    A scaled call time is its time times REFERENCE_S over its kernel time.
    """
    ops = sum(runner.ops(c) for c in calls)
    scaled = sum(c.seconds * Calibration.REFERENCE_S / c.kernel_s for c in calls)
    return ops / scaled, ops / sum(c.seconds for c in calls)


def run_workload(workload: str, args) -> int:
    modules = load_program()
    run_record(workload, args.seed, args)
    cli = modules["cli"]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        runner = RUNNERS[workload](args.seed, Path(work))
        probe = runner.probe_argv()
        # Warm the caches and lazy imports of this process before timing.
        run_call(cli, None, probe)
        if args.trace:
            return traced_run(workload, args, modules, runner)
        cal = Calibration()
        setup = measure_setup(probe, SETUP_REPEATS // 2, cal)
        cycles = timed_loop(cli, runner, args.seconds)
        setup += measure_setup(probe, SETUP_REPEATS - SETUP_REPEATS // 2, cal)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calls = [c for cycle in cycles for c in cycle]
        checked = runner.check(calls)

    for line in checked.lines:
        say(line)
    say(checked.summary())
    ms = [c.seconds * 1e3 for c in calls]
    low_calls = [c for c in calls if runner.low(c.op)]
    ops_scaled, ops_raw = rates(runner, calls)
    low_scaled, low_raw = rates(runner, low_calls)
    tail_ms, tail_label = tail(ms)
    kernel_ms = statistics.median(c.kernel_s for c in calls) * 1e3
    scaled = f"scaled to a {Calibration.REFERENCE_S * 1e3:g} ms kernel; raw"
    printed = [
        # name, value, unit, sample count, note
        ("ops_per_s", ops_scaled, "1/s", sum(runner.ops(c) for c in calls),
         f"{scaled} {ops_raw:.6g} 1/s, kernel median {kernel_ms:.4f} ms; "
         f"{len(calls)} calls in {len(cycles)} cycles"),
        ("ops_per_s.low", low_scaled, "1/s", sum(runner.ops(c) for c in low_calls),
         f"{scaled} {low_raw:.6g} 1/s; low-degree calls only"),
        ("call_ms.p50", statistics.median(ms), "ms", len(ms), "not gated"),
        ("call_ms.tail", tail_ms, "ms", len(ms), tail_label + "; not gated"),
        ("failed_frac", checked.failed / checked.attempted, "ratio", checked.attempted,
         f"{checked.failed} failed of {checked.attempted}; not gated"),
        ("peak_rss_mb", peak_mb, "MB", 1, "ru_maxrss of the benchmark process"),
        ("setup_s", statistics.median(t[1] * Calibration.REFERENCE_S / t[2] for t in setup),
         "s", len(setup),
         f"median of import + first small call, {scaled} "
         f"{statistics.median(t[1] for t in setup):.6g} s, import alone "
         f"{statistics.median(t[0] for t in setup):.4f} s"),
    ]
    for name, value, unit, n, note in printed:
        alias = f" [{runner.aliases[name]}]" if name in runner.aliases else ""
        metric_line(name + alias, value, unit, n, note)
    values = {name: (value, unit) for name, value, unit, _, _ in printed}
    return emit(checked, {name: values[name] for name, _ in END_TO_END})


def traced_run(workload: str, args, modules, runner) -> int:
    """Each distinct operation of the first cycle untraced, then at once traced.

    Running the two side by side puts both in the same stretch of machine
    speed, so their difference is the tracing overhead, not drift.
    """
    cli = modules["cli"]
    distinct = {tuple(runner.argv(op)): op for op in runner.cycle(0)}
    ops = list(distinct.values())
    tr = tracing.Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(run_call(cli, op, runner.argv(op)))
        tr.op_index = i
        tr.install(modules)
        try:
            traced.append(run_call(cli, op, runner.argv(op), count_warnings=True))
        finally:
            tr.restore()
    plain_wall = sum(c.seconds for c in plain)
    traced_wall = sum(c.seconds for c in traced)

    checked = runner.check(plain)
    checked_traced = runner.check(traced)
    for line in checked_traced.lines:
        say(line)
    checked.add(checked_traced)
    say(checked.summary())

    values = tracing.aggregate(tr)
    solves = checked_traced.solves
    values["polynomial.wrong"] = checked_traced.wrong
    values["polynomial.certified_ok_frac"] = (
        (solves - checked_traced.unresolved - checked_traced.wrong) / solves if solves else 0.0
    )
    values["polynomial.numpy_warnings"] = sum(c.warnings for c in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    path = WORK / f"trace-{workload}-seed{args.seed}.npz"
    tr.save(path)
    say(f"trace spans={values['trace.spans']} written to {path.relative_to(ROOT)}")
    say(f"trace wall: untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s, "
        f"{len(ops)} calls each")
    say(f"trace polynomial.certified_ok_frac base: {solves} solves")
    metrics = {}
    for name, unit in tracing.per_layer_metrics():
        metrics[name] = (values[name], unit)
        metric_line(name, values[name], unit, len(ops))
    return emit(checked, metrics)


def emit(checked: Checked, metrics: dict[str, tuple[float, str]]) -> int:
    say(json.dumps({
        "correct": checked.correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            say(f"{workload}: {line}")
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {done.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    say(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
