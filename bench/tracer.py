"""Outside-in tracing for the benchmark's traced runs.

The tracer never edits the program.  It replaces module attributes of
``sendov_lab`` (functions, and the ``__init__`` of classes) with wrappers
that record one span per call, and puts the originals back afterwards, so
untraced runs execute the program untouched.  A wrapper is installed under
every module name that refers to the same object, because ``from x import
f`` gives callers their own binding of ``f``.

Spans stay in memory as parallel arrays (name, start, end, parent, operation
id) until the run ends and ``save`` writes them out.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import workloads

LAYERS = ("cli", "verify", "polynomial", "bounds")

# Public entry points that callers reach through module attributes; span
# names are "<layer>.<attribute>".
FUNCTIONS = (
    ("cli", "main"),
    ("verify", "fuzz_sendov"),
    ("verify", "run_inequality_suite"),
    ("verify", "verify_limits"),
    ("verify", "verify_estimate_chain"),
    ("verify", "render_outcomes_jsonl"),
    ("polynomial", "critical_report"),
    ("polynomial", "SendovInstance"),
    ("polynomial", "from_roots"),
    ("polynomial", "derivative"),
    ("polynomial", "find_roots"),
)
# The public bounds functions that `sendov-lab verify` reaches.  Every
# public bounds function is wrapped; these get metrics of their own.
BOUNDS_FUNCTIONS = (
    "aux_params", "n0", "n1", "n2", "d_function", "log_k_factors", "log_k_prime",
    "mu1", "mu2", "r_param", "alpha_param", "n3", "final_bound",
)
# Spans whose arguments and results the aggregation inspects.
OBSERVED = ("polynomial.critical_report", "polynomial.from_roots", "polynomial.find_roots")

DEGREES = workloads.FUZZ_DEGREES + workloads.CHECK_DEGREES
# One find_roots attempt runs at most this many Aberth sweeps; a solve
# that reports more needed a restart.
SWEEPS_PER_ATTEMPT = 200


class Tracer:
    """Records spans for wrapped callables; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_index = -1
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """A callable that runs ``fn`` inside a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end = self.start, self.end
        observed = self.observed[name] if name in OBSERVED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_index)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observed is not None:
                observed.append((idx, args, result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap FUNCTIONS and every public bounds function in ``modules``.

        ``modules`` maps layer names to the imported modules; any other
        module holding the same objects (the package itself) goes under
        the key "package".  A name a later version removed is skipped.
        """
        targets = list(FUNCTIONS)
        bounds = modules["bounds"]
        targets += [
            ("bounds", fn) for fn in getattr(bounds, "__all__", ())
            if callable(getattr(bounds, fn, None)) and not isinstance(getattr(bounds, fn), type)
        ]
        for layer, attr in targets:
            obj = getattr(modules[layer], attr, None)
            if obj is None:
                continue
            name = f"{layer}.{attr}"
            if isinstance(obj, type):
                self._patch(obj, "__init__", self.wrap(name, obj.__init__))
                continue
            wrapped = self.wrap(name, obj)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping or overhanging children are not counted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        pieces = sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids if end[k] > lo and start[k] < hi
        )
        covered = 0.0
        cur_lo, cur_hi = None, None
        for s, e in pieces:
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in the order they are printed."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    for layer, attr in FUNCTIONS:
        name = f"{layer}.{attr}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms.p50", "ms"),
                (f"{name}.self_ms.total", "ms")]
    for fn in BOUNDS_FUNCTIONS:
        out += [(f"bounds.{fn}.calls", "count"), (f"bounds.{fn}.self_ms", "ms")]
    for d in DEGREES:
        out += [(f"polynomial.find_roots.sweeps.p50.d{d}", "count"),
                (f"polynomial.find_roots.sweeps.max.d{d}", "count")]
    out += [("polynomial.find_roots.restarted", "count"),
            ("polynomial.find_roots.unresolved", "count")]
    out += [(f"polynomial.from_roots.coeff_max.d{d}", "log10") for d in DEGREES]
    out += [(f"polynomial.critical_report.ms.d{d}", "ms") for d in DEGREES]
    out += [("polynomial.wrong", "count"), ("polynomial.certified_ok_frac", "ratio"),
            ("polynomial.numpy_warnings", "count"),
            ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Span-derived per-layer values (everything but the outcome counts)."""
    arr = tracer.arrays()
    self_ms = self_times(arr["start"], arr["end"], arr["parent"]) * 1e3
    by_name: dict[str, list[float]] = defaultdict(list)
    for nid, ms in zip(arr["name_id"].tolist(), self_ms.tolist()):
        by_name[tracer.names[nid]].append(ms)

    values: dict[str, float] = {}
    for layer in LAYERS:
        spans = [v for n, vs in by_name.items() if n.split(".")[0] == layer for v in vs]
        values[f"{layer}.calls"] = len(spans)
        values[f"{layer}.self_ms"] = float(sum(spans))
    for layer, attr in FUNCTIONS:
        name = f"{layer}.{attr}"
        spans = by_name.get(name, [])
        values[f"{name}.calls"] = len(spans)
        values[f"{name}.self_ms.p50"] = _median(spans)
        values[f"{name}.self_ms.total"] = float(sum(spans))
    for fn in BOUNDS_FUNCTIONS:
        spans = by_name.get(f"bounds.{fn}", [])
        values[f"bounds.{fn}.calls"] = len(spans)
        values[f"bounds.{fn}.self_ms"] = float(sum(spans))

    sweeps: dict[int, list[int]] = defaultdict(list)
    restarted = unresolved = 0
    for _, args, result in tracer.observed["polynomial.find_roots"]:
        # find_roots solves P'; the degree named in the metric is that of P.
        sweeps[args[0].degree + 1].append(result.iterations)
        restarted += result.iterations > SWEEPS_PER_ATTEMPT
        unresolved += not result.converged
    for d in DEGREES:
        values[f"polynomial.find_roots.sweeps.p50.d{d}"] = _median(sweeps[d])
        values[f"polynomial.find_roots.sweeps.max.d{d}"] = max(sweeps[d], default=0)
    values["polynomial.find_roots.restarted"] = restarted
    values["polynomial.find_roots.unresolved"] = unresolved

    coeff_max: dict[int, float] = defaultdict(float)
    for _, _, poly in tracer.observed["polynomial.from_roots"]:
        top = math.log10(max(abs(c) for c in poly.coefficients))
        coeff_max[poly.degree] = max(coeff_max[poly.degree], top)
    for d in DEGREES:
        values[f"polynomial.from_roots.coeff_max.d{d}"] = coeff_max[d]

    inclusive: dict[int, list[float]] = defaultdict(list)
    for idx, args, _ in tracer.observed["polynomial.critical_report"]:
        inclusive[args[0].degree].append((arr["end"][idx] - arr["start"][idx]) * 1e3)
    for d in DEGREES:
        values[f"polynomial.critical_report.ms.d{d}"] = _median(inclusive[d])
    values["trace.spans"] = len(arr["start"])
    return values
