"""Benchmark workloads: what each one runs, and why, as a pure function of a seed.

Every input is derived from the workload seed alone, through numpy's
seeded generators, so the same seed gives the same argument lists and the
same instance bytes on every run.  The program only ever receives the
generated inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# One line per workload on why it is in the benchmark; BENCHMARK.json
# repeats these lines.
WHY = {
    "fuzz-matrix": (
        "the 54-cell fuzz matrix users run: Aberth sweeps dominate at degree 32-64, "
        "per-call Python overhead at degree <= 16"
    ),
    "check-hard": (
        "single checks at degree 128 and 200 on unit-circle, repeated-zero and random "
        "inputs, where the coefficient path is slow and wrong"
    ),
    "verify": (
        "full verify passes: bounds closed forms and verify loops only, no polynomial "
        "work, with byte-identical output"
    ),
}

# Distinct stream tags keep the generators of different workloads apart.
_FUZZ_TAG, _CHECK_TAG, _VERIFY_TAG = 1, 2, 3

FUZZ_A = tuple(round(0.1 * k, 1) for k in range(1, 10))
FUZZ_DEGREES = (2, 4, 8, 16, 32, 64)
# Reduced from the 1000 trials of the acceptance matrix so one sweep of all
# 54 cells takes a few seconds.
FUZZ_TRIALS = 20
# Degrees at or below this are the "low" cells, where per-call overhead rules.
LOW_DEGREE = 16

CHECK_DEGREES = (128, 200)
# The hard a values of the known-defect list, run at theta = 0 in every
# cycle so its failure count can be compared across versions.
REFERENCE_A = (0.01, 0.5, 0.99)
FAMILIES = ("circle-minus", "circle-plus", "origin")
RANDOM_PER_DEGREE = 1

# Seeds handed to `verify --seed`; the golden digests of these outputs at
# the commit that defined the benchmark are in verify_golden.json.
VERIFY_SEEDS = tuple(range(1, 17))


@dataclass(frozen=True)
class FuzzCell:
    a: float
    degree: int
    trials: int
    seed: int

    def argv(self) -> list[str]:
        return [
            "fuzz", "--a", repr(self.a), "--degree", str(self.degree),
            "--trials", str(self.trials), "--seed", str(self.seed), "--format", "json",
        ]


@dataclass(frozen=True)
class CheckInstance:
    """One check input: a family, its parameters, and the zeros given to the program.

    ``group`` is "reference" (fixed a and theta = 0), "seeded" (structured,
    seeded a and theta) or "random" (area-uniform draws in the unit disk).
    """

    name: str
    group: str
    family: str
    degree: int
    a: float
    theta: float
    zeros: tuple[complex, ...]

    def payload(self) -> bytes:
        record = {"a": self.a, "zeros": [[z.real, z.imag] for z in self.zeros]}
        return json.dumps(record).encode()


def fuzz_sweep(seed: int, sweep: int) -> list[FuzzCell]:
    """All 54 cells, each with its own fuzz seed, for sweep ``sweep`` of a run."""
    rng = np.random.default_rng([seed, _FUZZ_TAG, sweep])
    seeds = rng.integers(0, 2**31, size=len(FUZZ_A) * len(FUZZ_DEGREES))
    cells = [(a, d) for a in FUZZ_A for d in FUZZ_DEGREES]
    return [
        FuzzCell(a=a, degree=d, trials=FUZZ_TRIALS, seed=int(s))
        for (a, d), s in zip(cells, seeds)
    ]


def fuzz_trial_zeros(cell: FuzzCell, index: int) -> np.ndarray:
    """The other zeros of trial ``index`` of a fuzz cell.

    Restates the documented draw of ``sendov-lab fuzz``: a generator seeded
    by (seed, index), radius sqrt(u) and a uniform angle for each of the
    degree - 1 zeros.
    """
    return _disk_draw(np.random.default_rng([cell.seed, index]), cell.degree - 1)


def _disk_draw(rng, m: int) -> np.ndarray:
    """m area-uniform points of the closed unit disk: radius sqrt(u), uniform angle."""
    radius = np.sqrt(rng.uniform(size=m))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return radius * np.exp(1j * angle)


def _structured(name, group, family, degree, a, theta) -> CheckInstance:
    m = degree - 1
    if family == "origin":
        zeros = (0j,) * m
    else:
        shift = theta if family == "circle-minus" else theta + math.pi
        zeros = tuple(
            complex(np.exp(1j * (shift + 2.0 * np.pi * k) / m)) for k in range(m)
        )
    return CheckInstance(name, group, family, degree, float(a), float(theta), zeros)


def _twin_a(rng, a: float) -> float:
    """A seeded a close to a reference a: within a factor e^0.4 of its distance to 0 or 1."""
    if a < 0.5:
        return float(a * np.exp(rng.uniform(-0.4, 0.4)))
    if a > 0.5:
        return float(1.0 - (1.0 - a) * np.exp(rng.uniform(-0.4, 0.4)))
    return float(a + rng.uniform(-0.05, 0.05))


def check_instances(seed: int) -> list[CheckInstance]:
    """One cycle of check-hard inputs.

    * reference: the three families at a in REFERENCE_A, theta = 0, both
      degrees (18 inputs, the same for every seed);
    * seeded: a twin of each degree-128 reference input with a seeded a
      near the reference a (so near 0, near 1 and mid) and, for the
      unit-circle families, a seeded rotation theta (9 inputs); degree-200
      structured inputs get no twin, as their cost swings from 0.6 s to 4 s
      with a and theta;
    * random: RANDOM_PER_DEGREE area-uniform draws per degree with a
      seeded a in [0.05, 0.95] (2 inputs).

    Twins keep the mix of costs the same from seed to seed: call times
    range over a factor of 25 between families, so a mix that changed with
    the seed would move the throughput with it.  For the same reason the
    costliest inputs stay fixed.
    """
    rng = np.random.default_rng([seed, _CHECK_TAG])
    top = max(CHECK_DEGREES)
    reference, seeded = [], []
    for degree in CHECK_DEGREES:
        for family in FAMILIES:
            for a in REFERENCE_A:
                reference.append(_structured(
                    f"ref-{family}-n{degree}-a{a}", "reference", family, degree, a, 0.0,
                ))
                twin_a = _twin_a(rng, a)
                theta = 0.0 if family == "origin" else float(rng.uniform(0.0, 2.0 * np.pi))
                if degree == top:
                    continue
                seeded.append(_structured(
                    f"seeded-{family}-n{degree}-a{a}", "seeded", family, degree, twin_a, theta,
                ))
    randoms = []
    for degree in CHECK_DEGREES:
        for k in range(RANDOM_PER_DEGREE):
            a = float(rng.uniform(0.05, 0.95))
            zeros = tuple(complex(z) for z in _disk_draw(rng, degree - 1))
            randoms.append(CheckInstance(
                f"random-n{degree}-{k}", "random", "random", degree, a, 0.0, zeros,
            ))
    return reference + seeded + randoms


def probe_instance(seed: int) -> CheckInstance:
    """A small random input for the set-up probe of check-hard."""
    rng = np.random.default_rng([seed, _CHECK_TAG, 0])
    zeros = tuple(complex(z) for z in _disk_draw(rng, 15))
    return CheckInstance("probe-n16", "probe", "random", 16, 0.5, 0.0, zeros)


def verify_seed(seed: int) -> int:
    """The `verify --seed` value of a run, drawn from VERIFY_SEEDS."""
    rng = np.random.default_rng([seed, _VERIFY_TAG])
    return VERIFY_SEEDS[int(rng.integers(0, len(VERIFY_SEEDS)))]


def verify_argv(vseed: int) -> list[str]:
    return ["verify", "--format", "json", "--seed", str(vseed)]


def plan_bytes(seed: int) -> bytes:
    """The inputs of every workload (two fuzz sweeps), as bytes."""
    parts = [json.dumps(cell.argv()).encode() for k in range(2) for cell in fuzz_sweep(seed, k)]
    parts.append(json.dumps(verify_argv(verify_seed(seed))).encode())
    for inst in check_instances(seed):
        parts.append(inst.name.encode() + b"\n" + inst.payload())
    return b"\n".join(parts)
