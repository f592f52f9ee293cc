"""Grid verification of the bound formulas and randomized conjecture checks.

Three deterministic suites turn every inequality behind the degree bound
into a named check with an explicit numeric margin:

* ``run_inequality_suite`` — pointwise facts about the building blocks
  (mu thresholds, gamma dominance, K' > 1 and its floors, the elementary
  log lemmas, the D contraction), each evaluated on a uniform a-grid plus
  seeded random points;
* ``verify_limits`` — the a -> 0 endpoint behaviour of mu1/mu2 via
  Richardson extrapolation and finite-difference slopes;
* ``verify_estimate_chain`` — the majorization chain that coarsens the
  sharp threshold n3 into the closed form 20800/(a^7 (1-a)^4), one check
  per link plus the end-to-end comparison.

``fuzz_sendov`` and ``check_extremal`` exercise the conjecture itself on
random and structured instances.  Identical parameters (including seeds)
always produce identical reports, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import bounds
from .polynomial import CriticalPointReport, SendovInstance, critical_report

__all__ = [
    "DEFAULT_SEED",
    "VerificationOutcome",
    "FuzzReport",
    "run_inequality_suite",
    "verify_limits",
    "verify_estimate_chain",
    "fuzz_sendov",
    "check_extremal",
    "render_outcomes_jsonl",
    "render_outcomes_csv",
    "render_fuzz_csv",
]

# Default base seed for anything randomized; chosen as the constant from the
# headline bound so reports are recognizably tied to this package.
DEFAULT_SEED = 20800

# A Sendov distance above this counts as a violation: slack of 1e-9 over the
# unit disk absorbs root-finder noise without hiding a genuine counterexample.
VIOLATION_THRESHOLD = 1.0 + 1e-9


@dataclass(frozen=True)
class VerificationOutcome:
    """One named check: its worst margin over all sampled locations.

    Margins are oriented so the inequality holds iff the margin is positive;
    ``passed`` is strict positivity.  ``worst_location`` is the sample point
    attaining the minimum (a value of a, an x, or an (a, x) pair), so the
    margin can be reproduced by re-evaluating the formula in ``notes`` there.
    """

    check_id: str
    passed: bool
    worst_margin: float
    worst_location: float | tuple[float, ...]
    samples: int
    notes: str

    def to_dict(self) -> dict:
        loc = self.worst_location
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "worst_location": list(loc) if isinstance(loc, tuple) else loc,
            "samples": self.samples,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate of one randomized fuzzing cell (fixed a, degree, seed).

    violations counts trials whose whole Sendov distance bracket lies above
    VIOLATION_THRESHOLD; non_converged counts the UNRESOLVED trials, whose
    bracket straddles the threshold, which never count as violations and
    do not enter the maximum.  Any violating instance is kept in full as
    JSON so it can be re-checked independently.
    """

    a: float
    degree: int
    trials: int
    max_sendov_distance: float
    violations: int
    seed: int
    non_converged: int
    violation_instances: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "degree": self.degree,
            "trials": self.trials,
            "max_sendov_distance": self.max_sendov_distance,
            "violations": self.violations,
            "seed": self.seed,
            "non_converged": self.non_converged,
            "violation_instances": list(self.violation_instances),
        }


def _validate_grid_step(grid_step: float) -> None:
    if not isinstance(grid_step, (int, float)) or isinstance(grid_step, bool) \
            or not math.isfinite(grid_step) or not 0.0 < grid_step <= 0.01:
        raise bounds.DomainError(
            f"grid_step must lie in (0, 0.01], got {grid_step!r}"
        )


def _grid(grid_step: float) -> np.ndarray:
    count = int(round(1.0 / grid_step)) - 1
    return np.array([k * grid_step for k in range(1, count + 1)])


def _min_outcome(
    check_id: str,
    margins: Sequence[float],
    locations: Sequence,
    notes: str,
) -> VerificationOutcome:
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    loc = locations[i]
    if isinstance(loc, (list, np.ndarray)):
        loc = tuple(float(v) for v in loc)
    elif not isinstance(loc, tuple):
        loc = float(loc)
    return VerificationOutcome(
        check_id=check_id,
        passed=bool(worst > 0.0),
        worst_margin=worst,
        worst_location=loc,
        samples=len(margins),
        notes=notes,
    )


def _mu2_scaled_residual(a: float) -> float:
    # Exact rational evaluation of |a^2 x^2 + (8+2a-a^2) x - (7+2a)| at
    # x = mu2(a): binary64 evaluation of the residual would drown in its own
    # roundoff precisely where the check is interesting.
    af = Fraction(a)
    x = Fraction(bounds.mu2(a))
    aa = af * af
    value = aa * x * x + (8 + 2 * af - aa) * x - (7 + 2 * af)
    return abs(float(value))


def run_inequality_suite(
    grid_step: float = 1e-3,
    extra_random: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[VerificationOutcome]:
    """Pointwise inequality checks on a uniform a-grid plus random points.

    Random points are drawn uniformly from [grid_step, 1 - grid_step] — the
    same closed span the grid covers.  (Below ~1e-6 several margins shrink
    like a^2 into binary64 roundoff, so sampling outside the grid span would
    measure noise, not mathematics.)  Failures are reported, not raised.
    """
    _validate_grid_step(grid_step)
    if not isinstance(extra_random, int) or extra_random < 0:
        raise bounds.DomainError(f"extra_random must be a count, got {extra_random!r}")
    grid = _grid(grid_step)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=extra_random)])

    gamma = 0.1 * pts + 0.9
    c = pts * gamma
    mu1 = np.array([bounds.mu1(a) for a in pts])
    mu2 = np.array([bounds.mu2(a) for a in pts])
    aux = [bounds.aux_params(a) for a in pts]
    log_k1 = np.empty(len(pts))
    log_k2 = np.empty(len(pts))
    for i, (a, x) in enumerate(zip(pts, aux)):
        log_k1[i], log_k2[i] = bounds.log_k_factors(a, x.c, x.p_prime, x.q_prime)
    log_kp = np.minimum(log_k1, log_k2)

    outcomes = []

    residuals = np.array([_mu2_scaled_residual(a) for a in pts])
    outcomes.append(_min_outcome(
        "bounds.mu2_root_residual",
        1e-9 - residuals,
        pts,
        "1e-9 - |a^2 mu2^2 + (8+2a-a^2) mu2 - (7+2a)|, residual in exact arithmetic",
    ))

    outcomes.append(_min_outcome(
        "bounds.mu_order_and_bounds",
        np.minimum(np.minimum(mu2 - 0.875, mu1 - mu2), 1.0 - mu1),
        pts,
        "min{mu2 - 7/8, mu1 - mu2, 1 - mu1}",
    ))

    # Shape facts need even spacing: uniform grid only.  mu2 is increasing
    # but loses convexity near a = 0.998, so convexity is asserted for mu1.
    mu1_g = np.array([bounds.mu1(a) for a in grid])
    mu2_g = np.array([bounds.mu2(a) for a in grid])
    shape_margins = np.concatenate([np.diff(mu2_g), np.diff(mu1_g), np.diff(mu1_g, 2)])
    shape_locs = np.concatenate([grid[:-1], grid[:-1], grid[1:-1]])
    outcomes.append(_min_outcome(
        "bounds.mu_shape",
        shape_margins,
        shape_locs,
        "first differences of mu1 and mu2 and second differences of mu1 on the uniform grid",
    ))

    outcomes.append(_min_outcome(
        "bounds.gamma_dominates_mu2", gamma - mu2, pts, "gamma(a) - mu2(a)",
    ))
    outcomes.append(_min_outcome(
        "bounds.gamma_dominates_mu1", gamma - mu1, pts, "gamma(a) - mu1(a)",
    ))
    outcomes.append(_min_outcome(
        "bounds.k_prime_gt_one", log_kp, pts, "log K'(a); positive iff K' > 1",
    ))
    outcomes.append(_min_outcome(
        "bounds.log_k_prime_floor",
        log_kp - pts ** 3 * (1.0 - pts) / 16.0,
        pts,
        "log K'(a) - a^3 (1-a)/16",
    ))
    outcomes.append(_min_outcome(
        "bounds.k2_log_floor",
        log_k2 - pts * np.array([x.q_prime for x in aux]) * gamma / 4.0,
        pts,
        "log K2(a, a*gamma, q') - a q' gamma / 4",
    ))

    # Elementary log lemmas on their own x-grids (independent of a).
    x_unit = np.array([k * 1e-3 for k in range(1, 1001)])        # (0, 1]
    x_wide = np.array([k * 4e-3 for k in range(1, 1001)])        # (0, 4]
    lemma_margins = np.concatenate([
        np.log1p(x_unit) - x_unit / 2.0,
        np.log1p(x_wide) - x_wide / (1.0 + x_wide),
        x_wide - np.log1p(x_wide),
    ])
    lemma_locs = np.concatenate([x_unit, x_wide, x_wide])
    outcomes.append(_min_outcome(
        "bounds.lemma_log_bounds",
        lemma_margins,
        lemma_locs,
        "log(1+x) >= x/2 on (0,1]; x/(1+x) <= log(1+x) <= x on (0,4]; location is x",
    ))

    outcomes.append(_min_outcome(
        "bounds.radical_gap",
        4.0 - np.sqrt(16.0 - 3.0 * pts * pts) - pts * pts / 10.0,
        pts,
        "4 - sqrt(16 - 3a^2) - a^2/10",
    ))

    # D(a, c, x) < 1 on 0 < x < 1 and D >= c/(1+a), at c = a*gamma(a).
    x_set = np.array([k * 0.01 for k in range(1, 100)])
    d_margins = []
    d_locs = []
    for a, cv in zip(pts, c):
        floor = cv / (1.0 + a)
        for x in x_set:
            d = bounds.d_function(a, cv, x)
            d_margins.append(min(1.0 - d, d - floor))
            d_locs.append((float(a), float(x)))
    outcomes.append(_min_outcome(
        "bounds.d_contraction",
        d_margins,
        d_locs,
        "min{1 - D(a, a*gamma, x), D(a, a*gamma, x) - a*gamma/(1+a)}; location is (a, x)",
    ))

    return outcomes


def verify_limits() -> list[VerificationOutcome]:
    """Endpoint behaviour of mu1 and mu2 as a -> 0.

    Both tend to 7/8 with slope 1/32.  The limit is checked by two-point
    Richardson extrapolation from a = 1e-4, 1e-5 (first-order model, per the
    series 7/8 + a/32 + O(a^2)) against 0.875 with tolerance 1e-6; the slope
    by the finite difference between a = 1e-4 and 1e-3 against 1/32 with
    tolerance 1e-3.
    """
    outcomes = []
    for name, fn in (("mu2", bounds.mu2), ("mu1", bounds.mu1)):
        f3, f4, f5 = fn(1e-3), fn(1e-4), fn(1e-5)
        extrapolated = (10.0 * f5 - f4) / 9.0
        outcomes.append(VerificationOutcome(
            check_id=f"limits.{name}_limit_richardson",
            passed=bool(abs(extrapolated - 0.875) <= 1e-6),
            worst_margin=float(1e-6 - abs(extrapolated - 0.875)),
            worst_location=1e-5,
            samples=2,
            notes=f"(10 f(1e-5) - f(1e-4))/9 = {extrapolated!r}, target 7/8 within 1e-6",
        ))
        slope = (f3 - f4) / (1e-3 - 1e-4)
        outcomes.append(VerificationOutcome(
            check_id=f"limits.{name}_slope",
            passed=bool(abs(slope - 1.0 / 32.0) <= 1e-3),
            worst_margin=float(1e-3 - abs(slope - 1.0 / 32.0)),
            worst_location=1e-4,
            samples=2,
            notes=f"(f(1e-3) - f(1e-4))/9e-4 = {slope!r}, target 1/32 within 1e-3",
        ))
    return outcomes


def verify_estimate_chain(grid_step: float = 1e-3) -> list[VerificationOutcome]:
    """One check per majorization link from n3 to 20800/(a^7 (1-a)^4).

    Where a link compares max{...} expressions sharing a branch, the margin
    compares the differing branches directly, otherwise shared-branch ties
    would report zero margin for a true strict inequality.
    """
    _validate_grid_step(grid_step)
    grid = _grid(grid_step)

    per_check: dict[str, tuple[list, str]] = {
        "chain.n3_exact_le_estimate": ([], "n3_estimate(a) - n3_exact(a)"),
        "chain.n0_le_1280_over_a4": ([], "1280/a^4 - n0(a)"),
        "chain.n1_le_max_324_over_a2": ([], "324/a^2 - 9((4+2a)/a)^2"),
        "chain.n2_le_max_5760_over_a2": ([], "5760/a^2 - 9(log(a/16)/log(c/(1+a)))^2 at c = a*gamma"),
        "chain.thresholds_le_5760_over_a4": ([], "5760/a^4 - max{n0, n1, n2}"),
        "chain.alpha_prime_le_32_over_a_log": ([], "32/(a log(1/a)) - alpha(a, c, r')"),
        "chain.log_k_prime_gt_min_branch": ([], "log K' - min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))}, g = gamma"),
        "chain.min_branch_ge_a3_floor": ([], "min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))} - a^3(1-a)/16"),
        "chain.n3_estimate_le_headline": ([], "20800/(a^7 (1-a)^4) - n3_estimate(a)"),
        "chain.end_to_end": ([], "20800/(a^7 (1-a)^4) - n3_exact(a)"),
    }

    for a in grid:
        aux = bounds.aux_params(a)
        c = aux.c
        gamma = aux.gamma
        n0 = bounds.n0(a)
        n1 = bounds.n1(a)
        n2 = bounds.n2(a, c)
        _, r_prime = bounds.r_param(a, c)
        alpha_prime = bounds.alpha_param(a, c, r_prime)
        log_kp = bounds.log_k_prime(a)
        n3_exact, n3_estimate = bounds.n3(a)
        headline = bounds.final_bound(a)
        min_branch = min(
            a * a * gamma / (4.0 * (4.0 + 2.0 * a)),
            a * a * (1.0 - a) * gamma / (4.0 * (4.0 - 2.0 * a)),
        )

        per_check["chain.n3_exact_le_estimate"][0].append(n3_estimate - n3_exact)
        per_check["chain.n0_le_1280_over_a4"][0].append(1280.0 / a ** 4 - n0)
        per_check["chain.n1_le_max_324_over_a2"][0].append(
            324.0 / a ** 2 - 9.0 * ((4.0 + 2.0 * a) / a) ** 2
        )
        per_check["chain.n2_le_max_5760_over_a2"][0].append(
            5760.0 / a ** 2
            - 9.0 * (math.log(a / 16.0) / math.log(c / (1.0 + a))) ** 2
        )
        per_check["chain.thresholds_le_5760_over_a4"][0].append(
            5760.0 / a ** 4 - max(n0, n1, n2)
        )
        per_check["chain.alpha_prime_le_32_over_a_log"][0].append(
            32.0 / (a * math.log(1.0 / a)) - alpha_prime
        )
        per_check["chain.log_k_prime_gt_min_branch"][0].append(log_kp - min_branch)
        per_check["chain.min_branch_ge_a3_floor"][0].append(
            min_branch - a ** 3 * (1.0 - a) / 16.0
        )
        per_check["chain.n3_estimate_le_headline"][0].append(headline - n3_estimate)
        per_check["chain.end_to_end"][0].append(headline - n3_exact)

    return [
        _min_outcome(check_id, margins, grid, notes)
        for check_id, (margins, notes) in per_check.items()
    ]


def _validate_fuzz_args(a: float, degree: int, trials: int) -> None:
    if not isinstance(a, (int, float)) or isinstance(a, bool) \
            or not math.isfinite(a) or not 0.0 < a < 1.0:
        raise bounds.DomainError(f"a must lie in (0, 1), got {a!r}")
    if not isinstance(degree, int) or isinstance(degree, bool) or not 2 <= degree <= 200:
        raise bounds.DomainError(f"degree must be an integer in [2, 200], got {degree!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise bounds.DomainError(f"trials must be a positive integer, got {trials!r}")


def fuzz_sendov(a: float, degree: int, trials: int, seed: int = DEFAULT_SEED) -> FuzzReport:
    """Randomized check of the conjecture at one (a, degree) cell.

    Each trial draws degree-1 other zeros area-uniformly from the closed
    unit disk (radius sqrt(u)) with its own generator seeded by
    (seed, trial index), so any single trial can be reproduced in isolation
    and trials could run in any order or in parallel.
    """
    _validate_fuzz_args(a, degree, trials)
    max_distance = 0.0
    violations = 0
    non_converged = 0
    violating: list[str] = []
    m = degree - 1
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        radius = np.sqrt(rng.uniform(size=m))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=m)
        inst = SendovInstance(a=float(a), other_zeros=tuple(radius * np.exp(1j * angle)))
        report = critical_report(inst)
        verdict = report.verdict(VIOLATION_THRESHOLD)
        if verdict == "UNRESOLVED":
            non_converged += 1
            continue
        max_distance = max(max_distance, report.sendov_distance)
        if verdict == "FAIL":
            violations += 1
            violating.append(inst.to_json())
    return FuzzReport(
        a=float(a),
        degree=degree,
        trials=trials,
        max_sendov_distance=max_distance,
        violations=violations,
        seed=seed,
        non_converged=non_converged,
        violation_instances=tuple(violating),
    )


def check_extremal(a: float, degree: int) -> CriticalPointReport:
    """Worst critical-point report over the structured boundary family.

    Runs (z-a)(z^(n-1) - 1), (z-a)(z^(n-1) + 1), and (z-a) z^(n-1) and
    returns the report with the largest Sendov distance.
    """
    _validate_fuzz_args(a, degree, 1)
    m = degree - 1
    families: list[tuple[complex, ...]] = []
    for theta in (0.0, math.pi):
        families.append(tuple(
            complex(np.exp(1j * (theta + 2.0 * np.pi * k) / m)) for k in range(m)
        ))
    families.append((0j,) * m)
    reports = [
        critical_report(SendovInstance(a=float(a), other_zeros=zeros))
        for zeros in families
    ]
    return max(reports, key=lambda r: r.sendov_distance)


def render_outcomes_jsonl(outcomes: Iterable[VerificationOutcome]) -> str:
    """One JSON object per line, stable key order; suited to golden-file diffs."""
    return "".join(json.dumps(o.to_dict()) + "\n" for o in outcomes)


def render_outcomes_csv(outcomes: Iterable[VerificationOutcome]) -> str:
    lines = ["check_id,passed,worst_margin,worst_location,samples"]
    for o in outcomes:
        loc = o.worst_location
        loc_text = (
            "(" + " ".join(repr(v) for v in loc) + ")"
            if isinstance(loc, tuple) else repr(loc)
        )
        lines.append(
            f"{o.check_id},{str(o.passed).lower()},{o.worst_margin!r},{loc_text},{o.samples}"
        )
    return "\n".join(lines) + "\n"


def render_fuzz_csv(reports: Iterable[FuzzReport]) -> str:
    lines = ["a,degree,trials,violations,max_distance,non_converged,seed"]
    for r in reports:
        lines.append(
            f"{r.a!r},{r.degree},{r.trials},{r.violations},"
            f"{r.max_sendov_distance!r},{r.non_converged},{r.seed}"
        )
    return "\n".join(lines) + "\n"
