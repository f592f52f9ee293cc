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
always produce identical reports, byte for byte.  Reports are plain values;
``sendov_lab.cli`` renders them as text, JSON or CSV.  Arguments are checked
by the helpers in ``bounds`` and rejected with ``bounds.DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds, polynomial
from .polynomial import (
    CriticalPointReport,
    SendovInstance,
    bracket_verdict,
    critical_report,
    sendov_distances,
)

__all__ = [
    "DEFAULT_SEED",
    "VerificationOutcome",
    "FuzzReport",
    "run_inequality_suite",
    "verify_limits",
    "verify_estimate_chain",
    "fuzz_sendov",
    "check_extremal",
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


# The finest a-grid a suite accepts: 99,999 points, where each of the two
# (points x 99) arrays the D-contraction screen keeps holds about 80 MB.
_MIN_GRID_STEP = 1e-5

# The most random points a suite adds to its grid; beyond the finest grid
# they would grow the D-contraction arrays without bound.
_MAX_EXTRA_RANDOM = 100_000


def _grid(grid_step: float) -> np.ndarray:
    """The a-grid k * grid_step, k = 1 .. round(1/grid_step) - 1, for a
    grid_step in [_MIN_GRID_STEP, 0.01]."""
    grid_step = bounds._real_in(
        "grid_step", grid_step, _MIN_GRID_STEP, 0.01, closed_left=True, closed_right=True
    )
    count = int(round(1.0 / grid_step)) - 1
    return np.arange(1.0, count + 1.0) * grid_step


def _min_outcome(
    check_id: str,
    margins: Sequence[float],
    locations: np.ndarray | Callable[[int], tuple[float, ...]],
    notes: str,
    samples: int | None = None,
) -> VerificationOutcome:
    """The outcome at the first smallest margin; ``locations`` gives the
    sample point of each margin by index, as a 1-D array of values of a or
    x, or as a function returning an (a, x) tuple.  ``samples`` is the
    number of margins unless given, as by a check that passes only the
    margins it confirmed out of more samples."""
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return VerificationOutcome(
        check_id=check_id,
        passed=bool(worst > 0.0),
        worst_margin=worst,
        worst_location=locations(i) if callable(locations) else float(locations[i]),
        samples=len(margins) if samples is None else samples,
        notes=notes,
    )


def _screened_min(
    screened: np.ndarray, exact_at: Callable[[int], float], tol: float
) -> tuple[int, float]:
    """(i, exact_at(i)) at the first i where the exact margin is smallest,
    given screened margins within tol of the exact ones.

    exact_at is called only on the candidates: every i whose screened
    margin is at most min(screened) + 2 tol, or is not finite.  Any other
    i has an exact margin above min(screened) + tol, which is at least the
    exact margin at the screened minimum, so it can neither be the minimum
    nor tie it.
    """
    finite = np.isfinite(screened)
    bound = screened.min(where=finite, initial=math.inf) + 2.0 * tol
    candidates = np.flatnonzero(~finite | (screened <= bound))
    exact = np.array([exact_at(i) for i in candidates.tolist()])
    k = int(np.argmin(exact))
    return int(candidates[k]), float(exact[k])


# The mu2 residual screen's promise: |screened - exact margin| stays below
# this.  The double-double residual errs by at most about 1e-31 (measured),
# and 1e-9 - r rounds by half an ulp of 1e-9, about 1e-25.
_MU2_RESIDUAL_TOL = 1e-24


def _mu2_scaled_residual(a: float, x: float) -> float:
    # Exact evaluation of |a^2 x^2 + (8+2a-a^2) x - (7+2a)| at x = mu2(a):
    # binary64 evaluation of the residual would drown in its own roundoff
    # precisely where the check is interesting.  With a = na/da and
    # x = nx/dx (binary fractions), da^2 dx^2 times the quadratic is the
    # integer below, and int / int rounds the quotient correctly.
    na, da = a.as_integer_ratio()
    nx, dx = x.as_integer_ratio()
    value = (
        na * na * nx * nx
        + (8 * da * da + 2 * na * da - na * na) * nx * dx
        - (7 * da + 2 * na) * da * dx * dx
    )
    return abs(value) / (da * da * dx * dx)


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
    grid = _grid(grid_step)
    extra_random = bounds._int_in("extra_random", extra_random, 0, _MAX_EXTRA_RANDOM)
    seed = bounds._int_in("seed", seed, 0)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=extra_random)])
    # Each per-point quantity is one bounds call on the array of points, bit
    # for bit the scalar call at each point; the grid's values are its first
    # len(grid) entries.
    pts_f = pts.tolist()

    aux = bounds.aux_params(pts)
    gamma, c = aux.gamma, aux.c
    a3 = bounds._libm(pow, pts, 3)
    mu1 = bounds._mu1(pts, a3)
    mu2 = bounds.mu2(pts)
    log_k1, log_k2 = bounds.log_k_factors(pts, c, aux.p_prime, aux.q_prime)
    log_kp = np.minimum(log_k1, log_k2)

    outcomes = []

    # The double-double residual screens every point; the points that could
    # hold the smallest margin are re-evaluated in exact arithmetic, so the
    # report holds only exact values.
    screened = 1e-9 - np.abs(bounds._mu2_quadratic(pts, mu2)[0])

    def residual_exact(i: int) -> float:
        return 1e-9 - _mu2_scaled_residual(pts_f[i], mu2.item(i))

    worst_i, worst = _screened_min(screened, residual_exact, _MU2_RESIDUAL_TOL)
    outcomes.append(_min_outcome(
        "bounds.mu2_root_residual",
        [worst],
        pts[[worst_i]],
        "1e-9 - |a^2 mu2^2 + (8+2a-a^2) mu2 - (7+2a)|, residual in exact arithmetic",
        samples=len(pts),
    ))

    outcomes.append(_min_outcome(
        "bounds.mu_order_and_bounds",
        np.minimum(np.minimum(mu2 - 0.875, mu1 - mu2), 1.0 - mu1),
        pts,
        "min{mu2 - 7/8, mu1 - mu2, 1 - mu1}",
    ))

    # Shape facts need even spacing: uniform grid only.  mu2 is increasing
    # but loses convexity near a = 0.998, so convexity is asserted for mu1.
    mu1_g = mu1[:len(grid)]
    mu2_g = mu2[:len(grid)]
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
        log_kp - a3 * (1.0 - pts) / 16.0,
        pts,
        "log K'(a) - a^3 (1-a)/16",
    ))
    outcomes.append(_min_outcome(
        "bounds.k2_log_floor",
        log_k2 - pts * aux.q_prime * gamma / 4.0,
        pts,
        "log K2(a, a*gamma, q') - a q' gamma / 4",
    ))

    # Elementary log lemmas on their own x-grids (independent of a).
    x_unit = np.arange(1.0, 1001.0) * 1e-3  # (0, 1]
    x_wide = np.arange(1.0, 1001.0) * 4e-3  # (0, 4]
    log1p_wide = bounds._libm(math.log1p, x_wide)
    lemma_margins = np.concatenate([
        bounds._libm(math.log1p, x_unit) - x_unit / 2.0,
        log1p_wide - x_wide / (1.0 + x_wide),
        x_wide - log1p_wide,
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
    # bounds._d_screen screens all samples in one pass with numpy's exp of
    # per-a logs.  On AVX-512 hardware its D differs from the libm value by
    # up to 2 ulp on about 36% of these samples, so it only picks the
    # samples that could hold the minimum.  Those are re-evaluated with
    # bounds.d_function's scalar libm powers, and the report holds only
    # exact values: its bytes do not depend on the SIMD code numpy runs.
    # The row-major ravel keeps each sample's flat index, so ties go to the
    # lowest one.
    x_set = [k * 0.01 for k in range(1, 100)]
    d = bounds._d_screen(pts, c, np.array(x_set))
    above_floor = d - (c / (1.0 + pts))[:, None]
    d_screened = np.minimum(np.subtract(1.0, d, out=d), above_floor, out=d).ravel()
    del above_floor  # so the confirm step's masks come on top of one array, not two

    def d_exact(i: int) -> float:
        ia, ix = divmod(i, len(x_set))
        a, ci = pts_f[ia], float(c[ia])
        dv = bounds.d_function(a, ci, x_set[ix])
        return min(1.0 - dv, dv - ci / (1.0 + a))

    worst_i, worst = _screened_min(d_screened, d_exact, bounds._SCREEN_TOL)
    ia, ix = divmod(worst_i, len(x_set))
    outcomes.append(_min_outcome(
        "bounds.d_contraction",
        [worst],
        lambda _: (pts_f[ia], x_set[ix]),
        "min{1 - D(a, a*gamma, x), D(a, a*gamma, x) - a*gamma/(1+a)}; location is (a, x)",
        samples=d_screened.size,
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
    a = _grid(grid_step)
    # Each quantity is one bounds call on the whole grid, bit for bit the
    # scalar call at each point; every power and log is a libm call, and
    # each one shared by several quantities is mapped once.

    def power(x: np.ndarray, k: int) -> np.ndarray:
        return bounds._libm(pow, x, k)

    aux = bounds.aux_params(a)
    c, gamma = aux.c, aux.gamma
    a2, a3, a4 = power(a, 2), power(a, 3), power(a, 4)
    log_a16 = bounds._libm(math.log, a / 16.0)
    n0 = bounds.n0(a)
    n1_branch = bounds._n1_branch(a)
    ratio = bounds._n2_ratio(a, c, log_a16)
    r, r_prime = bounds.r_param(a, c)
    alpha_prime = bounds._alpha(a, c, r_prime, log_a16)
    log_kp = np.minimum(*bounds.log_k_factors(a, c, aux.p_prime, aux.q_prime))
    n3_exact = bounds._n3_exact(a, c, r, log_kp, log_a16)
    n3_estimate = bounds._n3_estimate(a, a3)
    headline = bounds.final_bound(a)
    min_branch = np.minimum(
        a * a * gamma / (4.0 * (4.0 + 2.0 * a)),
        a * a * (1.0 - a) * gamma / (4.0 * (4.0 - 2.0 * a)),
    )

    per_check = {
        "chain.n3_exact_le_estimate": (n3_estimate - n3_exact, "n3_estimate(a) - n3_exact(a)"),
        "chain.n0_le_1280_over_a4": (1280.0 / a4 - n0, "1280/a^4 - n0(a)"),
        "chain.n1_le_max_324_over_a2": (
            324.0 / a2 - n1_branch, "324/a^2 - 9((4+2a)/a)^2"
        ),
        "chain.n2_le_max_5760_over_a2": (
            5760.0 / a2 - 9.0 * power(ratio, 2),
            "5760/a^2 - 9(log(a/16)/log(c/(1+a)))^2 at c = a*gamma",
        ),
        # max{n0, n1, n2} with n1 and n2 as bounds.n1 and bounds.n2 form them:
        # each is the max of its branch and n0.
        "chain.thresholds_le_5760_over_a4": (
            5760.0 / a4 - np.maximum(np.maximum(n0, n1_branch), 9.0 * ratio * ratio),
            "5760/a^4 - max{n0, n1, n2}",
        ),
        "chain.alpha_prime_le_32_over_a_log": (
            32.0 / (a * bounds._libm(math.log, 1.0 / a)) - alpha_prime,
            "32/(a log(1/a)) - alpha(a, c, r')",
        ),
        "chain.log_k_prime_gt_min_branch": (
            log_kp - min_branch,
            "log K' - min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))}, g = gamma",
        ),
        "chain.min_branch_ge_a3_floor": (
            min_branch - a3 * (1.0 - a) / 16.0,
            "min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))} - a^3(1-a)/16",
        ),
        "chain.n3_estimate_le_headline": (
            headline - n3_estimate, "20800/(a^7 (1-a)^4) - n3_estimate(a)"
        ),
        "chain.end_to_end": (headline - n3_exact, "20800/(a^7 (1-a)^4) - n3_exact(a)"),
    }
    return [
        _min_outcome(check_id, margins, a, notes)
        for check_id, (margins, notes) in per_check.items()
    ]


def _words(n: int) -> list[int]:
    """n >= 0 as numpy coerces seed entropy: little-endian 32-bit words, [0] for 0."""
    return [(n >> shift) & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def fuzz_sendov(a: float, degree: int, trials: int, seed: int = DEFAULT_SEED) -> FuzzReport:
    """Randomized check of the conjecture at one (a, degree) cell.

    Each trial draws degree-1 other zeros area-uniformly from the closed
    unit disk (radius sqrt(u)) with its own generator seeded by
    (seed, trial index), so any single trial can be reproduced in isolation.
    The trials are drawn and checked a block at a time by
    ``sendov_distances``, one kernel call per block of rows whose
    temporaries hold at most 2**18 values, so memory stays that of one
    block however many trials run.  Each trial's distance bracket is bit for
    bit what ``critical_report`` gives for that trial alone, so no result
    depends on the number of trials or on the block a trial falls in.
    """
    a = bounds._check_a(a)
    degree = bounds._int_in("degree", degree, 2, 200)
    trials = bounds._int_in("trials", trials, 1)
    seed = bounds._int_in("seed", seed, 0)
    m = degree - 1
    block = polynomial._block_rows(degree)
    largest = 0.0
    unresolved = 0
    violating: list[str] = []
    for first in range(0, trials, block):
        indices = range(first, min(first + block, trials))
        # Each trial's m radius and then m angle uniforms, from one stream.
        draws = np.empty((len(indices), 2 * m))
        for row, index in enumerate(indices):
            entropy = np.array(_words(seed) + _words(index), dtype=np.uint32)
            draws[row] = np.random.default_rng(entropy).random(2 * m)
        others = np.sqrt(draws[:, :m]) * np.exp(1j * (draws[:, m:] * (2.0 * np.pi)))
        distance, radius = sendov_distances(a, others)
        verdicts = bracket_verdict(distance, radius, VIOLATION_THRESHOLD)
        resolved = verdicts != "UNRESOLVED"
        largest = max(largest, float(distance[resolved].max(initial=0.0)))
        unresolved += int(len(indices) - resolved.sum())
        violating.extend(
            SendovInstance(a=a, other_zeros=tuple(others[t].tolist())).to_json()
            for t in np.nonzero(verdicts == "FAIL")[0]
        )
    return FuzzReport(
        a=a,
        degree=degree,
        trials=trials,
        max_sendov_distance=largest,
        violations=len(violating),
        seed=seed,
        non_converged=unresolved,
        violation_instances=tuple(violating),
    )


def check_extremal(a: float, degree: int) -> CriticalPointReport:
    """Worst critical-point report over the structured boundary family.

    Runs (z-a)(z^(n-1) - 1), (z-a)(z^(n-1) + 1), and (z-a) z^(n-1) and
    returns the report with the largest Sendov distance.
    """
    a = bounds._check_a(a)
    degree = bounds._int_in("degree", degree, 2, 200)
    m = degree - 1
    families: list[tuple[complex, ...]] = []
    for theta in (0.0, math.pi):
        families.append(tuple(
            complex(np.exp(1j * (theta + 2.0 * np.pi * k) / m)) for k in range(m)
        ))
    families.append((0j,) * m)
    reports = [
        critical_report(SendovInstance(a=a, other_zeros=zeros))
        for zeros in families
    ]
    return max(reports, key=lambda r: r.sendov_distance)

