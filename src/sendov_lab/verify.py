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

``verify_pass`` runs the three in that order, as ``sendov-lab verify``
does, and builds the per-a arrays that the suite and the chain share once.

``fuzz_sendov`` exercises the conjecture itself on random instances.
Identical parameters (including seeds) always produce identical reports,
byte for byte.  Reports are plain values; ``sendov_lab.cli`` renders them
as text, JSON or CSV.  Arguments are checked by the helpers in ``bounds``
and rejected with ``bounds.DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bounds

__all__ = [
    "DEFAULT_SEED",
    "VerificationOutcome",
    "FuzzReport",
    "run_inequality_suite",
    "verify_limits",
    "verify_estimate_chain",
    "verify_pass",
    "fuzz_sendov",
]

# Default base seed for anything randomized; chosen as the constant from the
# headline bound so reports are recognizably tied to this package.
DEFAULT_SEED = 20800


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
    ``polynomial.VIOLATION_THRESHOLD``, check's threshold too; non_converged
    counts the UNRESOLVED trials, whose bracket straddles the threshold,
    which never count as violations and do not enter the maximum.  Any
    violating instance is kept in full as JSON so it can be re-checked
    independently.
    """

    a: float
    degree: int
    trials: int
    max_sendov_distance: float
    violations: int
    seed: int
    non_converged: int
    violation_instances: tuple[str, ...] = ()


# The finest a-grid a suite accepts: 99,999 points.  A suite holds about
# 240 bytes per point at its peak (per-a arrays, mu2's double-double terms,
# the points as Python floats), 26 MB at this step; a finer step grows that
# as 1/grid_step.
_MIN_GRID_STEP = 1e-5

# The most random points a suite adds to its grid, another 24 MB at the
# peak; beyond the finest grid they would grow the per-point arrays without
# bound.
_MAX_EXTRA_RANDOM = 100_000

# The random points a default suite adds to its grid.
_EXTRA_RANDOM = 100


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
    margins: Sequence[float] | np.ndarray,
    locations: np.ndarray | tuple[np.ndarray, ...],
    notes: str,
) -> VerificationOutcome:
    """The outcome at the first smallest margin (in row-major order), passed
    iff that margin is positive.  ``locations`` holds each margin's sample
    point: an array of values of a or x beside 1-D margins, or one array
    per axis of n-D margins, whose point is then a tuple."""
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    if isinstance(locations, tuple):
        index = np.unravel_index(i, margins.shape)
        point = tuple(axis.item(j) for axis, j in zip(locations, index))
    else:
        point = locations.item(i)
    worst = margins.item(i)
    return VerificationOutcome(check_id, worst > 0.0, worst, point, margins.size, notes)


def _confirmed(
    screened: np.ndarray, exact_at: Callable[[int], float], tol: float | np.ndarray
) -> np.ndarray:
    """The exact minimum of the margins that screened holds to within tol (a
    number, or one per entry), written over screened: at the first flat
    index where it falls, and +inf, a margin known only to lie above it,
    elsewhere.

    exact_at is called only on the candidates: every flat index i where
    screened[i] + tol[i] is not finite or screened[i] - tol[i] <= U =
    min(screened + tol), which is at least the least exact margin.  Any other
    has an exact margin above U, so it can neither be the minimum nor tie it.
    """
    reach = screened + tol
    finite = np.isfinite(reach)
    least = reach.min(where=finite, initial=math.inf)
    candidates = np.flatnonzero(~finite | (screened - tol <= least))
    exact = np.array([exact_at(i) for i in candidates.tolist()])
    k = int(np.argmin(exact))
    screened.fill(math.inf)
    screened.flat[candidates[k]] = exact[k]
    return screened


# The mu2 residual screen's promise: |screened - exact margin| stays below
# this.  The double-double residual errs by at most about 1e-31 (measured),
# and 1e-9 - r rounds by half an ulp of 1e-9, about 1e-25.
_MU2_RESIDUAL_TOL = 1e-24


# The transcendental screens' promise: |screened - exact margin| <
# _SCREEN_REL (|A| + |B|) for a margin A - B that _screened takes, whose
# scale is at least |A| + |B|.  Both forms do the same + - * / on the same
# exact per-a values (c, and log K' and a^3 from _per_a), so they part only
# where numpy's SIMD log, log1p or power errs by a few ulps (u = 2^-53; at
# most 5.5 u measured on AVX-512) against libm's on the same argument,
# never another log's or power's result.  Every quantity has terms of one
# sign, which keeps relative deviations additive:
# * the chain's links (_interior_links, scale |A| + |B|): n3_exact's
#   numerator is three positive terms (alpha is a quotient of negative logs,
#   log r < 0); n3_estimate, the headline and 32/(a log(1/a)) are positive
#   sums, products and quotients.  Each errs by under 100 u: a few per
#   transcendental (five in n3_exact) and one per operation.
# * the D contraction (_d_contraction, margins 1 - D and D - c/(1+a), scale
#   1 + D, at least either's |A| + |B| as c/(1+a) < 1): D is the larger of
#   two products of at most two positive powers, so it errs by a few u
#   (at most 2.03 u measured), and c/(1+a) is the same in both forms.
# A - B adds one rounding; the bound, about 9,000 u, leaves a factor of 90
# for the roundings of tol and of _confirmed's comparison.
_SCREEN_REL = 1e-12


class _PerA(NamedTuple):
    """The per-a arrays that the suite and the chain both take, each entry
    bit for bit the scalar call at that a: aux_params' a, gamma, c and q',
    pow(a, 3) by libm, and log_k_factors at c = a*gamma with exponents p', q'."""

    a: np.ndarray
    gamma: np.ndarray
    c: np.ndarray
    q_prime: np.ndarray
    a3: np.ndarray
    log_k1: np.ndarray
    log_k2: np.ndarray

    def head(self, n: int) -> _PerA:
        """The arrays' first n entries, as views."""
        return _PerA(*(values[:n] for values in self))


def _per_a(a: np.ndarray) -> _PerA:
    """The _PerA arrays over the points a."""
    aux = bounds.aux_params(a)
    log_k1, log_k2 = bounds.log_k_factors(a, aux.c, aux.p_prime, aux.q_prime)
    return _PerA(aux.a, aux.gamma, aux.c, aux.q_prime, bounds._libm(pow, a, 3), log_k1, log_k2)


def _suite_points(grid_step: float, extra_random: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The a-grid, and the suite's points: the grid followed by extra_random
    uniform draws from [grid[0], grid[-1]] seeded by seed."""
    grid = _grid(grid_step)
    extra_random = bounds._int_in("extra_random", extra_random, 0, _MAX_EXTRA_RANDOM)
    seed = bounds._int_in("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return grid, np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=extra_random)])


def run_inequality_suite(
    grid_step: float = 1e-3,
    extra_random: int = _EXTRA_RANDOM,
    seed: int = DEFAULT_SEED,
) -> list[VerificationOutcome]:
    """Pointwise inequality checks on a uniform a-grid plus random points.

    Random points are drawn uniformly from [grid_step, 1 - grid_step] — the
    same closed span the grid covers.  (Below ~1e-6 several margins shrink
    like a^2 into binary64 roundoff, so sampling outside the grid span would
    measure noise, not mathematics.)  Failures are reported, not raised.
    """
    grid, pts = _suite_points(grid_step, extra_random, seed)
    return _suite(grid, _per_a(pts))


def _suite(grid: np.ndarray, per_a: _PerA) -> list[VerificationOutcome]:
    """run_inequality_suite's checks on the points of per_a, whose first
    len(grid) entries are the grid."""
    # Each per-point quantity is one bounds call on the array of points, bit
    # for bit the scalar call at each point; the grid's values are its first
    # len(grid) entries.
    pts = per_a.a
    pts_f = pts.tolist()
    gamma, c, a3 = per_a.gamma, per_a.c, per_a.a3
    mu1 = bounds._mu1(pts, a3)
    mu2 = bounds.mu2(pts)
    log_kp = np.minimum(per_a.log_k1, per_a.log_k2)

    # Two checks are screened: the samples that could hold the smallest
    # margin are re-evaluated exactly, so the report holds only exact values.
    # mu2's residual is screened in double-double and confirmed on integers,
    # the D contraction (below) by _screened.
    def residual_exact(i: int) -> float:
        f, _, den = bounds._mu2_integers(pts_f[i], mu2.item(i))
        return 1e-9 - abs(f) / den

    residual = _confirmed(
        1e-9 - np.abs(bounds._mu2_quadratic(pts, mu2)[0]), residual_exact, _MU2_RESIDUAL_TOL
    )

    # D(a, c, x) < 1 on 0 < x < 1 and D >= c/(1+a), at c = a*gamma(a), over
    # the x-grid 0.01 .. 0.99.  D = max{b1^x, r (b2/r)^x} with b1 = 1/(1+a),
    # b2 = (1+c)/(1+a) and r = sqrt(1+c^2-ac); for 0 < c < a < 1, which
    # aux_params guarantees, (1+a)^2 r^2 - (1+c)^2 = (a-c)(2+a)(1-ac) > 0,
    # so b2 < r, and b1 < 1: D decreases strictly in x.  Then 1 - D
    # increases and D - c/(1+a) decreases, and each a's least margin lies
    # at the first or the last x, with every other x's strictly larger; only
    # those two columns are screened and confirmed, and the outcome counts
    # all 99.  In binary64 the order holds too: on a in [1e-5, 1 - 1e-5]
    # one column's step drops D by at least 7.9e-14 (at a = 0.99999; 7.9e-10
    # on the default grid), some 700 ulps of 1, and libm's powers err by a
    # few ulps.
    x_set = np.arange(1.0, 100.0) * 0.01
    x_ends = x_set[[0, -1]]
    d = _screened(_d_contraction, pts[:, None], c[:, None], x_ends)["bounds.d_contraction"]

    # Shape facts need even spacing: uniform grid only.  mu2 is increasing
    # but loses convexity near a = 0.998, so convexity is asserted for mu1.
    mu1_g, mu2_g = mu1[:len(grid)], mu2[:len(grid)]
    # Elementary log lemmas on their own x-grids, independent of a: 1000
    # steps of 1e-3 over (0, 1] and of 4e-3 over (0, 4].  Each margin
    # increases strictly in x, with derivative (1-x)/(2(1+x)), x/(1+x)^2 and
    # x/(1+x), positive inside the grids, so each is least at its grid's
    # first x, every other x's strictly larger: only x = 1e-3 and 4e-3 are
    # computed, and the outcome counts all 3000 samples.  The floats keep
    # the order: each first margin lies at least 2.3e-5 below its grid's
    # second one, and so below all the others, while every margin is below
    # 5 and rounds by a few ulps.
    x_unit = np.array([1e-3])
    x_wide = np.array([4e-3])
    log1p_wide = bounds._libm(math.log1p, x_wide)

    per_check = {
        "bounds.mu2_root_residual": (
            residual,
            pts,
            "1e-9 - |a^2 mu2^2 + (8+2a-a^2) mu2 - (7+2a)|, residual in exact arithmetic",
        ),
        "bounds.mu_order_and_bounds": (
            np.minimum(np.minimum(mu2 - 0.875, mu1 - mu2), 1.0 - mu1),
            pts,
            "min{mu2 - 7/8, mu1 - mu2, 1 - mu1}",
        ),
        "bounds.mu_shape": (
            np.concatenate([np.diff(mu2_g), np.diff(mu1_g), np.diff(mu1_g, 2)]),
            np.concatenate([grid[:-1], grid[:-1], grid[1:-1]]),
            "first differences of mu1 and mu2 and second differences of mu1 on the uniform grid",
        ),
        "bounds.gamma_dominates_mu2": (gamma - mu2, pts, "gamma(a) - mu2(a)"),
        "bounds.gamma_dominates_mu1": (gamma - mu1, pts, "gamma(a) - mu1(a)"),
        "bounds.k_prime_gt_one": (log_kp, pts, "log K'(a); positive iff K' > 1"),
        "bounds.log_k_prime_floor": (
            log_kp - a3 * (1.0 - pts) / 16.0, pts, "log K'(a) - a^3 (1-a)/16"
        ),
        "bounds.k2_log_floor": (
            per_a.log_k2 - pts * per_a.q_prime * gamma / 4.0,
            pts,
            "log K2(a, a*gamma, q') - a q' gamma / 4",
        ),
        "bounds.lemma_log_bounds": (
            np.concatenate([
                bounds._libm(math.log1p, x_unit) - x_unit / 2.0,
                log1p_wide - x_wide / (1.0 + x_wide),
                x_wide - log1p_wide,
            ]),
            np.concatenate([x_unit, x_wide, x_wide]),
            "log(1+x) >= x/2 on (0,1]; x/(1+x) <= log(1+x) <= x on (0,4]; location is x",
        ),
        "bounds.radical_gap": (
            4.0 - np.sqrt(16.0 - 3.0 * pts * pts) - pts * pts / 10.0,
            pts,
            "4 - sqrt(16 - 3a^2) - a^2/10",
        ),
        "bounds.d_contraction": (
            d,
            (pts, x_ends),
            "min{1 - D(a, a*gamma, x), D(a, a*gamma, x) - a*gamma/(1+a)}; location is (a, x)",
        ),
    }
    outcomes = {
        check_id: _min_outcome(check_id, margins, locations, notes)
        for check_id, (margins, locations, notes) in per_check.items()
    }
    outcomes["bounds.lemma_log_bounds"] = replace(
        outcomes["bounds.lemma_log_bounds"], samples=3000
    )
    outcomes["bounds.d_contraction"] = replace(
        outcomes["bounds.d_contraction"], samples=len(pts) * len(x_set)
    )
    return list(outcomes.values())


def verify_limits() -> list[VerificationOutcome]:
    """Endpoint behaviour of mu1 and mu2 as a -> 0.

    Both tend to 7/8 with slope 1/32.  The limit is checked by two-point
    Richardson extrapolation from a = 1e-4, 1e-5 (first-order model, per the
    series 7/8 + a/32 + O(a^2)) against 0.875 with tolerance 1e-6; the slope
    by the finite difference between a = 1e-4 and 1e-3 against 1/32 with
    tolerance 1e-3.  Each check's margin stands for both of its samples and
    is located at the first.
    """
    outcomes = []
    for name, fn in (("mu2", bounds.mu2), ("mu1", bounds.mu1)):
        f3, f4, f5 = fn(1e-3), fn(1e-4), fn(1e-5)
        extrapolated = (10.0 * f5 - f4) / 9.0
        slope = (f3 - f4) / (1e-3 - 1e-4)
        outcomes += [
            _min_outcome(f"limits.{name}_{check}", [margin, margin], np.array(samples), notes)
            for check, margin, samples, notes in (
                ("limit_richardson", 1e-6 - abs(extrapolated - 0.875), (1e-5, 1e-4),
                 f"(10 f(1e-5) - f(1e-4))/9 = {extrapolated!r}, target 7/8 within 1e-6"),
                ("slope", 1e-3 - abs(slope - 1.0 / 32.0), (1e-4, 1e-3),
                 f"(f(1e-3) - f(1e-4))/9e-4 = {slope!r}, target 1/32 within 1e-3"),
            )
        ]
    return outcomes


def verify_estimate_chain(grid_step: float = 1e-3) -> list[VerificationOutcome]:
    """One check per majorization link from n3 to 20800/(a^7 (1-a)^4).

    Where a link compares max{...} expressions sharing a branch, the margin
    compares the differing branches directly, otherwise shared-branch ties
    would report zero margin for a true strict inequality.
    """
    return _chain(_per_a(_grid(grid_step)))


def _screened(links: Callable[..., dict], *args) -> dict:
    """The margins of links(lib, *args) -> {check_id: (margin, scale)} by
    check id, each screened with lib = bounds._simd on the arrays args and
    passed through _confirmed with tol _SCREEN_REL scale, which evaluates a
    candidate with bounds._libm on the entries of args (broadcast to the
    margin's shape) at its flat index."""
    entries = np.broadcast_arrays(*args)
    confirmed = {}
    for check_id, (margin, scale) in links(bounds._simd, *args).items():
        def libm_margin(i: int, check_id: str = check_id) -> float:
            return links(bounds._libm, *(v.item(i) for v in entries))[check_id][0]

        confirmed[check_id] = _confirmed(margin, libm_margin, _SCREEN_REL * scale)
    return confirmed


def _d_contraction(lib, a, c, x) -> dict:
    """The D-contraction check's margin min{1 - D, D - c/(1+a)} and scale
    1 + D at (a, c, x), D = bounds._d by lib, for _screened."""
    d = bounds._d(a, c, x, lib)
    return {"bounds.d_contraction": (np.minimum(1.0 - d, d - c / (1.0 + a)), 1.0 + d)}


def _interior_links(lib, a, c, r, r_prime, log_kp, a3) -> dict:
    """(A - B, |A| + |B|) by check id for the chain links A >= B whose
    margin is least inside the grid, logs and powers by lib, for _screened."""
    log_a16 = lib(math.log, a / 16.0)
    n3_exact = bounds._n3_exact(a, c, r, log_kp, log_a16, lib)
    n3_estimate = bounds._n3_estimate(a, a3, lib)
    headline = bounds._final_bound(a, lib)
    pairs = {
        "chain.n3_exact_le_estimate": (n3_estimate, n3_exact),
        "chain.alpha_prime_le_32_over_a_log": (
            32.0 / (a * lib(math.log, 1.0 / a)), bounds._alpha(a, c, r_prime, log_a16, lib)
        ),
        "chain.n3_estimate_le_headline": (headline, n3_estimate),
        "chain.end_to_end": (headline, n3_exact),
    }
    return {check_id: (big - small, abs(big) + abs(small))
            for check_id, (big, small) in pairs.items()}


def _chain(per_a: _PerA) -> list[VerificationOutcome]:
    """verify_estimate_chain's checks on the a-grid of per_a."""
    # Each reported quantity is bit for bit the scalar bounds call at its a,
    # by libm; a^3 and log K' come with per_a, shared with the suite.  The
    # _interior_links are screened on the grid by numpy, domain checks and
    # all, and the a's that could hold each least margin confirmed by libm.
    a, c, gamma, a3 = per_a.a, per_a.c, per_a.gamma, per_a.a3
    # The four threshold links' margins M decrease strictly in a on (0, 1),
    # so each is least at the grid's last a, every other a's strictly
    # larger: their quantities are computed there only (the slices below),
    # and their outcomes count the whole grid.  With u = 1/a^2:
    # * n0 link: M = 1280 u^2 - 32 u log(40 u), dM/du = 2560 u - 32 log(40 u)
    #   - 32, about 2,410 at u = 1, and d^2M/du^2 = 2560 - 32/u > 0, so
    #   dM/du > 0 for every u >= 1.
    # * n1 link: M = 324/a^2 - 9((4+2a)/a)^2 = 180/a^2 - 144/a - 36, and
    #   M' = (144 a - 360)/a^3 < 0.
    # * n2 link: M = 5760/a^2 - 9 rho^2, rho = log(16/a)/log(10(1+a)/(a(a+9)))
    #   > 1, and rho' > 0 iff log(1.6(a+9)/(1+a)) > 8a log(16/a)/((1+a)(a+9)):
    #   the left side is at least log 8 = 2.08, the right side at most
    #   (22.2a + 2.95)/(9 + 10a) <= 1.33.
    # * threshold link: M is the least of 5760/a^4 - n0, 5760/a^4 - 9((4+2a)/a)^2
    #   and 5760/a^4 - 9 rho^2, and each decreases strictly: |n0'| =
    #   64(log(40/a^2) + 1)/a^3 and |n1'| = 72(4+2a)/a^3 are both below
    #   |(5760/a^4)'| = 23040/a^5, and 9 rho^2 increases.
    # The floats keep the order: |M'| is at least 4,819, 216, 11,665 and
    # about 22,600 on (0, 1), so on the finest grid (1e-5) the last a's
    # margin lies at least 2.2e-3 below the one before it, and so below all
    # the others, while near a = 1 the margins' terms are below 6,000 and
    # round by a few ulps.  Where the terms are large, |M'| is at least
    # 2T/(3a), T the leading term (1280/a^4, 324/a^2, 5760/a^2, 5760/a^4),
    # so a step still moves M by over 6e-6 T.
    last_a, last_c = a[-1:], c[-1:]
    a2, a4 = (bounds._libm(pow, last_a, k) for k in (2, 4))
    n0 = bounds.n0(last_a)
    n1_branch = bounds._n1_branch(last_a)
    ratio = bounds._n2_ratio(last_a, last_c, bounds._libm(math.log, last_a / 16.0))
    log_kp = np.minimum(per_a.log_k1, per_a.log_k2)
    interior = _screened(_interior_links, a, c, *bounds.r_param(a, c), log_kp, a3)
    min_branch = np.minimum(
        a * a * gamma / (4.0 * (4.0 + 2.0 * a)),
        a * a * (1.0 - a) * gamma / (4.0 * (4.0 - 2.0 * a)),
    )

    per_check = {
        "chain.n3_exact_le_estimate": (
            interior["chain.n3_exact_le_estimate"], a, "n3_estimate(a) - n3_exact(a)"
        ),
        "chain.n0_le_1280_over_a4": (1280.0 / a4 - n0, last_a, "1280/a^4 - n0(a)"),
        "chain.n1_le_max_324_over_a2": (
            324.0 / a2 - n1_branch, last_a, "324/a^2 - 9((4+2a)/a)^2"
        ),
        "chain.n2_le_max_5760_over_a2": (
            5760.0 / a2 - 9.0 * bounds._libm(pow, ratio, 2),
            last_a,
            "5760/a^2 - 9(log(a/16)/log(c/(1+a)))^2 at c = a*gamma",
        ),
        # max{n0, n1, n2} with n1 and n2 as bounds.n1 and bounds.n2 form them:
        # each is the max of its branch and n0.
        "chain.thresholds_le_5760_over_a4": (
            5760.0 / a4 - np.maximum(np.maximum(n0, n1_branch), 9.0 * ratio * ratio),
            last_a,
            "5760/a^4 - max{n0, n1, n2}",
        ),
        "chain.alpha_prime_le_32_over_a_log": (
            interior["chain.alpha_prime_le_32_over_a_log"],
            a,
            "32/(a log(1/a)) - alpha(a, c, r')",
        ),
        "chain.log_k_prime_gt_min_branch": (
            log_kp - min_branch,
            a,
            "log K' - min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))}, g = gamma",
        ),
        "chain.min_branch_ge_a3_floor": (
            min_branch - a3 * (1.0 - a) / 16.0,
            a,
            "min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))} - a^3(1-a)/16",
        ),
        "chain.n3_estimate_le_headline": (
            interior["chain.n3_estimate_le_headline"], a, "20800/(a^7 (1-a)^4) - n3_estimate(a)"
        ),
        "chain.end_to_end": (
            interior["chain.end_to_end"], a, "20800/(a^7 (1-a)^4) - n3_exact(a)"
        ),
    }
    outcomes = [
        _min_outcome(check_id, margins, locations, notes)
        for check_id, (margins, locations, notes) in per_check.items()
    ]
    # A link computed at the last a only stands for every a of the grid.
    return [o if o.samples == len(a) else replace(o, samples=len(a)) for o in outcomes]


def verify_pass(grid_step: float = 1e-3, seed: int = DEFAULT_SEED) -> list[VerificationOutcome]:
    """run_inequality_suite(grid_step, seed=seed) + verify_limits() +
    verify_estimate_chain(grid_step), outcome for outcome, with the per-a
    arrays of the suite's points built once: the chain takes their first
    len(grid) entries, which are the grid's bit for bit."""
    grid, pts = _suite_points(grid_step, _EXTRA_RANDOM, seed)
    per_a = _per_a(pts)
    return _suite(grid, per_a) + verify_limits() + _chain(per_a.head(len(grid)))


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
    block however many trials run.  Each trial's distance bracket is bit
    for bit what ``critical_report`` gives for that trial alone, so no
    result depends on the number of trials or on the block a trial falls
    in.
    """
    from . import polynomial
    a = bounds._real_in("a", a, 0, 1)
    degree = bounds._int_in("degree", degree, 2, 200)
    trials = bounds._int_in("trials", trials, 1)
    seed = bounds._int_in("seed", seed, 0)
    m = degree - 1
    block = polynomial._block_rows(degree)
    seed_words = _words(seed)
    largest = 0.0
    unresolved = 0
    violating: list[str] = []
    for first in range(0, trials, block):
        indices = range(first, min(first + block, trials))
        # Each trial's m radius and then m angle uniforms, from one stream.
        draws = np.empty((len(indices), 2 * m))
        for row, index in enumerate(indices):
            entropy = np.array(seed_words + _words(index), dtype=np.uint32)
            draws[row] = np.random.default_rng(entropy).random(2 * m)
        others = np.sqrt(draws[:, :m]) * np.exp(1j * (draws[:, m:] * (2.0 * np.pi)))
        distance, radius = polynomial.sendov_distances(a, others)
        verdicts = polynomial.bracket_verdict(distance, radius, polynomial.VIOLATION_THRESHOLD)
        resolved = verdicts != "UNRESOLVED"
        largest = max(largest, float(distance[resolved].max(initial=0.0)))
        unresolved += int(len(indices) - resolved.sum())
        violating.extend(
            polynomial.SendovInstance(a=a, other_zeros=tuple(others[t].tolist())).to_json()
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

