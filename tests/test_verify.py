"""Tests for the verification suites and how the command line renders
their reports."""

import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import exact
from sendov_lab import bounds, verify
from sendov_lab.cli import main
from sendov_lab.bounds import DEFAULT_SEED
from sendov_lab.verify import (
    VerificationOutcome,
    run_inequality_suite,
    verify_estimate_chain,
    verify_limits,
    verify_pass,
)

# verify's checks in report order, each with the notes of its outcome.
SUITE_NOTES = {
    "bounds.mu2_root_residual":
        "1e-9 - |a^2 mu2^2 + (8+2a-a^2) mu2 - (7+2a)|, residual in exact arithmetic",
    "bounds.mu_order_and_bounds": "min{mu2 - 7/8, mu1 - mu2, 1 - mu1}",
    "bounds.mu_shape":
        "first differences of mu1 and mu2 and second differences of mu1 on the uniform grid",
    "bounds.gamma_dominates_mu2": "gamma(a) - mu2(a)",
    "bounds.gamma_dominates_mu1": "gamma(a) - mu1(a)",
    "bounds.k_prime_gt_one": "log K'(a); positive iff K' > 1",
    "bounds.log_k_prime_floor": "log K'(a) - a^3 (1-a)/16",
    "bounds.k2_log_floor": "log K2(a, a*gamma, q') - a q' gamma / 4",
    "bounds.lemma_log_bounds":
        "log(1+x) >= x/2 on (0,1]; x/(1+x) <= log(1+x) <= x on (0,4]; location is x",
    "bounds.radical_gap": "4 - sqrt(16 - 3a^2) - a^2/10",
    "bounds.d_contraction":
        "min{1 - D(a, a*gamma, x), D(a, a*gamma, x) - a*gamma/(1+a)}; location is (a, x)",
}

CHAIN_NOTES = {
    "chain.n3_exact_le_estimate": "n3_estimate(a) - n3_exact(a)",
    "chain.n0_le_1280_over_a4": "1280/a^4 - n0(a)",
    "chain.n1_le_max_324_over_a2": "324/a^2 - 9((4+2a)/a)^2",
    "chain.n2_le_max_5760_over_a2": "5760/a^2 - 9(log(a/16)/log(c/(1+a)))^2 at c = a*gamma",
    "chain.thresholds_le_5760_over_a4": "5760/a^4 - max{n0, n1, n2}",
    "chain.alpha_prime_le_32_over_a_log": "32/(a log(1/a)) - alpha(a, c, r')",
    "chain.log_k_prime_gt_min_branch":
        "log K' - min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))}, g = gamma",
    "chain.min_branch_ge_a3_floor": "min{a^2 g/(4(4+2a)), a^2 (1-a) g/(4(4-2a))} - a^3(1-a)/16",
    "chain.n3_estimate_le_headline": "20800/(a^7 (1-a)^4) - n3_estimate(a)",
    "chain.end_to_end": "20800/(a^7 (1-a)^4) - n3_exact(a)",
}

SUITE_IDS, CHAIN_IDS = list(SUITE_NOTES), list(CHAIN_NOTES)

# The chain links whose least margin lies inside the grid, screened by numpy.
INTERIOR_IDS = [
    "chain.n3_exact_le_estimate",
    "chain.alpha_prime_le_32_over_a_log",
    "chain.n3_estimate_le_headline",
    "chain.end_to_end",
]

LIMIT_IDS = [
    "limits.mu2_limit_richardson",
    "limits.mu2_slope",
    "limits.mu1_limit_richardson",
    "limits.mu1_slope",
]


@pytest.fixture(scope="module")
def coarse_suite():
    return run_inequality_suite(grid_step=0.01, extra_random=20, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def coarse_chain():
    return verify_estimate_chain(grid_step=0.01)


class TestInequalitySuite:
    def test_all_checks_pass(self, coarse_suite):
        assert _fields(coarse_suite) == _fields(_reference_suite(0.01, DEFAULT_SEED, 20))
        for o in coarse_suite:
            assert o.passed, o
            assert o.worst_margin > 0.0

    def test_seed_changes_random_points_not_verdicts(self, coarse_suite):
        other = run_inequality_suite(grid_step=0.01, extra_random=20, seed=1)
        assert all(o.passed for o in other)
        assert other != coarse_suite

    @pytest.mark.parametrize("step", [0.01, 3e-3, 1e-3, 7e-4, 1e-5])
    def test_grid_bits_equal_the_float_products(self, step):
        grid = verify._grid(step)
        count = int(round(1.0 / step)) - 1
        expected = np.array([k * step for k in range(1, count + 1)])
        assert grid.dtype == np.float64
        assert grid.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_finest_grid_step_is_accepted(self):
        grid = verify._grid(1e-5)
        assert len(grid) == 99_999 and grid[0] == 1e-5

    def test_default_suite_memory_peak(self):
        # The D-contraction screen holds 1099 x 2 values, the first and the
        # last x of each a, and the suite peaks at 0.36 MB.  The bound leaves
        # 1.45 MB of headroom, so a screen of all 1099 x 99 samples (a 2.05 MB
        # peak) fails it.
        run_inequality_suite()  # the first call also builds state that numpy keeps
        tracemalloc.start()
        try:
            run_inequality_suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8e6, peak


class TestDContraction:
    """verify screens the D contraction at the first and the last x only."""

    def test_least_margin_sits_at_the_first_or_last_x(self):
        # The lemma behind the two-column screen (bounds.d_function): its
        # identity and sign exactly in Fractions of the float a and c, and
        # the column order on libm rows at both ends of the finest grid,
        # where one step of x moves D least, and at a few random a.
        grid = verify._grid(1e-5)
        rng = np.random.default_rng(44)
        points = np.concatenate([grid[:20], grid[-20:], rng.uniform(grid[0], grid[-1], 5)])
        xs = (np.arange(1.0, 100.0) * 0.01).tolist()
        for a, c in zip(points.tolist(), bounds.aux_params(points).c.tolist()):
            fa, fc = Fraction(a), Fraction(c)
            gap = (1 + fa) ** 2 * (1 + fc * fc - fa * fc) - (1 + fc) ** 2
            assert gap == (fa - fc) * (2 + fa) * (1 - fa * fc) > 0, a
            floor = c / (1.0 + a)
            margins = [min(1.0 - d, d - floor) for d in (bounds.d_function(a, c, x) for x in xs)]
            assert min(margins[1:-1]) > min(margins[0], margins[-1]), a


def _screens(seed):
    """The (screened, tol) pairs that a default suite hands _confirmed: the
    mu2 residual's, with a number tol, and the D contraction's."""
    screens = []
    confirmed = verify._confirmed

    def recorded(screened, exact_at, tol):
        screens.append((screened.copy(), tol))
        return confirmed(screened, exact_at, tol)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_confirmed", recorded)
        run_inequality_suite(seed=seed)
    return screens


def _candidates(screened, tol):
    """The flat indices _confirmed evaluates exactly, in order."""
    calls = []

    def exact_at(i):
        calls.append(i)
        return 0.0

    verify._confirmed(np.array(screened, dtype=float), exact_at, tol)
    return calls


class TestConfirmRule:
    """_confirmed evaluates exactly every index whose interval screened +- tol
    reaches the least upper end min(screened + tol), and every non-finite one."""

    @pytest.mark.parametrize("seed", [1, 5, DEFAULT_SEED])
    def test_number_tol_keeps_the_min_plus_twice_tol_rule(self, seed):
        # The rule before tol could be an array: min(screened) + 2 tol, here
        # on the mu2 residual's screen, whose tol is a number, and at
        # tolerances widened until many samples are candidates.
        screens = _screens(seed)
        assert [(s.shape, np.shape(tol)) for s, tol in screens] == [
            ((1099,), ()), ((1099, 2), (1099, 2))
        ]
        screened, tol = screens[0]
        for wide in (tol, 1e3 * tol, 1e6 * tol, 1e9 * tol):
            finite = np.isfinite(screened)
            bound = screened.min(where=finite, initial=math.inf) + 2.0 * wide
            before = np.flatnonzero(~finite | (screened <= bound)).tolist()
            assert _candidates(screened, wide) == before

    def test_array_tol_keeps_every_interval_reaching_the_least_upper_end(self):
        # Upper ends 1.0625, 2.0, 2.25, 1.125, 2.0625, 2.0; the least is
        # 1.0625, which the lower ends 0.9375, 1.0, 0.625 and 1.0625 reach.
        screened = [1.0, 1.5, 2.0, 0.875, 1.5625, 1.5625]
        tol = np.array([0.0625, 0.5, 0.25, 0.25, 0.5, 0.4375])
        assert _candidates(screened, tol) == [0, 1, 3, 4]
        margins = [0.96875, 1.125, 0.25, 0.9375, 0.9375, 0.5]
        confirmed = verify._confirmed(np.array(screened), margins.__getitem__, tol)
        assert confirmed.tolist() == [math.inf] * 3 + [0.9375] + [math.inf] * 2

    def test_non_finite_entries_are_confirmed(self):
        screened = [0.1, math.nan, 0.3, math.inf, -math.inf, 0.2]
        tol = np.array([1e-3, 1e-3, 1e-3, 1e-3, 1e-3, math.inf])
        assert _candidates(screened, tol) == [0, 1, 3, 4, 5]

    def test_ties_keep_the_first_index(self):
        screened = np.array([0.5, 0.25, 0.3125, 0.25, 0.9])
        margins = [0.5, 0.375, 0.25, 0.25, 0.9]
        tol = np.array([0.0625, 0.125, 0.0625, 0.125, 0.0625])
        confirmed = verify._confirmed(screened, margins.__getitem__, tol)
        assert confirmed.tolist() == [math.inf, math.inf, 0.25, math.inf, math.inf]

    @pytest.mark.parametrize("screened, margins, worst, calls", [
        # The screen ranks 1 below 2; the exact margins rank 2 first.
        pytest.param([0.5, 0.1, 0.1 + 1e-13, 0.9], [0.5, 0.1 + 5e-13, 0.1 + 2e-13, 0.9],
                     (2, 0.1 + 2e-13), [1, 2], id="exact_order_beats_screened_order"),
        pytest.param([0.5, 0.1 + 1e-13, 0.9, 0.1], [0.5, 0.1 + 5e-13, 0.9, 0.1 + 5e-13],
                     (1, 0.1 + 5e-13), [1, 3], id="exact_tie_goes_to_lower_index"),
        pytest.param([0.1 + 3e-12, 0.1, 0.1 + 1.5e-12, 0.1 + 2.5e-12, 0.7],
                     [0.1 + 3e-12, 0.1, 0.1 + 1.5e-12, 0.1 + 2.5e-12, 0.7],
                     (1, 0.1), [1, 2], id="far_samples_are_never_confirmed"),
        pytest.param([0.1, math.nan, 0.3, math.inf, -math.inf], [0.1, 0.05, 0.3, 0.2, 0.4],
                     (1, 0.05), [0, 1, 3, 4], id="non_finite_screened_values_are_confirmed"),
    ])
    def test_number_tol_confirms_the_exact_minimum(self, screened, margins, worst, calls):
        # tol 1e-12: the exact minimum over the candidates, every other entry +inf.
        made = []

        def exact_at(i):
            made.append(i)
            return margins[i]

        confirmed = verify._confirmed(np.array(screened), exact_at, 1e-12)
        i = int(np.argmin(confirmed))
        assert ((i, confirmed.item(i)), made) == (worst, calls)
        assert np.delete(confirmed, i).tolist() == [math.inf] * (len(screened) - 1)


def _fields(outcomes):
    """Each outcome's fields by repr, so that a -0.0 or a last-bit change shows."""
    return [[repr(getattr(o, f.name)) for f in dataclasses.fields(o)] for o in outcomes]


# verify's contract, rebuilt from bounds' public float functions and plain
# math: every check at every sample, with no screen, no shortcut to where a
# margin is least, and no per-a values shared between the suite and the
# chain.  The *contract* rule of tests/test_source_rules.py keeps these
# functions free of bounds' and verify's private names.


@functools.cache
def reference_pass(grid_step, seed):
    """verify_pass(grid_step, seed), outcome for outcome, as a tuple."""
    return (*_reference_suite(grid_step, seed), *_reference_limits(),
            *_reference_chain(grid_step))


def _reference_outcome(check_id, margins, locations, notes):
    """The outcome at the first smallest of margins, a list of floats,
    located at the same index of locations."""
    worst = min(margins)
    i = margins.index(worst)
    return VerificationOutcome(check_id, worst > 0.0, worst, locations[i], len(margins), notes)


def _reference_grid(grid_step):
    """verify's a-grid, k * grid_step for k = 1 .. round(1/grid_step) - 1."""
    return [k * grid_step for k in range(1, round(1.0 / grid_step))]


def _reference_suite(grid_step, seed, extra_random=100):
    """run_inequality_suite(grid_step, extra_random, seed): scalar calls at
    each point, D at all 99 x, the log lemmas at all 3000 x, and mu2's
    residual in Fractions."""
    grid = _reference_grid(grid_step)
    draws = np.random.default_rng(seed).uniform(grid[0], grid[-1], extra_random)
    pts = grid + draws.tolist()
    aux = [bounds.aux_params(a) for a in pts]
    mu1 = [bounds.mu1(a) for a in pts]
    mu2 = [bounds.mu2(a) for a in pts]
    log_k = [bounds.log_k_factors(a, x.c, x.p_prime, x.q_prime) for a, x in zip(pts, aux)]
    n = len(grid)
    steps2, steps1 = ([m[i + 1] - m[i] for i in range(n - 1)] for m in (mu2, mu1))
    x_unit = [k * 1e-3 for k in range(1, 1001)]
    x_wide = [k * 4e-3 for k in range(1, 1001)]
    xs = [k * 0.01 for k in range(1, 100)]
    d_margins = []
    for a, c in zip(pts, (x.c for x in aux)):
        # bounds.d_function(a, c, x) by the same libm powers, without its checks.
        first, second = 1.0 / (1.0 + a), (1.0 + c) / (1.0 + a)
        root, floor = math.sqrt(1.0 + c * c - a * c), c / (1.0 + a)
        row = [max(first ** x, second ** x * root ** (1.0 - x)) for x in xs]
        d_margins += [min(1.0 - d, d - floor) for d in row]
    margins = {
        "bounds.mu2_root_residual": [
            1e-9 - float(abs(exact.mu2_quadratic(a, m)[0])) for a, m in zip(pts, mu2)
        ],
        "bounds.mu_order_and_bounds": [
            min(m2 - 0.875, m1 - m2, 1.0 - m1) for m1, m2 in zip(mu1, mu2)
        ],
        "bounds.mu_shape": steps2 + steps1 + [steps1[i + 1] - steps1[i] for i in range(n - 2)],
        "bounds.gamma_dominates_mu2": [x.gamma - m for x, m in zip(aux, mu2)],
        "bounds.gamma_dominates_mu1": [x.gamma - m for x, m in zip(aux, mu1)],
        "bounds.k_prime_gt_one": [min(k) for k in log_k],
        "bounds.log_k_prime_floor": [
            min(k) - a ** 3 * (1.0 - a) / 16.0 for a, k in zip(pts, log_k)
        ],
        "bounds.k2_log_floor": [
            k[1] - a * x.q_prime * x.gamma / 4.0 for a, x, k in zip(pts, aux, log_k)
        ],
        "bounds.lemma_log_bounds": (
            [math.log1p(x) - x / 2.0 for x in x_unit]
            + [math.log1p(x) - x / (1.0 + x) for x in x_wide] + [x - math.log1p(x) for x in x_wide]
        ),
        "bounds.radical_gap": [4.0 - math.sqrt(16.0 - 3.0 * a * a) - a * a / 10.0 for a in pts],
        "bounds.d_contraction": d_margins,
    }
    locations = {
        "bounds.mu_shape": grid[:-1] * 2 + grid[1:-1],
        "bounds.lemma_log_bounds": x_unit + x_wide * 2,
        "bounds.d_contraction": [(a, x) for a in pts for x in xs],
    }
    return [_reference_outcome(check_id, margins[check_id], locations.get(check_id, pts), notes)
            for check_id, notes in SUITE_NOTES.items()]


def _reference_limits():
    """verify_limits(), from the scalar mu1 and mu2."""
    outcomes = []
    for name, fn in (("mu2", bounds.mu2), ("mu1", bounds.mu1)):
        f3, f4, f5 = fn(1e-3), fn(1e-4), fn(1e-5)
        extrapolated = (10.0 * f5 - f4) / 9.0
        slope = (f3 - f4) / (1e-3 - 1e-4)
        outcomes += [
            _reference_outcome(
                f"limits.{name}_limit_richardson", [1e-6 - abs(extrapolated - 0.875)] * 2,
                [1e-5, 1e-4],
                f"(10 f(1e-5) - f(1e-4))/9 = {extrapolated!r}, target 7/8 within 1e-6",
            ),
            _reference_outcome(
                f"limits.{name}_slope", [1e-3 - abs(slope - 1.0 / 32.0)] * 2, [1e-4, 1e-3],
                f"(f(1e-3) - f(1e-4))/9e-4 = {slope!r}, target 1/32 within 1e-3",
            ),
        ]
    return outcomes


def _reference_libm(fn, x, *args):
    """fn(v, *args) at each entry v of the array x as a Python float: libm's."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, x.size)


def _reference_chain(grid_step):
    """verify_estimate_chain(grid_step): every link at every a, on arrays
    whose entries are each the scalar call's, by bounds' array forms and
    libm maps, with bounds.n3 written out."""
    a = np.array(_reference_grid(grid_step))
    aux = bounds.aux_params(a)
    c, gamma = aux.c, aux.gamma
    a2, a3, a4 = (_reference_libm(pow, a, k) for k in (2, 3, 4))
    log_kp = np.minimum(*bounds.log_k_factors(a, c, aux.p_prime, aux.q_prime))
    r, r_prime = bounds.r_param(a, c)
    n0 = bounds.n0(a)
    n1_branch = 9.0 * _reference_libm(pow, (4.0 + 2.0 * a) / a, 2)
    ratio = _reference_libm(math.log, a / 16.0) / _reference_libm(math.log, c / (1.0 + a))
    n3_exact = (
        _reference_libm(math.log, (1.0 + a) / (a - c))
        + _reference_libm(math.log1p, c * (1.0 - a) / (1.0 - c))
        - bounds.alpha_param(a, c, r) * _reference_libm(math.log, r)
    ) / log_kp + 1.0
    one_minus_gamma = 0.1 * (1.0 - a)
    bracket = 3.0 / (a * one_minus_gamma) + (2.0 / (a3 * one_minus_gamma)) * (
        32.0 / (a * -_reference_libm(math.log, a))
    )
    n3_estimate = bracket * 16.0 / (a3 * (1.0 - a)) + 1.0
    headline = bounds.final_bound(a)
    min_branch = np.minimum(
        a * a * gamma / (4.0 * (4.0 + 2.0 * a)),
        a * a * (1.0 - a) * gamma / (4.0 * (4.0 - 2.0 * a)),
    )
    margins = {
        "chain.n3_exact_le_estimate": n3_estimate - n3_exact,
        "chain.n0_le_1280_over_a4": 1280.0 / a4 - n0,
        "chain.n1_le_max_324_over_a2": 324.0 / a2 - n1_branch,
        "chain.n2_le_max_5760_over_a2": 5760.0 / a2 - 9.0 * _reference_libm(pow, ratio, 2),
        "chain.thresholds_le_5760_over_a4":
            5760.0 / a4 - np.maximum(np.maximum(n0, n1_branch), 9.0 * ratio * ratio),
        "chain.alpha_prime_le_32_over_a_log":
            32.0 / (a * _reference_libm(math.log, 1.0 / a)) - bounds.alpha_param(a, c, r_prime),
        "chain.log_k_prime_gt_min_branch": log_kp - min_branch,
        "chain.min_branch_ge_a3_floor": min_branch - a3 * (1.0 - a) / 16.0,
        "chain.n3_estimate_le_headline": headline - n3_estimate,
        "chain.end_to_end": headline - n3_exact,
    }
    locations = a.tolist()
    return [_reference_outcome(check_id, margins[check_id].tolist(), locations, notes)
            for check_id, notes in CHAIN_NOTES.items()]


def _skew_simd(monkeypatch):
    # Each screened log and power off by up to 1e-13 of itself, far more
    # than SIMD code errs: a link's margin A - B moves by at most
    # 3e-13 (|A| + |B|) (three logs in a term of n3_exact), and a D margin
    # by at most 2e-13 D (two powers in a product).
    simd = bounds._simd

    def skewed(fn, x, *args):
        values = simd(fn, x, *args)
        return values * (1.0 + 1e-13 * np.cos(np.arange(values.size))).reshape(values.shape)

    monkeypatch.setattr(bounds, "_simd", skewed)


def _skew_d_screen(monkeypatch):
    # The screened D margins off by up to 0.9 of their tolerance either way;
    # the libm confirmation keeps the true D.
    d_contraction = verify._d_contraction

    def skewed(lib, a, c, x):
        links = d_contraction(lib, a, c, x)
        if lib is bounds._libm:
            return links
        margin, scale = links["bounds.d_contraction"]
        skew = 0.9 * verify._SCREEN_REL * np.cos(np.arange(margin.size)).reshape(margin.shape)
        return {"bounds.d_contraction": (margin + scale * skew, scale)}

    monkeypatch.setattr(verify, "_d_contraction", skewed)


def _skew_mu2_screen(monkeypatch):
    # The screened mu2 residual off by up to 0.9 of its tolerance either
    # way; mu2's own Newton step keeps the true quadratic.
    quadratic, mu2 = bounds._mu2_quadratic, bounds.mu2

    def skewed(a, x):
        hi, lo = quadratic(a, x)
        return hi + 0.9 * verify._MU2_RESIDUAL_TOL * np.cos(np.arange(hi.size)), lo

    def unskewed_mu2(a):
        with monkeypatch.context() as m:
            m.setattr(bounds, "_mu2_quadratic", quadratic)
            return mu2(a)

    monkeypatch.setattr(bounds, "_mu2_quadratic", skewed)
    monkeypatch.setattr(bounds, "mu2", unskewed_mu2)


class TestContract:
    """verify_pass and each public suite report what every sample's margin
    gives, by repr, also under a screen skewed within its promise."""

    @pytest.mark.parametrize("grid_step, seed, skew", [
        (1e-2, DEFAULT_SEED, None), (4e-3, 7, None), (1e-3, 1, None), (1e-3, 5, None),
        (1e-3, DEFAULT_SEED, None), (1e-3, DEFAULT_SEED, _skew_simd),
        (1e-3, DEFAULT_SEED, _skew_d_screen), (1e-3, DEFAULT_SEED, _skew_mu2_screen),
        (1e-4, DEFAULT_SEED, None), (1e-5, DEFAULT_SEED, None),
    ], ids=lambda v: v.__name__[6:] if callable(v) else "unskewed" if v is None else None)
    def test_pass_equals_the_reference(self, monkeypatch, grid_step, seed, skew):
        chain = len(CHAIN_IDS)
        if grid_step < 1e-3:
            # The reference's suite would take D at 99 x of each of 10^4 or
            # 10^5 points: the chain alone.
            expected = _fields(_reference_chain(grid_step))
            assert _fields(verify_pass(grid_step, seed)[-chain:]) == expected
            assert _fields(verify_estimate_chain(grid_step)) == expected
            return
        reference = reference_pass(grid_step, seed)
        if skew is not None:
            skew(monkeypatch)
        assert _fields(verify_pass(grid_step, seed)) == _fields(reference)
        suite = len(SUITE_IDS)
        assert _fields(run_inequality_suite(grid_step, seed=seed)) == _fields(reference[:suite])
        assert _fields(verify_limits()) == _fields(reference[suite:-chain])
        assert _fields(verify_estimate_chain(grid_step)) == _fields(reference[-chain:])


def _proof_points():
    """a over (0, 1) at the working precision: 999 even steps, and points
    within 1e-12 of either end."""
    ten = mpmath.mpf(10)
    return ([ten ** -k for k in range(3, 13)] + [mpmath.mpf(k) / 1000 for k in range(1, 1000)]
            + [1 - ten ** -k for k in range(4, 13)])


def _rho(a):
    """log(16/a)/log(10(1+a)/(a(a+9))): n2's ratio at c = a*gamma."""
    return mpmath.log(16 / a) / mpmath.log(10 * (1 + a) / (a * (a + 9)))


def _rho_slope(a):
    """rho'(a) by the quotient rule."""
    top, bottom = mpmath.log(16 / a), mpmath.log(10 * (1 + a) / (a * (a + 9)))
    return (-bottom / a - top * (1 / (1 + a) - 1 / a - 1 / (a + 9))) / bottom ** 2


class TestMonotoneChecks:
    """verify computes the chain's four threshold links at the grid's last a
    and the log lemmas at the first x of their grids, where each margin is
    least (the proofs are in verify._chain and verify._suite).  Here: the
    proofs' facts in Fractions or at 50 digits; TestContract takes every
    sample's margin."""

    def test_n1_link_identity(self):
        # 324/a^2 - 9((4+2a)/a)^2 = 180/a^2 - 144/a - 36, whose derivative
        # (144a - 360)/a^3 is negative on (0, 1), exactly at float a's.
        grid = verify._grid(1e-5)
        rng = np.random.default_rng(48)
        for a in np.concatenate([grid[:20], grid[-20:], rng.uniform(0.0, 1.0, 20)]).tolist():
            fa = Fraction(a)
            margin = 180 / fa**2 - 144 / fa - 36
            assert 324 / fa**2 - 9 * ((4 + 2 * fa) / fa) ** 2 == margin, a
            assert -360 / fa**3 + 144 / fa**2 == (144 * fa - 360) / fa**3 < 0, a

    def test_n0_link_rises_in_u(self):
        # M = 1280u^2 - 32u log(40u), u = 1/a^2: dM/du = 2560u - 32 log(40u) - 32
        # is about 2,410 at u = 1 and grows, as d^2M/du^2 = 2560 - 32/u > 0.
        with mpmath.workdps(exact.DPS):
            def margin(u):
                return 1280 * u**2 - 32 * u * mpmath.log(40 * u)

            def slope(u):
                return 2560 * u - 32 * mpmath.log(40 * u) - 32

            assert 2409 < slope(1) < 2411
            for a in _proof_points():
                u = 1 / a**2
                assert slope(u) > 0 and 2560 - 32 / u > 0, a
            for u in (1, 2, 100, mpmath.mpf(10) ** 6):
                assert mpmath.almosteq(mpmath.diff(margin, u), slope(u), 1e-30), u

    def test_n2_ratio_increases(self):
        # rho > 1, and rho' > 0 iff log(1.6(a+9)/(1+a)) > 8a log(16/a)/((1+a)(a+9)):
        # the left side is at least log 8, the right at most
        # (22.2a + 2.95)/(9 + 10a) <= 1.33.
        with mpmath.workdps(exact.DPS):
            points = _proof_points()
            for a in points:
                left = mpmath.log(mpmath.mpf("1.6") * (a + 9) / (1 + a))
                right = 8 * a * mpmath.log(16 / a) / ((1 + a) * (a + 9))
                cap = (mpmath.mpf("22.2") * a + mpmath.mpf("2.95")) / (9 + 10 * a)
                assert left >= mpmath.log(8) > mpmath.mpf("1.33") >= cap >= right, a
                assert _rho(a) > 1 and _rho_slope(a) > 0, a
            for a in points[::100]:
                assert mpmath.almosteq(mpmath.diff(_rho, a), _rho_slope(a), 1e-30), a

    def test_threshold_branches_fall_slower_than_its_bound(self):
        # |n0'| = 64(log(40/a^2) + 1)/a^3 and |n1'| = 72(4+2a)/a^3 are below
        # |(5760/a^4)'| = 23040/a^5, so 5760/a^4 - n0 and 5760/a^4 - n1 decrease.
        with mpmath.workdps(exact.DPS):
            def n0(a):
                return 32 * mpmath.log(40 / a**2) / a**2

            def n1_branch(a):
                return 9 * ((4 + 2 * a) / a) ** 2

            def n0_fall(a):
                return 64 * (mpmath.log(40 / a**2) + 1) / a**3

            def n1_fall(a):
                return 72 * (4 + 2 * a) / a**3

            points = _proof_points()
            for a in points:
                assert max(n0_fall(a), n1_fall(a)) < 23040 / a**5, a
            for a in points[::100]:
                assert mpmath.almosteq(mpmath.diff(n0, a), -n0_fall(a), 1e-30), a
                assert mpmath.almosteq(mpmath.diff(n1_branch, a), -n1_fall(a), 1e-30), a

    def test_margins_fall_fast_enough_for_binary64(self):
        # |M'| is at least 4,819, 216, 11,665 and 22,600 for the n0, n1, n2
        # and threshold links, and at least 2T/(3a), T the margin's leading term.
        with mpmath.workdps(exact.DPS):
            for a in _proof_points():
                u = 1 / a**2
                n0_fall = 64 * (mpmath.log(40 * u) + 1) / a**3
                rho_rise = 18 * _rho(a) * _rho_slope(a)
                falls = {
                    "n0": (2 / a**3 * (2560 * u - 32 * mpmath.log(40 * u) - 32), 4819, 1280 * u**2),
                    "n1": ((360 - 144 * a) / a**3, 216, 324 * u),
                    "n2": (11520 / a**3 + rho_rise, 11665, 5760 * u),
                    "thresholds": (
                        23040 / a**5 - max(n0_fall, 72 * (4 + 2 * a) / a**3), 22600, 5760 * u**2
                    ),
                }
                for link, (fall, floor, term) in falls.items():
                    assert fall >= floor and fall >= 2 * term / (3 * a), (link, a)

    def test_log_lemma_slopes(self):
        # The margins' derivatives (1-x)/(2(1+x)), x/(1+x)^2 and x/(1+x) are
        # positive inside the grids (the first is 0 at x = 1, their end).
        lemmas = (
            (lambda x: mpmath.log1p(x) - x / 2, lambda x: (1 - x) / (2 * (1 + x))),
            (lambda x: mpmath.log1p(x) - x / (1 + x), lambda x: x / (1 + x) ** 2),
            (lambda x: x - mpmath.log1p(x), lambda x: x / (1 + x)),
        )
        with mpmath.workdps(exact.DPS):
            for (margin, slope), top in zip(lemmas, (1, 4, 4)):
                for x in (mpmath.mpf(k) * top / 1000 for k in range(1, 1001)):
                    assert slope(x) > 0 or x == 1, x
                    if x * 1000 % 97 == 0:
                        assert mpmath.almosteq(mpmath.diff(margin, x), slope(x), 1e-30), x


class TestChainScreen:
    """verify screens the chain's four interior links with numpy's logs and
    powers and confirms their minima with libm (the error bound is beside
    verify._SCREEN_REL).  Here: the screen's error against libm; the
    outcomes, under skewed screens too, are TestContract's."""

    @pytest.mark.parametrize("points", ["1e-2", "4e-3", "1e-3", "1e-4", "1e-5", "ends"])
    def test_screen_within_a_thousandth_of_its_tolerance(self, points):
        a = np.array([1e-5, 1.0 - 1e-5]) if points == "ends" else verify._grid(float(points))
        per_a = verify._per_a(a)
        links = (a, per_a.c, *bounds.r_param(a, per_a.c),
                 np.minimum(per_a.log_k1, per_a.log_k2), per_a.a3)
        screened = verify._interior_links(bounds._simd, *links)
        libm = verify._interior_links(bounds._libm, *links)
        assert list(libm) == INTERIOR_IDS
        for check_id, (margin, scale) in libm.items():
            tol = verify._SCREEN_REL * scale
            for fast, exact_values in zip(screened[check_id], (margin, scale)):
                assert np.all(np.abs(fast - exact_values) <= tol / 1000), check_id


class TestWorkPerPass:
    """How much libm, screen and confirm work a default verify pass does: a
    shared quantity mapped twice, a screen wider than it needs, or a screen
    drifting toward its tolerance, shows here before it shows in the
    timings.  The pass shares its per-a arrays between the suite and the
    chain; TestContract holds its outcomes to the three suites'."""

    def test_libm_array_maps(self, capsys, monkeypatch):
        maps = []
        libm = bounds._libm

        def counted(fn, x, *args):
            if isinstance(x, np.ndarray):
                maps.append(x.size)
            return libm(fn, x, *args)

        monkeypatch.setattr(bounds, "_libm", counted)
        assert main(["verify", "--seed", "5"]) == 0
        capsys.readouterr()
        # Four maps over the suite's 1,099 points build a^3 and the log K
        # factors; the chain's interior links are screened by numpy instead.
        # Nine maps take one entry: seven for the chain's threshold links at
        # the last a, two for the log lemmas at the first x of their grids.
        assert (len(maps), sum(maps)) == (13, 4_405)
        assert maps.count(1) == 9

    def test_simd_maps(self, capsys, monkeypatch):
        # D decreases in x, so only the first and the last x can hold an
        # a's least D-contraction margin: D's three powers take the suite's
        # 1,099 points by those two x.  The chain's four interior links then
        # take ten logs and powers over the 999-point grid.
        maps = []
        simd = bounds._simd

        def counted(fn, x, *args):
            values = simd(fn, x, *args)
            maps.append((fn, values.shape))
            return values

        monkeypatch.setattr(bounds, "_simd", counted)
        assert main(["verify", "--seed", "5"]) == 0
        capsys.readouterr()
        assert maps[:3] == [(pow, (1099, 2))] * 3
        assert [shape for _, shape in maps[3:]] == [(999,)] * 10

    @pytest.mark.parametrize("seed", [1, 5, DEFAULT_SEED])
    def test_interior_links_confirm_one_a(self, monkeypatch, seed):
        confirms = []
        confirmed = verify._confirmed

        def counted(screened, exact_at, tol):
            calls = []
            confirms.append(calls)

            def recorded(i):
                calls.append(i)
                return exact_at(i)

            return confirmed(screened, recorded, tol)

        monkeypatch.setattr(verify, "_confirmed", counted)
        outcomes = {o.check_id: o for o in verify_pass(seed=seed)}
        grid, pts = verify._suite_points(1e-3, 100, seed)
        x_ends = (0.01, 99 * 0.01)
        # The suite's mu2 residual and D contraction, then the chain's four:
        # each confirms the one sample it reports.
        assert len(confirms) == 6
        assert [[pts.item(i) for i in confirms[0]],
                [(pts.item(i // 2), x_ends[i % 2]) for i in confirms[1]]] == [
            [outcomes["bounds.mu2_root_residual"].worst_location],
            [outcomes["bounds.d_contraction"].worst_location],
        ]
        assert [[grid.item(i) for i in calls] for calls in confirms[2:]] == [
            [outcomes[check_id].worst_location] for check_id in INTERIOR_IDS
        ]


class TestLimits:
    def test_all_pass(self):
        outcomes = verify_limits()
        assert [o.check_id for o in outcomes] == LIMIT_IDS
        for o in outcomes:
            assert o.passed, o

    def test_richardson_value_in_notes(self):
        outcomes = {o.check_id: o for o in verify_limits()}
        extrapolated = (10.0 * bounds.mu2(1e-5) - bounds.mu2(1e-4)) / 9.0
        assert abs(extrapolated - 0.875) <= 1e-6
        assert repr(extrapolated) in outcomes["limits.mu2_limit_richardson"].notes


class TestOutcomeRule:
    """Every outcome passes iff its worst margin is positive."""

    def test_a_margin_at_its_tolerance_fails(self):
        # A limit whose deviation equals its tolerance: margin 0, so FAIL,
        # located at the first of its two samples.  (Binary64 values of mu2
        # cannot reach this tie: |deviation| is a multiple of 2^-53 or 2^-58,
        # and neither 1e-6 nor 1e-3 is.)
        o = verify._min_outcome("limits.tie", [0.0, 0.0], np.array([1e-5, 1e-4]), "tie")
        assert (o.passed, o.worst_margin, o.worst_location, o.samples) == (False, 0.0, 1e-5, 2)

    def test_two_dimensional_margins_locate_a_pair(self):
        margins = np.array([[0.3, 0.2, 0.4], [0.1, 0.5, 0.1]])
        o = verify._min_outcome("pair", margins, (np.array([0.25, 0.75]), np.arange(3.0)), "")
        assert (o.worst_margin, o.worst_location, o.samples) == (0.1, (0.75, 0.0), 6)
        assert type(o.worst_location[0]) is float and o.passed


class TestEstimateChain:
    def test_all_links_pass(self, coarse_chain):
        assert [o.check_id for o in coarse_chain] == CHAIN_IDS
        for o in coarse_chain:
            assert o.passed, o
            assert o.samples == 99


class TestRenderers:
    """The command line renders these reports; see also tests/test_cli.py."""

    def test_jsonl_round_trip(self, capsys):
        assert main(["verify", "--grid-step", "0.01", "--format", "json"]) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert len(lines) == len(SUITE_IDS + LIMIT_IDS + CHAIN_IDS)
        parsed = [json.loads(line) for line in lines]
        assert [p["check_id"] for p in parsed] == SUITE_IDS + LIMIT_IDS + CHAIN_IDS
        assert all(p["passed"] for p in parsed)
        suite = run_inequality_suite(grid_step=0.01, seed=DEFAULT_SEED)
        assert parsed[:len(SUITE_IDS)] == [
            json.loads(json.dumps(dataclasses.asdict(o))) for o in suite
        ]
        # Re-serialization is idempotent.
        assert "".join(json.dumps(p) + "\n" for p in parsed) == text

    def test_outcomes_csv_header(self, capsys):
        assert main(["verify", "--grid-step", "0.01", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "check_id,passed,worst_margin,worst_location,samples"
        assert len(lines) == 1 + len(SUITE_IDS + LIMIT_IDS + CHAIN_IDS)

    def test_outcome_to_dict_tuple_location(self, capsys, monkeypatch):
        o = VerificationOutcome(
            check_id="x", passed=True, worst_margin=1.0,
            worst_location=(0.5, 0.25), samples=3, notes="",
        )
        monkeypatch.setattr(verify, "verify_pass", lambda **kwargs: [o])
        assert main(["verify", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["worst_location"] == [0.5, 0.25]
        assert main(["verify", "--format", "csv"]) == 0
        assert capsys.readouterr().out.split("\n")[1] == "x,true,1.0,(0.5 0.25),3"
