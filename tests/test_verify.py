"""Tests for the verification suites, the fuzzing harness, and how the
command line renders their reports."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference_values as ref
from sendov_lab import bounds, verify
from sendov_lab import polynomial as poly
from sendov_lab.cli import main
from sendov_lab.verify import (
    DEFAULT_SEED,
    FuzzReport,
    VerificationOutcome,
    check_extremal,
    fuzz_sendov,
    run_inequality_suite,
    verify_estimate_chain,
    verify_limits,
)

SUITE_IDS = [
    "bounds.mu2_root_residual",
    "bounds.mu_order_and_bounds",
    "bounds.mu_shape",
    "bounds.gamma_dominates_mu2",
    "bounds.gamma_dominates_mu1",
    "bounds.k_prime_gt_one",
    "bounds.log_k_prime_floor",
    "bounds.k2_log_floor",
    "bounds.lemma_log_bounds",
    "bounds.radical_gap",
    "bounds.d_contraction",
]

CHAIN_IDS = [
    "chain.n3_exact_le_estimate",
    "chain.n0_le_1280_over_a4",
    "chain.n1_le_max_324_over_a2",
    "chain.n2_le_max_5760_over_a2",
    "chain.thresholds_le_5760_over_a4",
    "chain.alpha_prime_le_32_over_a_log",
    "chain.log_k_prime_gt_min_branch",
    "chain.min_branch_ge_a3_floor",
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
        assert [o.check_id for o in coarse_suite] == SUITE_IDS
        for o in coarse_suite:
            assert o.passed, o
            assert o.worst_margin > 0.0

    def test_margin_reproducible_from_location(self, coarse_suite):
        by_id = {o.check_id: o for o in coarse_suite}
        o = by_id["bounds.gamma_dominates_mu2"]
        a = o.worst_location
        assert bounds.aux_params(a).gamma - bounds.mu2(a) == o.worst_margin
        o = by_id["bounds.radical_gap"]
        a = o.worst_location
        assert np.allclose(
            4.0 - math.sqrt(16.0 - 3.0 * a * a) - a * a / 10.0,
            o.worst_margin,
            rtol=1e-9,
            atol=0,
        )
        o = by_id["bounds.d_contraction"]
        a, x = o.worst_location
        d = bounds.d_function(a, a * (0.1 * a + 0.9), x)
        c = a * (0.1 * a + 0.9)
        assert min(1.0 - d, d - c / (1.0 + a)) == o.worst_margin

    def test_deterministic_bytes(self, coarse_suite):
        again = run_inequality_suite(grid_step=0.01, extra_random=20, seed=DEFAULT_SEED)
        # The repr holds every field's exact digits, as the rendered bytes do.
        assert repr(again) == repr(coarse_suite)

    def test_seed_changes_random_points_not_verdicts(self, coarse_suite):
        other = run_inequality_suite(grid_step=0.01, extra_random=20, seed=1)
        assert all(o.passed for o in other)
        assert other != coarse_suite

    def test_rejects_bad_grid_step(self):
        for bad in (0.5, 0.0, -1e-3, float("nan")):
            with pytest.raises(bounds.DomainError):
                run_inequality_suite(grid_step=bad)
        # Below 1e-5 the grid would not fit in memory, or 1/grid_step
        # would not round to an int.
        for suite in (run_inequality_suite, verify_estimate_chain):
            for bad in (5e-324, 1e-12, 9.99e-6):
                with pytest.raises(bounds.DomainError, match=r"must lie in \[1e-05, 0.01\]"):
                    suite(grid_step=bad)
        # True is an int to Python but not a count; numpy raised on it.
        for bad in (-1, True, 2.0):
            with pytest.raises(bounds.DomainError, match="extra_random"):
                run_inequality_suite(extra_random=bad)

    def test_rejects_extra_random_past_cap(self):
        # Rejected before any point is drawn: 10**7 points would need two
        # (points x 99) float64 arrays of about 8 GB each.
        for bad in (100_001, 10**7, np.int64(10**9)):
            with pytest.raises(
                bounds.DomainError, match=r"extra_random must be an integer in \[0, 100000\]"
            ):
                run_inequality_suite(extra_random=bad)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(bounds.DomainError, match="seed"):
            run_inequality_suite(grid_step=0.01, seed=seed)

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
        # The D-contraction screen keeps two float64 arrays (1099 x 99
        # values, 0.87 MB each); a Python float per sample held about 4.9 MB.
        run_inequality_suite()  # the first call also builds state that numpy keeps
        tracemalloc.start()
        try:
            run_inequality_suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6, peak

    def test_sample_counts(self, coarse_suite):
        by_id = {o.check_id: o for o in coarse_suite}
        grid_points = 99
        assert by_id["bounds.gamma_dominates_mu2"].samples == grid_points + 20
        assert by_id["bounds.lemma_log_bounds"].samples == 3000
        assert by_id["bounds.d_contraction"].samples == (grid_points + 20) * 99


def _libm_d_contraction(grid_step, extra_random, seed):
    """bounds.d_contraction's outcome from every sample's libm margin: each
    row of D filled with Python float powers (libm pow), then the first
    smallest margin over all samples."""
    grid = verify._grid(grid_step)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=extra_random)]).tolist()
    xs = [k * 0.01 for k in range(1, 100)]
    margins = np.empty((len(pts), len(xs)))
    for i, a in enumerate(pts):
        c = a * (0.1 * a + 0.9)
        first_base = 1.0 / (1.0 + a)
        second_base = (1.0 + c) / (1.0 + a)
        root = math.sqrt(1.0 + c * c - a * c)
        floor = c / (1.0 + a)
        row = [max(first_base ** x, second_base ** x * root ** (1.0 - x)) for x in xs]
        margins[i] = [min(1.0 - d, d - floor) for d in row]
    k = int(np.argmin(margins))
    ia, ix = divmod(k, len(xs))
    return float(margins.flat[k]), (pts[ia], xs[ix]), margins.size


class TestDContraction:
    """The screened check reports exactly what every libm sample gives."""

    @pytest.mark.parametrize(
        "grid_step, extra_random, seed",
        [(0.01, 20, DEFAULT_SEED), (1e-3, 100, DEFAULT_SEED), (1e-3, 100, 5)],
    )
    def test_outcome_equals_exhaustive_libm(self, grid_step, extra_random, seed):
        suite = run_inequality_suite(grid_step=grid_step, extra_random=extra_random, seed=seed)
        o = next(o for o in suite if o.check_id == "bounds.d_contraction")
        worst, location, samples = _libm_d_contraction(grid_step, extra_random, seed)
        assert o.worst_margin == worst
        assert o.worst_location == location
        assert o.samples == samples
        assert o.passed == (worst > 0.0)

    def test_outcome_survives_a_screen_off_by_its_tolerance(self, monkeypatch):
        # A screen that errs by up to 0.9 _SCREEN_TOL either way, as other
        # SIMD code might, still gives the exhaustive libm outcome.
        screen = bounds._d_screen

        def skewed(a, c, xs):
            d = screen(a, c, xs)
            d += 0.9 * bounds._SCREEN_TOL * np.cos(np.arange(d.size)).reshape(d.shape)
            return d

        monkeypatch.setattr(bounds, "_d_screen", skewed)
        suite = run_inequality_suite(grid_step=0.01, extra_random=20, seed=DEFAULT_SEED)
        o = next(o for o in suite if o.check_id == "bounds.d_contraction")
        worst, location, samples = _libm_d_contraction(0.01, 20, DEFAULT_SEED)
        assert (o.worst_margin, o.worst_location, o.samples) == (worst, location, samples)

    @staticmethod
    def _rule(screened, exact):
        calls = []

        def exact_at(i):
            calls.append(i)
            return exact[i]

        return verify._screened_min(np.array(screened), exact_at, 1e-12), calls

    def test_exact_order_beats_screened_order(self):
        # The screen ranks 1 below 2; the exact margins rank 2 first.
        exact = [0.5, 0.1 + 5e-13, 0.1 + 2e-13, 0.9]
        (i, worst), _ = self._rule([0.5, 0.1, 0.1 + 1e-13, 0.9], exact)
        assert (i, worst) == (2, exact[2])

    def test_exact_tie_goes_to_lower_index(self):
        exact = [0.5, 0.1 + 5e-13, 0.9, 0.1 + 5e-13]
        (i, worst), _ = self._rule([0.5, 0.1 + 1e-13, 0.9, 0.1], exact)
        assert (i, worst) == (1, exact[1])

    def test_far_samples_are_never_confirmed(self):
        screened = [0.1 + 3e-12, 0.1, 0.1 + 1.5e-12, 0.1 + 2.5e-12, 0.7]
        (i, worst), calls = self._rule(screened, screened)
        assert (i, worst) == (1, 0.1)
        assert calls == [1, 2]

    def test_non_finite_screened_values_are_confirmed(self):
        screened = [0.1, math.nan, 0.3, math.inf, -math.inf]
        exact = [0.1, 0.05, 0.3, 0.2, 0.4]
        (i, worst), calls = self._rule(screened, exact)
        assert (i, worst) == (1, 0.05)
        assert calls == [0, 1, 3, 4]


class TestWorkPerPass:
    """How much libm and confirm work a default verify pass does: a shared
    quantity mapped twice, or a screen drifting toward its tolerance, shows
    here before it shows in the timings."""

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
        assert (len(maps), sum(maps)) == (26, 26_376)

    @pytest.mark.parametrize("seed", [1, 5, DEFAULT_SEED])
    def test_d_contraction_confirms_one_sample(self, monkeypatch, seed):
        calls = []
        d_function = bounds.d_function

        def counted(a, c, x):
            calls.append((a, x))
            return d_function(a, c, x)

        monkeypatch.setattr(bounds, "d_function", counted)
        suite = run_inequality_suite(seed=seed)
        o = next(o for o in suite if o.check_id == "bounds.d_contraction")
        assert calls == [o.worst_location]


def _exact_mu2_residual(grid_step, extra_random, seed):
    """bounds.mu2_root_residual's outcome from every point's exact margin:
    scalar mu2 calls, each residual in Fraction arithmetic, rounded once,
    then the first smallest margin over all points."""
    grid = verify._grid(grid_step)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=extra_random)]).tolist()
    margins = []
    for a in pts:
        af, x = Fraction(a), Fraction(bounds.mu2(a))
        residual = af * af * x * x + (8 + 2 * af - af * af) * x - (7 + 2 * af)
        margins.append(1e-9 - float(abs(residual)))
    k = int(np.argmin(margins))
    return margins[k], pts[k], len(pts)


class TestMu2Residual:
    """The screened residual check reports exactly what every point's exact
    residual gives."""

    @pytest.mark.parametrize(
        "grid_step, extra_random, seed",
        [(0.01, 20, DEFAULT_SEED), (1e-3, 100, DEFAULT_SEED), (1e-3, 100, 5)],
    )
    def test_outcome_equals_exhaustive_exact(self, grid_step, extra_random, seed):
        suite = run_inequality_suite(grid_step=grid_step, extra_random=extra_random, seed=seed)
        o = next(o for o in suite if o.check_id == "bounds.mu2_root_residual")
        worst, location, samples = _exact_mu2_residual(grid_step, extra_random, seed)
        assert o.worst_margin == worst
        assert o.worst_location == location
        assert o.samples == samples
        assert o.passed == (worst > 0.0)

    def test_outcome_survives_a_screen_off_by_its_tolerance(self, monkeypatch):
        # A residual that errs by up to 0.9 of the screen's tolerance either
        # way still gives the exhaustive exact outcome.  mu2's own Newton
        # step keeps the true quadratic: only the screen is skewed.
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
        suite = run_inequality_suite(grid_step=0.01, extra_random=20, seed=DEFAULT_SEED)
        o = next(o for o in suite if o.check_id == "bounds.mu2_root_residual")
        worst, location, samples = _exact_mu2_residual(0.01, 20, DEFAULT_SEED)
        assert (o.worst_margin, o.worst_location, o.samples) == (worst, location, samples)


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


class TestEstimateChain:
    def test_all_links_pass(self, coarse_chain):
        assert [o.check_id for o in coarse_chain] == CHAIN_IDS
        for o in coarse_chain:
            assert o.passed, o
            assert o.samples == 99

    def test_end_to_end_margin_reproducible(self, coarse_chain):
        o = coarse_chain[-1]
        assert o.check_id == "chain.end_to_end"
        a = o.worst_location
        assert bounds.final_bound(a) - bounds.n3(a)[0] == o.worst_margin


class TestFuzz:
    def test_trivial_degree_two_cell(self):
        report = fuzz_sendov(0.5, 2, 50, seed=DEFAULT_SEED)
        assert report.violations == 0
        assert report.non_converged == 0
        assert report.trials == 50
        assert 0.0 < report.max_sendov_distance <= 1.0
        assert report.violation_instances == ()

    def test_deterministic(self):
        a = fuzz_sendov(0.3, 6, 25, seed=11)
        b = fuzz_sendov(0.3, 6, 25, seed=11)
        assert a == b
        assert repr(a) == repr(b)

    def test_trial_prefix_independent_of_total(self):
        # Per-trial generators mean the first k trials do not depend on how
        # many trials follow them.
        small = fuzz_sendov(0.5, 5, 10, seed=3)
        large = fuzz_sendov(0.5, 5, 40, seed=3)
        assert large.max_sendov_distance >= small.max_sendov_distance

    @pytest.mark.parametrize("a, degree, block", [
        (0.3, 2, 150), (0.7, 3, 150), (0.5, 17, None), (0.9, 64, None),
    ])
    def test_trial_result_independent_of_its_block(self, monkeypatch, a, degree, block):
        # A cell runs its trials through one kernel in blocks of rows; each
        # trial's bracket must be what critical_report gives it alone.  At
        # degrees 2 and 3 a block holds tens of thousands of rows, so the
        # block is shrunk there to keep the test short.
        if block is not None:
            monkeypatch.setattr(poly, "_block_rows", lambda g: block)
        seed = 5
        trials = int(2.1 * poly._block_rows(degree))
        others = np.empty((trials, degree - 1), dtype=complex)
        for index in range(trials):
            rng = np.random.default_rng([seed, index])
            radius = np.sqrt(rng.uniform(size=degree - 1))
            angle = rng.uniform(0.0, 2.0 * np.pi, size=degree - 1)
            others[index] = radius * np.exp(1j * angle)
        distance, half_width = poly.sendov_distances(a, others)
        alone = np.array([
            (rep.sendov_distance, rep.distance_radius)
            for rep in (
                poly.critical_report(poly.SendovInstance(a=a, other_zeros=tuple(row.tolist())))
                for row in others
            )
        ])
        differ = np.nonzero((distance != alone[:, 0]) | (half_width != alone[:, 1]))[0]
        assert differ.size == 0, f"{differ.size} of {trials} trials differ, first {differ[:5]}"
        report = fuzz_sendov(a, degree, trials, seed=seed)
        verdicts = poly.bracket_verdict(alone[:, 0], alone[:, 1], verify.VIOLATION_THRESHOLD)
        resolved = verdicts != "UNRESOLVED"
        assert report.violations == (verdicts == "FAIL").sum()
        assert report.non_converged == trials - resolved.sum()
        assert report.max_sendov_distance == alone[resolved, 0].max()

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("index", [0, 1, 2**32])
    def test_trial_entropy_words_give_the_documented_generator(self, seed, index):
        entropy = np.array(verify._words(seed) + verify._words(index), dtype=np.uint32)
        draws = np.random.default_rng(entropy).random(8)
        assert draws.tobytes() == np.random.default_rng([seed, index]).random(8).tobytes()

    def test_cell_of_many_blocks_gives_the_same_report(self, monkeypatch):
        whole = fuzz_sendov(0.4, 8, 300, seed=9)
        monkeypatch.setattr(poly, "_block_rows", lambda g: 7)
        assert fuzz_sendov(0.4, 8, 300, seed=9) == whole

    def test_cell_memory_does_not_grow_with_trials(self, monkeypatch):
        # Trials are drawn and checked one block at a time, so the peak
        # memory of a cell is that of one block.  Drawing the whole cell
        # first would hold about 1 MB more at 3000 trials.
        monkeypatch.setattr(poly, "_block_rows", lambda g: 50)

        def peak(trials):
            tracemalloc.start()
            try:
                fuzz_sendov(0.5, 8, trials, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the first call also builds state that numpy keeps
        small, large = peak(100), peak(3000)
        assert large < 1.5 * small, (small, large)

    def test_argument_validation(self):
        with pytest.raises(bounds.DomainError):
            fuzz_sendov(0.5, 1, 10)
        with pytest.raises(bounds.DomainError):
            fuzz_sendov(0.5, 201, 10)
        with pytest.raises(bounds.DomainError):
            fuzz_sendov(0.0, 4, 10)
        with pytest.raises(bounds.DomainError):
            fuzz_sendov(0.5, 4, 0)
        with pytest.raises(bounds.DomainError):
            fuzz_sendov(0.5, 4.0, 10)

    def test_numpy_integer_arguments_give_a_plain_report(self):
        report = fuzz_sendov(0.5, np.int64(4), np.int64(5), seed=np.int64(5))
        assert report == fuzz_sendov(0.5, 4, 5, seed=5)
        assert [type(v) for v in (report.degree, report.trials, report.seed)] == [int] * 3
        json.dumps(dataclasses.asdict(report))

    @pytest.mark.parametrize("seed", [-1, -(2**70), 2.0])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(bounds.DomainError, match="seed"):
            fuzz_sendov(0.5, 4, 10, seed=seed)


class TestExtremal:
    def test_worst_family_at_half_degree_five(self):
        rep = check_extremal(0.5, 5)
        assert np.allclose(rep.sendov_distance, ref.SENDOV_DIST_05_NEG_ROOTS, rtol=1e-12, atol=0)
        assert rep.converged

    def test_degree_two_closed_form(self):
        # Families are (z-a)(z-1), (z-a)(z+1), (z-a)z; worst midpoint
        # distance is (1+a)/2 from the z = -1 family.
        rep = check_extremal(0.5, 2)
        assert np.allclose(rep.sendov_distance, 0.75, rtol=1e-15, atol=0)

    def test_never_violates(self):
        for degree in (2, 3, 8, 17):
            for a in (0.1, 0.5, 0.9):
                rep = check_extremal(a, degree)
                assert rep.sendov_distance <= 1.0 + 1e-9


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

    def test_fuzz_csv_exact(self, capsys, monkeypatch):
        report = FuzzReport(
            a=0.5, degree=4, trials=10, max_sendov_distance=0.75,
            violations=0, seed=7, non_converged=0,
        )
        monkeypatch.setattr(verify, "fuzz_sendov", lambda *args, **kwargs: report)
        argv = ["fuzz", "--a", "0.5", "--degree", "4", "--trials", "10", "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "a,degree,trials,violations,max_distance,non_converged,seed\n"
            "0.5,4,10,0,0.75,0,7\n"
        )

    def test_outcome_to_dict_tuple_location(self, capsys, monkeypatch):
        o = VerificationOutcome(
            check_id="x", passed=True, worst_margin=1.0,
            worst_location=(0.5, 0.25), samples=3, notes="",
        )
        monkeypatch.setattr(verify, "run_inequality_suite", lambda **kwargs: [o])
        monkeypatch.setattr(verify, "verify_limits", lambda: [])
        monkeypatch.setattr(verify, "verify_estimate_chain", lambda **kwargs: [])
        assert main(["verify", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["worst_location"] == [0.5, 0.25]
        assert main(["verify", "--format", "csv"]) == 0
        assert capsys.readouterr().out.split("\n")[1] == "x,true,1.0,(0.5 0.25),3"
