"""Tests of the critical-point kernel (``polynomial``), its reports and its
fuzzing, and of the package's public names.  The root finder in ``roots``
is tested in ``tests/test_roots.py``; here it only builds inputs.
"""

import cmath
import dataclasses
import hashlib
import json
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
import sendov_lab
from conftest import complex_in_disk, families, load_tool
from sendov_lab import bounds
from sendov_lab import polynomial as poly
from sendov_lab.bounds import DEFAULT_SEED, DomainError
from sendov_lab.cli import main
from sendov_lab.polynomial import (
    CriticalPointReport,
    FuzzReport,
    SendovInstance,
    critical_report,
    fuzz_sendov,
)
from sendov_lab.roots import find_roots, from_roots


report_bytes = load_tool("kernel_agreement").report_bytes


# The true roots of Q for test_frozen_points_lie_at_the_rounding_floor's
# rows, by degree, as tools/make_reference_values.py prints them.
FROZEN_ROOTS = json.loads((Path(__file__).resolve().parent / "frozen_roots.json").read_text())


def _well_separated(zeros):
    return all(
        abs(zeros[i] - zeros[j]) >= 0.05
        for i in range(len(zeros))
        for j in range(i + 1, len(zeros))
    )

# Zero multiplicity m makes the derivative's root at that zero an
# (m-1)-fold critical point, which any coefficient-form finder resolves
# only to ~eps^(1/(m-1)); separated zeros keep critical points simple so
# the sharp tolerances below are meaningful.  Multiplicities get their own
# deterministic tests with multiplicity-aware tolerances.
separated_zero_lists = st.lists(complex_in_disk, min_size=1, max_size=7).filter(_well_separated)


def _gauss_lucas_excess(zeros, points):
    """How far the points reach past the half-planes that hold every zero.

    Gauss-Lucas puts each critical point in every half-plane that holds all
    the zeros.  The directions across and along each pair of distinct zeros
    include every edge normal of their convex hull, so a point that reaches
    no further than the zeros in each of them lies in the hull.
    """
    z = np.asarray(zeros, dtype=complex)
    d = (z[:, None] - z).ravel()
    # exp(i arg d), not d / |d|: the division overflows at a subnormal |d|.
    d = np.exp(1j * np.angle(d[d != 0]))
    u = np.concatenate([[1, 1j, -1, -1j], d, 1j * d]).conj()
    reach = np.asarray(points, dtype=complex)[:, None] * u
    return float((reach.real - (z[:, None] * u).real.max(axis=0)).max())


class TestPackageNames:
    def test_public_names_unchanged(self):
        assert sendov_lab.__all__ == [
            "AuxParams", "BoundBreakdown", "CriticalPointReport", "DEFAULT_SEED",
            "DomainError", "FuzzReport", "MeanBound", "Polynomial",
            "RootResult", "SendovInstance", "VerificationOutcome", "aux_params",
            "breakdown", "critical_report", "final_bound", "find_roots",
            "from_roots", "fuzz_sendov", "k_prime", "match_roots",
            "mean_upper_bound", "mu1", "mu2", "run_inequality_suite",
            "small_circle_bound", "verify_estimate_chain", "verify_limits", "__version__",
        ]
        fields = [f.name for f in dataclasses.fields(sendov_lab.RootResult)]
        assert fields == ["roots", "radii", "converged", "iterations"]


class TestSendovInstance:
    def test_json_round_trip_idempotent(self):
        inst = SendovInstance(a=0.5, other_zeros=(0.25 + 0.25j, -1.0, 0.9j))
        text = inst.to_json()
        again = SendovInstance.from_json(text)
        assert again == inst
        assert again.to_json() == text

    def test_degree_and_all_zeros(self):
        inst = SendovInstance(a=0.3, other_zeros=(0.1, -0.2j))
        assert inst.degree == 3
        assert inst.all_zeros() == (0.3 + 0j, 0.1 + 0j, -0.2j)

    def test_boundary_modulus_allowed(self):
        inst = SendovInstance(a=0.5, other_zeros=(cmath.exp(0.7j),))
        assert inst.degree == 2


class TestCriticalReport:
    @given(separated_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, zeros, a):
        inst = SendovInstance(a=a, other_zeros=tuple(zeros))
        conj = SendovInstance(a=a, other_zeros=tuple(z.conjugate() for z in zeros))
        rep, rep_c = critical_report(inst), critical_report(conj)
        assert np.allclose(rep.sendov_distance, rep_c.sendov_distance, rtol=1e-9, atol=1e-12)
        assert np.allclose(rep.mean_real_part, rep_c.mean_real_part, rtol=1e-9, atol=1e-12)

    @given(separated_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    # Zeros a subnormal distance from a.
    @example(zeros=[0.5 + 2.225073858507203e-309j], a=0.5)
    @example(zeros=[0.5 + 5e-324j], a=0.5)
    @settings(max_examples=60, deadline=None)
    def test_gauss_lucas_containment(self, zeros, a):
        inst = SendovInstance(a=a, other_zeros=tuple(zeros))
        rep = critical_report(inst)
        if not rep.converged:
            return
        assert _gauss_lucas_excess(inst.all_zeros(), rep.critical_points) <= 1e-7

    def test_gauss_lucas_with_multiple_zeros(self):
        # A triple zero gives the derivative a double root, resolvable only
        # to ~sqrt(eps); found by hypothesis before the separated-zeros
        # strategy existed, frozen here with the honest tolerance.
        inst = SendovInstance(
            a=0.45609108669393494,
            other_zeros=(0.5 + 0j, 0.625 + 0j, 0.625 + 0j, 0.625 + 0j),
        )
        rep = critical_report(inst)
        assert rep.converged
        assert _gauss_lucas_excess(inst.all_zeros(), rep.critical_points) <= 1e-5

    def test_gauss_lucas_with_six_fold_zero(self):
        # Multiplicity 6 in the zero makes a 5-fold critical point: the
        # computed cluster spreads like eps^(1/5) ~ 1e-3 around it.
        inst = SendovInstance(a=0.5, other_zeros=((0.3 + 0.4j),) * 6)
        rep = critical_report(inst)
        assert rep.converged
        assert _gauss_lucas_excess(inst.all_zeros(), rep.critical_points) <= 1e-2

    @given(st.lists(complex_in_disk, min_size=1, max_size=7), st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_mean_matches_coefficient_trace(self, zeros, a):
        # No separation needed: the mean is linear in the zeros and immune
        # to critical-point splitting.
        # Sum of zeros = -c_{n-1}/c_n, so the mean needs no root finding.
        inst = SendovInstance(a=a, other_zeros=tuple(zeros))
        rep = critical_report(inst)
        expected = (a + sum(z.real for z in zeros)) / inst.degree
        assert np.allclose(rep.mean_real_part, expected, rtol=1e-12, atol=1e-12)


def _structured_zeros(degree):
    """The other zeros of (z-a)(z^m - 1), (z-a)(z^m + 1) and (z-a) z^m, m = degree - 1."""
    m = degree - 1
    return [tuple(families.circle(m, turn).tolist()) for turn in (0.0, math.pi)] + [(0j,) * m]


class TestExtremal:
    def test_degree_two_closed_form(self):
        # Families are (z-a)(z-1), (z-a)(z+1), (z-a)z; worst midpoint
        # distance is (1+a)/2 from the z = -1 family.
        distances = [critical_report(SendovInstance(0.5, zeros)).sendov_distance
                     for zeros in _structured_zeros(2)]
        assert np.allclose(max(distances), 0.75, rtol=1e-15, atol=0)

    def test_never_violates(self):
        for degree in (2, 3, 8, 17):
            for a in (0.1, 0.5, 0.9):
                for zeros in _structured_zeros(degree):
                    rep = critical_report(SendovInstance(a, zeros))
                    assert rep.sendov_distance <= 1.0 + 1e-9


multiplicity_zero_lists = st.lists(
    st.tuples(complex_in_disk, st.integers(min_value=1, max_value=3)),
    min_size=2, max_size=7,
).filter(lambda zs: _well_separated([z for z, _ in zs]))


# (distance, radius, verdict at threshold 1.0): a bracket rules only when
# the whole of [distance - radius, distance + radius] lies on one side.
BRACKETS = [
    (0.9, 0.05, "PASS"), (1.1, 0.05, "FAIL"), (0.98, 0.05, "UNRESOLVED"),
    (1.02, 0.05, "UNRESOLVED"), (0.5, float("inf"), "UNRESOLVED"), (0.5, 1e-12, "PASS"),
]
# (a, two zeros about 2e-5 apart).
TIGHT_PAIRS = [
    (0.6356051866396851, (-0.5569498201504334 + 0.6709579856690978j,
                          -0.5569476262478652 + 0.6709776624485464j)),
    (0.43488594609300407, (-0.2430322689513025 - 0.2665345899540236j,
                           -0.24303379100304126 - 0.2665292627339832j)),
]


class TestCertifiedCriticalPoints:
    @pytest.mark.parametrize("sign, expected", [(1, 0.0060334), (-1, 0.0122187)])
    def test_unit_circle_degree_200(self, sign, expected):
        # (z - 0.99)(z^199 - sign): the coefficients of P reach 6e29 here.
        a, m = 0.99, 199
        inst = SendovInstance(a, tuple(families.circle(m, 0.0 if sign == 1 else math.pi).tolist()))
        rep = critical_report(inst)
        # Estimates from the trinomial P' = (m+1) z^m - m a z^(m-1) - sign,
        # refined against the binary64 zeros the report was given.
        trinomial = np.zeros(m + 1, dtype=complex)
        trinomial[:2] = (m + 1, -m * a)
        trinomial[-1] = -sign
        estimates = np.roots(trinomial)
        near = estimates[np.abs(estimates - a) <= np.abs(estimates - a).min() + 1e-4]
        reference = float(min(abs(exact.newton(inst.all_zeros(), w, 30) - a) for w in near))
        assert math.isclose(reference, expected, rel_tol=1e-5)
        assert rep.converged and rep.verdict(1.0 + 1e-9) == "PASS"
        assert abs(rep.sendov_distance - reference) <= 1e-10
        assert abs(rep.sendov_distance - reference) <= rep.distance_radius

    @given(multiplicity_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    # A triple zero, which gives P' a double root; and a six-fold zero,
    # whose 5-fold critical point a coefficient-form finder spreads by ~1e-3.
    @example([(0.5 + 0j, 1), (0.625 + 0j, 3)], 0.45609108669393494)
    @example([(0.3 + 0.4j, 6)], 0.5)
    @settings(max_examples=40, deadline=None)
    def test_true_critical_points_lie_in_the_discs(self, grouped, a):
        zeros = tuple(z for z, k in grouped for _ in range(k))
        inst = SendovInstance(a=a, other_zeros=zeros)
        rep = critical_report(inst)
        assert rep.converged
        assert len(rep.critical_points) == inst.degree - 1
        truth = exact.critical_points(inst.all_zeros())
        with mpmath.workdps(exact.DPS):
            for x in truth:
                assert any(abs(x - w) <= r for w, r in zip(rep.critical_points, rep.radii)), (x, rep)
            assert abs(rep.sendov_distance - min(abs(x - a) for x in truth)) <= rep.distance_radius

    def test_verdict_needs_the_whole_bracket(self):
        # The discs hold whether or not the iteration settled, so converged
        # does not change a verdict.
        for distance, radius, expected in BRACKETS:
            for converged in (True, False):
                rep = CriticalPointReport((), distance, 0.0, (), radius, converged)
                assert rep.verdict(1.0) == expected


def _disk_block(rows, degree):
    """(a, rows of degree - 1 other zeros in the unit disk), seeded by the block's shape."""
    return 0.4, families.disk(np.random.default_rng([0x48414C46, rows, degree]), (rows, degree - 1))


class TestSendovDistances:
    def test_subnormal_gap_rows_give_no_warning_in_a_block(self):
        # Rows 3, 9 and 15 of a 20-row block hold two zeros a subnormal
        # distance apart, whose reciprocals overflow: the stages' own
        # np.errstate blocks keep the kernel quiet, every row PASSes, and
        # each row's pair is critical_report's.
        a, others = _disk_block(20, 64)
        others[[3, 9, 15], :2] = [[0.5, complex(0.5, 2.2250738585e-313)], [1e-310, 2e-310],
                                  [5e-324, 1e-323]]
        alone = [critical_report(SendovInstance(a, tuple(row.tolist()))) for row in others]
        expected = (np.array([rep.sendov_distance for rep in alone]).tobytes()
                    + np.array([rep.distance_radius for rep in alone]).tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distance, radius = poly.sendov_distances(a, others)
        assert distance.tobytes() + radius.tobytes() == expected
        assert (poly.bracket_verdict(distance, radius, poly.VIOLATION_THRESHOLD) == "PASS").all()

    def test_no_call_starts_a_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        a, others = _disk_block(65, 64)
        poly.sendov_distances(a, others)
        poly.sendov_distances(a, _disk_block(2, 200)[1])
        _, row = _disk_block(1, 200)
        critical_report(SendovInstance(a, tuple(row[0].tolist())))

    def test_bracket_verdict_on_arrays(self):
        # The array rule agrees with a report's verdict entry by entry.
        distance, radius, expected = zip(*BRACKETS)
        verdicts = poly.bracket_verdict(np.array(distance), np.array(radius), 1.0)
        assert verdicts.tolist() == list(expected)


class TestFuzz:
    def test_trivial_degree_two_cell(self):
        report = fuzz_sendov(0.5, 2, 50, seed=DEFAULT_SEED)
        assert report.violations == 0
        assert report.non_converged == 0
        assert report.trials == 50
        assert 0.0 < report.max_sendov_distance <= 1.0
        assert report.violation_instances == ()

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
            others[index] = families.disk(np.random.default_rng([seed, index]), degree - 1)
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
        verdicts = poly.bracket_verdict(alone[:, 0], alone[:, 1], poly.VIOLATION_THRESHOLD)
        resolved = verdicts != "UNRESOLVED"
        assert report.violations == (verdicts == "FAIL").sum()
        assert report.non_converged == trials - resolved.sum()
        assert report.max_sendov_distance == alone[resolved, 0].max()

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("index", [0, 1, 2**32])
    def test_trial_entropy_words_give_the_documented_generator(self, seed, index):
        entropy = np.array(poly._words(seed) + poly._words(index), dtype=np.uint32)
        draws = np.random.default_rng(entropy).random(8)
        assert draws.tobytes() == np.random.default_rng([seed, index]).random(8).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_trial_draws_come_from_seed_and_index(self, monkeypatch, seed):
        # Trial index draws m radius and then m angle uniforms from
        # default_rng([seed, index]), in blocks of 2 rows here.
        degree, trials = 6, 5
        m = degree - 1
        rows = []
        sendov_distances = poly.sendov_distances

        def record(a, others):
            rows.extend(others.copy())
            return sendov_distances(a, others)

        monkeypatch.setattr(poly, "_block_rows", lambda g: 2)
        monkeypatch.setattr(poly, "sendov_distances", record)
        fuzz_sendov(0.5, degree, trials, seed=seed)
        assert len(rows) == trials
        for index, row in enumerate(rows):
            expected = families.disk(np.random.default_rng([seed, index]), m)
            assert row.tobytes() == expected.tobytes(), index

    def test_violating_trial_is_kept_and_fails_the_command(self, monkeypatch, capsys):
        # One trial of the cell's one block put at distance 1.5 with a zero
        # half-width: a resolved FAIL, so the report counts it and keeps the
        # trial's instance as JSON, and `fuzz` exits 1.
        degree, trials, seed, bad = 6, 5, 7, 3
        m = degree - 1
        sendov_distances = poly.sendov_distances

        def one_violation(a, others):
            distance, radius = sendov_distances(a, others)
            distance[bad], radius[bad] = 1.5, 0.0
            return distance, radius

        monkeypatch.setattr(poly, "sendov_distances", one_violation)
        report = fuzz_sendov(0.5, degree, trials, seed=seed)
        assert (report.violations, report.max_sendov_distance) == (1, 1.5)
        (kept,) = report.violation_instances
        instance = poly.SendovInstance.from_json(kept)
        expected = families.disk(np.random.default_rng([seed, bad]), m)
        assert instance.a == 0.5
        assert np.array(instance.other_zeros).tobytes() == expected.tobytes()

        assert main(["fuzz", "--a", "0.5", "--degree", "6", "--trials", "5", "--seed", "7"]) == 1
        assert "\nviolation_instances  1\n" in capsys.readouterr().out

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

    def test_fuzz_csv_exact(self, capsys, monkeypatch):
        report = FuzzReport(
            a=0.5, degree=4, trials=10, max_sendov_distance=0.75,
            violations=0, seed=7, non_converged=0,
        )
        monkeypatch.setattr(poly, "fuzz_sendov", lambda *args, **kwargs: report)
        argv = ["fuzz", "--a", "0.5", "--degree", "4", "--trials", "10", "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "a,degree,trials,violations,max_distance,non_converged,seed\n"
            "0.5,4,10,0,0.75,0,7\n"
        )


# SHA-256 of the kernel's output on families.pinned_rows: sendov_distances'
# (distance, radius) bytes, and every row's critical_report points and radii.
KERNEL_DIGESTS = {
    3: ("72ec38fb4738263706e3da6756d50d5c634297f254abdea5c99bd25aadbea318",
        "7807777426940bf5b242092900405fcc0b2646e4669bcbf59a4eb6f7204fbdd3"),
    8: ("cc23006b4f7d8f282077becb31de81d35626b97c7d956a88cd31a9115798aead",
        "8cc9be1a00c92a291adb2fa3a35555ab49abf725b1c0e8cd2a20401b00e44ce0"),
    17: ("43e91398589e3cc2b580522a8b83523922fc2c95c94b92a02314e9ed3e390ed6",
         "b274ee211d4da27c1e027f38ec5b5842150c50286b74bd965e7f477db770b8de"),
    64: ("15c90bc5b981a225a5a52717b8e68cd44ec4b5c5601de75d20f4d3d790b13863",
         "a0a984229e4e767fc4ac2089278aee48430745ab5184f48d95eda1dee081d349"),
    200: ("3598193b1d89acf338664c1757f5c08a09643ecb7bd2d3b139a28082b2c35a18",
          "20b69b5b1fc71e952ddbdaa9a9e71ff8630eb281d69fdae3e94765ccc6951c67"),
}


class TestPinnedKernelBytes:
    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_kernel_output_matches_digest(self, degree):
        a, rows = families.pinned_rows(degree)
        distance, radius = poly.sendov_distances(a, rows)
        reports = hashlib.sha256()
        for row in rows:
            rep = critical_report(SendovInstance(a=a, other_zeros=tuple(row.tolist())))
            reports.update(np.array(rep.critical_points, dtype=complex).tobytes())
            reports.update(np.array(rep.radii).tobytes())
        digests = (
            hashlib.sha256(distance.tobytes() + radius.tobytes()).hexdigest(),
            reports.hexdigest(),
        )
        assert digests == KERNEL_DIGESTS[degree]


def _full_matrix_starts(zeta, k):
    """(starts, crowded) by the second-order step k/(F + k T/F) and the
    crowded rule over every pair of steps, with np.tril on the whole matrix:
    the reference for ``_starts``."""
    rows, g = zeta.shape
    m = g - 1
    with np.errstate(all="ignore"):
        gaps = np.reciprocal(zeta[:, :, None] - zeta[:, None, :])
        gaps[:, np.arange(g), np.arange(g)] = 0.0
        f = (gaps * k[:, None, :]).sum(axis=-1)
        t = (gaps * k[:, None, :] * gaps).sum(axis=-1)
        steps = k / (f + k * t / f)
        steps[~np.isfinite(steps) | (steps == 0.0)] = np.nan
        kept = np.ones((rows, g), dtype=bool)
        kept[np.arange(rows), np.argmax(np.abs(steps), axis=-1)] = False
        near = (zeta - steps)[kept].reshape(rows, m)
        reach = np.maximum(
            1e-6 * np.abs(steps)[kept].reshape(rows, m), 4.0 * poly._U * np.abs(near)
        )
        crowded = np.abs(near[:, :, None] - near[:, None, :]) <= reach[:, :, None]
    crowded = np.tril(crowded, -1).any(axis=-1)
    center = (k * zeta).sum(axis=-1) / k.sum(axis=-1)
    radius = np.abs(zeta - center[:, None]).max(axis=-1)
    angles = 2.0 * np.pi * np.arange(m) / m + poly._ANGULAR_OFFSET
    circle = center[:, None] + radius[:, None] * np.exp(1j * angles)
    return np.where(np.isfinite(near) & ~crowded, near, circle), crowded


def _every_point_bracket(a, repeated, free, free_radii, zeta, k):
    """(distance, half-width) with the reach of every free point taken, each
    in a row of its own (its Newton radius from ``_inclusion_radii``, or for
    g <= 2 its own radius), and the least of dist + reach over every point
    used, with reach 0 at a repeated zero: the reference for
    ``_distance_bracket``."""
    rows, m = free.shape
    reach = free_radii if zeta.shape[-1] <= 2 else poly._inclusion_radii(
        free.reshape(-1, 1), np.repeat(zeta, m, axis=0), np.repeat(k, m, axis=0))[1].reshape(rows, m)
    points = np.concatenate([repeated, free], axis=-1)
    radii = np.concatenate([np.zeros(repeated.shape), free_radii], axis=-1)
    reach = np.concatenate([np.zeros(repeated.shape), reach], axis=-1)
    dist = np.abs(points - a[:, None])
    with np.errstate(invalid="ignore"):
        upper = (dist * (1.0 + 4.0 * poly._U) + reach).min(axis=-1)
        lower = np.maximum(dist * (1.0 - 4.0 * poly._U) - radii, 0.0).min(axis=-1)
    nearest = dist.min(axis=-1)
    return nearest, np.maximum(upper - nearest, nearest - lower) + 4.0 * poly._U * upper


# case: (a, rows of other zeros, then what the rows exercise as
# reference_report counts it: rows whose starts the crowded rule moves, and
# points a subnormal distance from a zero; then the rows that do not PASS;
# last, each row's exact Sendov distance, as a value or as
# exact.sendov_distance, and the largest half-width a row may report, each
# None where nothing is pinned).
# A new single-row test of the kernel becomes a case here.
_, A_CLUSTER, CLUSTER = families.rows(8, 2)[-1]
_, A_CLUSTER_90, CLUSTER_90 = families.rows(90, 30)[-1]
_, A_CLUSTER_200, CLUSTER_200 = families.rows(200, 2)[-1]
CONTRACT_ROWS = {
    **{f"pinned-{degree}": (*families.pinned_rows(degree), crowded, 0, 0, None, None)
       for degree, crowded in zip(KERNEL_DIGESTS, (3, 1, 0, 0, 0))},
    # Blocks of disk rows, whose pairs must not depend on the block.
    **{f"disk-{rows}x{degree}": (*_disk_block(rows, degree), 0, 0, 0, None, None)
       for rows, degree in [(20, 64), (2, 200), (20, 32)]},
    # Rows with repeated zeros share a block with a row of distinct zeros.
    "repeated-zeros": (0.3, [[0.3, 0.5j, -0.5], [0.2, 0.2, 0.9j], [0.1 + 0.1j, -0.4, 0.6j],
                             [0.7j, 0.7j, 0.7j], [-0.2 - 0.6j, 0.8, -0.2 - 0.6j]],
                       0, 0, 0, exact.sendov_distance, None),
    # Every zero at a, and a repeated a: exact points at distance 0.
    "every-zero-at-a": (0.5, [(0.5, 0.5), (0.5, 0.1)], 0, 0, 0, 0, 0.0),
    "repeated-a": (0.3, [(0.5j, 0.3, -0.7, 0.3)], 0, 0, 0, 0, 0.0),
    # Two zeros: the one critical point is the midpoint.
    "midpoint": (0.9, [(-1.0,)], 0, 0, 0, (Fraction(0.9) + 1) / 2, None),
    # (z - a) z^m: 0 is an (m-1)-fold critical point, and m a/(m + 1) the last.
    **{f"origin-{a}-{m}": (a, [(0j,) * m], 0, 0, 0, Fraction(a) / (m + 1), 1e-15)
       for a, m in [(0.5, 4), (0.5, 127), (0.5, 199), (0.37, 127), (0.37, 199)]},
    # z^4 = 1 and z^4 = -1 at a = 1/2.
    "unity-4": (0.5, [[1j ** k for k in range(4)]], 0, 0, 0, exact.sendov_distance, 1e-13),
    "minus-unity-4": (0.5, [families.circle(4, math.pi)], 0, 0, 0, exact.sendov_distance, 1e-13),
    # 1/(0 - 1e-308) + 1/(0 - 1.05e-308) overflows in its real part alone;
    # 1.0 * S then has a NaN imaginary part, and S + S would not.
    "gap-sum-past-binary64": (0.5, [(0j, 1e-308, 1.05e-308)], 0, 0, 0, None, None),
    # Zeros 2e-5 apart: the steps from both land on the pair's one critical point.
    **{f"tight-pair-{a:.2f}": (a, [zeros], 1, 0, 0, exact.sendov_distance, None)
       for a, zeros in TIGHT_PAIRS},
    # Five zeros of spread 1e-9, two of them 1e-13 apart: without the tight
    # pair no start in such a cluster is crowded.
    "cluster-1e-9-pair-1e-13": (0.6, [0.3 - 0.2j + 1e-9 * np.array(
        [0.5, 0.5 + 1e-4, -0.4 + 0.3j, 0.1 - 0.6j, -0.7j])], 1, 0, 0, None, None),
    # Conjugate zeros give steps with the same real part exactly, but
    # imaginary parts far more than 1e-6 of a step apart.
    "conjugate-pair": (0.9, [(0.1 + 0.5j, 0.1 - 0.5j)], 0, 0, 0, exact.sendov_distance, None),
    # A zero 8e-13 from a: the pair's starts lie one ulp apart, where 1e-6 of
    # their steps is 4e-19; only the 4u floor finds them crowded.
    "crowded-floor": (0.9167938890820101, [(0.9167938890811962 + 2.2065812524919434e-13j,
                                            0.004242042995801971 + 0.8883383887593382j)],
                      1, 0, 0, exact.sendov_distance, None),
    # A zero 4.1e-14 from a; two zeros within 4e-12 of a: steps far below
    # 1e-13, whose points must still part.
    "tight-pair-at-a": (0.5989060069822403, [(0.5989060069822073 - 2.4140235746681387e-14j,
                                              -0.9037225893838114 - 0.21361327858733783j,
                                              -0.6050448140385332 + 0.3221081468771404j,
                                              0.013008066243261089 + 0.2762881009318874j,
                                              0.06513850961545585 + 0.21062142428989847j)],
                        1, 0, 0, exact.sendov_distance, None),
    "zeros-crowding-a": (0.7285545647362529, [(0.7285545647428764 + 3.8478615055794106e-12j,
                                               0.7285545647362822 + 4.4055559975682115e-14j,
                                               0.5939449926263944 + 0.192035958833384j)],
                         1, 0, 0, exact.sendov_distance, None),
    # Near-extremal rows at eps 1e-12, whose radii f's rounding makes wide
    # (degree 64 read 0.380 +- 120 before the Newton radius), and clusters
    # of spread 1e-15: a degree-90 row with two points on one float, whose
    # radii are inf, and a degree-200 row with no point near its nearest
    # critical point (0.0035487), whose lower end is 0: d +- d straddles 1.
    # At degree 9 the upper end comes from a point other than the nearest:
    # 8.961e-4, where the nearest alone gives 8.963e-4.
    **{f"unity-{degree}": (1.0 - 1e-12, [families.near_extremal(degree, 1e-12)[1]], 0, 0, 0,
                           None, width)
       for degree, width in [(9, None), (23, None), (28, None), (64, 0.381)]},
    "cluster-1e-15": (A_CLUSTER, [CLUSTER], 1, 0, 0, None, None),
    "cluster-1e-15-deg90": (A_CLUSTER_90, [CLUSTER_90], 1, 0, 0, None, None),
    "cluster-1e-15-deg200": (A_CLUSTER_200, [CLUSTER_200], 1, 0, 1, None, 0.541),
    # A real polynomial whose two critical points are real: its starts are
    # exact conjugates, and so stay its points, which never reach both.
    "conjugate-pair-real-points": (0.9, [(0.1 + 0.2j, 0.1 - 0.2j)], 0, 0, 1,
                                   exact.sendov_distance, None),
    # a one ulp below the zero 1: the point 7.7e-34 from that zero has
    # |S| >= |f'/f| though |S + f'/f| is about 1.8e16, so the Newton radius,
    # which drops their phase, is inf where the exact one is 1.11e-16.  The
    # upper end falls to the other point, 4/3 away: UNRESOLVED, not mended.
    "a-one-ulp-below-a-zero": (1 - 2**-53, [(1.0, -1.0)], 1, 0, 1, exact.sendov_distance, 1.34),
    # Zeros a subnormal distance apart: 1/(w - zeta) overflows at the point
    # between two of them, and the point of the first row lies on the zero
    # a.  Six of them put 6a/7, to within 1e-309, a/7 from a.
    "subnormal-gap-2.2e-313": (0.5, [(0j, 0.5 + 2.2250738585e-313j)], 0, 0, 0,
                               exact.sendov_distance, 5e-15),
    "subnormal-gap-1e-310": (0.5, [(1e-310, 2e-310)], 0, 1, 0, exact.sendov_distance, 5e-15),
    "subnormal-gap-5e-324": (0.5, [(5e-324, 1e-323)], 0, 1, 0, exact.sendov_distance, 5e-15),
    "subnormal-gap-k-1e-310": (0.5, [[k * 1e-310 for k in range(1, 7)]], 0, 0, 0, 0.5 / 7, 5e-15),
}


def reference_report(a, others):
    """(reports, mechanism) for the instances (a, row), one per row of
    ``others``, from the kernel's stages in their forms without shortcuts:
    ``_full_matrix_starts``, ``_sweeps`` of ``_aberth_corrections`` and
    ``_inclusion_radii`` with the multiplicities given, and
    ``_every_point_bracket``, on the rows with g distinct zeros at once for
    each g.  Rows with g <= 2 keep ``_free_points``' closed form, a rule and
    not a shortcut.  mechanism sums CONTRACT_ROWS' first two counts."""
    zeros = np.concatenate([np.full((len(others), 1), complex(a)), others], axis=-1)
    split = [np.unique(row, return_counts=True) for row in zeros]
    reports, mechanism = [None] * len(zeros), np.zeros(2, dtype=int)
    for g in {zeta.size for zeta, _ in split}:
        rows = [t for t, (zeta, _) in enumerate(split) if zeta.size == g]
        zeta = np.array([split[t][0] for t in rows])
        k = np.array([split[t][1] for t in rows]) * 1.0
        repeated = np.array([np.repeat(z, c - 1) for z, c in (split[t] for t in rows)])
        crowded = np.zeros((len(rows), 1), dtype=bool)
        if g <= 2:
            free, radii, _, settled = poly._free_points(zeta, k)
        else:
            starts, crowded = _full_matrix_starts(zeta, k)
            free, settled, _ = poly._sweeps(starts, zeta, lambda w, at: poly._aberth_corrections(
                w, zeta, k, at), 1.0 + np.abs(zeta).max(axis=-1))
            radii = poly._inclusion_radii(free, zeta, k)[0]
        distance, half_width = _every_point_bracket(
            np.full(len(rows), a), repeated, free, radii, zeta, k)
        points = np.concatenate([repeated, free], axis=-1)
        radii = np.concatenate([np.zeros(repeated.shape), radii], axis=-1)
        least = np.abs(free[:, :, None] - zeta[:, None, :]).min(axis=-1, initial=np.inf)
        mechanism += [crowded.any(axis=-1).sum(),
                      ((0.0 < least) & (least < np.finfo(float).tiny)).sum()]
        for t, p, r, d, h, s in zip(rows, points, radii, distance, half_width, settled):
            order = np.lexsort((p.imag, p.real))
            reports[t] = CriticalPointReport(
                tuple(p[order].tolist()), float(d), sum(zeros[t].real.tolist()) / zeros.shape[-1],
                tuple(r[order].tolist()), float(h), bool(s) and bool(np.isfinite(r).all()),
            )
    return reports, mechanism


def _exactly(x):
    """A float, Fraction or mpmath mpf as a Fraction, with no rounding."""
    if isinstance(x, mpmath.mpf):
        man, exp = x.man_exp
        return Fraction(int(man)) * Fraction(2) ** exp
    return Fraction(x)


class TestContract:
    """critical_report and sendov_distances give ``reference_report``'s bytes
    on every row of CONTRACT_ROWS, read back from ``check``'s JSON, with no
    RuntimeWarning (pyproject.toml makes one fail the test); each row's
    bracket meets its conjugate's and the free bounds [L, U], and holds the
    row's exact distance; and the rows exercise and PASS as their columns
    say.  A test of one kernel stage or row retires only when a row here
    catches a mutation that it catches."""

    @pytest.mark.parametrize("case", list(CONTRACT_ROWS))
    def test_report_equals_the_reference(self, case):
        a, rows, *mechanism, truth, width = CONTRACT_ROWS[case]
        rows = np.array(rows, dtype=complex)
        references, exercised = reference_report(a, rows)
        # The rows and their conjugates share one block: no pair depends on it.
        distance, half_width = poly.sendov_distances(a, np.concatenate([rows, rows.conj()]))
        for t, (row, reference) in enumerate(zip(rows, references)):
            instance = SendovInstance.from_json(SendovInstance(a, tuple(row.tolist())).to_json())
            report = critical_report(instance)
            assert report_bytes(report) == report_bytes(reference), row
            assert (distance[t], half_width[t]) == (report.sendov_distance, report.distance_radius)
            assert width is None or report.distance_radius <= width
            if np.isinf(report.distance_radius):
                continue
            d, h = Fraction(report.sendov_distance), Fraction(report.distance_radius)
            lower, upper = map(_exactly, exact.free_bounds(a, row))
            assert d - h <= upper and lower <= d + h, (lower, upper)
            if truth is not None:
                assert abs(d - _exactly(truth(a, row) if callable(truth) else truth)) <= h
        (d, d_conj), (h, h_conj) = np.split(distance, 2), np.split(half_width, 2)
        assert (np.abs(d - d_conj) <= h + h_conj).all()
        verdicts = poly.bracket_verdict(d, h, poly.VIOLATION_THRESHOLD)
        assert [*exercised.tolist(), (verdicts != "PASS").sum()] == mechanism

    def test_report_bytes_see_every_field(self):
        # The contract and tools/kernel_agreement.py compare reports by
        # report_bytes: a field it left out would change unseen.
        report = critical_report(SendovInstance(0.5, (0.3 + 0.1j, -0.2)))
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            changed = (not value if isinstance(value, bool) else
                       tuple(z + 1 for z in value) if isinstance(value, tuple) else value + 1)
            altered = dataclasses.replace(report, **{field.name: changed})
            assert report_bytes(altered) != report_bytes(report), field.name


class TestKernelStages:
    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_frozen_points_lie_at_the_rounding_floor(self, degree):
        # A point frozen once its step is 1e-10 of scale sits within a few
        # roundings of its root, on the disk rows and in the clusters too,
        # where a point frozen while its neighbours still move can be left
        # 8 roundings off (1e-4 clusters at degree 64).  The roots are
        # frozen (see test_frozen_roots_match_their_generator); each point
        # is matched to its nearest, one to one.
        a, rows = families.pinned_rows(degree)
        zeta = np.sort(np.concatenate([np.full((6, 1), complex(a)), rows[:6]], axis=1), axis=1)
        free, *_, settled = poly._free_points(zeta, np.ones(zeta.shape))
        assert settled.all()
        for zeros, points, frozen in zip(zeta, free, FROZEN_ROOTS[str(degree)]):
            truth = np.array([complex(*z) for z in frozen])
            nearest = np.abs(points[:, None] - truth[None, :]).argmin(axis=1)
            assert sorted(nearest.tolist()) == list(range(truth.size))
            scale = 1.0 + np.abs(zeros).max()
            assert (np.abs(truth[nearest] - points) <= 4 * poly._U * scale).all()

    def test_frozen_roots_match_their_generator(self, capsys, monkeypatch):
        # The generator's 20-digit Newton, at degree 8, prints the frozen
        # roots exactly.  The tool may put src, tests and tools on the import path.
        monkeypatch.setattr(sys, "path", list(sys.path))
        load_tool("make_reference_values").print_frozen_roots(["8"])
        assert json.loads(capsys.readouterr().out) == {"8": FROZEN_ROOTS["8"]}

    @pytest.mark.parametrize("argv", [["x"], ["8", "2.5"], ["1"], ["0"], ["-3"]])
    def test_generator_rejects_a_bad_degree(self, capsys, argv):
        # A degree must be an integer of at least 2; anything else gets the
        # usage line and exit status 2 before any row is drawn.
        assert load_tool("make_reference_values").main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")

    def test_second_order_starts_save_evaluations(self, monkeypatch):
        # Points that _aberth_corrections evaluates, over all sweeps.  A
        # Newton step of Q from each zero gave 4.16 per point on this block
        # and 1161 (6 sweeps) on the circle row; the second-order step gives
        # 3.30 and 960 (5 sweeps).  The bounds lie halfway between.
        evaluated = []

        def counted(w, zeta, k, points):
            evaluated.append(points[0].size)
            return corrections(w, zeta, k, points)

        corrections = poly._aberth_corrections
        monkeypatch.setattr(poly, "_aberth_corrections", counted)
        others = families.disk(np.random.default_rng([0x53574545, 0]), (200, 63))
        poly.sendov_distances(0.5, others)
        assert sum(evaluated) / others.size <= 3.73
        evaluated.clear()
        circle = tuple(families.circle(199).tolist())
        critical_report(SendovInstance(a=0.5, other_zeros=circle))
        assert sum(evaluated) <= 1060

    @pytest.mark.parametrize("k", [None, (2.0, 1.0, 3.0, 1.0, 2.0)])
    def test_point_on_a_zero_takes_its_multiplicity(self, k):
        # On zeta_j, Q(zeta_j) = k_j prod_{l != j}(zeta_j - zeta_l): the
        # pole of f leaves W_i, and the radius stays finite.  Q'/Q there is
        # the limit S + f/k_j, so the Newton radius stays finite too, and
        # holds the exact one at the same float points.
        zeta = np.array([[0.5, -0.3 + 0.4j, 0.1 - 0.7j, -0.6 - 0.2j, 0.2 + 0.1j]])
        mult = np.ones(5) if k is None else np.array(k)
        w = np.array([[zeta[0, 2], 0.05 + 0.3j, -0.4 - 0.1j, 0.3 - 0.3j]])
        radii, newton = poly._inclusion_radii(w, zeta, None if k is None else mult[None])
        assert np.isfinite(radii).all() and np.isfinite(newton[0, 0])
        truth = exact.newton_radii(w[0], np.repeat(zeta[0], mult.astype(int)))
        assert all(r >= e for r, e in zip(newton[0].tolist(), truth))
        with mpmath.workdps(30):
            zs = [mpmath.mpc(z) for z in zeta[0]]
            ws = [mpmath.mpc(x) for x in w[0]]
            q = mult[2] * mpmath.fprod(abs(zs[2] - z) for z in zs[:2] + zs[3:])
            expected = 4 * q / (mult.sum() * mpmath.fprod(abs(ws[0] - x) for x in ws[1:]))
        assert expected <= radii[0, 0] <= expected * (1 + 1e-12)


class TestSweepBudget:
    def test_one_budget_ends_both_solvers(self, monkeypatch):
        # _sweeps ends every row at polynomial._MAX_SWEEPS, in the kernel and
        # in the finder alike: a budget of 3 cuts both short.
        a, rows = families.pinned_rows(17)
        inst = SendovInstance(a, tuple(rows[0].tolist()))
        wilkinson = from_roots(range(1, 11))
        assert critical_report(inst).converged
        assert find_roots(wilkinson).iterations > 3
        monkeypatch.setattr(poly, "_MAX_SWEEPS", 3)
        assert not critical_report(inst).converged
        assert find_roots(wilkinson).iterations == 3


class TestRadiusCertificate:
    """Every float radius of the kernel is at least the exact radius at the
    same float points, both radii that ``_inclusion_radii`` gives every
    point, the Weierstrass radius and the Newton radius that the bracket
    takes as reach: the rounding slack of ``poly._weierstrass_radii`` and
    the margins of ``_inclusion_radii`` on f, S and f' are checked against
    exact arithmetic, not against another float version.
    The finder's radii are checked so on the certified rows of
    ``FINDER_ROWS`` in ``tests/test_roots.py``."""

    @pytest.mark.parametrize("case", [f"{case}{radius}" for radius in ("", "-newton") for case in (
        "disk", "cluster-1e-9", "near-a-1e-12", "near-extremal", "subnormal-3", "subnormal-gap-5e-324")])
    def test_kernel_radii_hold_the_exact_radii(self, case):
        case, newton = case.removesuffix("-newton"), case.endswith("-newton")
        if case == "near-extremal":
            # a = 1 - 1e-12 and the 8th roots of unity other than 1: f
            # cancels from sum |1/(w - zeta)| down to rounding level.
            a, row = families.near_extremal(8, 1e-12)
        elif case == "subnormal-3":
            # A zero 2.2e-313 from a: the radius of the point at a falls
            # below 2^-1022, where exp rounds in units of 2^-1074.
            a, rows = families.pinned_rows(3)
            row = rows[9]
        elif case == "subnormal-gap-5e-324":
            # So does the radius of the point at 0.
            a, row = 0.5, np.array([5e-324, 1e-323])
        else:
            a, rows = families.pinned_rows(16)
            row = rows[{"disk": 0, "cluster-1e-9": 4, "near-a-1e-12": 8}[case]]
        zeta = np.unique(np.concatenate([[complex(a)], row]))
        assert zeta.size == row.size + 1
        free, radii, reach, _ = poly._free_points(zeta[None], np.ones((1, zeta.size)))
        if newton:
            radii, truth = reach[0], exact.newton_radii(free[0], zeta)
        else:
            radii, truth = radii[0], exact.critical_radii(free[0], zeta)
        assert all(r >= e for r, e in zip(radii.tolist(), truth))

    @pytest.mark.parametrize("rho", [0.3, 0.75])
    def test_newton_radius_holds_where_f_prime_cancels(self, rho):
        # The zeros rho and rho (-1/2 +- i fl(sqrt(3)/2)) sum to 0 in binary64,
        # so Q = P' = 3z^2 + sigma_2 and Q'(0) = 0: the exact Newton radius
        # at 0 is inf (about 1e45 at 60 digits), and f' there cancels to its
        # rounding.  Without f''s margin the float radius reads 26 (rho 0.75)
        # and 11 (rho 0.3).
        zeta = rho * np.array([1.0, -0.5 + 0.5j * math.sqrt(3.0), -0.5 - 0.5j * math.sqrt(3.0)])
        assert zeta.sum() == 0.0
        w = np.array([[0j, 0.1]])
        newton = poly._inclusion_radii(w, zeta[None], None)[1]
        assert all(r >= e for r, e in zip(newton[0].tolist(), exact.newton_radii(w[0], zeta)))

    @pytest.mark.parametrize("a, others", [
        (5e-324, (0j,)),         # a/2 = 2^-1075 is no float
        (5e-324, (0j, 0j)),      # 2a/3, beside the double zero at 0
        (1.5e-323, (1e-323j,)),  # (3 + 2i) 2^-1075
        (0.5, (0.3 + 0.1j,)),
    ])
    def test_closed_form_holds_the_exact_point(self, a, others):
        # Two distinct zeros zeta_1, zeta_2 of multiplicities k_1, k_2 have
        # the one critical point (k_1 zeta_2 + k_2 zeta_1)/n besides the
        # repeated zeros: its disc and the distance bracket must hold it, and
        # the true distance, in exact arithmetic.
        report = critical_report(SendovInstance(a, others))
        zeros = [complex(a), *map(complex, others)]
        (z1, k1), (z2, k2) = ((z, zeros.count(z)) for z in dict.fromkeys(zeros))
        n = k1 + k2
        true = [(k1 * Fraction(getattr(z2, part)) + k2 * Fraction(getattr(z1, part))) / n
                for part in ("real", "imag")]
        [(w, r)] = [(w, r) for w, r in zip(report.critical_points, report.radii) if r > 0]
        error = (Fraction(w.real) - true[0]) ** 2 + (Fraction(w.imag) - true[1]) ** 2
        assert error <= Fraction(r) ** 2
        squares = [(true[0] - Fraction(a)) ** 2 + true[1] ** 2]
        squares += [(Fraction(z.real) - Fraction(a)) ** 2 + Fraction(z.imag) ** 2
                    for z, k in ((z1, k1), (z2, k2)) if k > 1]
        d, h = Fraction(report.sendov_distance), Fraction(report.distance_radius)
        assert max(d - h, 0) ** 2 <= min(squares) <= (d + h) ** 2


class TestExactReference:
    """tests/exact.py, the truth the tests above check against, checked in
    turn against closed forms."""

    @pytest.mark.parametrize("a, m", [(0.75, 2), (0.5, 3), (0.5, 7)])
    def test_origin_family(self, a, m):
        # (z - a) z^m: 0, m - 1 times, and m a/(m + 1), exact in binary64 here.
        points = exact.critical_points((a,) + (0.0,) * m)
        assert points[:-1] == [0] * (m - 1)
        assert abs(points[-1] - m * a / (m + 1)) <= 1e-40
        assert abs(exact.sendov_distance(a, (0.0,) * m) - a / (m + 1)) <= 1e-40

    @pytest.mark.parametrize("a, zeros, expected", [
        (*pair, expected) for pair, expected in zip(TIGHT_PAIRS, (0.456117, 0.242811))
    ])
    def test_tight_pair_distances(self, a, zeros, expected):
        # The contract rows tight-pair-0.64 and -0.43 hold the kernel's
        # brackets to these.
        assert math.isclose(exact.sendov_distance(a, zeros), expected, rel_tol=1e-5)

    def test_double_zero(self):
        # (z - a)^2 (z - b): a and (a + 2b)/3.
        a, b = 0.25 + 0.5j, 0.25 - 0.25j
        points = exact.critical_points((a, a, b))
        assert points[0] == a
        assert abs(points[1] - (a + 2 * b) / 3) <= 1e-40

    def test_integer_roots_and_radii(self):
        p = from_roots(range(1, 11))
        assert all(abs(r - k) <= 1e-40 for r, k in zip(sorted(exact.roots(p), key=abs), range(1, 11)))
        assert exact.radii(range(1, 11), p) == [0] * 10
        # (z - 1)(z + 1): P'/2 = z, so the radius at w is |w|.
        assert exact.critical_radii([0.0], (1, -1)) == [0]
        assert exact.critical_radii([0.5], (1, -1)) == [0.5]

    def test_mu2_quadratic_at_one(self):
        # mu2(1) = 3 (sqrt(13) - 3)/2 is a root of x^2 + 9x - 9 rounded to
        # binary64, within an ulp of it; one exact Newton step from it leaves
        # the quadratic 0 to 1e-30.
        x = Fraction(bounds.mu2(1.0))
        f, df = exact.mu2_quadratic(1.0, x)
        assert (f, df) == (x * x + 9 * x - 9, 2 * x + 9)
        assert abs(f / df) <= math.ulp(float(x))
        assert abs(exact.mu2_quadratic(1.0, x - f / df)[0]) <= 1e-30

    def test_precision_is_left_as_found(self):
        exact.critical_points((0.5, 0.0, 0.0))
        exact.roots(from_roots((1.0, 2.0)))
        exact.critical_radii([0.5], (1, -1))
        exact.breakdown(0.5)
        exact.d_function(0.5, 0.25)
        exact.mean_bound(0.5, 10)
        assert mpmath.mpf(1) / 3 == 1 / 3

