"""Acceptance gate: eight criteria, one test and one reported line each.

Every test calls ``record_criterion`` so the run ends with a PASS/FAIL line
per criterion in the terminal summary, then asserts, so a failed criterion
fails the suite with the same message.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import exact
from conftest import families, record_criterion
from sendov_lab import bounds, polynomial, verify
from sendov_lab.bounds import DEFAULT_SEED
from sendov_lab.cli import main
from sendov_lab.roots import find_roots, from_roots, match_roots


def test_criterion_1_table_reproduction(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    start = time.perf_counter()
    code = main(["table", "--format", "json", "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    rows = [json.loads(line) for line in out_path.read_text().strip().split("\n")]

    worst_rel = 0.0
    for row in rows[1:]:  # a = 0.2 ... 0.9 against the printed column
        printed = float(row["printed_n"])
        worst_rel = max(worst_rel, abs(row["computed_n"] - printed) / printed)
    first = rows[0]
    first_rel = abs(first["computed_n"] - 3.4e11) / 3.4e11
    ok = (
        code == 0
        and len(rows) == 9
        and worst_rel <= 0.05
        and first["flag"] is True
        and not any(row["flag"] for row in rows[1:])
        and abs(first["computed_n"] - 3.17e11) / 3.17e11 <= 0.01
        and first_rel <= 0.10
        and elapsed < 1.0
    )
    detail = (
        f"a=0.2..0.9 within {worst_rel:.2%} of printed values (limit 5%); "
        f"a=0.1 computed {first['computed_n']:.6g} flagged vs 3.4e11 "
        f"({first_rel:.2%} <= 10%); {elapsed:.2f}s"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_endpoint_constants():
    start = time.perf_counter()
    closed = 3.0 * (math.sqrt(13.0) - 3.0) / 2.0
    rel = abs(bounds.mu2(1.0) - closed) / closed
    limit_outcomes = {o.check_id: o for o in verify.verify_limits()}
    mu1_dev = 1e-6 - limit_outcomes["limits.mu1_limit_richardson"].worst_margin
    mu2_dev = 1e-6 - limit_outcomes["limits.mu2_limit_richardson"].worst_margin
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-12 and mu1_dev <= 1e-6 and mu2_dev <= 1e-6 and elapsed < 1.0
    detail = (
        f"mu2(1) matches 3(sqrt(13)-3)/2 to {rel:.2e} rel (limit 1e-12); "
        f"extrapolated limits off 7/8 by {mu1_dev:.2e} (mu1) and {mu2_dev:.2e} (mu2), "
        f"limit 1e-6; {elapsed:.2f}s"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_inequality_suite():
    start = time.perf_counter()
    suite = verify.run_inequality_suite(grid_step=1e-3, extra_random=100, seed=DEFAULT_SEED)
    suite_s = time.perf_counter() - start
    chain = verify.verify_estimate_chain(grid_step=1e-3)
    elapsed = time.perf_counter() - start
    outcomes = suite + chain
    failed = [o.check_id for o in outcomes if not (o.passed and o.worst_margin > 0.0)]
    smallest = min(outcomes, key=lambda o: o.worst_margin)
    d_samples = next(o.samples for o in suite if o.check_id == "bounds.d_contraction")
    ok = not failed and elapsed < 30.0
    detail = (
        f"{len(outcomes)} grid checks all strictly positive at step 1e-3 "
        f"plus 100 random points; smallest margin {smallest.worst_margin:.3e} "
        f"({smallest.check_id}); {elapsed:.2f}s = inequality suite {suite_s:.3f}s "
        f"({d_samples} d_contraction samples) + estimate chain {elapsed - suite_s:.3f}s"
        + (f"; FAILED: {failed}" if failed else "")
    )
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_quadratic_residual():
    # Exact rational residuals of the mu2 quadratic at every grid point, in
    # both the cleared form that exact.mu2_quadratic returns and its monic
    # normalization (the harder target: dividing by a^2 inflates the
    # residual by ~1e6 at the left edge).
    worst_cleared = 0.0
    worst_monic = 0.0
    for k in range(1, 1000):
        a = k * 1e-3
        cleared, _ = exact.mu2_quadratic(a, bounds.mu2(a))
        worst_cleared = max(worst_cleared, abs(float(cleared)))
        worst_monic = max(worst_monic, abs(float(cleared / Fraction(a) ** 2)))
    ok = worst_cleared <= 1e-9 and worst_monic <= 1e-9
    detail = (
        f"mu2 quadratic residual over a = 0.001..0.999: cleared form "
        f"{worst_cleared:.3e}, monic form {worst_monic:.3e} (limit 1e-9)"
    )
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_root_finder_oracle():
    rng = np.random.default_rng(DEFAULT_SEED)
    start = time.perf_counter()
    worst = 0.0
    worst_case = None
    over_budget = 0
    n_converged = 0
    sweeps = 0
    worst_radius = 0.0
    for _ in range(500):
        degree = int(rng.integers(2, 51))
        roots = families.separated_disk(rng, degree)
        p = from_roots(roots)
        res = find_roots(p)
        n_converged += res.converged
        sweeps += res.iterations
        worst_radius = max(worst_radius, *res.radii)
        _, w = match_roots(res.roots, roots)
        if w > 1e-8:
            over_budget += 1
        # >= keeps a worst draw when every round trip is exact.
        if w >= worst:
            worst, worst_case = w, (roots, p, res)
    elapsed = time.perf_counter() - start

    # Attribute the worst draw by comparing against 60-digit roots of the
    # coefficients the finder consumes: the double-double expansion,
    # binary64 head + tail, summed exactly in mpmath.
    roots, p, res = worst_case
    truth = tuple(complex(r) for r in exact.roots(p))
    _, finder_err = match_roots(res.roots, truth)
    _, representation_err = match_roots(truth, roots)

    ok = worst <= 1e-8 and worst_radius <= 1e-8 and n_converged == 500 and elapsed < 60.0
    detail = (
        f"500 polynomials deg<=50: convergence {n_converged}/500, "
        f"round-trip worst {worst:.3e} (limit 1e-8, {over_budget} draws over), "
        f"worst inclusion radius {worst_radius:.3e} (limit 1e-8), "
        f"{sweeps} binary64 sweeps, "
        f"{elapsed:.1f}s; worst draw (degree {p.degree}) decomposes into "
        f"finder-vs-exact {finder_err:.3e} plus the shift of the exact roots "
        f"of the double-double (head + tail) coefficients "
        f"{representation_err:.3e}"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_mean_bound_oracle():
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_diff = 0.0
    worst_quarter_excess = -math.inf
    for _ in range(20):
        a = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 100001))
        mb = bounds.mean_upper_bound(a, n)
        delta = np.linspace(1e-12, a - 1e-12, 10**6)
        phi = delta / 2.0 + np.log(
            (1.0 + np.sqrt(1.0 + delta * delta - delta * a)) / (delta * (a - delta))
        ) / (delta * n)
        worst_diff = max(worst_diff, abs(float(np.nanmin(phi)) - mb.bound_inf))

        n_quarter = math.ceil(bounds.n0(a))
        quarter = bounds.mean_upper_bound(a, n_quarter).bound_at_quarter
        worst_quarter_excess = max(worst_quarter_excess, quarter - a / 4.0)
    ok = worst_diff <= 1e-9 and worst_quarter_excess <= 0.0
    detail = (
        f"20 random (a, n): infimum within {worst_diff:.3e} of 1e6-point scans "
        f"(limit 1e-9); at n = ceil(n0(a)) the delta = a/4 value stays below a/4 "
        f"by at least {-worst_quarter_excess:.3e}"
    )
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_fuzz_matrix():
    start = time.perf_counter()
    violations = 0
    non_converged = 0
    max_distance = 0.0
    cells = 0
    for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for degree in (2, 4, 8, 16, 32, 64):
            report = polynomial.fuzz_sendov(a, degree, 1000, seed=DEFAULT_SEED)
            violations += report.violations
            non_converged += report.non_converged
            max_distance = max(max_distance, report.max_sendov_distance)
            cells += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    detail = (
        f"{cells} cells x 1000 trials: {violations} violations, "
        f"max distance {max_distance:.6f}, {non_converged} non-converged trials, "
        f"{elapsed:.0f}s (limit 300s)"
    )
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_determinism(capsys, tmp_path):
    paths = [tmp_path / name for name in ("v1.jsonl", "v2.jsonl", "f1.csv", "f2.csv")]
    for path in paths[:2]:
        code = main(["verify", "--grid-step", "0.01", "--format", "json", "--out", str(path)])
        assert code == 0
    for path in paths[2:]:
        code = main([
            "fuzz", "--a", "0.5", "--degree", "16", "--trials", "200",
            "--seed", "20800", "--format", "csv", "--out", str(path),
        ])
        assert code == 0
    capsys.readouterr()
    verify_same = paths[0].read_bytes() == paths[1].read_bytes()
    fuzz_same = paths[2].read_bytes() == paths[3].read_bytes()
    ok = verify_same and fuzz_same
    detail = (
        f"repeat runs byte-identical: verify={verify_same}, fuzz={fuzz_same}"
    )
    record_criterion(8, ok, detail)
    assert ok, detail
