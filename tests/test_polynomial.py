"""Tests for polynomial arithmetic, the certified root finder, and reports."""

import cmath
import hashlib
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
import sendov_lab
from sendov_lab import bounds
from sendov_lab import polynomial as poly
from sendov_lab.polynomial import (
    CLUSTER_TOL,
    RESIDUAL_TOL,
    CriticalPointReport,
    InvalidInputError,
    Polynomial,
    SendovInstance,
    critical_report,
    evaluate,
    find_roots,
    from_roots,
    hull_distance,
    match_roots,
)


def _disk_roots(rng, degree, separation=1e-3):
    roots = []
    while len(roots) < degree:
        z = complex(np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        if all(abs(z - w) >= separation for w in roots):
            roots.append(z)
    return tuple(roots)


complex_in_disk = st.builds(
    complex,
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=-0.7, max_value=0.7),
)

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


class TestPackageNames:
    def test_one_error_class(self):
        assert InvalidInputError is bounds.DomainError

    def test_public_names_unchanged(self):
        assert sendov_lab.__all__ == [
            "AuxParams", "BoundBreakdown", "CriticalPointReport", "DEFAULT_SEED",
            "DomainError", "FuzzReport", "InvalidInputError", "MeanBound", "Polynomial",
            "RootResult", "SendovInstance", "VerificationOutcome", "aux_params",
            "breakdown", "check_extremal", "critical_report", "final_bound", "find_roots",
            "from_roots", "fuzz_sendov", "hull_distance", "k_prime", "match_roots",
            "mean_upper_bound", "mu1", "mu2", "run_inequality_suite",
            "small_circle_bound", "verify_estimate_chain", "verify_limits", "__version__",
        ]


class TestPolynomialType:
    def test_degree_bookkeeping(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert p.degree == 2
        assert Polynomial((5.0,)).degree == 0

    def test_rejects_empty_and_zero_leading(self):
        with pytest.raises(InvalidInputError):
            Polynomial(())
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Polynomial((float("nan"), 1.0))
        with pytest.raises(InvalidInputError):
            Polynomial((complex(0, float("inf")), 1.0))

    @pytest.mark.parametrize("coefficients", [
        ("1", True), (1.0, True), (1.0, "2"), np.array([True, True]), ((1.0, 2.0),),
    ], ids=["string_and_bool", "bool", "string", "bool_array", "nested"])
    def test_rejects_non_numbers(self, coefficients):
        with pytest.raises(InvalidInputError, match="numbers"):
            Polynomial(coefficients)

    def test_rejects_an_int_past_float_range(self):
        with pytest.raises(InvalidInputError, match="finite"):
            Polynomial((10 ** 400, 1))

    def test_tails_validated_and_kept_out_of_equality(self):
        p = Polynomial((1.0, 2.0), tails=(1e-17, -1e-17j))
        assert p.tails == (1e-17 + 0j, -1e-17j)
        assert p == Polynomial((1.0, 2.0))
        assert "tails" not in repr(p)
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 2.0), tails=(0.0,))  # one tail per coefficient
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 2.0), tails=(0.0, float("nan")))
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 2.0), tails=(complex(float("inf"), 0), 0.0))


class TestFromRootsAndEvaluate:
    def test_difference_of_squares(self):
        p = from_roots((1.0, -1.0))
        assert np.allclose(p.coefficients, (-1.0, 0.0, 1.0), rtol=0, atol=1e-15)

    def test_head_plus_tail_is_the_extended_expansion(self):
        roots = _disk_roots(np.random.default_rng(3), 30)
        expanded = np.ones(1, dtype=np.clongdouble)
        for r in np.asarray(roots).astype(np.clongdouble):
            expanded = np.convolve(expanded, np.array([-r, 1.0], dtype=np.clongdouble))
        p = from_roots(roots)
        head = np.asarray(p.coefficients).astype(np.clongdouble)
        tail = np.asarray(p.tails).astype(np.clongdouble)
        assert np.array_equal(head + tail, expanded)
        assert np.array_equal(head, expanded.astype(np.complex128))

    def test_evaluate_matches_numpy_polyval(self):
        rng = np.random.default_rng(7)
        coeffs = tuple(rng.normal(size=6) + 1j * rng.normal(size=6))
        p = Polynomial(coeffs)
        for z in (0.3 + 0.1j, -1.5j, 2.0):
            expected = np.polyval(np.array(coeffs[::-1]), z)
            assert np.allclose(evaluate(p, z), expected, rtol=1e-12, atol=1e-12)

    def test_evaluate_rejects_non_finite_point(self):
        p = Polynomial((1.0, 1.0))
        with pytest.raises(InvalidInputError):
            evaluate(p, complex(float("inf"), 0))

    def test_from_roots_overflow_raises_without_warning(self):
        # The expansion has 1e400 as its constant term: past binary64 range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                from_roots([1e200, 1e200])

    @given(st.lists(complex_in_disk, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_from_roots_vanishes_at_its_roots(self, roots):
        p = from_roots(roots)
        scale = max(abs(c) for c in p.coefficients)
        for r in roots:
            assert abs(evaluate(p, r)) <= 1e-10 * scale * (1.0 + abs(r)) ** p.degree


class TestFindRoots:
    def test_linear(self):
        res = find_roots(Polynomial((-1.5 + 0.5j, 3.0)))
        assert np.allclose(res.roots, [(1.5 - 0.5j) / 3.0], rtol=1e-15, atol=0)
        assert res.converged

    def test_quadratic_closed_form(self):
        res = find_roots(from_roots((0.25 + 0.25j, -0.5)))
        _, worst = match_roots(res.roots, (0.25 + 0.25j, -0.5))
        assert worst <= 1e-15
        assert res.converged

    def test_quintuple_root_clusters(self):
        # Zero coefficients below the lowest nonzero one are exact roots at
        # 0: no sweep runs when every root is 0.
        res = find_roots(Polynomial((0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        assert res.converged
        assert res.roots == (0j,) * 5
        assert res.iterations == 0
        assert res.clusters == ((0, 1, 2, 3, 4),)

    def test_triple_root_at_half(self):
        res = find_roots(from_roots((0.5, 0.5, 0.5)))
        assert res.converged
        assert max(abs(z - 0.5) for z in res.roots) <= 1e-4
        assert res.clusters == ((0, 1, 2),)

    @pytest.mark.parametrize("p, roots, exact_zeros, clusters", [
        (from_roots((0.5, 0.5)), (0.5, 0.5), 0, ((0, 1),)),
        (Polynomial((0.0, 0.0, 1.0)), (0.0, 0.0), 2, ((0, 1),)),
        (from_roots((0.0, 0.0, 0.5, -0.25j)), (0.0, 0.0, 0.5, -0.25j), 2, ((1, 2),)),
    ], ids=["half", "origin", "origin_and_two_simple"])
    def test_double_root(self, p, roots, exact_zeros, clusters):
        # Degree 2 takes the same sweeps as every other degree.  A double
        # root at 0 (c_0 = c_1 = 0) comes back as exactly 0j, also beside
        # other roots.
        res = find_roots(p)
        assert res.converged
        _, worst = match_roots(res.roots, roots)
        assert worst <= 1e-4
        assert res.roots.count(0j) == exact_zeros
        assert res.clusters == clusters

    def test_roots_of_unity_recovered(self):
        expected = tuple(cmath.exp(2j * cmath.pi * k / 12) for k in range(12))
        res = find_roots(from_roots(expected))
        _, worst = match_roots(res.roots, expected)
        assert worst <= 1e-13
        assert res.converged
        assert res.clusters == ()

    def test_round_trip_low_degree(self):
        # At degree <= 20 with separation >= 1e-3 the full pipeline -- expand
        # to coefficients, refind -- stays below 1e-8.  It holds from the
        # binary64 coefficients alone as well, so also where longdouble is
        # binary64 and the tails are zero.
        rng = np.random.default_rng(20800)
        worst = 0.0
        for _ in range(200):
            roots = _disk_roots(rng, int(rng.integers(2, 21)))
            res = find_roots(from_roots(roots))
            assert res.converged
            _, w = match_roots(res.roots, roots)
            worst = max(worst, w)
        assert worst <= 1e-8

    def test_high_degree_error_is_coefficient_rounding_not_finder(self):
        # Take the worst draw of a degree <= 50 ensemble and split its
        # round-trip error at the exact (60-digit) roots of the coefficients
        # the finder consumes, head + tail summed exactly: the finder lands
        # within 1e-8 of those exact roots, and whatever remains is the
        # rounding of the expanded coefficients, which moves them away from
        # the sampled roots.
        rng = np.random.default_rng(20800)
        worst = (0.0, None, None)
        for _ in range(60):
            roots = _disk_roots(rng, int(rng.integers(30, 51)))
            p = from_roots(roots)
            res = find_roots(p)
            assert res.converged
            _, w = match_roots(res.roots, roots)
            if w > worst[0]:
                worst = (w, p, res)
        _, p, res = worst
        mpmath.mp.dps = 60
        exact = tuple(
            complex(r)
            for r in mpmath.polyroots(
                [
                    mpmath.mpc(c) + mpmath.mpc(t)
                    for c, t in zip(reversed(p.coefficients), reversed(p.tails))
                ],
                maxsteps=200,
                extraprec=200,
            )
        )
        _, finder_err = match_roots(res.roots, exact)
        assert finder_err <= 1e-8

    def test_solves_from_coefficients_and_tails_only(self):
        # The last draw adds a pair 1e-5 apart at degree 65, which sends
        # roots through the mpmath rescue: summing the tails there too keeps
        # its round trip at ~1.5e-9, where the binary64 coefficients alone
        # give ~5e-6.
        draws = [_disk_roots(np.random.default_rng(d), d) for d in (3, 34, 64)]
        draws[-1] += (draws[-1][0] + 1e-5,)
        for roots in draws:
            res = find_roots(from_roots(roots))
            _, worst = match_roots(res.roots, roots)
            assert worst <= 1e-8

    def test_sorted_deterministically(self):
        roots = (0.5, -0.5, 0.3j, -0.3j)
        a = find_roots(from_roots(roots)).roots
        b = find_roots(from_roots(roots)).roots
        assert a == b
        keys = [(z.real, z.imag) for z in a]
        assert keys == sorted(keys)

    def test_far_root_leaks_no_warning(self):
        # A root at 1e6 puts 1e6^60 past binary64 range: p overflows there,
        # the one run of sweeps stops at its cap of 200 and the root does
        # not certify, all without a numpy warning.
        ring = [0.5 * cmath.exp(2j * cmath.pi * k / 59 + 0.1j) for k in range(59)]
        p = Polynomial(tuple(complex(c) for c in np.poly([1e6] + ring)[::-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_roots(p)
        assert res.converged == all(r <= RESIDUAL_TOL for r in res.residuals)
        assert res.iterations <= 200

    def test_newton_polygon_starts_reach_roots_spanning_decades(self):
        # Moduli from 1e-2 to 1e2: each edge of the Newton polygon starts
        # its roots near their own modulus.  One circle of radius
        # 1 + max|c_k/c_n|, near 1e28 here, needs over 400 sweeps, and 200
        # of them leave roots up to ~0.2 off while every residual certifies.
        rng = np.random.default_rng(0)
        roots = 10.0 ** rng.uniform(-2, 2, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
        res = find_roots(Polynomial(tuple(np.poly(roots)[::-1].tolist())))
        assert res.iterations <= 40
        _, worst = match_roots(res.roots, roots)
        assert worst <= 1e-9

    @pytest.mark.parametrize("coefficients", [(1e300, 1e-300), (1e308, 1e308, 1e-308)])
    def test_coefficient_ratio_past_binary64_range_raises(self, coefficients):
        # c_0/c_n overflows: a DomainError naming the ratio, not a numpy
        # warning and NaN roots.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"c_0/c_{len(coefficients) - 1} overflows"):
                find_roots(Polynomial(coefficients))

    def test_requires_degree_at_least_one(self):
        with pytest.raises(InvalidInputError):
            find_roots(Polynomial((2.0,)))


class TestMatchRoots:
    def test_permutation_has_zero_cost(self):
        pts = (0.1, 0.5 + 0.5j, -0.9j)
        assignment, worst = match_roots(pts, (pts[2], pts[0], pts[1]))
        assert worst == 0.0
        assert assignment == (2, 0, 1)

    def test_uniform_shift_is_measured(self):
        pts = (0.0, 1.0, 1j)
        shifted = tuple(z + 1e-4 for z in pts)
        _, worst = match_roots(shifted, pts)
        assert np.allclose(worst, 1e-4, rtol=1e-12, atol=0)

    def test_crossed_pairs_use_optimal_assignment(self):
        # Greedy pairing from the closest pair on these crossed points would
        # strand the last point a distance ~2 away; the optimal matching
        # keeps the worst pair distance at ~1.
        found = (0.0 + 0j, 1.0 + 0j)
        expected = (0.45 + 0j, -1.0 + 0j)
        _, worst = match_roots(found, expected)
        assert worst <= 1.1

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            match_roots((0.0,), (0.0, 1.0))


class TestSendovInstance:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SendovInstance(a=0.0, other_zeros=(0.5,))
        with pytest.raises(InvalidInputError):
            SendovInstance(a=1.0, other_zeros=(0.5,))
        with pytest.raises(InvalidInputError):
            SendovInstance(a=0.5, other_zeros=())
        with pytest.raises(InvalidInputError):
            SendovInstance(a=0.5, other_zeros=(1.5,))
        with pytest.raises(InvalidInputError):
            SendovInstance(a=0.5, other_zeros=(complex(float("nan"), 0),))
        with pytest.raises(InvalidInputError, match="numbers"):
            SendovInstance(a=0.5, other_zeros=("0.5j", True))

    def test_json_round_trip_idempotent(self):
        inst = SendovInstance(a=0.5, other_zeros=(0.25 + 0.25j, -1.0, 0.9j))
        text = inst.to_json()
        again = SendovInstance.from_json(text)
        assert again == inst
        assert again.to_json() == text

    @pytest.mark.parametrize("text", [
        '{"a": "0.5", "zeros": [[0, 0]]}',
        '{"a": true, "zeros": [[0, 0]]}',
        '{"a": 0.5, "zeros": [[true, false]]}',
        '{"a": 0.5, "zeros": [["0.1", 0]]}',
        '{"a": 0.5, "zeros": [[0, null]]}',
    ], ids=["string_a", "bool_a", "bool_zero", "string_zero", "null_zero"])
    def test_from_json_converts_no_field(self, text):
        with pytest.raises(bounds.DomainError):
            SendovInstance.from_json(text)

    def test_numpy_scalars_accepted(self):
        zeros = (np.int64(0), np.float32(0.5), np.complex128(0.25j))
        inst = SendovInstance(a=0.5, other_zeros=zeros)
        assert inst.other_zeros == (0j, 0.5 + 0j, 0.25j)

    def test_degree_and_all_zeros(self):
        inst = SendovInstance(a=0.3, other_zeros=(0.1, -0.2j))
        assert inst.degree == 3
        assert inst.all_zeros() == (0.3 + 0j, 0.1 + 0j, -0.2j)

    def test_boundary_modulus_allowed(self):
        inst = SendovInstance(a=0.5, other_zeros=(cmath.exp(0.7j),))
        assert inst.degree == 2


class TestCriticalReport:
    def test_star_polynomial_closed_form(self):
        # P = (z - 0.5) z^4: critical points are 0 (triple) and 0.4.
        rep = critical_report(SendovInstance(a=0.5, other_zeros=(0j, 0j, 0j, 0j)))
        assert rep.converged
        assert np.allclose(rep.sendov_distance, 0.1, rtol=0, atol=1e-12)
        assert np.allclose(rep.mean_real_part, 0.1, rtol=0, atol=1e-15)
        assert np.allclose(sorted(abs(w - 0.4) for w in rep.critical_points)[0], 0.0, atol=1e-12)

    def test_every_zero_at_a(self):
        # P = (z - 0.5)^3: one distinct zero, so both critical points are exact.
        rep = critical_report(SendovInstance(a=0.5, other_zeros=(0.5, 0.5)))
        assert rep.critical_points == (0.5 + 0j, 0.5 + 0j)
        assert rep.radii == (0.0, 0.0)
        assert (rep.sendov_distance, rep.distance_radius) == (0.0, 0.0)
        assert rep.converged

    def test_two_point_midpoint(self):
        rep = critical_report(SendovInstance(a=0.9, other_zeros=(-1.0,)))
        assert np.allclose(rep.critical_points, [-0.05], rtol=0, atol=1e-15)
        assert np.allclose(rep.sendov_distance, 0.95, rtol=1e-15, atol=0)
        assert np.allclose(rep.mean_real_part, -0.05, rtol=1e-15, atol=0)

    def test_roots_of_unity_distances(self):
        fourth = tuple(1j ** k for k in range(4))
        rep = critical_report(SendovInstance(a=0.5, other_zeros=fourth))
        assert np.allclose(
            rep.sendov_distance, ref.SENDOV_DIST_05_ROOTS_OF_UNITY, rtol=1e-12, atol=0
        )
        negged = tuple(cmath.exp(1j * (math.pi + 2 * math.pi * k) / 4) for k in range(4))
        rep = critical_report(SendovInstance(a=0.5, other_zeros=negged))
        assert np.allclose(
            rep.sendov_distance, ref.SENDOV_DIST_05_NEG_ROOTS, rtol=1e-12, atol=0
        )

    @given(separated_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, zeros, a):
        inst = SendovInstance(a=a, other_zeros=tuple(zeros))
        conj = SendovInstance(a=a, other_zeros=tuple(z.conjugate() for z in zeros))
        rep, rep_c = critical_report(inst), critical_report(conj)
        assert np.allclose(rep.sendov_distance, rep_c.sendov_distance, rtol=1e-9, atol=1e-12)
        assert np.allclose(rep.mean_real_part, rep_c.mean_real_part, rtol=1e-9, atol=1e-12)

    @given(separated_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_gauss_lucas_containment(self, zeros, a):
        inst = SendovInstance(a=a, other_zeros=tuple(zeros))
        rep = critical_report(inst)
        if not rep.converged:
            return
        for w in rep.critical_points:
            assert hull_distance(w, inst.all_zeros()) <= 1e-7

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
        for w in rep.critical_points:
            assert hull_distance(w, inst.all_zeros()) <= 1e-5

    def test_gauss_lucas_with_six_fold_zero(self):
        # Multiplicity 6 in the zero makes a 5-fold critical point: the
        # computed cluster spreads like eps^(1/5) ~ 1e-3 around it.
        inst = SendovInstance(a=0.5, other_zeros=((0.3 + 0.4j),) * 6)
        rep = critical_report(inst)
        assert rep.converged
        for w in rep.critical_points:
            assert hull_distance(w, inst.all_zeros()) <= 1e-2

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


def _mp_newton(zeros, start, dps=30):
    """Critical point of prod(z - zeros) nearest start, as an mpc: Newton
    on sum_j 1/(z - zeros_j) in dps digits, from the zeros alone."""
    with mpmath.workdps(dps):
        zs = [mpmath.mpc(complex(z)) for z in zeros]
        x = mpmath.mpc(start)
        for _ in range(60):
            terms = [1 / (x - z) for z in zs]
            step = mpmath.fsum(terms) / -mpmath.fsum(t * t for t in terms)
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (8 - dps) * (1 + abs(x)):
                return x
    raise AssertionError(f"reference Newton did not settle from {start!r}")


multiplicity_zero_lists = st.lists(
    st.tuples(complex_in_disk, st.integers(min_value=1, max_value=3)),
    min_size=2, max_size=7,
).filter(lambda zs: _well_separated([z for z, _ in zs]))


class TestCertifiedCriticalPoints:
    @pytest.mark.parametrize("sign, expected", [(1, 0.0060334), (-1, 0.0122187)])
    def test_unit_circle_degree_200(self, sign, expected):
        # (z - 0.99)(z^199 - sign): the coefficients of P reach 6e29 here.
        a, m = 0.99, 199
        inst = SendovInstance(a=a, other_zeros=tuple(
            complex(cmath.exp(1j * (2 * math.pi * k + (0 if sign == 1 else math.pi)) / m))
            for k in range(m)
        ))
        rep = critical_report(inst)
        # Estimates from the trinomial P' = (m+1) z^m - m a z^(m-1) - sign,
        # refined against the binary64 zeros the report was given.
        trinomial = np.zeros(m + 1, dtype=complex)
        trinomial[:2] = (m + 1, -m * a)
        trinomial[-1] = -sign
        estimates = np.roots(trinomial)
        near = estimates[np.abs(estimates - a) <= np.abs(estimates - a).min() + 1e-4]
        reference = float(min(abs(_mp_newton(inst.all_zeros(), w) - a) for w in near))
        assert math.isclose(reference, expected, rel_tol=1e-5)
        assert rep.converged and rep.verdict(1.0 + 1e-9) == "PASS"
        assert abs(rep.sendov_distance - reference) <= 1e-10
        assert abs(rep.sendov_distance - reference) <= rep.distance_radius

    @pytest.mark.parametrize("m", [127, 199])
    @pytest.mark.parametrize("a", [0.5, 0.37])
    def test_origin_family_closed_form(self, a, m):
        # (z - a) z^m: 0 is an exact (m-1)-fold critical point and the last
        # one is m a/(m+1), at distance a/(m+1) from a.
        rep = critical_report(SendovInstance(a=a, other_zeros=(0j,) * m))
        zero_radii = [r for w, r in zip(rep.critical_points, rep.radii) if w == 0]
        assert len(zero_radii) == m - 1 and set(zero_radii) == {0.0}
        exact = Fraction(a) / (m + 1)
        assert abs(Fraction(rep.sendov_distance) - exact) <= Fraction(rep.distance_radius)
        assert rep.distance_radius <= 1e-15

    def test_repeated_a_gives_distance_zero(self):
        rep = critical_report(SendovInstance(a=0.3, other_zeros=(0.5j, 0.3, -0.7, 0.3)))
        assert rep.sendov_distance == 0.0 and rep.distance_radius == 0.0
        assert rep.critical_points.count(0.3 + 0j) == 2
        assert rep.verdict(1.0 + 1e-9) == "PASS"

    @given(multiplicity_zero_lists, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_true_critical_points_lie_in_the_discs(self, grouped, a):
        zeros = tuple(z for z, k in grouped for _ in range(k))
        inst = SendovInstance(a=a, other_zeros=zeros)
        rep = critical_report(inst)
        # The critical points of P, independently of the program: each
        # repeated zero, and the roots of Q = sum_j k_j prod_{l != j}(z - zeta_l)
        # over the distinct zeros, expanded and solved in 50 digits plus as
        # many as the closest pair of zeros needs, then Newton-refined on
        # sum_j k_j/(z - zeta_j).
        counts = {}
        for z in inst.all_zeros():
            counts[z] = counts.get(z, 0) + 1
        distinct = list(counts)
        # Enough digits to resolve the closest pair of distinct zeros.
        gap = min((abs(x - y) for x in distinct for y in distinct if x != y), default=1.0)
        dps = 50 + max(0, -math.floor(math.log10(gap)))
        assert len(rep.critical_points) == inst.degree - 1
        with mpmath.workdps(dps):
            truth = [mpmath.mpc(z) for z in distinct if counts[z] > 1]
            q = [mpmath.mpc(0)] * len(distinct)
            for j, zj in enumerate(distinct):
                term = [mpmath.mpc(1)]
                for zl in distinct[:j] + distinct[j + 1:]:
                    term = [c - mpmath.mpc(zl) * b for c, b in zip(term + [0], [0] + term)]
                q = [c + counts[zj] * t for c, t in zip(q, term)]
            if len(distinct) > 1:
                estimates = mpmath.polyroots(q, maxsteps=200, extraprec=100)
                all_zeros = [z for z in distinct for _ in range(counts[z])]
                truth += [_mp_newton(all_zeros, w, dps) for w in estimates]
            discs = [(mpmath.mpc(w), r) for w, r in zip(rep.critical_points, rep.radii)]
            for x in truth:
                assert any(abs(x - w) <= r for w, r in discs), (x, rep)
            nearest = min(abs(x - a) for x in truth)
            assert abs(rep.sendov_distance - nearest) <= rep.distance_radius

    @pytest.mark.parametrize("a, zeros, expected", [
        (0.6356051866396851, ((-0.5569498201504334 + 0.6709579856690978j),
                              (-0.5569476262478652 + 0.6709776624485464j)), 0.456117),
        (0.43488594609300407, ((-0.2430322689513025 - 0.2665345899540236j),
                               (-0.24303379100304126 - 0.2665292627339832j)), 0.242811),
    ])
    def test_tight_pair_of_zeros_resolves(self, a, zeros, expected):
        # One Newton step from each zero of the pair lands both starts on
        # the pair's one critical point, within 1e-14 of each other; they
        # used to settle there as two copies with radii near 1e4 (UNRESOLVED).
        rep = critical_report(SendovInstance(a=a, other_zeros=zeros))
        with mpmath.workdps(30):
            am = mpmath.mpf(a)
            z1, z2 = (mpmath.mpc(z) for z in zeros)
            # P'(z) = 3 z^2 - 2 (a + z1 + z2) z + (a z1 + a z2 + z1 z2).
            roots = mpmath.polyroots(
                [3, -2 * (am + z1 + z2), am * z1 + am * z2 + z1 * z2], extraprec=60
            )
            reference = min(abs(w - am) for w in roots)
            assert math.isclose(reference, expected, rel_tol=1e-5)
            assert abs(rep.sendov_distance - reference) <= rep.distance_radius
        assert rep.verdict(1.0 + 1e-9) == "PASS"

    def test_zeros_crowding_a_resolve(self):
        # Two zeros within 4e-12 of a: every step there is below 1e-13, and
        # points frozen at their first small step stopped before they had
        # separated, leaving overlapping discs (UNRESOLVED, as at the parent).
        a = 0.7285545647362529
        zeros = ((0.7285545647428764 + 3.8478615055794106e-12j),
                 (0.7285545647362822 + 4.4055559975682115e-14j),
                 (0.5939449926263944 + 0.192035958833384j))
        rep = critical_report(SendovInstance(a=a, other_zeros=zeros))
        assert rep.verdict(1.0 + 1e-9) == "PASS"
        with mpmath.workdps(60):
            coeffs = [mpmath.mpc(1)]
            for z in (a,) + zeros:
                coeffs = [c - mpmath.mpc(z) * b for c, b in zip(coeffs + [0], [0] + coeffs)]
            n = len(coeffs) - 1
            derivative = [c * (n - j) for j, c in enumerate(coeffs[:-1])]
            roots = mpmath.polyroots(derivative, maxsteps=300, extraprec=300)
            reference = min(abs(w - a) for w in roots)
            assert abs(rep.sendov_distance - reference) <= rep.distance_radius

    def test_subnormal_gap_gives_no_warning(self):
        # 1/(w - zeta) overflows between two zeros 2.2e-313 apart.
        inst = SendovInstance(a=0.5, other_zeros=(0j, 0.5 + 2.2250738585e-313j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = critical_report(inst)
        verdict = rep.verdict(1.0 + 1e-9)
        # The nearest critical point sits halfway between the two close zeros.
        assert verdict == "UNRESOLVED" or (
            verdict == "PASS"
            and abs(rep.sendov_distance - 2.2250738585e-313 / 2) <= rep.distance_radius
        )

    def test_verdict_needs_the_whole_bracket(self):
        def verdict(distance, radius, converged=True):
            rep = CriticalPointReport((), distance, 0.0, (), radius, converged)
            return rep.verdict(1.0)

        assert verdict(0.9, 0.05) == "PASS"
        assert verdict(1.1, 0.05) == "FAIL"
        assert verdict(0.98, 0.05) == "UNRESOLVED"
        assert verdict(1.02, 0.05) == "UNRESOLVED"
        assert verdict(0.5, float("inf")) == "UNRESOLVED"
        # The discs hold whether or not the iteration settled.
        assert verdict(0.5, 1e-12, converged=False) == "PASS"


class TestSendovDistances:
    def test_rows_with_repeated_zeros_match_critical_report(self):
        a = 0.3
        others = np.array([
            [0.3, 0.5j, -0.5],
            [0.2, 0.2, 0.9j],
            [0.1 + 0.1j, -0.4, 0.6j],
            [0.7j, 0.7j, 0.7j],
            [-0.2 - 0.6j, 0.8, -0.2 - 0.6j],
        ])
        distance, radius = poly.sendov_distances(a, others)
        for t, row in enumerate(others):
            rep = critical_report(SendovInstance(a=a, other_zeros=tuple(row.tolist())))
            assert (distance[t], radius[t]) == (rep.sendov_distance, rep.distance_radius)

    def test_rows_with_every_zero_at_a_match_critical_report(self):
        others = [[0.5, 0.5], [0.5, 0.1]]
        distance, radius = poly.sendov_distances(0.5, others)
        for t, row in enumerate(others):
            rep = critical_report(SendovInstance(a=0.5, other_zeros=tuple(row)))
            assert (distance[t], radius[t]) == (rep.sendov_distance, rep.distance_radius)

    def test_rows_checked_by_the_instance_rule(self):
        with pytest.raises(InvalidInputError, match="modulus"):
            poly.sendov_distances(0.5, np.array([[0.5, 0.2j], [1.5, 0.0]]))
        with pytest.raises(InvalidInputError, match="finite"):
            poly.sendov_distances(0.5, np.array([[0.5, complex("nan")]]))
        with pytest.raises(InvalidInputError):
            poly.sendov_distances(1.0, np.array([[0.5]]))
        with pytest.raises(InvalidInputError):
            poly.sendov_distances(0.5, np.array([0.5, 0.2]))
        with pytest.raises(InvalidInputError):
            poly.sendov_distances(0.5, np.empty((0, 3)))
        with pytest.raises(InvalidInputError):
            poly.sendov_distances(0.5, [["zero"]])
        for rows in ([[True, 0.5]], [["0.5", 0.5]]):
            with pytest.raises(InvalidInputError, match="numbers"):
                poly.sendov_distances(0.5, rows)

    def test_bracket_verdict_on_arrays(self):
        verdicts = poly.bracket_verdict(
            np.array([0.9, 1.1, 0.98, 0.5]), np.array([0.05, 0.05, 0.05, np.inf]), 1.0
        )
        assert verdicts.tolist() == ["PASS", "FAIL", "UNRESOLVED", "UNRESOLVED"]


def _kernel_rows(degree):
    """(a, rows of other zeros) at one degree, seeded: disk draws, tight
    clusters, exactly repeated zeros, zeros within 1e-12 of a (one of them
    a subnormal distance away, where steps overflow and points are nudged),
    and the two unit-circle families z^m = 1 and z^m = -1."""
    rng = np.random.default_rng([0x4B45524E, degree])
    m = degree - 1

    def disk(size):
        return np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))

    a = float(rng.uniform(0.01, 0.99))
    rows = [disk(m) for _ in range(4)]
    for spread in (1e-9, 1e-4):
        centres = 0.9 * disk(3)
        rows.append(centres[rng.integers(3, size=m)] + spread * disk(m))
    rows.append(np.repeat(disk((m + 1) // 2), 2)[:m])
    rows.append(np.concatenate([[a], disk(m - 1)]))
    near = max(1, m // 4)
    rows.append(np.concatenate([a + 1e-12 * disk(near), disk(m - near)]))
    rows.append(np.concatenate([[complex(a, 2.2250738585e-313)], disk(m - 1)]))
    angles = np.pi * np.arange(m) / m
    rows += [np.exp(2j * angles), np.exp(1j * (2.0 * angles + np.pi / m))]
    return a, np.array(rows)


# SHA-256 of the kernel's output on _kernel_rows: sendov_distances'
# (distance, radius) bytes, and every row's critical_report points and radii.
KERNEL_DIGESTS = {
    3: ("1897b0bafcfae64acdb6c55092767d98330aeea1bd88580d55f0df32b4a96eed",
        "58b51538632893b37d72eaf3108c7629200b2d8f2af30d087b94cb19088468dc"),
    8: ("297d39c9b06805d6062dc2e8832054e80fc9900e7c18f530501c77a8607414e0",
        "eccca48085ce98db05c07e89f3581d1064260bfb79f7488a64414e4cf897f20f"),
    17: ("e0b67cb7aa8a9e7b879ee05ab0781c45924148ac9e77339fa74c2537f4a2fee1",
         "1fd1bf7165382736deab740f13b9dfd54cfb7d74bf041be295120786e05bd5bb"),
    64: ("b0a81acec117c2dba73ebc8ab10af90da2d0ce68c9f798a346d6d887296f60c4",
         "ad4fca2f9920179944db4881a0339ce542f02a75d2cae6b49751fa26e911c63f"),
    200: ("81c51497ac364905d692a53b021a340153d88706db0e0c83eb97f64b2182fb19",
          "5adfc4bcce52d8eb734279644eea6b03e850724f5463ec199ffb6891316655c1"),
}


class TestPinnedKernelBytes:
    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_kernel_output_matches_digest(self, degree):
        a, rows = _kernel_rows(degree)
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
    """(starts, crowded) by the crowded rule over every pair of steps, with
    np.tril on the whole matrix: the reference for ``_starts``."""
    rows, g = zeta.shape
    m = g - 1
    with np.errstate(all="ignore"):
        gaps = 1.0 / (zeta[:, :, None] - zeta[:, None, :])
        gaps[:, np.arange(g), np.arange(g)] = 0.0
        steps = k / (k * gaps.sum(axis=-1) + (gaps * k[:, None, :]).sum(axis=-1))
        kept = np.ones((rows, g), dtype=bool)
        kept[np.arange(rows), np.argmax(np.abs(steps), axis=-1)] = False
        near = (zeta - steps)[kept].reshape(rows, m)
        reach = np.abs(steps)[kept].reshape(rows, m)
        crowded = np.abs(near[:, :, None] - near[:, None, :]) <= 1e-6 * reach[:, :, None]
    crowded = np.tril(crowded, -1).any(axis=-1)
    center = (k * zeta).sum(axis=-1) / k.sum(axis=-1)
    radius = np.abs(zeta - center[:, None]).max(axis=-1)
    angles = 2.0 * np.pi * np.arange(m) / m + poly._ANGULAR_OFFSET
    circle = center[:, None] + radius[:, None] * np.exp(1j * angles)
    return np.where(np.isfinite(near) & ~crowded, near, circle), crowded


def _all_pairs_bracket(a, exact, free, free_radii):
    """(distance, half-width) with a disc alone when it misses every other
    disc, pair by pair: the reference for ``_distance_bracket``'s isolation
    test from each point's nearest neighbour."""
    m = free.shape[-1]
    points = np.concatenate([exact, free], axis=-1)
    radii = np.concatenate([np.zeros(exact.shape), free_radii], axis=-1)
    dist = np.abs(points - a[:, None])
    with np.errstate(invalid="ignore"):
        gap = np.abs(free[:, :, None] - free[:, None, :])
        gap[:, np.arange(m), np.arange(m)] = np.inf
        alone = (gap > free_radii[:, :, None] + free_radii[:, None, :]).all(axis=-1)
        isolated = np.concatenate([np.ones(exact.shape, dtype=bool), alone], axis=-1)
        reach = np.where(isolated, radii, 2.0 * radii.sum(axis=-1, keepdims=True))
        upper = (dist * (1.0 + 4.0 * poly._U) + reach).min(axis=-1)
        lower = np.maximum(dist * (1.0 - 4.0 * poly._U) - radii, 0.0).min(axis=-1)
    nearest = dist.min(axis=-1)
    return nearest, np.maximum(upper - nearest, nearest - lower) + 4.0 * poly._U * upper


class TestKernelStages:
    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_unit_multiplicities_as_none_give_the_same_bytes(self, degree):
        # k=None skips the exact products by 1.0; the general path, which
        # repeated zeros take, must give the same bytes on simple zeros.
        a, rows = _kernel_rows(degree)
        zeros = np.sort(np.concatenate([np.full((len(rows), 1), complex(a)), rows], axis=1), axis=1)
        zeta = zeros[~(zeros[:, 1:] == zeros[:, :-1]).any(axis=1)]
        ones = np.ones(zeta.shape)
        starts = poly._starts(zeta, None)
        assert starts.tobytes() == poly._starts(zeta, ones).tobytes()
        w, settled = poly._secular_aberth(zeta, None, starts)
        w_ones, settled_ones = poly._secular_aberth(zeta, ones, starts)
        assert w.tobytes() == w_ones.tobytes()
        assert settled.tolist() == settled_ones.tolist()
        radii, nearest = poly._inclusion_radii(w, zeta, None)
        radii_ones, nearest_ones = poly._inclusion_radii(w, zeta, ones)
        assert radii.tobytes() == radii_ones.tobytes()
        assert nearest.tobytes() == nearest_ones.tobytes()

    def test_gap_sum_past_binary64_range_sends_the_start_to_the_circle(self):
        # 1/(0 - 1e-308) + 1/(0 - 1.05e-308) overflows in its real part
        # alone; 1.0 * S then has a NaN imaginary part, and S + S would not.
        zeta = np.array([[0j, 1e-308 + 0j, 1.05e-308 + 0j, 0.5 + 0j]])
        ones = np.ones(zeta.shape)
        starts, _ = _full_matrix_starts(zeta, ones)
        assert poly._starts(zeta, None).tobytes() == starts.tobytes()
        assert poly._starts(zeta, ones).tobytes() == starts.tobytes()

    @pytest.mark.parametrize("zeros, fires", [
        # The two pairs of test_tight_pair_of_zeros_resolves, with their a.
        ((0.6356051866396851, -0.5569498201504334 + 0.6709579856690978j,
          -0.5569476262478652 + 0.6709776624485464j), True),
        ((0.43488594609300407, -0.2430322689513025 - 0.2665345899540236j,
          -0.24303379100304126 - 0.2665292627339832j), True),
        # Five zeros of spread 1e-9, two of them 1e-13 apart, and a zero at
        # 0.6; without the tight pair no start in such a cluster is crowded.
        (tuple(0.3 - 0.2j + 1e-9 * np.array([0.5, 0.5 + 1e-4, -0.4 + 0.3j, 0.1 - 0.6j, -0.7j]))
         + (0.6,), True),
        # Conjugate zeros give steps with the same real part exactly, but
        # imaginary parts far more than 1e-6 of a step apart.
        ((0.1 + 0.2j, 0.1 - 0.2j, 0.9), False),
    ])
    def test_crowded_rule_matches_the_full_matrix(self, zeros, fires):
        zeta = np.unique(np.array(zeros, dtype=complex))[None]
        ones = np.ones(zeta.shape)
        starts, crowded = _full_matrix_starts(zeta, ones)
        assert crowded.any() == fires
        assert poly._starts(zeta, None).tobytes() == starts.tobytes()
        assert poly._starts(zeta, ones).tobytes() == starts.tobytes()
        if not fires:
            assert starts[0, 0].real == starts[0, 1].real
            assert starts[0, 0].imag != starts[0, 1].imag

    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_isolation_from_the_radii_matches_the_all_pairs_rule(self, degree):
        # A disc farther from its nearest neighbour than its radius plus the
        # row's largest misses every other disc; the discs that test leaves
        # in doubt (as in the clusters here) are tested pairwise.
        a, rows = _kernel_rows(degree)
        at = np.array([a])
        for row in rows:
            zeta, counts = np.unique(np.concatenate([[complex(a)], row]), return_counts=True)
            exact = np.repeat(zeta, counts - 1)[None]
            free, radii, nearest, _ = poly._free_points(zeta[None], counts[None].astype(float))
            distance, half_width = poly._distance_bracket(at, exact, free, radii, nearest)
            reference = _all_pairs_bracket(at, exact, free, radii)
            assert distance == reference[0]
            assert half_width == reference[1]

    def test_disc_in_doubt_is_tested_pairwise(self):
        # Points 1 and 2 are 1e-9 apart with radii 1e-12: pairwise they are
        # apart, but not by more than the wide radius of point 0.
        free = np.array([[0.0, 0.5, 0.5 + 1e-9]], dtype=complex)
        radii = np.array([[1e-3, 1e-12, 1e-12]])
        nearest = np.array([[0.5, 1e-9, 1e-9]])
        exact = np.empty((1, 0), dtype=complex)
        at = np.array([0.5 + 2e-9])
        _, half_width = poly._distance_bracket(at, exact, free, radii, nearest)
        _, reference = _all_pairs_bracket(at, exact, free, radii)
        assert half_width == reference < 1e-11

    @pytest.mark.parametrize("degree", list(KERNEL_DIGESTS))
    def test_frozen_points_lie_at_the_rounding_floor(self, degree):
        # A point frozen once its step is 1e-10 of scale sits within a few
        # roundings of its root, on the disk rows and in the clusters too,
        # where a point frozen while its neighbours still move can be left
        # 8 roundings off (1e-4 clusters at degree 64).
        a, rows = _kernel_rows(degree)
        zeta = np.sort(np.concatenate([np.full((6, 1), complex(a)), rows[:6]], axis=1), axis=1)
        free, _, _, settled = poly._free_points(zeta, np.ones(zeta.shape))
        assert settled.all()
        for zeros, points in zip(zeta, free):
            scale = 1.0 + np.abs(zeros).max()
            for w in points.tolist():
                assert abs(complex(_mp_newton(zeros, w, 20)) - w) <= 4 * poly._U * scale

    @pytest.mark.parametrize("k", [None, (2.0, 1.0, 3.0, 1.0, 2.0)])
    def test_point_on_a_zero_takes_its_multiplicity(self, k):
        # On zeta_j, Q(zeta_j) = k_j prod_{l != j}(zeta_j - zeta_l): the
        # pole of f leaves W_i, and the radius stays finite.
        zeta = np.array([[0.5, -0.3 + 0.4j, 0.1 - 0.7j, -0.6 - 0.2j, 0.2 + 0.1j]])
        mult = np.ones(5) if k is None else np.array(k)
        w = np.array([[zeta[0, 2], 0.05 + 0.3j, -0.4 - 0.1j, 0.3 - 0.3j]])
        radii, _ = poly._inclusion_radii(w, zeta, None if k is None else mult[None])
        assert np.isfinite(radii).all()
        with mpmath.workdps(30):
            zs = [mpmath.mpc(z) for z in zeta[0]]
            ws = [mpmath.mpc(x) for x in w[0]]
            q = mult[2] * mpmath.fprod(abs(zs[2] - z) for z in zs[:2] + zs[3:])
            expected = 4 * q / (mult.sum() * mpmath.fprod(abs(ws[0] - x) for x in ws[1:]))
        assert expected <= radii[0, 0] <= expected * (1 + 1e-12)


class TestHullDistance:
    def test_interior_and_vertex(self):
        square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
        assert hull_distance(0j, square) == 0.0
        assert hull_distance(1 + 1j, square) == 0.0

    def test_outside_square(self):
        square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)
        assert np.allclose(hull_distance(2 + 0j, square), 1.0, rtol=1e-15, atol=0)
        assert np.allclose(hull_distance(2 + 2j, square), math.sqrt(2), rtol=1e-15, atol=0)

    def test_degenerate_hulls(self):
        assert np.allclose(hull_distance(3 + 4j, (0j,)), 5.0, rtol=1e-15, atol=0)
        assert np.allclose(hull_distance(1j, (-1 + 0j, 1 + 0j)), 1.0, rtol=1e-15, atol=0)
        assert hull_distance(0.5 + 0j, (-1 + 0j, 1 + 0j)) == 0.0

    @pytest.mark.parametrize("point", [
        float("nan"), complex(0.0, float("inf")), "inside", "0.5",
    ], ids=["nan", "inf", "string", "numeric_string"])
    def test_rejects_a_bad_point(self, point):
        with pytest.raises(bounds.DomainError):
            hull_distance(point, (0j, 1 + 0j))

    def test_rejects_string_vertices(self):
        with pytest.raises(bounds.DomainError, match="numbers"):
            hull_distance(0.5, ["1", "-1"])

    @given(complex_in_disk, st.lists(complex_in_disk, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_never_exceeds_nearest_vertex(self, w, vertices):
        d = hull_distance(w, tuple(vertices))
        assert d <= min(abs(w - v) for v in vertices) + 1e-12
