"""Tests for polynomial arithmetic, the certified root finder, and reports."""

import cmath
import json
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from sendov_lab import polynomial as poly
from sendov_lab.polynomial import (
    CLUSTER_TOL,
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

    def test_rejects_inconsistent_stored_roots(self):
        # z^2 + 1 does not vanish anywhere near 0.5.
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 0.0, 1.0), roots=(0.5, -0.5))
        with pytest.raises(InvalidInputError):
            Polynomial((1.0, 0.0, 1.0), roots=(1j,))  # count mismatch

    def test_rejects_stored_root_whose_value_is_nan(self):
        # r^2 overflows to inf - inf = NaN in the complex product.
        with pytest.raises(InvalidInputError):
            Polynomial((1e-300, 0.0, 1e-300), roots=(1e200 + 1e200j, -1e200 - 1e200j))

    def test_accepts_consistent_stored_roots(self):
        p = Polynomial((-1.0, 0.0, 1.0), roots=(1.0, -1.0))
        assert p.roots == (1.0 + 0j, -1.0 + 0j)

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

    def test_dict_round_trip(self):
        p = Polynomial((1 + 2j, 0.0, 3.5))
        again = Polynomial.from_dict(p.to_dict())
        assert again.coefficients == p.coefficients
        assert json.dumps(p.to_dict()) == json.dumps(again.to_dict())

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            Polynomial.from_dict({"coeffs": "nope"})
        with pytest.raises(InvalidInputError):
            Polynomial.from_dict({})


class TestFromRootsAndEvaluate:
    def test_difference_of_squares(self):
        p = from_roots((1.0, -1.0))
        assert np.allclose(p.coefficients, (-1.0, 0.0, 1.0), rtol=0, atol=1e-15)
        assert p.roots == (1.0 + 0j, -1.0 + 0j)

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
        assert res.iterations == 0

    def test_quintuple_root_clusters(self):
        res = find_roots(Polynomial((0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        assert res.converged
        assert max(abs(z) for z in res.roots) <= 1e-3
        assert res.clusters == ((0, 1, 2, 3, 4),)

    def test_triple_root_at_half(self):
        res = find_roots(from_roots((0.5, 0.5, 0.5)))
        assert res.converged
        assert max(abs(z - 0.5) for z in res.roots) <= 1e-4
        assert res.clusters == ((0, 1, 2),)

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
        # Dropping the stored roots changes nothing, bit for bit.  The last
        # draw adds a pair 1e-5 apart at degree 65, which sends roots through
        # the mpmath rescue: summing the tails there too keeps its round trip
        # at ~1.5e-9, where the binary64 coefficients alone give ~5e-6.
        draws = [_disk_roots(np.random.default_rng(d), d) for d in (3, 34, 64)]
        draws[-1] += (draws[-1][0] + 1e-5,)
        for roots in draws:
            p = from_roots(roots)
            bare = Polynomial(p.coefficients, None, p.tails)
            assert bare.roots is None
            res, res_bare = find_roots(p), find_roots(bare)
            assert res == res_bare
            assert np.asarray(res.roots).tobytes() == np.asarray(res_bare.roots).tobytes()
            _, worst = match_roots(res.roots, roots)
            assert worst <= 1e-8

    def test_sorted_deterministically(self):
        roots = (0.5, -0.5, 0.3j, -0.3j)
        a = find_roots(from_roots(roots)).roots
        b = find_roots(from_roots(roots)).roots
        assert a == b
        keys = [(z.real, z.imag) for z in a]
        assert keys == sorted(keys)

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
    def test_star_polynomial_closed_form(self):
        # P = (z - 0.5) z^4: critical points are 0 (triple) and 0.4.
        rep = critical_report(SendovInstance(a=0.5, other_zeros=(0j, 0j, 0j, 0j)))
        assert rep.converged
        assert np.allclose(rep.sendov_distance, 0.1, rtol=0, atol=1e-12)
        assert np.allclose(rep.mean_real_part, 0.1, rtol=0, atol=1e-15)
        assert np.allclose(sorted(abs(w - 0.4) for w in rep.critical_points)[0], 0.0, atol=1e-12)

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

    @given(complex_in_disk, st.lists(complex_in_disk, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_never_exceeds_nearest_vertex(self, w, vertices):
        d = hull_distance(w, tuple(vertices))
        assert d <= min(abs(w - v) for v in vertices) + 1e-12
