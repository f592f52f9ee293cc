"""Tests of ``roots``, the coefficient-form root finder: the ``Polynomial``
type, ``from_roots``' double-double expansion, the evaluations of p that
``find_roots`` runs, ``find_roots`` itself and its inclusion discs, and the
assignment ``match_roots`` makes between two root lists.  Rejected
arguments of ``Polynomial`` and ``find_roots`` are rows of
``tests/test_arguments.py``.
"""

import cmath
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from conftest import complex_in_disk, families
from sendov_lab import polynomial as poly
from sendov_lab.bounds import DomainError
from sendov_lab.roots import (
    Polynomial,
    _compensated_horner,
    _exponents,
    _root_corrections,
    _values,
    find_roots,
    from_roots,
    match_roots,
)


def _tail_draws():
    """Disk draws of degree 3, 34 and 64, the last with a pair 1e-5 apart
    added."""
    draws = [families.separated_disk(np.random.default_rng(d), d) for d in (3, 34, 64)]
    draws[-1] += (draws[-1][0] + 1e-5,)
    return draws


def _far_root_polynomial():
    """(z - 1e6) times 59 roots on |z| = 0.5, from binary64 coefficients:
    1e6^60 is past binary64 range."""
    ring = [0.5 * cmath.exp(2j * cmath.pi * k / 59 + 0.1j) for k in range(59)]
    return Polynomial(tuple(complex(c) for c in np.poly([1e6] + ring)[::-1]))


def _overlapping_groups(centres, radii):
    """Connected groups of the discs |z - centres[i]| <= radii[i] that
    touch or overlap, singletons too, each by its indices in order."""
    groups = []
    for i in range(len(centres)):
        joined = [g for g in groups
                  if any(abs(centres[i] - centres[j]) <= radii[i] + radii[j] for j in g)]
        groups = [g for g in groups if g not in joined] + [sum(joined, []) + [i]]
    return sorted(tuple(sorted(g)) for g in groups)


class TestPolynomialType:
    def test_degree_bookkeeping(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert p.degree == 2
        assert Polynomial((5.0,)).degree == 0

    def test_tails_validated_and_kept_out_of_equality(self):
        p = Polynomial((1.0, 2.0), tails=(1e-17, -1e-17j))
        assert p.tails == (1e-17 + 0j, -1e-17j)
        assert p == Polynomial((1.0, 2.0))
        assert "tails" not in repr(p)
        with pytest.raises(DomainError):
            Polynomial((1.0, 2.0), tails=(0.0,))  # one tail per coefficient
        with pytest.raises(DomainError):
            Polynomial((1.0, 2.0), tails=(0.0, float("nan")))
        with pytest.raises(DomainError):
            Polynomial((1.0, 2.0), tails=(complex(float("inf"), 0), 0.0))


class TestFromRoots:
    def test_difference_of_squares(self):
        p = from_roots((1.0, -1.0))
        assert np.allclose(p.coefficients, (-1.0, 0.0, 1.0), rtol=0, atol=1e-15)

    def test_strided_roots_expand_as_a_tuple_does(self):
        roots = np.array([0.5, 9.0, -0.25j, 9.0, 0.1 + 0.2j, 9.0])[::2]
        p = from_roots(roots)
        assert p.coefficients == from_roots(tuple(roots.tolist())).coefficients
        assert p.tails == from_roots(tuple(roots.tolist())).tails

    def test_head_plus_tail_is_the_extended_expansion(self):
        # Against the exact expansion (60 digits hold it exactly here), the
        # double-double head + tail errs by a few n u^2 of the coefficients
        # of prod(z + |r_j|): about 3e-32 at degree 30.  The head is head +
        # tail rounded to binary64.
        roots = families.separated_disk(np.random.default_rng(3), 30)
        p = from_roots(roots)
        with mpmath.workdps(exact.DPS):
            for h, t, s, c, bound in zip(p.coefficients, p.tails, exact.coefficients(p), exact.expand(roots),
                                         exact.expand([-abs(mpmath.mpc(r)) for r in roots])):
                assert abs(s - c) <= 1e-30 * bound.real
                assert h + t == h

    def test_compensated_horner_is_twice_binary64(self):
        # Near its roots p(z) cancels to about 1e-16 of sum |c_k| |z|^k, the
        # error of binary64 Horner; the compensated value is correct to a
        # few units of its own size plus a few u^2 of that sum.
        roots = families.separated_disk(np.random.default_rng(5), 30)
        p = from_roots(roots)
        rng = np.random.default_rng(6)
        # Half the points lie within 1e-9 of a root, half about 0.3 off one.
        z = np.asarray(roots) * (1.0 + 1e-9 * rng.normal(size=30))
        z[1::2] += 0.3 * rng.normal(size=15)
        # e = 0 gives p(z) unscaled, past |z| = 1 too, to compare with the truth.
        values, errors = _compensated_horner(np.asarray(p.coefficients), np.asarray(p.tails), z, 0)
        cs = exact.coefficients(p)[::-1]
        with mpmath.workdps(exact.DPS):
            for x, value, error in zip(z, values, errors):
                truth = mpmath.polyval(cs, mpmath.mpc(x))
                size = mpmath.polyval([abs(c) for c in cs], abs(mpmath.mpc(x)))
                assert abs(value - truth) <= 4 * 2.0 ** -53 * abs(truth) + 1e-29 * size
                # The returned bound, which the finder's discs rest on, holds.
                assert abs(value - truth) <= error

    @pytest.mark.parametrize("roots", [(1.5e300,), (2e150, 3e150j), (3e-300, -2e-300j)])
    def test_expansion_scales_roots_near_the_ends_of_binary64(self, roots):
        # Veltkamp's split multiplies by 2^27 + 1 and overflows above about
        # 1.3e300: from_roots scales the roots by a power of two, so these
        # expand with finite tails and no warning.  The constant term of
        # the last, 6e-600, is below binary64 range and comes back as 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = from_roots(roots)
        with mpmath.workdps(exact.DPS):
            for s, c in zip(exact.coefficients(p), exact.expand(roots)):
                assert abs(s - c) <= 1e-30 * abs(c) + 2.0 ** -1074

    def test_values_match_numpy_polyval(self):
        # p(z) at e = 0, and p(z) 2^(-n e) at _exponents' e, which is above
        # 0 outside the unit circle: every binary64 sweep of find_roots
        # evaluates p so.
        rng = np.random.default_rng(7)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        z = np.array([0.3 + 0.1j, -1.5j, 2.0])
        e = _exponents(z)
        assert e.tolist() == [0, 1, 2]
        for scale in (np.zeros_like(e), e):
            expected = np.polyval(c[::-1], z) * np.ldexp(1.0, -5 * scale)
            assert np.allclose(_values(c, z, scale), expected, rtol=1e-12, atol=1e-12)

    def test_from_roots_overflow_raises_without_warning(self):
        # The expansion has 1e400 as its constant term: past binary64 range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                from_roots([1e200, 1e200])

    @given(st.lists(complex_in_disk, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_from_roots_vanishes_at_its_roots(self, roots):
        p = from_roots(roots)
        scale = max(abs(c) for c in p.coefficients)
        values = _values(np.asarray(p.coefficients), np.asarray(roots, dtype=complex), 0)
        for r, value in zip(roots, values):
            assert abs(value) <= 1e-10 * scale * (1.0 + abs(r)) ** p.degree


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

    def test_triple_root_at_half(self):
        # Each iterate stops at the rounding floor of p, so the three stay
        # apart and their discs stay small.
        res = find_roots(from_roots((0.5, 0.5, 0.5)))
        assert res.converged
        assert max(abs(z - 0.5) for z in res.roots) <= 1e-4
        assert max(res.radii) <= 1e-4
        assert _overlapping_groups(res.roots, res.radii) == [(0, 1, 2)]

    @pytest.mark.parametrize("p, roots, exact_zeros, largest_radius", [
        (from_roots((0.5, 0.5)), (0.5, 0.5), 0, 1e-12),
        (Polynomial((0.0, 0.0, 1.0)), (0.0, 0.0), 2, 0.0),
        (from_roots((0.0, 0.0, 0.5, -0.25j)), (0.0, 0.0, 0.5, -0.25j), 2, 1e-12),
    ], ids=["half", "origin", "origin_and_two_simple"])
    def test_double_root(self, p, roots, exact_zeros, largest_radius):
        # Degree 2 takes the same sweeps as every other degree.  A double
        # root at 0 (c_0 = c_1 = 0) comes back as exactly 0j, also beside
        # other roots.  The one group of discs that meet is the pair that
        # holds the double root; where a simple root with a real part far
        # below its radius sorts against the pair is not part of the claim.
        res = find_roots(p)
        assert res.converged
        _, worst = match_roots(res.roots, roots)
        assert worst <= 1e-4
        assert res.roots.count(0j) == exact_zeros
        assert max(res.radii) <= largest_radius
        (cluster,) = [g for g in _overlapping_groups(res.roots, res.radii) if len(g) >= 2]
        assert len(cluster) == 2
        assert all(abs(res.roots[i] - roots[0]) <= res.radii[i] for i in cluster)

    def test_tiny_scale_roots_within_1e_12_relative(self):
        # Each point stops against its nearest neighbour and at its rounding
        # floor, not at a step absolute in 1 + |z|, so roots near 1e-21 come
        # back to full relative accuracy, in discs that do not overlap.
        roots = (3e-21, -5e-21j, 2e-21 + 1e-21j)
        res = find_roots(from_roots(roots))
        cols, _ = match_roots(res.roots, roots)
        for c, r in zip(cols, roots):
            assert abs(res.roots[c] - r) <= 1e-12 * abs(r)
            assert res.radii[c] <= 1e-12 * abs(res.roots[c])
        assert len(_overlapping_groups(res.roots, res.radii)) == 3

    @pytest.mark.parametrize("p, roots", [
        (Polynomial((0.0, 1.0), tails=(1e-20, 0.0)), (-1e-20,)),
        (Polynomial((0.0, 0.0, 1.0), tails=(0.0, 1e-20, 0.0)), (-1e-20, 0.0)),
        (Polynomial((1.0, 0.0, 1.0), tails=(-1.0, 0.0, 0.0)), (0.0, 0.0)),
    ], ids=["tail_below_zero_head", "zero_and_tail", "tail_cancels_head"])
    def test_exact_zeros_are_read_from_head_plus_tail(self, p, roots):
        # A zero head with a nonzero tail is no exact root at 0, and a tail
        # that cancels its head is one: each root lies in its own disc.
        res = find_roots(p)
        cols, _ = match_roots(res.roots, roots)
        assert all(abs(res.roots[c] - r) <= res.radii[c] for c, r in zip(cols, roots))
        assert res.roots.count(0j) == roots.count(0.0)

    def test_roots_of_unity_recovered(self):
        expected = tuple(families.circle(12).tolist())
        res = find_roots(from_roots(expected))
        _, worst = match_roots(res.roots, expected)
        assert worst <= 1e-13
        assert res.converged
        assert len(_overlapping_groups(res.roots, res.radii)) == 12

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
            roots = families.separated_disk(rng, int(rng.integers(30, 51)))
            p = from_roots(roots)
            res = find_roots(p)
            assert res.converged
            _, w = match_roots(res.roots, roots)
            # >= keeps a draw when every round trip is exact.
            if w >= worst[0]:
                worst = (w, p, res)
        _, p, res = worst
        _, finder_err = match_roots(res.roots, tuple(complex(r) for r in exact.roots(p)))
        assert finder_err <= 1e-8

    def test_solves_from_coefficients_and_tails_only(self):
        # The last draw adds a pair 1e-5 apart at degree 65: the compensated
        # sweeps on head + tail bring its round trip within 1e-8, where the
        # binary64 coefficients alone give ~3e-6.
        for roots in _tail_draws():
            res = find_roots(from_roots(roots))
            _, worst = match_roots(res.roots, roots)
            assert worst <= 1e-8

    def test_finder_never_imports_mpmath(self, monkeypatch):
        # The finder refines the degree-65 draw above with error-free
        # transformations of binary64 alone: with mpmath made unimportable
        # it still meets 1e-8.  That no module of the package imports
        # mpmath at load is checked in a fresh interpreter by
        # test_cli.py::TestOneProcess::test_no_command_imports_scipy_or_mpmath.
        roots = _tail_draws()[-1]
        monkeypatch.setitem(sys.modules, "mpmath", None)
        res = find_roots(from_roots(roots))
        assert res.converged
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
        # A root at 1e6 puts 1e6^60 past binary64 range.  The finder takes p
        # and the Weierstrass products there at the exact scale 2^-20 per
        # factor, so nothing overflows, no numpy warning is raised, and the
        # far root is found and certified like the ring's.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_roots(_far_root_polynomial())
        assert res.converged
        assert res.iterations <= 10
        far = int(np.argmax(np.abs(res.roots)))
        assert abs(res.roots[far] - 1e6) <= 1e-12 * 1e6
        assert abs(res.roots[far] - 1e6) <= res.radii[far]

    @pytest.mark.parametrize("degree", [50, 200])
    def test_newton_polygon_starts_reach_roots_spanning_decades(self, degree):
        # Moduli from 1e-2 to 1e2: each edge of the Newton polygon starts
        # its roots near their own modulus.  One circle of radius
        # 1 + max|c_k/c_n|, near 1e28 at degree 50, would start them decades
        # off, from where Weierstrass's contraction is slow.  At degree 200
        # the rounding of np.poly's coefficients alone moves the roots by
        # about 1e-8, so there the discs, not the round trip, are checked.
        rng = np.random.default_rng(0)
        roots = 10.0 ** rng.uniform(-2, 2, degree) * np.exp(2j * np.pi * rng.uniform(size=degree))
        res = find_roots(Polynomial(tuple(np.poly(roots)[::-1].tolist())))
        assert res.iterations <= 40
        if degree == 50:
            _, worst = match_roots(res.roots, roots)
            assert worst <= 1e-9
        else:
            assert res.converged
            assert max(res.radii) <= 1e-9

    @pytest.mark.parametrize("degree", range(18, 23))
    def test_wilkinson_like_roots_within_1e_8_relative(self, degree):
        # prod(z - s k): the refinement reads p alone, from compensated
        # Horner, so at degree 22 no binary64 p' stops it short of the
        # roots that the double-double coefficients hold.
        for s in (0.5, 0.9, 1.0, 1.1, 1.3):
            roots = [s * k for k in range(1, degree + 1)]
            res = find_roots(from_roots(roots))
            cols, _ = match_roots(res.roots, roots)
            assert max(abs(res.roots[c] - r) / r for c, r in zip(cols, roots)) <= 1e-8

    @pytest.mark.parametrize("case", [
        "disk-6", "disk-13", "disk-20", "integers-22", "tiny-scale", "double-half", "triple-half",
        "far-root",
    ])
    def test_discs_hold_every_root_and_each_group_its_count(self, case):
        # The exact roots of head + tail are the integers, or the repeated
        # 0.5, where those are exact; else 60-digit mpmath roots, which for
        # the far root, whose scaled low coefficients underflow, are Newton
        # steps from the roots found.
        draws = {"disk-6": (1, 6), "disk-13": (2, 13), "disk-20": (3, 20)}
        known = {
            "integers-22": tuple(range(1, 23)),
            "double-half": (0.5, 0.5),
            "triple-half": (0.5, 0.5, 0.5),
        }
        if case in draws:
            seed, degree = draws[case]
            p = from_roots(families.separated_disk(np.random.default_rng(seed), degree))
        elif case == "far-root":
            p = _far_root_polynomial()
        else:
            p = from_roots(known.get(case, (3e-21, -5e-21j, 2e-21 + 1e-21j)))
        res = find_roots(p)
        assert res.converged
        with mpmath.workdps(exact.DPS):
            if case in known:
                truth = [mpmath.mpc(r) for r in known[case]]
            elif case == "far-root":
                cs = exact.coefficients(p)[::-1]
                truth = [mpmath.mpc(z) for z in res.roots]
                for _ in range(5):
                    truth = [x - mpmath.polyval(cs, x) / mpmath.polyval(cs, x, derivative=True)[1]
                             for x in truth]
            else:
                truth = exact.roots(p)
            inside = [
                {i for i, (z, r) in enumerate(zip(res.roots, res.radii)) if abs(e - mpmath.mpc(z)) <= r}
                for e in truth
            ]
        assert all(inside)
        for group in _overlapping_groups(res.roots, res.radii):
            assert sum(bool(hit & set(group)) for hit in inside) == len(group)

    def test_coincident_iterates_part(self):
        # Two equal starts make W infinite at both: in the shared sweep loop,
        # with the finder's binary64 step, each takes its own nudge while
        # the others wait, so they part and reach distinct roots.
        roots = (0.3, -0.4j, 0.5 + 0.5j, -0.6)
        c = np.asarray(from_roots(roots).coefficients)
        starts = np.array([[0.1 + 0.1j, 0.1 + 0.1j, -0.2, 0.4j]])
        steps = _root_corrections(c)
        # 2 bounds 1 + |r| for every root r.
        w, _, _ = poly._sweeps(starts, np.empty((1, 0), complex), steps, np.array([2.0]))
        _, worst = match_roots(w[0], roots)
        assert worst <= 1e-12

    @pytest.mark.parametrize("coefficients", [(1e300, 1e-300), (1e308, 1e308, 1e-308)])
    def test_coefficient_ratio_past_binary64_range_raises(self, coefficients):
        # c_0/c_n overflows: a DomainError naming the ratio, not a numpy
        # warning and NaN roots.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"c_0/c_{len(coefficients) - 1} overflows"):
                find_roots(Polynomial(coefficients))


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


class TestRadiusCertificate:
    """Every float radius of the finder is at least the exact Weierstrass
    radius at the same float points: the value bound of
    ``_compensated_horner`` and the rounding slack of
    ``polynomial._weierstrass_radii`` are checked against exact arithmetic.
    The kernel's radii are checked so in ``tests/test_polynomial.py``."""

    @pytest.mark.parametrize("case", ["wilkinson-10", "far-root"])
    def test_finder_radii_hold_the_exact_radii(self, case):
        # Integer roots come back exactly, where p and every exact radius
        # are 0; the roots 1.1 k do not.
        if case == "wilkinson-10":
            p = from_roots([1.1 * k for k in range(1, 11)])
        else:
            p = _far_root_polynomial()
        res = find_roots(p)
        assert all(r >= e for r, e in zip(res.radii, exact.radii(res.roots, p)))
