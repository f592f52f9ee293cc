"""Tests of ``roots``, the coefficient-form root finder: the ``Polynomial``
type, ``from_roots``' double-double expansion, the evaluations of p that
``find_roots`` runs, ``find_roots`` itself and its inclusion discs, and the
assignment ``match_roots`` makes between two root lists.  Rejected
arguments of ``Polynomial`` and ``find_roots`` are rows of
``tests/test_arguments.py``.
"""

import cmath
import math
import sys
import warnings
from typing import NamedTuple

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
    """Disk draws of degree 3, 34 and 64; the last gains a pair 1e-5 apart."""
    draws = [families.separated_disk(np.random.default_rng(d), d) for d in (3, 34, 64)]
    draws[-1] += (draws[-1][0] + 1e-5,)
    return draws


def _overlapping_groups(centres, radii):
    """Connected groups of the discs |z - centres[i]| <= radii[i] that
    touch or overlap, singletons too, each by its indices in order."""
    groups = []
    for i in range(len(centres)):
        joined = [g for g in groups
                  if any(abs(centres[i] - centres[j]) <= radii[i] + radii[j] for j in g)]
        groups = [g for g in groups if g not in joined] + [sum(joined, []) + [i]]
    return sorted(tuple(sorted(g)) for g in groups)


def _newton_polish(p):
    """The roots of p's head + tail, five 60-digit Newton steps from those
    ``find_roots`` gives: for the far root, whose scaled low coefficients
    underflow in ``exact.roots``."""
    cs = exact.coefficients(p)[::-1]
    truth = [mpmath.mpc(z) for z in find_roots(p).roots]
    for _ in range(5):
        truth = [x - mpmath.polyval(cs, x) / mpmath.polyval(cs, x, derivative=True)[1]
                 for x in truth]
    return truth


class FinderRow(NamedTuple):
    """A polynomial, its known roots and what ``find_roots`` must give on it.

    Each known root lies within atol + rtol |root| of its ``match_roots``
    partner, with atol one value or one per known root.  ``truth`` gives
    the exact roots of head + tail: ``KNOWN`` where the known roots are
    exactly those, else a function of p in 60 digits, or None where no
    exact root is checked.  ``certified`` rows have
    distinct points, each radius at least the exact one at the same point.
    ``sweeps`` bounds ``iterations`` from below and above.
    """

    p: Polynomial
    known: tuple
    tolerance: tuple
    truth: object = None
    certified: bool = False
    largest_radius: float = math.inf
    sweeps: tuple[int, int] = (0, poly._MAX_SWEEPS - 1)


KNOWN = "the known roots"


def _expanded(roots, tolerance, *columns, **named):
    """The row of from_roots(roots), whose known roots are roots."""
    return FinderRow(from_roots(roots), tuple(roots), tolerance, *columns, **named)


def _decades(degree, tolerance, **columns):
    """The row of roots with moduli from 1e-2 to 1e2, from np.poly's
    binary64 coefficients."""
    rng = np.random.default_rng(0)
    roots = 10.0 ** rng.uniform(-2, 2, degree) * np.exp(2j * np.pi * rng.uniform(size=degree))
    return FinderRow(Polynomial(tuple(np.poly(roots)[::-1].tolist())), tuple(roots.tolist()),
                     tolerance, sweeps=(0, 40), **columns)


# (z - 1e6) times 59 roots on |z| = 0.5, from binary64 coefficients: 1e6^60
# is past binary64 range, and np.poly's rounding moves the ring by 2.3e-4.
FAR_RING = [0.5 * cmath.exp(2j * cmath.pi * k / 59 + 0.1j) for k in range(59)]
# A new finder edge case becomes a row here.
FINDER_ROWS = {
    "linear": FinderRow(Polynomial((-1.5 + 0.5j, 3.0)), ((1.5 - 0.5j) / 3.0,), (0.0, 1e-15)),
    "quadratic": _expanded((0.25 + 0.25j, -0.5), (1e-15, 0.0), KNOWN),
    "axes-4": _expanded((0.5, -0.5, 0.3j, -0.3j), (1e-15, 0.0), KNOWN),
    "unity-12": _expanded(tuple(families.circle(12).tolist()), (1e-13, 0.0)),
    # Zero coefficients below the lowest nonzero one are exact roots at 0:
    # no sweep runs when every root is 0.
    "origin-5": FinderRow(Polynomial((0.0,) * 5 + (1.0,)), (0.0,) * 5, (0.0, 0.0), KNOWN,
                          largest_radius=0.0, sweeps=(0, 0)),
    "origin-2": FinderRow(Polynomial((0.0, 0.0, 1.0)), (0.0, 0.0), (0.0, 0.0), KNOWN,
                          largest_radius=0.0, sweeps=(0, 0)),
    "origin-2-and-two-simple": _expanded((0.0, 0.0, 0.5, -0.25j), (1e-4, 0.0), KNOWN,
                                         largest_radius=1e-12),
    # A zero head with a nonzero tail is no exact root at 0, and a tail
    # that cancels its head is one.
    "tail-below-zero-head": FinderRow(Polynomial((0.0, 1.0), tails=(1e-20, 0.0)), (-1e-20,),
                                      (0.0, 1e-15), KNOWN),
    "zero-and-tail": FinderRow(Polynomial((0.0, 0.0, 1.0), tails=(0.0, 1e-20, 0.0)),
                               (-1e-20, 0.0), (0.0, 1e-15), KNOWN),
    "tail-cancels-head": FinderRow(Polynomial((1.0, 0.0, 1.0), tails=(-1.0, 0.0, 0.0)),
                                   (0.0, 0.0), (0.0, 0.0), KNOWN, sweeps=(0, 0)),
    # Each iterate of a repeated root stops at the rounding floor of p, so
    # the copies stay apart and their discs small, in one group.
    "double-half": _expanded((0.5, 0.5), (1e-4, 0.0), KNOWN, largest_radius=1e-12),
    "triple-half": _expanded((0.5, 0.5, 0.5), (1e-4, 0.0), KNOWN, largest_radius=1e-4),
    # Each point stops against its nearest neighbour and at its rounding
    # floor, not at a step absolute in 1 + |z|, so roots near 1e-21 come
    # back to full relative accuracy.
    "tiny-scale": _expanded((3e-21, -5e-21j, 2e-21 + 1e-21j), (0.0, 1e-12), exact.roots,
                            largest_radius=2e-33),
    **{f"disk-{degree}": _expanded(families.separated_disk(np.random.default_rng(seed), degree),
                                   (1e-8, 0.0), exact.roots)
       for seed, degree in [(1, 6), (2, 13), (3, 20)]},
    # The last draw adds a pair 1e-5 apart at degree 65: the compensated
    # sweeps on head + tail bring its round trip within 1e-8, where the
    # binary64 coefficients alone give ~3e-6.
    **{f"disk-{len(roots)}": _expanded(roots, (1e-8, 0.0)) for roots in _tail_draws()},
    # The finder takes p and the Weierstrass products at a far root at the
    # exact scale 2^-20 per factor: nothing overflows, and the far root is
    # found within 1e-12 relative and certified like the ring's.
    "far-root": FinderRow(Polynomial(tuple(complex(c) for c in np.poly([1e6] + FAR_RING)[::-1])),
                          (1e6, *FAR_RING), ((0.0, *[3e-4] * 59), 1e-12), _newton_polish, True,
                          1e-12, (0, 10)),
    # Each edge of the Newton polygon starts its roots near their own
    # modulus.  One circle of radius 1 + max|c_k/c_n|, near 1e28 at degree
    # 50, would start them decades off.  At degree 200 the rounding of
    # np.poly's coefficients alone moves the roots by about 1e-8.
    "decades-50": _decades(50, (1e-9, 0.0)),
    "decades-200": _decades(200, (1e-7, 0.0), largest_radius=1e-9),
    # prod(z - s k): the refinement reads p alone, from compensated Horner,
    # so no binary64 p' stops it short of the roots that the double-double
    # coefficients hold, exactly where s is 0.5 or 1.  From degree 20 the
    # binary64 run spends its whole budget (ROADMAP, Known defects).
    **{f"wilkinson-{s}-{degree}": _expanded(
        tuple(s * k for k in range(1, degree + 1)), (0.0, 1e-8), KNOWN if s in (0.5, 1.0) else None,
        sweeps=(0, poly._MAX_SWEEPS - 1) if degree < 20 else (poly._MAX_SWEEPS,) * 2)
       for degree in range(18, 23) for s in (0.5, 0.9, 1.0, 1.1, 1.3)},
    # Integer roots come back exactly, where p and every exact radius are
    # 0; the roots 1.1 k do not.
    "wilkinson-1.1-10": _expanded(tuple(1.1 * k for k in range(1, 11)), (0.0, 1e-8),
                                  certified=True),
}


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
    @pytest.mark.parametrize("case", list(FINDER_ROWS))
    def test_result_meets_the_row(self, case):
        # No warning of any kind leaks, and the roots come back sorted, bit
        # for bit again on a second call, with the exact zeros as 0j.
        row = FINDER_ROWS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_roots(row.p)
        assert res.converged
        assert [(z.real, z.imag) for z in res.roots] == sorted((z.real, z.imag) for z in res.roots)
        assert repr(find_roots(row.p)) == repr(res)
        assert res.roots.count(0j) == row.known.count(0)
        cols, _ = match_roots(res.roots, row.known)
        atol, rtol = row.tolerance
        assert all(abs(res.roots[c] - k) <= t + rtol * abs(k)
                   for c, k, t in zip(cols, row.known, np.broadcast_to(atol, len(row.known))))
        # One group of discs per distinct root: repeated roots share one.
        assert len(_overlapping_groups(res.roots, res.radii)) == len(set(map(complex, row.known)))
        assert max(res.radii) <= row.largest_radius
        assert row.sweeps[0] <= res.iterations <= row.sweeps[1]

    @pytest.mark.parametrize("case", [case for case, row in FINDER_ROWS.items() if row.truth])
    def test_discs_hold_every_root_and_each_group_its_count(self, case):
        # Each exact root lies in its partner's disc, so a group of d discs holds d.
        row = FINDER_ROWS[case]
        res = find_roots(row.p)
        with mpmath.workdps(exact.DPS):
            truth = row.truth(row.p) if callable(row.truth) else [mpmath.mpc(k) for k in row.known]
            cols, _ = match_roots(res.roots, [complex(x) for x in truth])
            assert all(abs(x - mpmath.mpc(res.roots[c])) <= res.radii[c] for c, x in zip(cols, truth))

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

    def test_finder_never_imports_mpmath(self, monkeypatch):
        # The finder refines the draw of the disk-65 row with error-free
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
    """Each finder radius, from ``_compensated_horner``'s value bound, is at
    least the exact one at the same points (the kernel's: test_polynomial)."""

    @pytest.mark.parametrize("case", [case for case, row in FINDER_ROWS.items() if row.certified])
    def test_finder_radii_hold_the_exact_radii(self, case):
        row = FINDER_ROWS[case]
        res = find_roots(row.p)
        assert all(r >= e for r, e in zip(res.radii, exact.radii(res.roots, row.p)))
