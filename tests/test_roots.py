"""Tests of ``roots``, the coefficient-form root finder: the ``Polynomial``
type, ``from_roots``' double-double expansion, the evaluations of p that
``find_roots`` runs, and the assignment ``match_roots`` makes between two
root lists.  ``Polynomial``'s rejected arguments are rows of
``tests/test_arguments.py``.

The finder's other tests, of ``find_roots``, are still in
``tests/test_polynomial.py``.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from conftest import complex_in_disk, disk_roots
from sendov_lab.bounds import DomainError
from sendov_lab.roots import (
    Polynomial,
    _compensated_horner,
    _exponents,
    _values,
    from_roots,
    match_roots,
)


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
        roots = disk_roots(np.random.default_rng(3), 30)
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
        roots = disk_roots(np.random.default_rng(5), 30)
        p = from_roots(roots)
        rng = np.random.default_rng(6)
        # Half the points lie within 1e-9 of a root, half about 0.3 off one.
        z = np.asarray(roots) * (1.0 + 1e-9 * rng.normal(size=30))
        z[1::2] += 0.3 * rng.normal(size=15)
        values, errors = _compensated_horner(np.asarray(p.coefficients), np.asarray(p.tails), z)
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
