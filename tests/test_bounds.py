"""Tests for the closed-form bound formulas: their values, row by row of
BOUND_ROWS, against the paper's unsimplified formulas in 50 digits
(``exact.breakdown``, ``mean_bound``, ``d_function`` and ``mu2``), and
their properties.
"""

import hashlib
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
from sendov_lab import bounds, verify
from sendov_lab.bounds import DomainError
from sendov_lab.cli import _row

# Binary64 evaluation of each formula stays within a few ulp of the
# correctly rounded value; 1e-13 relative leaves two orders of headroom.
RTOL = 1e-13

a_interior = st.floats(min_value=1e-6, max_value=0.999999)


def _breakdown(a, **rtol):
    return lambda: _row(bounds.breakdown(a)), lambda: exact.breakdown(a), rtol


def _mean_bound(a, n):
    return lambda: _row(bounds.mean_upper_bound(a, n)), lambda: exact.mean_bound(a, n), {}


def _d_function(a, x):
    return (lambda: {"d": bounds.d_function(a, bounds.aux_params(a).c, x)},
            lambda: {"d": exact.d_function(a, x)}, {})


# row: (a public call and its exact counterpart, each giving its fields in
# _row's order, then the relative tolerance of each field not held to RTOL).
# A new test of a closed form's value becomes a row here.
BOUND_ROWS = {
    # n0 binds n1 and n2 at 0.1-0.3, n1's branch at 0.4-0.9, n2's at 0.99.
    **{f"breakdown-{a!r}": _breakdown(a)
       for a in (1e-3, 0.01, *(k / 10 for k in range(1, 10)), 0.99)},
    # The ends of verify's finest grid, where r and alpha lose digits (ROADMAP,
    # Known defects): each tolerance is its measured error rounded up to a
    # power of ten.  Most of r's is the rounding of c, at which the package
    # evaluates the chain and the reference does not; small_bound's 1 - a^2,
    # taken as (1 - a)(1 + a), is held at its rounding floor.
    "breakdown-1e-05": _breakdown(1e-5, alpha=1e-12, alpha_prime=1e-12, n3_exact=1e-12),
    "breakdown-0.99999": _breakdown(1 - 1e-5, r=1e-10, r_prime=1e-10, alpha=1e-11,
                                    alpha_prime=1e-11, n3_exact=1e-10, small_bound=1e-16),
    **{f"mean_upper_bound-{a}-{n}": _mean_bound(a, n)
       for a, n in [(0.5, 10), (0.5, 650), (0.1, 100), (0.9, 5), (0.3, 10**6)]},
    # (0.001, 0.01) is the worst location of verify's D-contraction check at
    # every seed; at (0.5, 0.01) the first branch, (1/(1+a))^x, binds.
    **{f"d_function-{a}-{x}": _d_function(a, x)
       for a, x in [(0.5, 0.25), (0.5, 0.75), (0.001, 0.01), (0.5, 0.01)]},
    # mu2's closed end, in the radical form and as 3 (sqrt(13) - 3)/2.
    "mu2-1.0": (lambda: {"mu2": bounds.mu2(1.0)}, lambda: {"mu2": exact.mu2(1.0)}, {}),
    "mu2-1.0-closed-form": (lambda: {"mu2": bounds.mu2(1.0)},
                            lambda: {"mu2": 3 * (mpmath.sqrt(13) - 3) / 2}, {}),
}


class TestContract:
    """Each public closed form equals its exact counterpart on every row of
    BOUND_ROWS: the same fields in the same order, each within RTOL or the
    row's tolerance for it.  A test of one closed form's value retires only
    when a row here catches a mutation that it catches."""

    @pytest.mark.parametrize("row", list(BOUND_ROWS))
    def test_value_equals_the_reference(self, row):
        call, reference, rtol = BOUND_ROWS[row]
        got = call()
        with mpmath.workdps(exact.DPS):
            expected = reference()
            assert list(got) == list(expected) and set(rtol) <= set(expected)
            errors = {field: abs(got[field] - v) / abs(v) for field, v in expected.items()}
            assert {f: float(e) for f, e in errors.items() if e > rtol.get(f, RTOL)} == {}


class TestAuxParams:
    @given(a_interior)
    def test_c_strictly_between_zero_and_a(self, a):
        aux = bounds.aux_params(a)
        assert 0.0 < aux.c < a


class TestDegreeThresholds:
    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    def test_n0_strictly_decreasing(self, a1, a2):
        if a1 == a2:
            return
        lo, hi = sorted((a1, a2))
        assert bounds.n0(lo) > bounds.n0(hi)


class TestMuRoots:
    @given(a_interior)
    @settings(max_examples=200)
    def test_mu2_quadratic_residual_exact(self, a):
        # mu2's quadratic in exact rational arithmetic at the returned root;
        # a correctly rounded root keeps this far below a double ulp of the
        # linear coefficient.
        residual, _ = exact.mu2_quadratic(a, bounds.mu2(a))
        assert abs(float(residual)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @example(1.0)
    @example(1e-300)
    @example(5e-324)
    @settings(max_examples=500)
    def test_mu2_integer_step_matches_fraction_step(self, a):
        # The reference: the same starting point x0 and the same Newton step
        # of mu2's quadratic, taken in Fraction arithmetic.
        t = (((a + 4.0) * a + 16.0) * a + 32.0) * a + 64.0
        x0 = (14.0 + 4.0 * a) / (math.sqrt(t) + 8.0 + 2.0 * a - a * a)
        f, df = exact.mu2_quadratic(a, x0)
        assert bounds.mu2(a).hex() == float(Fraction(x0) - f / df).hex()

    @given(a_interior)
    @settings(max_examples=200)
    def test_mu_order_and_bounds(self, a):
        m1, m2 = bounds.mu1(a), bounds.mu2(a)
        assert 0.875 < m2 < m1 < 1.0


class TestGrowthFactors:
    @given(st.floats(min_value=1e-5, max_value=0.9999))
    @settings(max_examples=200)
    def test_log_k_prime_strictly_positive(self, a):
        assert bounds.log_k_prime(a) > 0.0

    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_k_prime_is_min_of_k1_k2(self, a):
        aux = bounds.aux_params(a)
        k1, k2 = bounds.k_factors(a, aux.c, aux.p_prime, aux.q_prime)
        assert np.allclose(bounds.k_prime(a), min(k1, k2), rtol=RTOL, atol=0)

    @given(st.floats(min_value=1e-3, max_value=0.999), st.floats(min_value=0.01, max_value=0.99))
    def test_d_function_contracts(self, a, x):
        c = bounds.aux_params(a).c
        d = bounds.d_function(a, c, x)
        assert c / (1.0 + a) <= d < 1.0


class TestDValues:
    """d_function is the plain libm expression; the verifier's numpy screen,
    the same form with bounds._simd as its map, is within the screens'
    relative tolerance of it (verify._SCREEN_REL (1 + D)), not bit for bit
    equal."""

    def test_d_function_is_the_libm_expression(self):
        rng = np.random.default_rng(11)
        a_list = [0.001, 0.999] + rng.uniform(0.001, 0.999, size=298).tolist()
        # The verifier's x-grid (0.01 .. 0.99) and a few random x.
        xs = [k * 0.01 for k in range(1, 100)] + rng.uniform(0.01, 0.99, size=8).tolist()
        for a in a_list:
            c = bounds.aux_params(a).c
            root = math.sqrt(1.0 + c * c - a * c)
            for x in xs:
                # Python float powers are libm pow calls.
                second = ((1.0 + c) / (1.0 + a)) ** x * root ** (1.0 - x)
                libm = max((1.0 / (1.0 + a)) ** x, second)
                assert bounds.d_function(a, c, x) == libm, (a, x)

    def test_screen_is_within_tolerance_on_the_verify_grid(self):
        # The default grid with its random points, and the ends of the
        # finest grid, where the bases of the powers lie nearest 1.
        grid = verify._grid(1e-3)
        rng = np.random.default_rng(bounds.DEFAULT_SEED)
        pts = np.concatenate([
            grid, rng.uniform(grid[0], grid[-1], size=100),
            [1e-5, 2e-5, 1.0 - 2e-5, 1.0 - 1e-5], rng.uniform(1e-5, 1.0 - 1e-5, size=100),
        ])
        c = pts * (0.1 * pts + 0.9)
        xs = [k * 0.01 for k in range(1, 100)]
        screen = bounds._d(pts[:, None], c[:, None], np.array(xs), bounds._simd)
        assert screen.shape == (len(pts), len(xs)) and screen.dtype == np.float64
        pointwise = np.array([
            [bounds.d_function(a, ci, x) for x in xs]
            for a, ci in zip(pts.tolist(), c.tolist())
        ])
        assert np.all(np.abs(screen - pointwise) <= verify._SCREEN_REL * (1.0 + pointwise) / 1000)

    def test_d_function_returns_a_python_float(self):
        assert type(bounds.d_function(0.5, 0.475, 0.5)) is float


class TestAlphaChain:
    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=1e-4, max_value=0.9),
        st.floats(min_value=1e-4, max_value=0.9),
    )
    @example(a=0.5, r1=1e-4, r2=1e-4 + 2e-13)
    @example(a=0.999, r1=0.9 - 2e-13, r2=0.9)
    def test_alpha_increasing_in_r(self, a, r1, r2):
        lo, hi = sorted((r1, r2))
        # On this domain d(log alpha)/dr >= 2 and each evaluation is within
        # 1e-14 relative of the exact value, so any gap above RTOL must show
        # as a strict increase.  Closer pairs (adjacent floats, say) move
        # alpha by less than one rounding and may evaluate equal.
        if hi - lo <= RTOL:
            return
        c = bounds.aux_params(a).c
        assert bounds.alpha_param(a, c, lo) < bounds.alpha_param(a, c, hi)

    def test_alpha_prime_below_alpha(self):
        # r' < r and alpha grows with its argument, so alpha(r') < alpha(r);
        # the majorization the verifier checks is on alpha * log(1/r).
        for a in (0.1, 0.5, 0.9):
            c = bounds.aux_params(a).c
            r, r_prime = bounds.r_param(a, c)
            alpha = bounds.alpha_param(a, c, r)
            alpha_prime = bounds.alpha_param(a, c, r_prime)
            assert alpha_prime < alpha
            assert alpha_prime * math.log(1.0 / r_prime) >= alpha * math.log(1.0 / r)


class TestHeadlineBound:
    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_threshold_ordering(self, a):
        n3_exact, estimate = bounds.n3(a)
        assert n3_exact <= estimate <= bounds.final_bound(a)

    @pytest.mark.parametrize("fn, args", [
        (bounds.final_bound, (1e-50,)), (bounds.final_bound, (1e-46,)),
        (bounds.n0, (1e-170,)), (bounds.n0, (1e-160,)),
        (bounds.n1, (1e-170,)), (bounds.n1, (1e-160,)),
        (bounds.n2, (1e-170, 9e-171)),
        (bounds.n2, (1e-323, 5e-324)), (bounds.n2, (4e-323, 5e-324)),
        (bounds.small_circle_bound, (1e-170,)), (bounds.small_circle_bound, (1e-160,)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v[0]))
    def test_threshold_past_binary64_range_names_a(self, fn, args):
        # A power of a underflows to 0 or the threshold overflows: neither
        # a ZeroDivisionError, an OverflowError, inf nor a capped value.
        # Below 5e-323, n2's a/16 rounds to 0: no ValueError from its log.
        with pytest.raises(DomainError, match=f"a={args[0]!r}"):
            fn(*args)

    @pytest.mark.parametrize("a", [1e-17, 3e-323, 4e-323])
    def test_n3_names_a_where_one_minus_c_rounds_to_one(self, a):
        # Below 5e-323, a/16 rounds to 0 as well: its log comes after the check.
        with pytest.raises(DomainError, match=re.escape(f"a={a!r} is too small: 1 - c")):
            bounds.n3(a)


# SHA-256 of the reprs of mean_upper_bound on _mean_bound_pairs.
MEAN_BOUND_DIGEST = "4949e9f69fb0bc501da043a6c84de99233c2abea9c74480b346223fdd90cb923"


def _mean_bound_pairs():
    """200 seeded (a, n): a uniform over [2.1e-9, 1 - 1e-9] and log-uniform
    over [2.1e-9, 1), with n log-uniform from 2 to about 1e6 or to about
    1e299; past 2**53 most n are not floats."""
    rng = np.random.default_rng(31)
    a = np.concatenate([
        rng.uniform(2.1e-9, 1.0 - 1e-9, 100),
        np.minimum(10.0 ** rng.uniform(math.log10(2.1e-9), 0.0, 100), 1.0 - 1e-9),
    ])
    n = [max(2, round(10.0 ** x)) for x in rng.uniform(0.3, 6.0, 100).tolist()] + [
        max(2, int(10.0 ** x) + k)
        for x, k in zip(rng.uniform(0.3, 299.0, 100).tolist(), rng.integers(0, 1000, 100).tolist())
    ]
    return list(zip(a.tolist(), n))


class TestMeanBound:
    def test_reprs_match_digest(self):
        # Every bit of every field: the scan, the refinement and the
        # objective's roundings all show here.
        reprs = "\n".join(repr(bounds.mean_upper_bound(a, n)) for a, n in _mean_bound_pairs())
        assert hashlib.sha256(reprs.encode()).hexdigest() == MEAN_BOUND_DIGEST

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_infimum_not_above_quarter_point(self, a, n):
        mb = bounds.mean_upper_bound(a, n)
        assert mb.bound_inf <= mb.bound_at_quarter + 1e-9


def _array_points():
    rng = np.random.default_rng(13)
    return np.concatenate([
        verify._grid(1e-4), rng.uniform(1e-5, 1.0 - 1e-5, size=1000), [1e-5, 1.0 - 1e-5],
    ])


def _pin_cases():
    """name -> (array result, scalar results) for every array-capable
    closed form, each fed the same inputs entry by entry."""
    pts = _array_points()
    aux = bounds.aux_params(pts)
    c = aux.c
    r, r_prime = bounds.r_param(pts, c)
    log_k1, log_k2 = bounds.log_k_factors(pts, c, aux.p_prime, aux.q_prime)
    log_kp = np.minimum(log_k1, log_k2)
    a3 = bounds._libm(pow, pts, 3)
    log_a16 = bounds._libm(math.log, pts / 16.0)

    def each(fn, *arrays):
        return [fn(*args) for args in zip(*(x.tolist() for x in arrays))]

    scalar_aux = each(bounds.aux_params, pts)
    scalar_r = each(bounds.r_param, pts, c)
    scalar_log_k = each(bounds.log_k_factors, pts, c, aux.p_prime, aux.q_prime)
    cases = {
        f"aux_params.{f}": (getattr(aux, f), [getattr(x, f) for x in scalar_aux])
        for f in ("a", "q_prime", "p_prime", "gamma", "c")
    }
    cases.update({
        "n0": (bounds.n0(pts), each(bounds.n0, pts)),
        "_n1_branch": (bounds._n1_branch(pts), each(bounds._n1_branch, pts)),
        "_n2_ratio": (
            bounds._n2_ratio(pts, c, log_a16), each(bounds._n2_ratio, pts, c, log_a16)
        ),
        "mu1": (bounds.mu1(pts), each(bounds.mu1, pts)),
        "_mu1": (bounds._mu1(pts, a3), each(bounds._mu1, pts, a3)),
        "mu2": (bounds.mu2(pts), each(bounds.mu2, pts)),
        "log_k_factors.k1": (log_k1, [k1 for k1, _ in scalar_log_k]),
        "log_k_factors.k2": (log_k2, [k2 for _, k2 in scalar_log_k]),
        "r_param.r": (r, [x for x, _ in scalar_r]),
        "r_param.r_prime": (r_prime, [x for _, x in scalar_r]),
        "alpha_param.r": (bounds.alpha_param(pts, c, r), each(bounds.alpha_param, pts, c, r)),
        "alpha_param.r_prime": (
            bounds.alpha_param(pts, c, r_prime), each(bounds.alpha_param, pts, c, r_prime)
        ),
        "_alpha.r": (
            bounds._alpha(pts, c, r, log_a16), each(bounds._alpha, pts, c, r, log_a16)
        ),
        "_alpha.r_prime": (
            bounds._alpha(pts, c, r_prime, log_a16),
            each(bounds._alpha, pts, c, r_prime, log_a16),
        ),
        "_n3_exact": (
            bounds._n3_exact(pts, c, r, log_kp, log_a16),
            each(bounds._n3_exact, pts, c, r, log_kp, log_a16),
        ),
        "_n3_estimate": (bounds._n3_estimate(pts, a3), each(bounds._n3_estimate, pts, a3)),
        "final_bound": (bounds.final_bound(pts), each(bounds.final_bound, pts)),
        # The array here is of delta, at one a above every point and one n.
        "_mean_objective": (
            bounds._mean_objective(1.0 - 1e-6, 650, pts),
            [bounds._mean_objective(1.0 - 1e-6, 650, d) for d in pts.tolist()],
        ),
    })
    return cases


PINNED = [
    "aux_params.a", "aux_params.q_prime", "aux_params.p_prime", "aux_params.gamma",
    "aux_params.c", "n0", "_n1_branch", "_n2_ratio", "mu1", "_mu1", "mu2",
    "log_k_factors.k1", "log_k_factors.k2", "r_param.r", "r_param.r_prime", "alpha_param.r",
    "alpha_param.r_prime", "_alpha.r", "_alpha.r_prime", "_n3_exact", "_n3_estimate",
    "final_bound", "_mean_objective",
]


class TestArrayPath:
    """Every array-capable closed form gives, at each entry, the bits of
    the scalar call on that entry."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _pin_cases()

    def test_every_form_is_pinned(self, cases):
        assert list(cases) == PINNED

    @pytest.mark.parametrize("name", PINNED)
    def test_bits_equal_scalar_calls(self, cases, name):
        got, scalar = cases[name]
        assert all(type(v) is float for v in scalar)
        expected = np.array(scalar)
        assert got.dtype == np.float64 and got.shape == expected.shape == _array_points().shape
        differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert differ.size == 0, f"{differ.size} entries differ, first at index {differ[0]}"

    def test_mu2_at_its_closed_end(self):
        got = bounds.mu2(np.array([1.0]))
        assert got.dtype == np.float64 and got.tolist()[0].hex() == bounds.mu2(1.0).hex()

    def test_mu2_fallback_gives_the_same_bits(self, monkeypatch):
        # With a slack no rounding can clear, every entry takes the integer
        # step, and the bits stay those of the certified double-double path.
        pts = _array_points()
        certified = bounds.mu2(pts)
        step = bounds._mu2_step
        calls = []

        def counted(a, x0):
            calls.append(a)
            return step(a, x0)

        monkeypatch.setattr(bounds, "_mu2_step", counted)
        monkeypatch.setattr(bounds, "_MU2_SLACK_ABS", 1.0)
        fallback = bounds.mu2(pts)
        assert calls == pts.tolist()
        assert (fallback.view(np.uint64) == certified.view(np.uint64)).all()

    def test_mu2_near_a_rounding_midpoint_takes_the_integer_step(self, monkeypatch):
        # a chosen so that mu2's root lies within 2e-31 of the midpoint
        # 7/8 + (2j+1) 2^-54 between two doubles: the root of the quadratic
        # in a at that x, rounded to a double, moves the root by at most
        # ulp(a)/64.  The slack, at least 2^-90, is wider, so none certifies.
        def near_midpoint(j):
            m = Fraction(7, 8) + Fraction(2 * j + 1, 2**54)
            qa, qb, qc = m * (m - 1), 2 * (m - 1), 8 * m - 7
            a = qc / -qb
            for _ in range(3):
                a -= (qa * a * a + qb * a + qc) / (2 * qa * a + qb)
            return float(a)

        pts = np.array([near_midpoint(j) for j in range(20)])
        step = bounds._mu2_step
        calls = []

        def counted(a, x0):
            calls.append((a, x0))
            return step(a, x0)

        monkeypatch.setattr(bounds, "_mu2_step", counted)
        got = bounds.mu2(pts).tolist()
        assert [a for a, _ in calls] == pts.tolist()
        assert [x.hex() for x in got] == [step(a, x0).hex() for a, x0 in calls]

    def test_mu2_quadratic_error_on_the_verify_grid(self):
        # The double-double quadratic at mu2, against exact rationals; the
        # verifier's residual screen relies on the error staying far below
        # its tolerance.
        grid = verify._grid(1e-3)
        rng = np.random.default_rng(bounds.DEFAULT_SEED)
        pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=100), [1.0]])
        x = bounds.mu2(pts)
        hi, lo = bounds._mu2_quadratic(pts, x)
        worst = 0.0
        for a, xi, h, l in zip(pts.tolist(), x.tolist(), hi.tolist(), lo.tolist()):
            f, _ = exact.mu2_quadratic(a, xi)
            assert h == h + l
            worst = max(worst, abs(float(f - Fraction(h) - Fraction(l))))
        assert worst <= 1e-30

    def test_libm_maps_python_functions(self):
        x = np.array([0.1, 0.5, 3.0])
        assert bounds._libm(math.log1p, x).tolist() == [math.log1p(v) for v in x.tolist()]
        assert bounds._libm(pow, x, 3).tolist() == [v ** 3 for v in x.tolist()]
        assert type(bounds._libm(pow, 0.5, 3)) is float
        assert bounds._libm(math.log, np.array([])).shape == (0,)
