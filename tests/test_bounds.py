"""Tests for the closed-form bound formulas against frozen high-precision values.

Reference constants in reference_values.py were computed with 50-digit
arithmetic and rounded once to binary64; see tools/make_reference_values.py.
"""

import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as ref
from sendov_lab import bounds, verify
from sendov_lab.bounds import DomainError
from sendov_lab.cli import _row

# Binary64 evaluation of each formula stays within a few ulp of the
# correctly rounded value; 1e-13 relative leaves two orders of headroom.
RTOL = 1e-13

a_interior = st.floats(min_value=1e-6, max_value=0.999999)


def test_reference_values_match_their_generator():
    # The frozen file is exactly what the generator prints today.
    tests = Path(__file__).resolve().parent
    printed = subprocess.run(
        [sys.executable, str(tests.parent / "tools" / "make_reference_values.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert printed == (tests / "reference_values.py").read_text(encoding="utf-8")


class TestAuxParams:
    def test_values_at_half(self):
        aux = bounds.aux_params(0.5)
        assert np.allclose(aux.q_prime, ref.Q_PRIME_05, rtol=RTOL, atol=0)
        assert np.allclose(aux.p_prime, ref.P_PRIME_05, rtol=RTOL, atol=0)
        assert np.allclose(aux.gamma, ref.GAMMA_05, rtol=RTOL, atol=0)
        assert np.allclose(aux.c, ref.C_05, rtol=RTOL, atol=0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf"), True])
    def test_domain_rejection(self, bad):
        with pytest.raises(DomainError):
            bounds.aux_params(bad)

    @given(a_interior)
    def test_c_strictly_between_zero_and_a(self, a):
        aux = bounds.aux_params(a)
        assert 0.0 < aux.c < a


class TestDegreeThresholds:
    def test_n0_frozen_values(self):
        assert np.allclose(bounds.n0(0.5), ref.N0_05, rtol=RTOL, atol=0)
        assert np.allclose(bounds.n0(0.1), ref.N0_01, rtol=RTOL, atol=0)

    def test_n1_at_half_takes_n0_branch_maximum(self):
        # 9((4+2a)/a)^2 = 900 exactly at a = 0.5 and exceeds n0 there.
        assert np.allclose(bounds.n1(0.5), ref.N1_05, rtol=RTOL, atol=0)

    def test_n2_at_half_takes_n0_branch(self):
        c = bounds.aux_params(0.5).c
        assert np.allclose(bounds.n2(0.5, c), ref.N2_05, rtol=RTOL, atol=0)
        branch = 9.0 * (math.log(0.5 / 16.0) / math.log(c / 1.5)) ** 2
        assert np.allclose(branch, ref.N2_BRANCH_05, rtol=RTOL, atol=0)
        assert branch < bounds.n0(0.5)

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    def test_n0_strictly_decreasing(self, a1, a2):
        if a1 == a2:
            return
        lo, hi = sorted((a1, a2))
        assert bounds.n0(lo) > bounds.n0(hi)

    def test_n2_rejects_c_outside_zero_a(self):
        with pytest.raises(DomainError):
            bounds.n2(0.5, 0.6)
        with pytest.raises(DomainError):
            bounds.n2(0.5, 0.0)


class TestMuRoots:
    def test_mu_values_at_half(self):
        assert np.allclose(bounds.mu1(0.5), ref.MU1_05, rtol=RTOL, atol=0)
        assert np.allclose(bounds.mu2(0.5), ref.MU2_05, rtol=RTOL, atol=0)

    def test_mu2_closed_form_at_one(self):
        closed = 3.0 * (math.sqrt(13.0) - 3.0) / 2.0
        assert abs(bounds.mu2(1.0) - closed) <= 1e-12 * closed
        assert np.allclose(bounds.mu2(1.0), ref.MU2_AT_1, rtol=RTOL, atol=0)

    @given(a_interior)
    @settings(max_examples=200)
    def test_mu2_quadratic_residual_exact(self, a):
        # a^2 x^2 + (8+2a-a^2) x - (7+2a) evaluated in exact rational
        # arithmetic at the returned root; a correctly rounded root keeps
        # this far below a double ulp of the linear coefficient.
        af = Fraction(a)
        x = Fraction(bounds.mu2(a))
        residual = af * af * x * x + (8 + 2 * af - af * af) * x - (7 + 2 * af)
        assert abs(float(residual)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @example(1.0)
    @example(1e-300)
    @example(5e-324)
    @settings(max_examples=500)
    def test_mu2_integer_step_matches_fraction_step(self, a):
        # The reference: the same starting point x0 and the same Newton step
        # of a^2 x^2 + (8+2a-a^2) x - (7+2a), taken in Fraction arithmetic.
        t = (((a + 4.0) * a + 16.0) * a + 32.0) * a + 64.0
        x0 = (14.0 + 4.0 * a) / (math.sqrt(t) + 8.0 + 2.0 * a - a * a)
        af, x = Fraction(a), Fraction(x0)
        aa = af * af
        lin = 8 + 2 * af - aa
        f = aa * x * x + lin * x - (7 + 2 * af)
        df = 2 * aa * x + lin
        assert bounds.mu2(a).hex() == float(x - f / df).hex()

    @given(a_interior)
    @settings(max_examples=200)
    def test_mu_order_and_bounds(self, a):
        m1, m2 = bounds.mu1(a), bounds.mu2(a)
        assert 0.875 < m2 < m1 < 1.0

    def test_mu_rejects_endpoint_zero(self):
        with pytest.raises(DomainError):
            bounds.mu2(0.0)
        with pytest.raises(DomainError):
            bounds.mu1(0.0)
        # mu2 is defined up to and including a = 1 (closed-form endpoint).
        assert bounds.mu2(1.0) > 0.9


class TestGrowthFactors:
    def test_k_values_at_half(self):
        aux = bounds.aux_params(0.5)
        k1, k2 = bounds.k_factors(0.5, aux.c, aux.p_prime, aux.q_prime)
        assert np.allclose(k1, ref.K1_05, rtol=RTOL, atol=0)
        assert np.allclose(k2, ref.K2_05, rtol=RTOL, atol=0)
        assert np.allclose(bounds.k_prime(0.5), ref.K_PRIME_05, rtol=RTOL, atol=0)

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
    """d_function is the plain libm expression; the verifier's numpy screen
    is within a tolerance of it, not bit for bit equal."""

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
        # finest grid, where the logs of bases near 1 that the screen takes
        # lose the most relative accuracy.
        grid = verify._grid(1e-3)
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        pts = np.concatenate([
            grid, rng.uniform(grid[0], grid[-1], size=100),
            [1e-5, 2e-5, 1.0 - 2e-5, 1.0 - 1e-5], rng.uniform(1e-5, 1.0 - 1e-5, size=100),
        ])
        c = pts * (0.1 * pts + 0.9)
        xs = [k * 0.01 for k in range(1, 100)]
        screen = bounds._d_screen(pts, c, np.array(xs))
        assert screen.shape == (len(pts), len(xs)) and screen.dtype == np.float64
        exact = np.array([
            [bounds.d_function(a, ci, x) for x in xs]
            for a, ci in zip(pts.tolist(), c.tolist())
        ])
        assert np.abs(screen - exact).max() <= bounds._SCREEN_TOL / 1000

    @pytest.mark.parametrize("a, x, expected", [
        (0.5, 0.25, ref.D_05_025),
        (0.5, 0.75, ref.D_05_075),
        # The worst location of verify's D-contraction check at every seed.
        (0.001, 0.01, ref.D_0001_001),
    ])
    def test_frozen_values(self, a, x, expected):
        c = bounds.aux_params(a).c
        assert np.allclose(bounds.d_function(a, c, x), expected, rtol=1e-14, atol=0)
        screen = bounds._d_screen(np.array([a]), np.array([c]), np.array([x]))
        assert np.allclose(screen[0, 0], expected, rtol=1e-14, atol=0)

    def test_d_function_returns_a_python_float(self):
        assert type(bounds.d_function(0.5, 0.475, 0.5)) is float


class TestAlphaChain:
    def test_r_values_at_half(self):
        r, r_prime = bounds.r_param(0.5, 0.475)
        assert np.allclose(r, ref.R_05, rtol=RTOL, atol=0)
        assert np.allclose(r_prime, ref.R_PRIME_05, rtol=RTOL, atol=0)
        assert r > r_prime

    def test_alpha_values_at_half(self):
        r, r_prime = bounds.r_param(0.5, 0.475)
        assert np.allclose(bounds.alpha_param(0.5, 0.475, r), ref.ALPHA_05, rtol=RTOL, atol=0)
        assert np.allclose(
            bounds.alpha_param(0.5, 0.475, r_prime), ref.ALPHA_PRIME_05, rtol=RTOL, atol=0
        )

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
    def test_n3_at_half(self):
        exact, estimate = bounds.n3(0.5)
        assert np.allclose(exact, ref.N3_EXACT_05, rtol=RTOL, atol=0)
        assert np.allclose(estimate, ref.N3_ESTIMATE_05, rtol=RTOL, atol=0)

    def test_final_bound_table(self):
        for a, expected in ref.FINAL_BOUND_TABLE.items():
            assert np.allclose(bounds.final_bound(a), expected, rtol=RTOL, atol=0)

    def test_small_circle_bound_at_half(self):
        assert np.allclose(bounds.small_circle_bound(0.5), ref.SMALL_05, rtol=RTOL, atol=0)

    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_threshold_ordering(self, a):
        exact, estimate = bounds.n3(a)
        assert exact <= estimate <= bounds.final_bound(a)

    def test_breakdown_matches_parts(self):
        # The row `bound` prints: the aux fields inlined first, in field order.
        d = _row(bounds.breakdown(0.5))
        assert list(d) == [
            "a", "q_prime", "p_prime", "gamma", "c",
            "n0", "n1", "n2", "mu1", "mu2", "k1", "k2", "k_prime",
            "r", "r_prime", "alpha", "alpha_prime",
            "n3_exact", "n3_estimate", "final_n", "small_bound",
        ]
        assert d["n0"] == bounds.n0(0.5)
        assert d["final_n"] == bounds.final_bound(0.5)
        assert d["small_bound"] == bounds.small_circle_bound(0.5)
        assert d["k_prime"] == bounds.k_prime(0.5)

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


class TestMeanBound:
    def test_frozen_values(self):
        mb = bounds.mean_upper_bound(0.5, 650)
        assert np.allclose(mb.bound_at_quarter, ref.MEAN_QUARTER_05_650, rtol=RTOL, atol=0)
        assert np.allclose(mb.bound_inf, ref.MEAN_INF_05_650, rtol=RTOL, atol=0)
        assert mb.bound_at_quarter <= 0.125
        mb10 = bounds.mean_upper_bound(0.5, 10)
        assert np.allclose(mb10.bound_inf, ref.MEAN_INF_05_10, rtol=RTOL, atol=0)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_infimum_not_above_quarter_point(self, a, n):
        mb = bounds.mean_upper_bound(a, n)
        assert mb.bound_inf <= mb.bound_at_quarter + 1e-9

    @pytest.mark.parametrize("bad_n", [1, 0, -3, True, 2.0])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(DomainError):
            bounds.mean_upper_bound(0.5, bad_n)


class TestPythonFloats:
    """A numpy float64 argument gives the same Python floats as a float."""

    A = np.float64(0.5)
    C = np.float64(0.475)

    @pytest.mark.parametrize("fn, args", [
        (bounds.n0, (A,)), (bounds.n1, (A,)), (bounds.n2, (A, C)),
        (bounds.d_function, (A, C, np.float64(0.5))),
        (bounds.k_factors, (A, C, np.float64(0.1), np.float64(0.1))),
        (bounds.log_k_factors, (A, C, np.float64(0.1), np.float64(0.1))),
        (bounds.k_prime, (A,)), (bounds.log_k_prime, (A,)),
        (bounds.mu1, (A,)), (bounds.mu2, (A,)),
        (bounds.r_param, (A, C)), (bounds.alpha_param, (A, C, np.float64(0.1))),
        (bounds.n3, (A,)), (bounds.final_bound, (A,)), (bounds.small_circle_bound, (A,)),
    ], ids=lambda v: v.__name__ if callable(v) else "")
    def test_closed_form(self, fn, args):
        result = fn(*args)
        values = result if isinstance(result, tuple) else (result,)
        assert [type(v) for v in values] == [float] * len(values)
        plain = fn(*(float(x) for x in args))
        assert result == plain

    @pytest.mark.parametrize("report", [
        lambda a: bounds.aux_params(a),
        lambda a: bounds.breakdown(a),
        lambda a: bounds.mean_upper_bound(a, 10),
    ], ids=["aux_params", "breakdown", "mean_upper_bound"])
    def test_report_fields(self, report):
        row = _row(report(self.A))
        assert {k for k, v in row.items() if type(v) is not float} <= {"n"}
        assert row == _row(report(0.5))


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
    })
    return cases


PINNED = [
    "aux_params.a", "aux_params.q_prime", "aux_params.p_prime", "aux_params.gamma",
    "aux_params.c", "n0", "_n1_branch", "_n2_ratio", "mu1", "_mu1", "mu2",
    "log_k_factors.k1", "log_k_factors.k2", "r_param.r", "r_param.r_prime", "alpha_param.r",
    "alpha_param.r_prime", "_alpha.r", "_alpha.r_prime", "_n3_exact", "_n3_estimate",
    "final_bound",
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
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=100), [1.0]])
        x = bounds.mu2(pts)
        hi, lo = bounds._mu2_quadratic(pts, x)
        worst = 0.0
        for a, xi, h, l in zip(pts.tolist(), x.tolist(), hi.tolist(), lo.tolist()):
            af, xf = Fraction(a), Fraction(xi)
            exact = af * af * xf * xf + (8 + 2 * af - af * af) * xf - (7 + 2 * af)
            assert h == h + l
            worst = max(worst, abs(float(exact - Fraction(h) - Fraction(l))))
        assert worst <= 1e-30

    def test_libm_maps_python_functions(self):
        x = np.array([0.1, 0.5, 3.0])
        assert bounds._libm(math.log1p, x).tolist() == [math.log1p(v) for v in x.tolist()]
        assert bounds._libm(pow, x, 3).tolist() == [v ** 3 for v in x.tolist()]
        assert type(bounds._libm(pow, 0.5, 3)) is float
        assert bounds._libm(math.log, np.array([])).shape == (0,)


class TestArrayValidation:
    """An array of a passes if every entry would; otherwise the first bad
    entry gets its scalar error, and no numpy warning leaks."""

    @staticmethod
    def _scalar_message(fn, a):
        with pytest.raises(DomainError) as excinfo:
            fn(a)
        return str(excinfo.value)

    @pytest.mark.parametrize("fn", [
        bounds.aux_params, bounds.n0, bounds.mu1, bounds.final_bound, bounds._check_a,
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, math.inf, -math.inf])
    def test_bad_entry_gets_its_scalar_error(self, fn, bad):
        message = self._scalar_message(fn, bad)
        with pytest.raises(DomainError, match=re.escape(message + " at index 2")):
            fn(np.array([0.5, 0.25, bad, 0.75]))

    # mu2 is defined at a = 1; TestArrayPath pins an array holding it.
    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
    def test_mu2_bad_entry_gets_its_scalar_error(self, bad):
        message = self._scalar_message(bounds.mu2, bad)
        with pytest.raises(DomainError, match=re.escape(message + " at index 2")):
            bounds.mu2(np.array([0.5, 0.25, bad, 0.75]))

    def test_subnormal_entry_leaves_no_c_below_a(self):
        message = self._scalar_message(bounds.aux_params, 5e-324)
        assert message == "a=5e-324 leaves no binary64 value of c = a*gamma below a"
        with pytest.raises(DomainError, match=re.escape(message)):
            bounds.aux_params(np.array([0.5, 0.25, 5e-324, 0.75]))

    def test_index_of_the_first_bad_entry_is_named(self):
        with pytest.raises(DomainError, match=r"^a must lie in \(0, 1\), got 1\.5 at index 2$"):
            bounds.n0(np.array([0.5, 0.25, 1.5, 0.0]))

    def test_bool_array(self):
        message = self._scalar_message(bounds.aux_params, np.True_)
        assert message == "a must be a real number, got np.True_"
        with pytest.raises(DomainError, match=re.escape(message + " at index 0 of a bool array")):
            bounds.aux_params(np.array([True, False]))

    @pytest.mark.parametrize("bad", [
        np.full((2, 2), 0.5), np.array(0.5), np.array([0.5], dtype=np.float32),
        np.array([], dtype=np.int64), np.array([0.5], dtype=object),
    ], ids=["2-D", "0-D", "float32", "empty int", "object"])
    def test_other_shapes_and_dtypes(self, bad):
        with pytest.raises(DomainError, match="a must be a real number"):
            bounds.aux_params(bad)

    def test_other_arguments_are_checked_against_their_own_entry(self):
        a = np.array([0.5, 0.4])
        with pytest.raises(DomainError, match=r"c must lie in \(0, 0\.4\), got 0\.6 at index 1"):
            bounds.r_param(a, np.array([0.3, 0.6]))
        with pytest.raises(DomainError, match=r"r_val must lie in \(0, 1\), got 1\.0 at index 0"):
            bounds.alpha_param(a, np.array([0.3, 0.3]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("fn, tiny", [
        (bounds.final_bound, 1e-50), (bounds.n0, 1e-170), (bounds.n0, 1e-160),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_threshold_past_binary64_range_names_the_entry(self, fn, tiny):
        with pytest.raises(DomainError, match=re.escape(self._scalar_message(fn, tiny))):
            fn(np.array([0.5, tiny]))

    def test_checks_past_validation_name_the_entry(self):
        # a = 1e-17 passes aux_params but leaves 1 - c == 1.
        a = np.array([0.5, 1e-17])
        c = bounds.aux_params(a).c
        with pytest.raises(DomainError, match=re.escape("a=1e-17 is too small: 1 - c")):
            bounds.alpha_param(a, c, np.array([0.1, 0.1]))
        a = np.array([0.5, 0.6])
        c = bounds.aux_params(a).c
        r, _ = bounds.r_param(a, c)
        log_a16 = bounds._libm(math.log, a / 16.0)
        with pytest.raises(DomainError, match=re.escape("not above 1 at a=0.6;")):
            bounds._n3_exact(a, c, r, np.array([0.1, 0.0]), log_a16)
