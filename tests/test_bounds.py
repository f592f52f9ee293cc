"""Tests for the closed-form bound formulas against frozen high-precision values.

Reference constants in reference_values.py were computed with 50-digit
arithmetic and rounded once to binary64; see tools/make_reference_values.py.
"""

import math
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
        grid = verify._grid(1e-3)
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], size=100)])
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
        (bounds.small_circle_bound, (1e-170,)), (bounds.small_circle_bound, (1e-160,)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v[0]))
    def test_threshold_past_binary64_range_names_a(self, fn, args):
        # A power of a underflows to 0 or the threshold overflows: neither
        # a ZeroDivisionError, an OverflowError, inf nor a capped value.
        with pytest.raises(DomainError, match=f"a={args[0]!r}"):
            fn(*args)


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
