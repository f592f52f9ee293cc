"""Explicit degree thresholds for Sendov's conjecture at a real zero a in (0,1).

All functions here are elementary closed forms in the single parameter ``a``
(the modulus of the distinguished zero; every other zero of the polynomial
lives in the closed unit disk).  They combine into the explicit threshold

    final_bound(a) = 20800 / (a^7 (1-a)^4)

with the property that any polynomial of degree >= final_bound(a) vanishing
at a has a critical point within distance 1 of a.  The intermediate
quantities (n0..n3, the growth factors K1/K2/K', the quadratic-root
thresholds mu1/mu2, the radii r/r' and exponents alpha/alpha') are exposed
individually so each inequality in the derivation can be checked on its own.

Everything is evaluated in binary64.  Where a textbook expression loses
precision for small ``a`` (mu1, mu2, the log of a K-factor barely above 1),
an algebraically equivalent stable rewrite is used and documented inline.

The per-a closed forms the verifier sweeps (aux_params, n0, mu1, mu2,
log_k_factors, r_param, alpha_param, final_bound and n3's two parts) take
a float or a 1-D float64 array of a; their other arguments follow a, as
floats or as arrays of the same length.  A float gives Python floats, an
array gives arrays, and every entry of an array result is bit for bit the
float the same call gives on that entry: + - * / and sqrt are correctly
rounded in numpy as in Python, and every log, log1p and power goes through
``_libm``, a libm call per entry, never numpy's SIMD versions.  mu2's
exact Newton step is taken in double-double on an array and kept where its
rounding is certified; the other entries take the float call's integer
step (see mu2).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "AuxParams",
    "BoundBreakdown",
    "MeanBound",
    "aux_params",
    "n0",
    "n1",
    "n2",
    "d_function",
    "k_factors",
    "log_k_factors",
    "k_prime",
    "log_k_prime",
    "mu1",
    "mu2",
    "r_param",
    "alpha_param",
    "n3",
    "final_bound",
    "mean_upper_bound",
    "small_circle_bound",
    "breakdown",
]


class DomainError(ValueError):
    """An argument violates a documented precondition: a parameter outside
    the interval its formula is defined on, a malformed instance, or an
    unreadable input or unwritable output file."""


def _real_in(
    name: str, value, lo: float, hi: float, *, closed_left: bool = False, closed_right: bool = False
) -> float:
    """value as a float, if it is a real (not bool) in (lo, hi), with either
    end included on request.  The bounds are finite, so NaN and infinities
    fail.  A 1-D array passes, as a float64 array, if every entry passes;
    hi may then be an array of the same length."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if isinstance(value, np.ndarray):
            return _real_array(name, value, lo, hi, closed_left, closed_right)
        raise DomainError(f"{name} must be a real number, got {value!r}")
    above = lo <= value if closed_left else lo < value
    below = value <= hi if closed_right else value < hi
    if not (above and below):
        raise DomainError(_outside(name, value, lo, hi, closed_left, closed_right))
    return float(value)


def _outside(name: str, value, lo, hi, closed_left: bool, closed_right: bool) -> str:
    """_real_in's message for a value outside its interval."""
    return (
        f"{name} must lie in {'[' if closed_left else '('}{lo!r}, {hi!r}"
        f"{']' if closed_right else ')'}, got {value!r}"
    )


def _real_array(
    name: str, value: np.ndarray, lo: float, hi, closed_left: bool, closed_right: bool
) -> np.ndarray:
    """value, if it is a 1-D float64 array whose every entry passes
    _real_in; else the error the first failing entry gets, with its index.
    Entries of any other dtype are numpy scalars that are not floats."""
    if value.ndim != 1:
        raise DomainError(f"{name} must be a real number or a 1-D array, got shape {value.shape}")
    if value.dtype != np.float64:
        first = f"{value[0]!r} at index 0 of a" if value.size else "an empty"
        raise DomainError(f"{name} must be a real number, got {first} {value.dtype} array")
    above = lo <= value if closed_left else lo < value
    below = value <= hi if closed_right else value < hi
    ok = above & below
    if not ok.all():
        i = int(np.argmin(ok))
        hi_i = hi.item(i) if isinstance(hi, np.ndarray) else hi
        message = _outside(name, value.item(i), lo, hi_i, closed_left, closed_right)
        raise DomainError(f"{message} at index {i}")
    return value


def _int_in(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int, if it is a Python or numpy integer (not bool)
    in [lo, hi], or at least lo when hi is None."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if lo <= value and (hi is None or value <= hi):
                return value
    if hi is not None:
        span = f"an integer in [{lo}, {hi}]"
    else:
        span = {0: "a non-negative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
    raise DomainError(f"{name} must be {span}, got {value!r}")


def _check_a(a: float) -> float:
    """a as a float, if it lies in (0, 1): the zero every formula here is about.
    An array of a comes back as a float64 array, if every entry does."""
    return _real_in("a", a, 0, 1)


def _require(ok, a, message: str) -> None:
    """Raise DomainError(message.format(a)) unless ok; on arrays, unless ok
    holds at every entry, and then for the first a where it does not."""
    if isinstance(ok, np.ndarray):
        if not ok.all():
            raise DomainError(message.format(a.item(int(np.argmin(ok)))))
    elif not ok:
        raise DomainError(message.format(a))


def _finite(name: str, a: float, value: float) -> float:
    """value = name(a), unless a tiny a sent it past binary64 range (to inf,
    which callers also pass where the power of a they divide by is 0)."""
    _require(value != math.inf, a, "a={!r} is too small: " + name + "(a) is past binary64 range")
    return value


def _libm(fn, x, *args):
    """fn(x, *args) for a float x; for an array, fn called on each entry as a
    Python float, so math's functions and pow are libm's on every entry.

    numpy's log, log1p, exp and power are SIMD code that rounds differently
    from libm on a few percent of inputs, and x*x*x is not pow(x, 3) either.
    """
    if isinstance(x, np.ndarray):
        values = map(fn, x.tolist(), *map(itertools.repeat, args))
        return np.fromiter(values, np.float64, count=x.size)
    return fn(x, *args)


def _sqrt(x):
    """Correctly rounded square root of a float or of an array's entries."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _ratio(num, den):
    """num / den for num > 0, or inf where den is 0 (and where the quotient
    overflows, as it does for floats)."""
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", over="ignore"):
            return num / den
    return num / den if den else math.inf


@dataclass(frozen=True)
class AuxParams:
    """The derived parameters attached to a: exponents q', p', and c = a*gamma."""

    a: float
    q_prime: float  # (a/4) / (1 + a/2)
    p_prime: float  # (a/4) / (1 - a/2)
    gamma: float    # 0.1 a + 0.9
    c: float        # a * gamma


@dataclass(frozen=True)
class BoundBreakdown:
    """Every intermediate quantity behind final_bound(a), for one value of a."""

    aux: AuxParams
    n0: float
    n1: float
    n2: float
    mu1: float
    mu2: float
    k1: float
    k2: float
    k_prime: float
    r: float
    r_prime: float
    alpha: float
    alpha_prime: float
    n3_exact: float
    n3_estimate: float
    final_n: float
    small_bound: float


@dataclass(frozen=True)
class MeanBound:
    """Upper bound on the mean real part of the zeros of a degree-n counterexample."""

    a: float
    n: int
    bound_at_quarter: float  # objective evaluated at delta = a/4
    bound_inf: float         # numeric infimum of the objective over delta in (0, a)


def aux_params(a: float) -> AuxParams:
    """q' = (a/4)/(1+a/2), p' = (a/4)/(1-a/2), gamma = 0.1a+0.9, c = a*gamma."""
    a = _check_a(a)
    c = a * (0.1 * a + 0.9)
    # a - c = 0.1 a (1 - a) is below half an ulp of a within about 1e-15 of
    # 1, and on subnormal a; every formula that takes c needs c < a.
    _require(c < a, a, "a={!r} leaves no binary64 value of c = a*gamma below a")
    return AuxParams(
        a=a,
        q_prime=(a / 4.0) / (1.0 + a / 2.0),
        p_prime=(a / 4.0) / (1.0 - a / 2.0),
        gamma=0.1 * a + 0.9,
        c=c,
    )


def n0(a: float) -> float:
    """Degree threshold 32*log(40/a^2)/a^2 forcing the zero-mean bound a/4."""
    a = _check_a(a)
    a2 = a * a
    return _finite("n0", a, _ratio(32.0 * _libm(math.log, _ratio(40.0, a2)), a2))


def _n1_branch(a: float) -> float:
    """9*((4+2a)/a)^2, n1's branch besides n0; a is already checked."""
    return 9.0 * _libm(pow, (4.0 + 2.0 * a) / a, 2)


def n1(a: float) -> float:
    """max{ 9*((4+2a)/a)^2, n0(a) }."""
    a = _check_a(a)
    # n0 rejects every a small enough to overflow the square (a < 3e-154).
    floor = n0(a)
    return _finite("n1", a, max(_n1_branch(a), floor))


def _n2_ratio(a: float, c: float, log_a16: float) -> float:
    """log(a/16)/log(c/(1+a)) from log_a16 = log(a/16), whose square times
    9 is n2's branch besides n0; a and c are already checked."""
    return log_a16 / _libm(math.log, c / (1.0 + a))


def n2(a: float, c: float) -> float:
    """max{ 9*(log(a/16)/log(c/(1+a)))^2, n0(a) }; both logs are negative."""
    a = _check_a(a)
    c = _real_in("c", c, 0, a)
    # n0 rejects every a below about 3e-154, far above the a < 5e-323 where
    # a/16 rounds to 0, so the log below never sees 0.
    floor = n0(a)
    ratio = _n2_ratio(a, c, _libm(math.log, a / 16.0))
    return max(9.0 * ratio * ratio, floor)


def d_function(a: float, c: float, x: float) -> float:
    """Contraction factor max{ (1/(1+a))^x, ((1+c)/(1+a))^x * sqrt(1+c^2-ac)^(1-x) }.

    Strictly below 1 for x in (0, 1) and at least c/(1+a) everywhere.  Each
    power is a scalar libm call: this is the exact reference the verifier's
    D-contraction check reports, after ``_d_screen`` has picked the samples
    that could hold its minimum.
    """
    a = _check_a(a)
    c = _real_in("c", c, 0, a)
    x = _real_in("x", x, 0, 1)
    root = math.sqrt(1.0 + c * c - a * c)
    return max((1.0 / (1.0 + a)) ** x, ((1.0 + c) / (1.0 + a)) ** x * root ** (1.0 - x))


# The screen's promise: |_d_screen - d_function| stays below this on the
# verifier's samples.  Measured gaps are about 2e-16 (1 ulp of D), so the
# bound leaves a factor of several thousand.
_SCREEN_TOL = 1e-12


def _d_screen(a: np.ndarray, c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """D(a[i], c[i], xs[j]) at [i, j], unvalidated; a and c have equal length.

    The bases b1 = 1/(1+a), b2 = (1+c)/(1+a) and r = sqrt(1+c^2-ac) are
    d_function's, and D = max{b1^x, r (b2/r)^x} is exp of the larger of
    x log b1 and log r + x log(b2/r): three np.log per (a, c) and one
    np.exp per sample, numpy's SIMD code, which may differ from libm in the
    last bits.  Every exponent lies in [-1, 1], so its rounding moves D by a few
    ulp: the values are within _SCREEN_TOL of d_function, not bit for bit
    equal to it.  At most two arrays of the result's shape are alive at once.
    """
    root = np.sqrt(1.0 + c * c - a * c)
    log_first = np.log(1.0 / (1.0 + a))
    log_root = np.log(root)
    log_ratio = np.log((1.0 + c) / (1.0 + a) / root)
    d = np.multiply.outer(log_first, xs)
    other = np.multiply.outer(log_ratio, xs)
    other += log_root[:, None]
    np.maximum(d, other, out=d)
    return np.exp(d, out=d)


def log_k_factors(a: float, c: float, p: float, q: float) -> tuple[float, float]:
    """(log K1, log K2) computed with log1p so values barely above 0 keep full precision.

    log K1 = p*log(1+c-ac) + (1-p)/2 * log(1+c^2-ac)
    log K2 = q*log(1+c)    + (1-q)/2 * log(1+c^2-ac)

    For small a both K-factors are 1 + O(a^2); going through exp/log of the
    factor itself would wipe out the margin of the K' > 1 inequality.
    """
    a = _check_a(a)
    c = _real_in("c", c, 0, a)
    p = _real_in("p", p, 0, 1)
    q = _real_in("q", q, 0, 1)
    log_disc = _libm(math.log1p, c * c - a * c)
    log_k1 = p * _libm(math.log1p, c - a * c) + 0.5 * (1.0 - p) * log_disc
    log_k2 = q * _libm(math.log1p, c) + 0.5 * (1.0 - q) * log_disc
    return log_k1, log_k2


def k_factors(a: float, c: float, p: float, q: float) -> tuple[float, float]:
    """(K1, K2) = ((1+c-ac)^p sqrt(1+c^2-ac)^(1-p), (1+c)^q sqrt(1+c^2-ac)^(1-q))."""
    log_k1, log_k2 = log_k_factors(a, c, p, q)
    return math.exp(log_k1), math.exp(log_k2)


def log_k_prime(a: float) -> float:
    """log of k_prime(a) = min{K1, K2} at c = a*gamma(a) with exponents p', q'."""
    aux = aux_params(a)
    log_k1, log_k2 = log_k_factors(aux.a, aux.c, aux.p_prime, aux.q_prime)
    return min(log_k1, log_k2)


def k_prime(a: float) -> float:
    """min{ K1(a, a*gamma, p'), K2(a, a*gamma, q') }; exceeds 1 on all of (0,1)."""
    return math.exp(log_k_prime(a))


def _two_sum(x, y):
    """(s, e) with s = fl(x + y) and s + e = x + y exactly (Knuth's TwoSum)."""
    s = x + y
    bv = s - x
    return s, (x - (s - bv)) + (y - bv)


def _split(x):
    """(hi, lo) with hi + lo = x and each half 26 bits or fewer (Veltkamp)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, y):
    """(p, e) with p = fl(x * y) and p + e = x * y exactly (Dekker's
    TwoProduct, which needs no fused multiply-add), barring underflow."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _mu2_quadratic(a, x):
    """mu2's quadratic a^2 x^2 + (8+2a-a^2) x - (7+2a) as a double-double
    (hi, lo), with hi = fl(hi + lo), for x in [1/2, 7/4]; a and x are floats
    or arrays of the same length.

    Written as (x-1)(a(ax + 2)) + (8x-7), where x - 1 and 8x - 7 are exact
    on that span (Sterbenz), so every error comes from the low parts of the
    two products and one sum: about 1e-32 absolute where hi + lo is near 0,
    as it is at mu2's root, against ~1e-16 for the binary64 evaluation.
    """
    u = x - 1.0
    w = 8.0 * x - 7.0
    p, p_lo = _two_product(a, x)
    s, s_lo = _two_sum(p, 2.0)
    s_lo = s_lo + p_lo
    v, v_lo = _two_product(a, s)
    v_lo = v_lo + a * s_lo
    m, m_lo = _two_product(u, v)
    m_lo = m_lo + u * v_lo
    q, q_lo = _two_sum(m, w)
    return _two_sum(q, q_lo + m_lo)


# A Newton step of mu2's quadratic in double-double keeps its rounded value
# only where the rounding is certain with this much room to spare, relative
# to the step delta and absolute.  delta errs by about 1e-15 of itself (f'
# and the quotient round in binary64) plus 1e-31 (f errs by about 1e-32),
# so each term leaves a factor of a thousand or more.
_MU2_SLACK_REL = 1e-12
_MU2_SLACK_ABS = 2.0**-90


def _mu2_step(a: float, x0: float) -> float:
    """x0 - f(x0)/f'(x0) for mu2's quadratic f, correctly rounded: the exact
    Newton step on the integers behind the binary fractions a and x0."""
    na, da = a.as_integer_ratio()
    nx, dx = x0.as_integer_ratio()
    lin = (8 * da + 2 * na) * da - na * na
    f = (na * na * nx + lin * dx) * nx - (7 * da + 2 * na) * da * dx * dx
    df = 2 * na * na * nx + lin * dx
    return (nx * df - f) / (df * dx)


def mu2(a: float) -> float:
    """Threshold sqrt((a^4+4a^3+16a^2+32a+64)/(4a^4)) + (a^2-2a-8)/(2a^2).

    Any gamma with mu2(a) < gamma < 1 makes K2(a, a*gamma, q') > 1.  Computed
    via the rationalized form (14+4a)/(sqrt(t(a)) + 8 + 2a - a^2): the two
    textbook terms are each ~4/a^2 with opposite signs, so the direct sum
    loses ~a^2/4 of the precision.  Even the rationalized form is only good
    to ~2 ulp, which the quadratic's ~8/a^2 linear coefficient amplifies past
    1e-9 for the smallest grid points, so one Newton step of the (cleared)
    quadratic a^2 x^2 + (8+2a-a^2) x - (7+2a) is taken in exact rational
    arithmetic: the returned double is then the correctly rounded root.
    Both a = na/da and x0 = nx/dx are binary fractions, so the step is done
    on those integers: with L = 8 da^2 + 2 na da - na^2 (the linear
    coefficient times da^2),

        x0 - f/f' = (nx F' - F) / (F' dx),
        F  = na^2 nx^2 + L nx dx - (7 da + 2 na) da dx^2,
        F' = 2 na^2 nx + L dx,

    exactly, and the one rounding is CPython's correctly rounded int / int.

    An array of a takes the step in double-double instead, with the
    error-free TwoSum and TwoProduct (Dekker, Numer. Math. 18, 1971; Ogita,
    Rump & Oishi, SIAM J. Sci. Comput. 26, 2005): f(x0) from
    _mu2_quadratic, delta = f/f', and TwoSum(x0, -delta) = (s, e) exactly.
    Where |e| plus a slack far above delta's error is below half the gap
    from s to either neighbouring double, the exact step rounds to s; every
    other entry takes the integer step.  Either way each entry is bit for
    bit the float call.  Defined on (0, 1]; mu2(1) = 3(sqrt(13)-3)/2.
    """
    a = _real_in("a", a, 0, 1, closed_right=True)
    t = (((a + 4.0) * a + 16.0) * a + 32.0) * a + 64.0
    x0 = (14.0 + 4.0 * a) / (_sqrt(t) + 8.0 + 2.0 * a - a * a)
    if not isinstance(a, np.ndarray):
        return _mu2_step(a, x0)
    f, _ = _mu2_quadratic(a, x0)
    delta = f / (2.0 * a * a * x0 + (8.0 + 2.0 * a - a * a))
    s, e = _two_sum(x0, -delta)
    slack = _MU2_SLACK_REL * np.abs(delta) + _MU2_SLACK_ABS
    # Doubles in (1/2, 1), where mu2 lies, are 2^-53 apart on both sides.
    sure = (np.abs(e) + slack < 2.0**-54) & (0.5 < s) & (s < 1.0)
    for i in np.flatnonzero(~sure).tolist():
        s[i] = _mu2_step(a.item(i), x0.item(i))
    return s


def _mu1(a: float, a3: float) -> float:
    """mu1 from a3 = pow(a, 3) at a checked a; see mu1."""
    g = ((((((a - 2.0) * a + 9.0) * a - 20.0) * a + 48.0) * a - 96.0) * a) + 64.0
    return 2.0 * (7.0 - 5.0 * a) / (_sqrt(g) + 8.0 - 6.0 * a - a * a + a3)


def mu1(a: float) -> float:
    """Threshold (-a^3+a^2+6a-8 + sqrt(g(a))) / (2a^2(1-a)), g as below.

    Any gamma with mu1(a) < gamma < 1 makes K1(a, a*gamma, p') > 1.  With
    g(a) = a^6-2a^5+9a^4-20a^3+48a^2-96a+64, the identity
    g - (8-6a-a^2+a^3)^2 = -4a^2(7-5a)(1-a) turns the formula into
    2(7-5a) / (sqrt(g) + 8-6a-a^2+a^3), which neither cancels for small a
    nor divides by zero as a -> 1.  The domain stays the open interval
    (the textbook form has a pole at a = 1).
    """
    a = _check_a(a)
    return _mu1(a, _libm(pow, a, 3))


def r_param(a: float, c: float) -> tuple[float, float]:
    """(r, r') = (c(a-c)/(2(1-c^2)), c(a-c)/2); 0 < r' < r < 1."""
    a = _check_a(a)
    c = _real_in("c", c, 0, a)
    half_num = 0.5 * c * (a - c)
    return half_num / (1.0 - c * c), half_num


def alpha_param(a: float, c: float, r_val: float) -> float:
    """Exponent log(a/16) / log((c+r)/(1+cr)); positive since both logs are negative.

    Increasing in r_val: the Moebius ratio (c+r)/(1+cr) grows with r_val, so
    its log shrinks in magnitude and the quotient grows.  In particular
    alpha(r') < alpha(r) for r' < r, while the product alpha * log(1/r)
    moves the other way (see the chain checks in the verifier).
    """
    return _alpha(_check_a(a), c, r_val, None)


def _alpha(a: float, c: float, r_val: float, log_a16: float | None) -> float:
    """alpha_param from log_a16 = log(a/16) at a checked a; c and r_val are
    checked here.  alpha_param and n3 pass None and the log is taken after
    the checks: a/16 underflows to 0 only where 1 - c rounds to 1."""
    c = _real_in("c", c, 0, a)
    # (c+r)/(1+cr) = 1 - (1-c)(1-r)/(1+cr), kept in log1p form for accuracy
    # when c -> a -> 1 drives the ratio toward 1.  Below c = 2**-54 (a about
    # 6e-17) 1 - c rounds to 1 and the form takes log1p(-1).
    _require(1.0 - c < 1.0, a, "a={!r} is too small: 1 - c rounds to 1 in binary64")
    r_val = _real_in("r_val", r_val, 0, 1)
    log_ratio = _libm(math.log1p, -(1.0 - c) * (1.0 - r_val) / (1.0 + c * r_val))
    if log_a16 is None:
        log_a16 = _libm(math.log, a / 16.0)
    return log_a16 / log_ratio


def _n3_exact(
    a: float, c: float, r: float, log_kp: float, log_a16: float | None
) -> float:
    """n3_exact from the c, r, log K' and log(a/16) already computed at a
    checked a; log_a16 is None to take the log inside _alpha, after its checks."""
    numerator = (
        _libm(math.log, (1.0 + a) / (a - c))
        + _libm(math.log1p, c * (1.0 - a) / (1.0 - c))  # log((1-ac)/(1-c))
        - _alpha(a, c, r, log_a16) * _libm(math.log, r)
    )
    _require(log_kp > 0.0, a, "growth factor not above 1 at a={!r}; no finite threshold")
    return numerator / log_kp + 1.0


def _n3_estimate(a: float, a3: float) -> float:
    """n3_estimate from a3 = pow(a, 3) at a checked a; see n3."""
    one_minus_gamma = 0.1 * (1.0 - a)
    log_inv_a = -_libm(math.log, a)
    bracket = 3.0 / (a * one_minus_gamma) + (2.0 / (a3 * one_minus_gamma)) * (
        32.0 / (a * log_inv_a)
    )
    return bracket * 16.0 / (a3 * (1.0 - a)) + 1.0


def n3(a: float) -> tuple[float, float]:
    """(n3_exact, n3_estimate) at c = a*gamma(a).

    n3_exact is (log((1+a)/(a-c)) + log((1-ac)/(1-c)) - alpha*log r)/log K' + 1.
    n3_estimate majorizes it step by step: r, alpha replaced by r', alpha',
    each log replaced by its argument (log x <= x - 1 <= x), alpha' by
    32/(a log(1/a)), and log K' by a^3(1-a)/16, giving

        (3/(a(1-gamma)) + 2/(a^3(1-gamma)) * 32/(a log(1/a))) * 16/(a^3(1-a)) + 1.
    """
    aux = aux_params(a)
    a, c = aux.a, aux.c
    r, _ = r_param(a, c)
    n3_exact = _n3_exact(a, c, r, log_k_prime(a), None)
    return n3_exact, _n3_estimate(a, _libm(pow, a, 3))


def final_bound(a: float) -> float:
    """The headline explicit threshold 20800 / (a^7 (1-a)^4)."""
    a = _check_a(a)
    denominator = _libm(pow, a, 7) * _libm(pow, 1.0 - a, 4)
    return _finite("final_bound", a, _ratio(20800.0, denominator))


def _mean_objective(a: float, n: int, delta: float) -> float:
    # delta/2 - log(1 - sqrt(1 + delta^2 - delta*a)) / (delta*n), with the
    # 1 - sqrt term rewritten as delta*(a-delta)/(1 + sqrt(...)) because the
    # direct subtraction cancels to nothing at both ends of (0, a).
    s = math.sqrt(1.0 + delta * (delta - a))
    return 0.5 * delta - math.log(delta * (a - delta) / (1.0 + s)) / (delta * n)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mean_upper_bound(a: float, n: int) -> MeanBound:
    """Best upper bound for the mean real part of the zeros, degree-n case.

    The objective delta/2 - log(1 - sqrt(1+delta^2-delta*a))/(delta*n) is
    minimized over delta in (0, a) by a 1024-point scan followed by
    golden-section refinement of the best bracket down to a 1e-12 interval.
    The scan keeps 1e-9 from each end, so a must exceed 2e-9.
    bound_at_quarter is the plain evaluation at delta = a/4 (the choice that
    yields the closed-form threshold n0).
    """
    a = _check_a(a)
    n = _int_in("n", n, 2)

    eps = 1e-9
    lo_edge, hi_edge = eps, a - eps
    if not lo_edge < hi_edge:
        raise DomainError(f"a={a!r} is too small: the scan of (0, a) keeps {eps!r} from each end")
    count = 1024
    step = (hi_edge - lo_edge) / (count - 1)
    best_i, best_v = 0, math.inf
    for i in range(count):
        v = _mean_objective(a, n, lo_edge + i * step)
        if v < best_v:
            best_i, best_v = i, v

    lo = lo_edge + max(best_i - 1, 0) * step
    hi = lo_edge + min(best_i + 1, count - 1) * step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _mean_objective(a, n, x1)
    f2 = _mean_objective(a, n, x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _mean_objective(a, n, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _mean_objective(a, n, x2)

    return MeanBound(
        a=a,
        n=n,
        bound_at_quarter=_mean_objective(a, n, a / 4.0),
        bound_inf=min(best_v, f1, f2),
    )


def small_circle_bound(a: float) -> float:
    """Comparison threshold 2 + (60-a^2)/(a^2(1-a^2)) for zeros on the unit circle."""
    a = _check_a(a)
    a2 = a * a
    value = 2.0 + (60.0 - a2) / (a2 * (1.0 - a2)) if a2 else math.inf
    return _finite("small_circle_bound", a, value)


def breakdown(a: float) -> BoundBreakdown:
    """Evaluate every intermediate quantity at one a; see BoundBreakdown."""
    aux = aux_params(a)
    a, c = aux.a, aux.c
    k1, k2 = k_factors(a, c, aux.p_prime, aux.q_prime)
    r, r_prime = r_param(a, c)
    n3_exact, n3_estimate = n3(a)
    return BoundBreakdown(
        aux=aux,
        n0=n0(a),
        n1=n1(a),
        n2=n2(a, c),
        mu1=mu1(a),
        mu2=mu2(a),
        k1=k1,
        k2=k2,
        k_prime=min(k1, k2),
        r=r,
        r_prime=r_prime,
        alpha=alpha_param(a, c, r),
        alpha_prime=alpha_param(a, c, r_prime),
        n3_exact=n3_exact,
        n3_estimate=n3_estimate,
        final_n=final_bound(a),
        small_bound=small_circle_bound(a),
    )
