"""The exact references that the tests check the package against, in mpmath
or Fractions: expansions, roots, critical points and Weierstrass radii of
polynomials, the free bounds on a Sendov distance, mu2's quadratic, and the
bound formulas at 50 digits (``breakdown``, ``mean_bound``, ``d_function``
and ``mu2``).  Nothing here imports ``sendov_lab``, so a fault in the
package cannot reach its reference, and each function sets its precision
with ``mpmath.workdps`` alone, so none leaks into later tests.
Arithmetic on a returned mpmath value outside rounds to binary64, so a test
compares with one inside ``mpmath.workdps(exact.DPS)``.  Coefficient lists
run from the constant term up, as ``Polynomial``'s do.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
from mpmath import log, mpf, sqrt

DPS = 60


def expand(zeros, dps=DPS):
    """The coefficients of prod(z - zeta) over zeros, in dps digits."""
    with mpmath.workdps(dps):
        c = [mpmath.mpc(1)]
        for r in map(mpmath.mpc, zeros):
            c = [lo - r * hi for lo, hi in zip([0] + c, c + [0])]
        return c


def coefficients(p):
    """p's coefficients, each head + tail summed exactly."""
    with mpmath.workdps(DPS):
        tails = p.tails or (0j,) * len(p.coefficients)
        return [mpmath.mpc(h) + mpmath.mpc(t) for h, t in zip(p.coefficients, tails)]


def roots(p):
    """The roots of p's head + tail."""
    with mpmath.workdps(DPS):
        return mpmath.polyroots(coefficients(p)[::-1], maxsteps=200, extraprec=200)


def newton(zeros, start, dps):
    """The critical point of prod(z - zeta) over zeros nearest start: Newton
    on sum_j 1/(z - zeta_j) in dps digits, from the zeros alone."""
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


def critical_points(zeros):
    """The n - 1 critical points of prod(z - zeta) over its n zeros: a zero
    of multiplicity k, k - 1 times, then the roots of
    Q = sum_j k_j prod_{l != j}(z - zeta_l) over the distinct zeros, solved
    and refined by ``newton`` in 50 digits plus as many as the closest pair
    of distinct zeros needs."""
    counts = Counter(map(complex, zeros))
    distinct = list(counts)
    points = [mpmath.mpc(z) for z in distinct for _ in range(counts[z] - 1)]
    if len(distinct) == 1:
        return points
    gap = min(abs(x - y) for x in distinct for y in distinct if x != y)
    dps = 50 + max(0, -math.floor(math.log10(gap)))
    with mpmath.workdps(dps):
        q = [0] * len(distinct)
        for j, zj in enumerate(distinct):
            q = [c + counts[zj] * t for c, t in zip(q, expand(distinct[:j] + distinct[j + 1:], dps))]
        estimates = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=100)
    return points + [newton(zeros, w, dps) for w in estimates]


def sendov_distance(a, zeros):
    """min |w - a| over the critical points w of (z - a) prod(z - zeta)."""
    points = critical_points((a, *zeros))
    with mpmath.workdps(DPS):
        return min(abs(w - a) for w in points)


def free_bounds(a, zeros):
    """(L, U) with L <= d <= U for the Sendov distance d of
    (z - a) prod(z - zeta) of degree n, from delta_j = |zeta_j - a| alone:
    U = (prod delta_j / n)^(1/(n - 1)), since P'(a) = n prod(a - w_i), and
    L = delta_min/(1 + delta_min sum 1/delta_j), within which
    |sum 1/(w - zeta_j)| stays below 1/|w - a|.  Both are 0 when a zero
    equals a."""
    with mpmath.workdps(DPS):
        delta = [abs(mpmath.mpc(z) - a) for z in zeros]
        if not all(delta):
            return mpf(0), mpf(0)
        n = len(delta) + 1
        near = min(delta)
        upper = mpmath.root(mpmath.fprod(delta) / n, n - 1)
        return near / (1 + near * mpmath.fsum(1 / x for x in delta)), upper


def _radii(points, v):
    """m |v(w_i)| / prod_{j != i} |w_i - w_j| for the m float points w_i, in
    the caller's precision: the Weierstrass radii with no rounding in them,
    where the points approximate the roots of the monic v of degree m."""
    ws = [mpmath.mpc(w) for w in points]
    return [
        len(ws) * abs(v(w)) / mpmath.fprod(abs(w - x) for j, x in enumerate(ws) if j != i)
        for i, w in enumerate(ws)
    ]


def radii(points, p):
    """The radii of points approximating the roots of p's head + tail."""
    with mpmath.workdps(DPS):
        cs = coefficients(p)[::-1]
        return _radii(points, lambda w: mpmath.polyval(cs, w) / cs[0])


def critical_radii(points, zeros):
    """The radii of points approximating the critical points of
    P = prod(z - zeta) over its n zeros: the roots of
    P'/n = sum_j prod_{l != j} (w - zeta_l) / n, which holds at a point on
    a zero too."""
    with mpmath.workdps(DPS):
        zs = [mpmath.mpc(z) for z in zeros]
        return _radii(points, lambda w: mpmath.fsum(
            mpmath.fprod(w - z for l, z in enumerate(zs) if l != j) for j in range(len(zs))
        ) / len(zs))


def newton_radii(points, zeros):
    """(g - 1)/|Q'/Q(w)| at each point w, for Q = prod(z - zeta_j) * f,
    f = sum_j k_j/(z - zeta_j), over the g distinct zeros zeta_j of
    multiplicity k_j: Q'/Q = S + f'/f with S = sum_j 1/(w - zeta_j), or on
    a zero zeta_j its limit S + f/k_j, both sums without term j.  Some root
    of Q lies within it of w; inf where Q'/Q is 0."""
    counts = Counter(map(complex, zeros))
    with mpmath.workdps(DPS):
        zs = [(mpmath.mpc(z), k) for z, k in counts.items()]
        out = []
        for w in map(mpmath.mpc, points):
            rest = [(1 / (w - z), k) for z, k in zs if z != w]
            s, f = mpmath.fsum(t for t, _ in rest), mpmath.fsum(k * t for t, k in rest)
            on = [k for z, k in zs if z == w]
            q = s + f / on[0] if on else s - mpmath.fsum(k * t * t for t, k in rest) / f
            out.append((len(zs) - 1) / abs(q) if q else mpmath.inf)
        return out


def mu2_quadratic(a, x):
    """(f(x), f'(x)) in Fractions, for mu2's quadratic
    f = a^2 x^2 + (8 + 2a - a^2) x - (7 + 2a)."""
    a, x = Fraction(a), Fraction(x)
    aa = a * a
    linear = 8 + 2 * a - aa
    return aa * x * x + linear * x - (7 + 2 * a), 2 * aa * x + linear


# The bound formulas as the paper writes them: radical forms, not the
# rationalized rewrites the package evaluates.  The public ones take the
# floats the package gets, exactly, and work in 50 digits; the helpers run
# in their caller's precision.


def _gamma(a):
    return mpf("0.1") * a + mpf("0.9")


def _n0(a):
    return 32 * log(40 / a**2) / a**2


def _mu1(a):
    g = a**6 - 2 * a**5 + 9 * a**4 - 20 * a**3 + 48 * a**2 - 96 * a + 64
    return ((-(a**3) + a * a + 6 * a - 8) + sqrt(g)) / (2 * a * a * (1 - a))


def mu2(a):
    """mu2 at the float a in (0, 1] in its radical form, fine at 50 digits
    despite its cancellation at small a."""
    with mpmath.workdps(50):
        a = mpf(a)
        t = a**4 + 4 * a**3 + 16 * a**2 + 32 * a + 64
        return sqrt(t / (4 * a**4)) + (a * a - 2 * a - 8) / (2 * a * a)


def _alpha(a, c, r):
    return log(a / 16) / log((c + r) / (1 + c * r))


def _n3_exact(a, c, r, k_prime):
    num = log((1 + a) / (a - c)) + log((1 - a * c) / (1 - c)) - _alpha(a, c, r) * log(r)
    return num / log(k_prime) + 1


def _n3_estimate(a):
    g = _gamma(a)
    term = 3 / (a * (1 - g)) + (2 / (a**3 * (1 - g))) * (32 / (a * log(1 / a)))
    return term * 16 / (a**3 * (1 - a)) + 1


def breakdown(a):
    """Each field of ``bounds.breakdown(a)`` at the float a in (0, 1), in 50
    digits, keyed and ordered as ``cli._row`` prints them."""
    with mpmath.workdps(50):
        a = mpf(a)
        c = a * _gamma(a)
        q, p = (a / 4) / (1 + a / 2), (a / 4) / (1 - a / 2)
        k1 = (1 + c - a * c) ** p * sqrt(1 + c * c - a * c) ** (1 - p)
        k2 = (1 + c) ** q * sqrt(1 + c * c - a * c) ** (1 - q)
        r, r_prime = c * (a - c) / (2 * (1 - c * c)), c * (a - c) / 2
        return {
            "a": a, "q_prime": q, "p_prime": p, "gamma": _gamma(a), "c": c,
            "n0": _n0(a),
            "n1": max(9 * ((4 + 2 * a) / a) ** 2, _n0(a)),
            "n2": max(9 * (log(a / 16) / log(c / (1 + a))) ** 2, _n0(a)),
            "mu1": _mu1(a), "mu2": mu2(a), "k1": k1, "k2": k2, "k_prime": min(k1, k2),
            "r": r, "r_prime": r_prime,
            "alpha": _alpha(a, c, r), "alpha_prime": _alpha(a, c, r_prime),
            "n3_exact": _n3_exact(a, c, r, min(k1, k2)), "n3_estimate": _n3_estimate(a),
            "final_n": 20800 / (a**7 * (1 - a) ** 4),
            "small_bound": 2 + (60 - a * a) / (a * a * (1 - a * a)),
        }


def d_function(a, x):
    """``bounds.d_function`` at the floats a and x, with c = a gamma(a), in
    50 digits."""
    with mpmath.workdps(50):
        a, x = mpf(a), mpf(x)
        c = a * _gamma(a)
        second = ((1 + c) / (1 + a)) ** x * sqrt(1 + c * c - a * c) ** (1 - x)
        return max((1 / (1 + a)) ** x, second)


def _mean_phi(a, n, d):
    return d / 2 - log(1 - sqrt(1 + d * d - d * a)) / (d * n)


def mean_bound(a, n):
    """Each field of ``bounds.mean_upper_bound(a, n)`` at the float a, in 50
    digits: the objective at delta = a/4, and its infimum over (0, a), where
    it is unimodal, by 250 golden-section steps, to about 1e-40."""
    with mpmath.workdps(50):
        a = mpf(a)
        lo, hi = a * mpf("1e-12"), a * (1 - mpf("1e-12"))
        invphi = (sqrt(5) - 1) / 2
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = _mean_phi(a, n, x1), _mean_phi(a, n, x2)
        for _ in range(250):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = _mean_phi(a, n, x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = _mean_phi(a, n, x2)
        quarter = _mean_phi(a, n, a / 4)
        return {"a": a, "n": n, "bound_at_quarter": quarter, "bound_inf": min(f1, f2)}
