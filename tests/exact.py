"""The exact references that the tests check the package against, in mpmath
or Fractions: expansions, roots, critical points and Weierstrass radii of
polynomials, and mu2's quadratic.  Nothing here imports ``sendov_lab``, so a
fault in the package cannot reach its reference, and each function sets its
precision with ``mpmath.workdps`` alone, so none leaks into later tests.
Arithmetic on a returned mpmath value outside rounds to binary64, so a test
compares with one inside ``mpmath.workdps(exact.DPS)``.  Coefficient lists
run from the constant term up, as ``Polynomial``'s do.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath

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
    P'/n = P(w) sum_j 1/(w - zeta_j) / n."""
    with mpmath.workdps(DPS):
        zs = [mpmath.mpc(z) for z in zeros]
        return _radii(
            points, lambda w: mpmath.fprod(w - z for z in zs) * mpmath.fsum(1 / (w - z) for z in zs) / len(zs)
        )


def mu2_quadratic(a, x):
    """(f(x), f'(x)) in Fractions, for mu2's quadratic
    f = a^2 x^2 + (8 + 2a - a^2) x - (7 + 2a)."""
    a, x = Fraction(a), Fraction(x)
    aa = a * a
    linear = 8 + 2 * a - aa
    return aa * x * x + linear * x - (7 + 2 * a), 2 * aa * x + linear
