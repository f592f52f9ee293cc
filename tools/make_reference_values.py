#!/usr/bin/env python3
"""Regenerate the frozen high-precision reference values used in the tests.

The engine computes everything in binary64.  To guard against transcription
errors in the closed forms, the test suite pins selected outputs against
values computed here with mpmath at 50 significant digits, using the
*unsimplified* textbook expressions (radical forms, not the rationalized
rewrites the engine uses).  Run this script by hand and paste the printed
block into tests/reference_values.py whenever a formula changes.

Requires mpmath (dev-only dependency; not needed to use the package).
"""

from mpmath import mp, mpf, sqrt, log, exp, polyroots, mpc

mp.dps = 50


def q_prime(a):
    return (a / 4) / (1 + a / 2)


def p_prime(a):
    return (a / 4) / (1 - a / 2)


def gamma(a):
    return mpf("0.1") * a + mpf("0.9")


def n0(a):
    return 32 * log(40 / a**2) / a**2


def n1(a):
    return max(9 * ((4 + 2 * a) / a) ** 2, n0(a))


def n2(a, c):
    return max(9 * (log(a / 16) / log(c / (1 + a))) ** 2, n0(a))


def k1(a, c, p):
    return (1 + c - a * c) ** p * sqrt(1 + c * c - a * c) ** (1 - p)


def k2(a, c, q):
    return (1 + c) ** q * sqrt(1 + c * c - a * c) ** (1 - q)


def k_prime(a):
    c = a * gamma(a)
    return min(k1(a, c, p_prime(a)), k2(a, c, q_prime(a)))


def d_contraction(a, x):
    c = a * gamma(a)
    return max((1 / (1 + a)) ** x, ((1 + c) / (1 + a)) ** x * sqrt(1 + c * c - a * c) ** (1 - x))


def mu2(a):
    # Textbook radical form; fine at 50 digits even with the small-a cancellation.
    t = a**4 + 4 * a**3 + 16 * a**2 + 32 * a + 64
    return sqrt(t / (4 * a**4)) + (a * a - 2 * a - 8) / (2 * a * a)


def mu1(a):
    g = a**6 - 2 * a**5 + 9 * a**4 - 20 * a**3 + 48 * a**2 - 96 * a + 64
    return ((-(a**3) + a * a + 6 * a - 8) + sqrt(g)) / (2 * a * a * (1 - a))


def r_params(a, c):
    r = c * (a - c) / (2 * (1 - c * c))
    return r, c * (a - c) / 2


def alpha(a, c, r_val):
    return log(a / 16) / log((c + r_val) / (1 + c * r_val))


def n3_exact(a):
    c = a * gamma(a)
    r, _ = r_params(a, c)
    num = log((1 + a) / (a - c)) + log((1 - a * c) / (1 - c)) - alpha(a, c, r) * log(r)
    return num / log(k_prime(a)) + 1


def n3_estimate(a):
    g = gamma(a)
    term = 3 / (a * (1 - g)) + (2 / (a**3 * (1 - g))) * (32 / (a * log(1 / a)))
    return term * 16 / (a**3 * (1 - a)) + 1


def final_bound(a):
    return 20800 / (a**7 * (1 - a) ** 4)


def small_circle_bound(a):
    return 2 + (60 - a * a) / (a * a * (1 - a * a))


def mean_phi(a, n, d):
    return d / 2 - log(1 - sqrt(1 + d * d - d * a)) / (d * n)


def mean_inf(a, n):
    # Golden-section to ~1e-40; the objective is unimodal on (0, a).
    lo, hi = a * mpf("1e-12"), a * (1 - mpf("1e-12"))
    invphi = (sqrt(5) - 1) / 2
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = mean_phi(a, n, x1), mean_phi(a, n, x2)
    for _ in range(250):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = mean_phi(a, n, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = mean_phi(a, n, x2)
    return min(f1, f2)


def sendov_distance_from_coeffs(coeffs_desc, a):
    """Distance from a to the nearest root of the derivative; coeffs descending."""
    n = len(coeffs_desc) - 1
    deriv = [coeffs_desc[i] * (n - i) for i in range(n)]
    roots = polyroots(deriv, maxsteps=200, extraprec=200)
    return min(abs(w - a) for w in roots)


def fmt(x):
    return mp.nstr(x, 17, strip_zeros=False)


def main():
    a = mpf("0.5")
    c = a * gamma(a)
    r, rp = r_params(a, c)

    pairs = [
        ("Q_PRIME_05", q_prime(a)),
        ("P_PRIME_05", p_prime(a)),
        ("GAMMA_05", gamma(a)),
        ("C_05", c),
        ("N0_05", n0(a)),
        ("N0_01", n0(mpf("0.1"))),
        ("N1_05", n1(a)),
        ("N2_05", n2(a, c)),
        ("N2_BRANCH_05", 9 * (log(a / 16) / log(c / (1 + a))) ** 2),
        ("MU1_05", mu1(a)),
        ("MU2_05", mu2(a)),
        ("MU2_AT_1", mu2(mpf(1))),
        ("MU2_CLOSED_AT_1", 3 * (sqrt(13) - 3) / 2),
        ("K1_05", k1(a, c, p_prime(a))),
        ("K2_05", k2(a, c, q_prime(a))),
        ("K_PRIME_05", k_prime(a)),
        ("D_05_025", d_contraction(a, mpf("0.25"))),
        ("D_05_075", d_contraction(a, mpf("0.75"))),
        ("D_0001_001", d_contraction(mpf("0.001"), mpf("0.01"))),
        ("R_05", r),
        ("R_PRIME_05", rp),
        ("ALPHA_05", alpha(a, c, r)),
        ("ALPHA_PRIME_05", alpha(a, c, rp)),
        ("N3_EXACT_05", n3_exact(a)),
        ("N3_ESTIMATE_05", n3_estimate(a)),
        ("FINAL_05", final_bound(a)),
        ("SMALL_05", small_circle_bound(a)),
        ("MEAN_QUARTER_05_650", mean_phi(a, 650, a / 4)),
        ("MEAN_INF_05_10", mean_inf(a, 10)),
        ("MEAN_INF_05_650", mean_inf(a, 650)),
    ]

    final_table = {str(k): final_bound(mpf(k) / 10) for k in range(1, 10)}

    # (z - 1/2)(z^4 - 1), (z - 1/2)(z^4 + 1): nearest-critical-point distances.
    half = mpf("0.5")
    d_plus = sendov_distance_from_coeffs(
        [mpc(1), -half, mpc(0), mpc(0), mpc(-1), half], half
    )
    d_minus = sendov_distance_from_coeffs(
        [mpc(1), -half, mpc(0), mpc(0), mpc(1), -half], half
    )
    pairs.append(("SENDOV_DIST_05_ROOTS_OF_UNITY", d_plus))
    pairs.append(("SENDOV_DIST_05_NEG_ROOTS", d_minus))

    print('"""Frozen 50-digit reference values; regenerate with '
          'tools/make_reference_values.py."""\n')
    for name, val in pairs:
        print(f"{name} = {fmt(val)}")
    print()
    print("FINAL_BOUND_TABLE = {")
    for k, v in final_table.items():
        print(f"    0.{k}: {fmt(v)},")
    print("}")


if __name__ == "__main__":
    main()
