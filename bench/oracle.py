"""Reference Sendov distances computed without ``sendov_lab.polynomial``.

Every reference starts from the zeros of P, never from binary64
coefficients of P:

* ``critical_point_estimates`` takes the critical points as eigenvalues of
  Q^T D Q, where D = diag(zeros) and the columns of Q are an orthonormal
  basis of the complement of the all-ones vector.  The characteristic
  polynomial of D (I - J/n) is z P'(z)/n, so this (n-1)-square compression
  has exactly the critical points as eigenvalues (Pereira, 2003).
* ``refine`` finishes each estimate with mpmath Newton steps on
  f(z) = P'(z)/P(z) = sum_j 1/(z - z_j), evaluated from the zeros.
* The unit-circle families use the closed-form derivative instead:
  P'(z) = (m+1) z^m - m a z^(m-1) - c for P = (z - a)(z^m - c), solved as a
  trinomial and then refined as above.
* (z - a) z^m has its distance in closed form, a / (m + 1).

A reference that cannot be certified raises ``OracleError``: that is a
fault of the benchmark, never a verdict on the program.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# Digits carried by the mpmath refinement; the comparison tolerance is 1e-8.
DPS = 30
# A refined root must stay this close to its estimate, or the Newton run
# may have jumped to another critical point.
MAX_DRIFT = 1e-6
# Estimates this much farther from a than the nearest one are refined too,
# so estimate error cannot pick the wrong critical point.
CANDIDATE_SLACK = 1e-4


class OracleError(RuntimeError):
    """The oracle could not certify a reference value."""


def _householder_complement(n: int) -> np.ndarray:
    """n x (n-1) orthonormal basis of the complement of (1, ..., 1)."""
    u = np.full(n, 1.0 / math.sqrt(n))
    v = u.copy()
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    # h is a symmetric reflector with h e1 = u, so its other columns are
    # orthonormal and orthogonal to u.
    return h[:, 1:]


def critical_point_estimates(zeros: np.ndarray) -> np.ndarray:
    """Binary64 critical points of the polynomial with these zeros.

    ``zeros`` has shape (n,) or (batch, n); the result has shape (n-1,) or
    (batch, n-1).
    """
    zeros = np.asarray(zeros, dtype=np.complex128)
    q = _householder_complement(zeros.shape[-1])
    return np.linalg.eigvals(q.T @ (zeros[..., :, None] * q))


def refine(zeros: np.ndarray, start: complex) -> complex:
    """Newton on sum_j 1/(z - z_j) in DPS digits, from a nearby estimate."""
    with mp.workdps(DPS):
        zs = [mp.mpc(complex(z)) for z in zeros]
        x = mp.mpc(complex(start))
        tol = mp.mpf(10) ** (-(DPS - 8))
        for _ in range(60):
            f = mp.mpc(0)
            df = mp.mpc(0)
            for z in zs:
                r = 1 / (x - z)
                f += r
                df -= r * r
            step = f / df
            x -= step
            if abs(step) <= tol * (1 + abs(x)):
                break
        else:
            raise OracleError(f"Newton did not settle from {start!r}")
        w = complex(x)
    if abs(w - start) > MAX_DRIFT:
        raise OracleError(f"refinement drifted from {start!r} to {w!r}")
    return w


def _nearest_refined(zeros: np.ndarray, a: float, estimates: np.ndarray) -> float:
    dist = np.abs(estimates - a)
    nearest = float(dist.min())
    candidates = estimates[dist <= nearest + CANDIDATE_SLACK]
    return min(abs(refine(zeros, w) - a) for w in candidates)


def sendov_distance(a: float, other_zeros: np.ndarray) -> float:
    """min |w - a| over critical points w of (z - a) prod (z - z_j)."""
    zeros = np.concatenate([[complex(a)], np.asarray(other_zeros, dtype=np.complex128)])
    return _nearest_refined(zeros, a, critical_point_estimates(zeros))


def circle_distance(a: float, theta: float, sign: int, other_zeros: np.ndarray) -> float:
    """Distance for (z - a)(z^m - sign e^{i theta}), through its trinomial P'.

    ``other_zeros`` are the binary64 zeros the program was given; the
    refinement runs on them, so the reference is exact for that input.
    """
    m = len(other_zeros)
    c = sign * complex(math.cos(theta), math.sin(theta))
    trinomial = np.zeros(m + 1, dtype=np.complex128)
    trinomial[0] = m + 1
    trinomial[1] = -m * a
    trinomial[-1] = -c
    zeros = np.concatenate([[complex(a)], np.asarray(other_zeros, dtype=np.complex128)])
    return _nearest_refined(zeros, a, np.roots(trinomial))


def origin_distance(a: float, m: int) -> float:
    """Distance for (z - a) z^m: P' = z^(m-1)((m+1) z - m a), nearest is m a/(m+1)."""
    return a / (m + 1)


def max_distance(a: float, trials: np.ndarray) -> float:
    """max over trials (rows of other zeros) of each trial's Sendov distance.

    All trials get binary64 estimates; only those whose estimate is within
    CANDIDATE_SLACK of the largest are refined in mpmath.
    """
    trials = np.asarray(trials, dtype=np.complex128)
    zeros = np.concatenate([np.full((len(trials), 1), complex(a)), trials], axis=1)
    estimates = critical_point_estimates(zeros)
    rough = np.abs(estimates - a).min(axis=1)
    top = np.nonzero(rough >= rough.max() - CANDIDATE_SLACK)[0]
    return max(_nearest_refined(zeros[t], a, estimates[t]) for t in top)
