"""Complex polynomials, certified root finding, and critical points.

This module carries the empirical side of the package.  Critical points of
P(z) = (z - a) * prod(z - z_j) are computed from the zeros themselves, never
from coefficients: since P'/P = sum_j k_j / (z - zeta_j) over the distinct
zeros zeta_j of multiplicity k_j, an Aberth-Ehrlich iteration runs on that
sum at O(degree) per point (the secular-equation view of MPSolve).  Each
critical point carries a Weierstrass inclusion radius with a rounding bound,
so the Sendov distance min |w - a| comes with a bracket that holds the true
value.

The coefficient side (``from_roots``, ``find_roots``) stays for general
polynomials: an Aberth iteration on binary64 coefficients, a polish against
the extended-precision coefficients ``from_roots`` keeps as head + tail
pairs, and per-root residual certificates.

All public values are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InvalidInputError",
    "Polynomial",
    "SendovInstance",
    "RootResult",
    "CriticalPointReport",
    "from_roots",
    "evaluate",
    "find_roots",
    "match_roots",
    "critical_report",
    "hull_distance",
]

# Residual threshold certifying a reported root: |P(r)| <= tol * scale with
# scale = max |coeff| * (1 + |r|)^degree.
RESIDUAL_TOL = 1e-10
# Looser self-check threshold for roots stored inside a Polynomial value.
_STORED_ROOT_TOL = 1e-9
# Two reported roots closer than this are flagged as one cluster.
CLUSTER_TOL = 1e-7

_MAX_ITER = 200
# Sweeps of the critical-point iteration before it reports not converged.
_MAX_SWEEPS = 300
# Unit roundoff of binary64.
_U = 2.0 ** -53
_RESTARTS = 3
# Irrational angular offset keeps the initial circle off axes and off any
# symmetric root configuration.
_ANGULAR_OFFSET = 1.0 / math.sqrt(2.0)


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def _require_finite_complex(values: Sequence[complex], what: str) -> np.ndarray:
    try:
        arr = np.asarray([complex(v) for v in values], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be complex numbers: {exc}") from None
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} must all be finite")
    return arr


@dataclass(frozen=True)
class Polynomial:
    """Coefficient-form polynomial, ascending degree, nonzero leading term.

    ``roots`` is populated when the value was constructed from its roots; a
    stored root must satisfy |P(root)| <= 1e-9 * max|coeff| * (1+|root|)^deg
    (checked at construction).  Degree 0 values are permitted; operations
    that need roots demand degree >= 1 themselves.

    ``tails`` optionally carries the rounding residual of each coefficient,
    so that coefficients[k] + tails[k] is the polynomial's exact coefficient
    when that needs more than binary64 (``from_roots`` fills it from its
    clongdouble expansion).  None means the coefficients are exact.  The
    tails are finite, one per coefficient, and take no part in equality,
    ``repr`` or ``to_dict``; only ``find_roots``' final polish reads them.
    """

    coefficients: tuple[complex, ...]
    roots: tuple[complex, ...] | None = None
    tails: tuple[complex, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = _require_finite_complex(self.coefficients, "coefficients")
        if coeffs.size == 0:
            raise InvalidInputError("a polynomial needs at least one coefficient")
        if coeffs[-1] == 0:
            raise InvalidInputError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", tuple(coeffs.tolist()))
        if self.tails is not None:
            tails = _require_finite_complex(self.tails, "tails")
            if tails.size != coeffs.size:
                raise InvalidInputError(
                    f"{tails.size} tails for {coeffs.size} coefficients"
                )
            object.__setattr__(self, "tails", tuple(tails.tolist()))
        if self.roots is not None:
            rts = _require_finite_complex(self.roots, "roots")
            if rts.size != self.degree:
                raise InvalidInputError(
                    f"{rts.size} roots stored on a degree-{self.degree} polynomial"
                )
            with np.errstate(all="ignore"):
                values = np.abs(_values_at(coeffs, rts))
                bounds = _STORED_ROOT_TOL * np.abs(coeffs).max() \
                    * (1.0 + np.abs(rts)) ** self.degree
            # NaN (from inf - inf in an overflowing complex power) fails too.
            bad = np.nonzero(~(values <= bounds))[0]
            if bad.size:
                raise InvalidInputError(
                    f"stored root {rts[bad[0]]} does not satisfy the coefficient form"
                )
            object.__setattr__(self, "roots", tuple(rts.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_dict(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coefficients]}

    @classmethod
    def from_dict(cls, data: dict) -> "Polynomial":
        try:
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad polynomial payload: {exc}") from None
        return cls(tuple(coeffs))


@dataclass(frozen=True)
class SendovInstance:
    """A zero a in (0,1) plus the remaining zeros of a unit-disk polynomial.

    Represents P(z) = (z - a) * prod(z - z_j) with every |z_j| <= 1 (a hair
    of slack, 1e-12, absorbs JSON round-trip noise).  Degree n = 1 + the
    number of other zeros, and n >= 2.
    """

    a: float
    other_zeros: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.a, (int, float)) or isinstance(self.a, bool) \
                or not math.isfinite(self.a) or not 0.0 < self.a < 1.0:
            raise InvalidInputError(f"a must be a real in (0, 1), got {self.a!r}")
        zeros = _require_finite_complex(self.other_zeros, "other_zeros")
        if zeros.size == 0:
            raise InvalidInputError("need at least one other zero (degree >= 2)")
        worst = float(np.abs(zeros).max())
        if worst > 1.0 + 1e-12:
            raise InvalidInputError(
                f"every other zero must have modulus <= 1, worst is {worst!r}"
            )
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "other_zeros", tuple(complex(z) for z in zeros))

    @property
    def degree(self) -> int:
        return 1 + len(self.other_zeros)

    def all_zeros(self) -> tuple[complex, ...]:
        return (complex(self.a),) + self.other_zeros

    def to_dict(self) -> dict:
        return {"a": self.a, "zeros": [[z.real, z.imag] for z in self.other_zeros]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SendovInstance":
        try:
            a = float(data["a"])
            zeros = tuple(complex(re, im) for re, im in data["zeros"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad instance payload: {exc}") from None
        return cls(a=a, other_zeros=zeros)

    @classmethod
    def from_json(cls, text: str) -> "SendovInstance":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"instance is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidInputError("instance JSON must be an object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class RootResult:
    """Roots reported by find_roots plus their certificates.

    residuals[i] = |P(roots[i])| / (max|coeff| * (1+|roots[i]|)^degree);
    converged means every residual is at or below RESIDUAL_TOL.  clusters
    lists index groups whose pairwise distance is below CLUSTER_TOL (likely
    multiple roots); iterations counts Aberth sweeps across all restarts.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    iterations: int
    clusters: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CriticalPointReport:
    """Critical points of one SendovInstance and the derived measurements.

    Every critical point lies in the union of the discs
    |z - critical_points[i]| <= radii[i]; a radius of 0 marks an exact
    critical point (a repeated zero).  The true Sendov distance lies in
    sendov_distance +- distance_radius.  converged says whether the
    iteration settled within its sweep cap; the discs hold either way, so
    the verdict rests on the bracket alone.
    """

    critical_points: tuple[complex, ...]
    sendov_distance: float
    mean_real_part: float
    radii: tuple[float, ...]
    distance_radius: float
    converged: bool

    def verdict(self, threshold: float) -> str:
        """PASS or FAIL when the whole distance bracket lies on one side of
        threshold (FAIL above it), else UNRESOLVED."""
        if self.sendov_distance + self.distance_radius <= threshold:
            return "PASS"
        if self.sendov_distance - self.distance_radius > threshold:
            return "FAIL"
        return "UNRESOLVED"


def from_roots(roots: Sequence[complex]) -> Polynomial:
    """Monic polynomial with the given roots (incremental (z - r) products).

    The expansion runs in extended precision (clongdouble) and is kept:
    ``coefficients`` holds each expanded coefficient rounded to binary64
    and ``tails`` the rounding residual, so head + tail is the clongdouble
    value exactly.  For ill-conditioned root sets (sensitivity ~1e12 is
    reachable at degree ~50 in the unit disk) one rounding to binary64
    already moves the true roots by up to ~2e-7, while the extended
    coefficients keep them within ~4e-11 on an 80-bit longdouble.  Where
    longdouble is binary64 (``np.finfo(np.longdouble).nmant <= 52``) the
    tails are zero and only the binary64 accuracy remains.
    """
    arr = _require_finite_complex(roots, "roots")
    if arr.size == 0:
        raise InvalidInputError("from_roots needs at least one root")
    coeffs = np.ones(1, dtype=np.clongdouble)
    # An expansion past binary64 range is rejected by Polynomial's finiteness
    # check; numpy's overflow warnings on the way there say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in arr.astype(np.clongdouble):
            coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=np.clongdouble))
        head = coeffs.astype(np.complex128)
        tail = (coeffs - head).astype(np.complex128)
    # tolist() hands over Python complex values, which validate faster than
    # numpy scalars; the values are the same.
    return Polynomial(tuple(head.tolist()), tuple(arr.tolist()), tuple(tail.tolist()))


def evaluate(p: Polynomial, z: complex) -> complex:
    """Horner evaluation of p at z."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInputError(f"evaluation point must be finite, got {z!r}")
    acc = 0j
    for c in reversed(p.coefficients):
        acc = acc * z + c
    return acc


def _values_at(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z) for every z at once via a Vandermonde product."""
    v = np.vander(z, len(coeffs), increasing=True)
    return v @ coeffs


def _certified_residuals(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / (max|c| (1+|z|)^deg), with the scale kept in log space so a
    far-out root cannot overflow the denominator into a vacuous certificate."""
    deg = len(coeffs) - 1
    pz = np.abs(_values_at(coeffs, z))
    log_scale = math.log(np.abs(coeffs).max()) + deg * np.log1p(np.abs(z))
    out = np.full(z.shape, np.inf)
    finite = np.isfinite(pz)
    tiny = finite & (pz == 0.0)
    ok = finite & (pz > 0.0)
    out[tiny] = 0.0
    out[ok] = np.exp(np.log(pz[ok]) - log_scale[ok])
    return out


def _aberth(coeffs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Simultaneous iteration on monic-normalized coeffs; returns (roots, iters, converged)."""
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    dmonic = monic[1:] * np.arange(1, n + 1)

    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * np.arange(n) / n + _ANGULAR_OFFSET
    z = radius * np.exp(1j * angles)

    # Restart jitter is deterministic: same polynomial, same answer, always.
    rng = np.random.default_rng(0x53454E44)
    iterations = 0
    for attempt in range(_RESTARTS + 1):
        if attempt:
            jig = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            # continue from the current cloud, nudged; do not reset to the
            # initial circle or the far-field progress is thrown away
            z = z * (1.0 + 1e-3 * jig) + 1e-6 * jig
        quiet = 0
        stall = 0
        best_step = np.inf
        arrived = False
        for _ in range(_MAX_ITER):
            iterations += 1
            pz = _values_at(monic, z)
            dpz = _values_at(dmonic, z)
            with np.errstate(all="ignore"):
                w = pz / dpz
            bad = ~np.isfinite(w)
            if bad.any():
                # overflow far from the root cloud: pull the offenders in
                z = np.where(bad, 0.5 * z, z)
                continue
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            with np.errstate(all="ignore"):
                s = (1.0 / diff).sum(axis=1)
                corr = w / (1.0 - w * s)
            corr = np.where(np.isfinite(corr), corr, w)
            z = z - corr
            step_max = float((np.abs(corr) / (1.0 + np.abs(z))).max())
            if step_max <= 1e-13:
                quiet += 1
                if quiet >= 2:
                    arrived = True
                    break
            else:
                quiet = 0
            # Ill-conditioned roots rattle at a noise floor of roughly
            # eps * sum|c_k| / |p'(root)|, which can sit many decades above
            # 1e-13; once steps are small and stop improving, more sweeps
            # only re-sample that noise.
            if step_max < 0.7 * best_step:
                best_step = step_max
                stall = 0
            else:
                stall += 1
                if stall >= 10 and step_max <= 1e-5:
                    arrived = True
                    break
        # The residual scale (1+|r|)^degree is exponentially forgiving at
        # high degree, so certification alone must never cut an attempt
        # short: a mid-flight cloud can pass it while still far from the
        # roots.  Only a settled (or noise-floored) iteration counts.
        if arrived and bool((_certified_residuals(coeffs, z) <= RESIDUAL_TOL).all()):
            return z, iterations, True
    return z, iterations, bool((_certified_residuals(coeffs, z) <= RESIDUAL_TOL).all())


def _roots_quadratic(coeffs: np.ndarray) -> np.ndarray:
    """Stable closed form: the larger root via the sign choice that avoids
    cancellation, the other via the product c0/c2."""
    c0, c1, c2 = coeffs
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    u = -c1 + disc
    v = -c1 - disc
    big = u if abs(u) >= abs(v) else v
    if big == 0:  # double root at the origin of the shifted variable
        r = -c1 / (2.0 * c2)
        return np.array([r, r])
    r1 = big / (2.0 * c2)
    r2 = (2.0 * c0) / big
    return np.array([r1, r2])


def _polish(
    coeffs: np.ndarray, z: np.ndarray, tails: Sequence[complex] | None
) -> np.ndarray:
    """Refine roots past binary64: extended-precision Aberth sweeps, then an
    arbitrary-precision Newton rescue for any root still adrift.

    Both refine against coeffs + tails (the Polynomial's ``tails``; None
    means zero), summed exactly: in clongdouble for the sweeps, in mpmath
    for the rescue.  A random degree-50 unit-disk polynomial can have
    |p'(root)| ~ 1e-9 with coefficient mass ~ 1e4, putting even the 80-bit
    evaluation noise floor above 1e-8 of root error; those few roots get a
    50-digit Newton finish.
    """
    n = len(coeffs) - 1
    cl = coeffs.astype(np.clongdouble)
    if tails is not None:
        cl = cl + np.asarray(tails, dtype=np.complex128).astype(np.clongdouble)
    dcl = cl[1:] * np.arange(1, n + 1)
    zl = z.astype(np.clongdouble)
    best = np.inf
    stall = 0
    for _ in range(10):
        v = np.vander(zl, n + 1, increasing=True)
        with np.errstate(all="ignore"):
            w = (v @ cl) / (v[:, :n] @ dcl)
        w = np.where(np.isfinite(w), w, 0.0)
        if n > 1:
            diff = zl[:, None] - zl[None, :]
            np.fill_diagonal(diff, np.inf)
            with np.errstate(all="ignore"):
                s = (1.0 / diff).sum(axis=1)
                corr = w / (1.0 - w * s)
            corr = np.where(np.isfinite(corr), corr, w)
        else:
            corr = w
        zl = zl - corr
        step_rel = float((np.abs(corr) / (1.0 + np.abs(zl))).max())
        if step_rel <= 1e-14:
            break
        if step_rel < 0.7 * best:
            best = step_rel
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                break

    # Fresh Newton step as a first-order error estimate per root.
    v = np.vander(zl, n + 1, increasing=True)
    with np.errstate(all="ignore"):
        w = (v @ cl) / (v[:, :n] @ dcl)
    w = np.where(np.isfinite(w), w, 0.0)
    stubborn = np.nonzero(np.abs(w) > 1e-10 * (1.0 + np.abs(zl)))[0]
    if stubborn.size:
        import mpmath as mp

        with mp.workdps(50):
            cs = [mp.mpc(complex(c)) for c in coeffs]
            if tails is not None:
                cs = [c + mp.mpc(t) for c, t in zip(cs, tails)]
            dcs = [k * c for k, c in enumerate(cs)][1:]
            for i in stubborn:
                x = mp.mpc(complex(zl[i]))
                for _ in range(8):
                    pv = _mp_horner(cs, x)
                    dv = _mp_horner(dcs, x)
                    if dv == 0:
                        break
                    delta = pv / dv
                    x -= delta
                    if abs(delta) <= 1e-16 * (1 + abs(x)):
                        break
                zl[i] = complex(x)
    return zl.astype(np.complex128)


def _mp_horner(coeffs_ascending, x):
    acc = 0
    for c in reversed(coeffs_ascending):
        acc = acc * x + c
    return acc


def _clusters(z: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Connected components of the 'closer than CLUSTER_TOL' graph, size >= 2."""
    n = len(z)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.abs(z[:, None] - z[None, :]) < CLUSTER_TOL
    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values() if len(g) >= 2)


def find_roots(p: Polynomial) -> RootResult:
    """All roots of p with residual certificates.

    Initial guesses sit on a circle of radius 1 + max|c_k/c_n| at equal
    angles plus a fixed irrational offset.
    Up to 200 Aberth-Ehrlich sweeps per attempt and 3 deterministic
    perturb-and-continue restarts; afterwards an extended-precision polish
    against coefficients + ``tails``.  ``converged`` reflects the binary64
    residual certificates of the final values — a non-converged report is
    returned rather than guessing.  Stored ``roots`` are never read.
    """
    if p.degree < 1:
        raise InvalidInputError("find_roots needs degree >= 1")
    coeffs = np.asarray(p.coefficients, dtype=np.complex128)
    iterations = 0
    if p.degree == 1:
        z = np.array([-coeffs[0] / coeffs[1]])
    elif p.degree == 2:
        z = _roots_quadratic(coeffs)
    else:
        z, iterations, _ = _aberth(coeffs)
    z = _polish(coeffs, z, p.tails)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    residuals = _certified_residuals(coeffs, z)
    converged = bool((residuals <= RESIDUAL_TOL).all())
    return RootResult(
        roots=tuple(complex(v) for v in z),
        residuals=tuple(float(r) for r in residuals),
        converged=converged,
        iterations=iterations,
        clusters=_clusters(z),
    )


def match_roots(
    found: Sequence[complex], expected: Sequence[complex]
) -> tuple[tuple[int, ...], float]:
    """Pair each expected root with a distinct found root.

    Returns (assignment, worst_distance) where assignment[i] indexes the
    found root paired with expected[i].  Greedy globally-nearest pairing
    first; if its worst pair exceeds 1e-8 the exact Hungarian assignment is
    computed and the better of the two is returned.
    """
    f = _require_finite_complex(found, "found")
    e = _require_finite_complex(expected, "expected")
    if f.size != e.size or f.size == 0:
        raise InvalidInputError("matching needs two equal nonempty root lists")
    dist = np.abs(e[:, None] - f[None, :])

    work = dist.copy()
    n = f.size
    assign = np.full(n, -1)
    for _ in range(n):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        assign[i] = j
        work[i, :] = np.inf
        work[:, j] = np.inf
    worst = float(dist[np.arange(n), assign].max())

    if worst > 1e-8:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(dist)
        hung = np.empty(n, dtype=int)
        hung[rows] = cols
        hung_worst = float(dist[np.arange(n), hung].max())
        if hung_worst < worst:
            assign, worst = hung, hung_worst
    return tuple(int(j) for j in assign), worst


def _starts(zeta: np.ndarray, k: np.ndarray) -> np.ndarray:
    """g - 1 start points for the roots of Q, one Newton step of Q from zeros.

    At zeta_j, where f has a pole but Q does not, the Newton step of Q has
    the finite limit Q/Q' = k_j / (k_j S_j + F_j), with
    S_j = sum_{l != j} 1/(zeta_j - zeta_l) and
    F_j = sum_{l != j} k_l/(zeta_j - zeta_l).  Each zero less the one with
    the longest step gives a start; from there a random degree-64 instance
    settles in about 7 sweeps, where the circle about the zero centroid
    through the farthest zero takes about 25.  A start with no finite value
    (two zeros so close that 1/(zeta_j - zeta_l) overflows) takes its point
    on that circle instead.
    """
    m = zeta.size - 1
    with np.errstate(all="ignore"):
        gaps = 1.0 / (zeta[:, None] - zeta)
        np.fill_diagonal(gaps, 0.0)
        steps = k / (k * gaps.sum(axis=1) + gaps @ k)
    near = np.delete(zeta - steps, np.argmax(np.abs(steps)))
    center = (k @ zeta) / k.sum()
    radius = float(np.abs(zeta - center).max())
    angles = 2.0 * np.pi * np.arange(m) / m + _ANGULAR_OFFSET
    circle = center + radius * np.exp(1j * angles)
    return np.where(np.isfinite(near), near, circle)


def _secular_aberth(
    zeta: np.ndarray, k: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Roots of Q = prod(z - zeta_j) * f, f = sum_j k_j / (z - zeta_j).

    ``zeta`` are g >= 3 distinct zeros and ``k`` their multiplicities, so Q
    has degree g - 1 and its roots are the critical points of P that are
    not repeated zeros.  Q'/Q = sum_j 1/(z - zeta_j) + f'/f gives the Newton
    step f / (f * sum_j 1/(z - zeta_j) + f') at O(g) per point; Aberth
    corrections keep the approximations apart.  Starts from ``w`` and
    returns (approximations, settled).
    """
    m = w.size
    # By Gauss-Lucas every root of Q lies in the hull of the zeros, so this
    # bounds 1 + |w| for the points worth measuring steps against.
    scale = 1.0 + float(np.abs(zeta).max())
    # A point whose step is not finite (it sits on a zero or on another
    # point, or Q' vanishes there) moves off by this fixed offset and the
    # sweep is retried.  The offsets differ in length: two points nudged
    # off one root by equal lengths sit symmetrically about it, where
    # Aberth's repulsion (which cubes the ratio of their errors) cannot
    # part them.
    angles = 2.0 * np.pi * np.arange(m) / m + _ANGULAR_OFFSET
    nudge = 1e-7 * scale * (1.0 + np.arange(m) / m) * np.exp(1j * (angles + 1.0))
    kc = k.astype(np.complex128)
    stall = 0
    best_step = np.inf
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            r = 1.0 / (w[:, None] - zeta)
            f = r @ kc
            newton = f / (f * r.sum(axis=1) - (r * r) @ kc)
            diff = w[:, None] - w
            np.fill_diagonal(diff, np.inf)
            corr = newton / (1.0 - newton * (1.0 / diff).sum(axis=1))
            bad = ~np.isfinite(corr)
            if bad.any():
                w = np.where(bad, w + nudge, w)
                continue
            w = w - corr
            step = float(np.abs(corr).max()) / scale
            if step <= 1e-13:
                return w, True
            # Ill-conditioned points rattle at a rounding noise floor; once
            # the steps are small and stop shrinking, more sweeps only
            # re-sample it.  The inclusion radii then say how far off the
            # points are.
            if step < 0.7 * best_step:
                best_step = step
                stall = 0
            else:
                stall += 1
                if stall >= 10 and step <= 1e-5:
                    return w, True
    return w, False


def _inclusion_radii(w: np.ndarray, zeta: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Weierstrass inclusion radii (g - 1)|W_i| for the roots of Q.

    W_i = Q(w_i) / (n prod_{j != i}(w_i - w_j)), where n = sum(k) is Q's
    leading coefficient.  The union of the discs |z - w_i| <= (g - 1)|W_i|
    holds every root of Q, and a connected group of d discs holds exactly d
    (Gerschgorin's theorem on the Weierstrass matrix).  The products are
    taken as sums of logs, so no degree over- or underflows them, and each
    radius is widened by a rounding-error bound on f and on the log sums
    (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).  A
    radius that cannot be bounded is inf.
    """
    g = zeta.size
    m = w.size
    with np.errstate(all="ignore"):
        d = w[:, None] - zeta
        mod_d = np.abs(d)
        f = (k / d).sum(axis=1)
        # Each term k/(w - zeta) is off by a few units of roundoff and the
        # sum adds at most (g - 1) more, each relative to sum |terms|.
        f_bound = np.abs(f) + 2.0 * (g + 10) * _U * (k / mod_d).sum(axis=1)
        # On a zero, Q(zeta_j) = k_j prod_{l != j}(zeta_j - zeta_l): the
        # pole of f leaves the products and k_j takes the place of |f|.
        hit = mod_d == 0.0
        f_bound = np.where(hit.any(axis=1), hit @ k, f_bound)
        log_d = np.log(np.where(hit, 1.0, mod_d))
        log_e = np.log(np.abs(w[:, None] - w))
        np.fill_diagonal(log_e, 0.0)
        slack = 4.0 * (g + m) * _U * (
            1.0 + np.abs(log_d).sum(axis=1) + np.abs(log_e).sum(axis=1)
        )
        log_radius = (
            math.log(m) + log_d.sum(axis=1) + np.log(f_bound)
            - math.log(k.sum()) - log_e.sum(axis=1) + slack
        )
        radii = np.exp(log_radius)
    return np.where(np.isnan(radii), np.inf, radii)


def _distance_bracket(
    a: float, exact: np.ndarray, free: np.ndarray, free_radii: np.ndarray
) -> tuple[float, float]:
    """(nearest distance to a, bracket half-width).

    Every critical point lies in some disc, so none is nearer than
    min(dist - radius).  An exact point, or a disc that meets no other
    disc, holds a critical point within dist + radius; any other disc's
    connected group holds one within 2 * sum(radii) of its centre.  The
    computed |w - a| is within 3 roundings of the true one, and the final
    4u * upper covers the arithmetic on the bracket ends.
    """
    points = np.concatenate([exact, free])
    radii = np.concatenate([np.zeros(exact.size), free_radii])
    dist = np.abs(points - a)
    with np.errstate(invalid="ignore"):
        gap = np.abs(free[:, None] - free)
        np.fill_diagonal(gap, np.inf)
        alone = (gap > free_radii[:, None] + free_radii).all(axis=1)
        isolated = np.concatenate([np.ones(exact.size, dtype=bool), alone])
        reach = np.where(isolated, radii, 2.0 * radii.sum())
        upper = float((dist * (1.0 + 4.0 * _U) + reach).min())
        lower = float(np.maximum(dist * (1.0 - 4.0 * _U) - radii, 0.0).min())
    nearest = float(dist.min())
    half_width = max(upper - nearest, nearest - lower) + 4.0 * _U * upper
    return nearest, half_width


def critical_report(inst: SendovInstance) -> CriticalPointReport:
    """Critical points with inclusion radii, Sendov distance, and zero-mean.

    Works on the zeros, never on coefficients.  Exactly equal zeros are
    grouped into (zeta_j, k_j): each zeta_j with k_j >= 2 is an exact
    critical point of multiplicity k_j - 1 (radius 0).  The others are the
    roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j): with two
    distinct zeros that is (k_1 zeta_2 + k_2 zeta_1)/n, with a rounding
    radius; otherwise ``_secular_aberth`` finds them and
    ``_inclusion_radii`` certifies them.
    """
    zeros = np.asarray(inst.all_zeros())
    n = zeros.size
    zeta, counts = np.unique(zeros, return_counts=True)
    k = counts.astype(np.float64)
    exact = np.repeat(zeta, counts - 1)
    settled = True
    if zeta.size == 1:
        free = np.empty(0, dtype=np.complex128)
        free_radii = np.empty(0)
    elif zeta.size == 2:
        # Two roundings in the numerator and one in the quotient, per
        # component: at most gamma_3 * sqrt(2) relative to the sum of moduli.
        z1, z2 = complex(zeta[0]), complex(zeta[1])
        k1, k2 = float(k[0]), float(k[1])
        free = np.array([(k1 * z2 + k2 * z1) / n])
        free_radii = np.array([5.0 * _U * (k1 * abs(z2) + k2 * abs(z1)) / n])
    else:
        free, settled = _secular_aberth(zeta, k, _starts(zeta, k))
        free_radii = _inclusion_radii(free, zeta, k)
    nearest, half_width = _distance_bracket(inst.a, exact, free, free_radii)

    points = np.concatenate([exact, free])
    radii = np.concatenate([np.zeros(exact.size), free_radii])
    order = np.lexsort((points.imag, points.real))
    mean = sum(z.real for z in inst.all_zeros()) / n
    return CriticalPointReport(
        critical_points=tuple(points[order].tolist()),
        sendov_distance=nearest,
        mean_real_part=float(mean),
        radii=tuple(radii[order].tolist()),
        distance_radius=float(half_width),
        converged=settled,
    )


def hull_distance(point: complex, vertices: Sequence[complex]) -> float:
    """Euclidean distance from point to the convex hull of vertices (0 inside).

    Monotone-chain hull; degenerate vertex sets (single point, collinear)
    fall back to point/segment distance.
    """
    w = complex(point)
    pts = _require_finite_complex(vertices, "vertices")
    if pts.size == 0:
        raise InvalidInputError("hull needs at least one vertex")
    uniq = np.unique(pts)
    xy = sorted((z.real, z.imag) for z in uniq)
    if len(xy) == 1:
        return abs(w - complex(*xy[0]))

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[tuple[float, float]] = []
    for pt in xy:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[tuple[float, float]] = []
    for pt in reversed(xy):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    hull = lower[:-1] + upper[:-1]

    if len(hull) == 2:
        return _segment_distance(w, hull[0], hull[1])

    inside = True
    for i in range(len(hull)):
        if cross(hull[i], hull[(i + 1) % len(hull)], (w.real, w.imag)) < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(w, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def _segment_distance(w: complex, p: tuple[float, float], q: tuple[float, float]) -> float:
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(w.real - px, w.imag - py)
    t = ((w.real - px) * dx + (w.imag - py) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(w.real - (px + t * dx), w.imag - (py + t * dy))
