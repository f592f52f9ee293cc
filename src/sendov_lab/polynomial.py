"""Complex polynomials, certified root finding, and critical points.

This module carries the empirical side of the package.  Critical points of
P(z) = (z - a) * prod(z - z_j) are computed from the zeros themselves, never
from coefficients: since P'/P = sum_j k_j / (z - zeta_j) over the distinct
zeros zeta_j of multiplicity k_j, an Aberth-Ehrlich iteration runs on that
sum at O(degree) per point (the secular-equation view of MPSolve).  Each
critical point carries a Weierstrass inclusion radius with a rounding bound,
so the Sendov distance min |w - a| comes with a bracket that holds the true
value.  One kernel serves one instance (``critical_report``) and many at
once (``sendov_distances``): its stages take a leading axis of instances,
each Aberth sweep gathers only the points still moving, and an instance's
result does not depend on what else is in the block.

The coefficient side (``from_roots``, ``find_roots``) stays for general
polynomials.  A ``Polynomial`` holds coefficients and tails only.  One
Aberth sweep loop, from the Newton-polygon starts at every degree, runs
once in the dtype of its coefficients: first on the binary64
coefficients, then in clongdouble on the extended-precision coefficients
``from_roots`` keeps as head + tail pairs, with an mpmath Newton rescue
for the few roots still adrift.  One Vandermonde evaluator gives p and p'
everywhere, and each root gets a residual certificate.

All public values are immutable and safe to share across threads.  Every
rejected argument or instance raises ``bounds.DomainError``, the package's
one error class (``InvalidInputError`` is the same class under its older
name), and the zero a is checked by the same rule as in ``bounds``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import DomainError, _check_a

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
    "sendov_distances",
    "bracket_verdict",
    "hull_distance",
]

# Residual threshold certifying a reported root: |P(r)| <= tol * scale with
# scale = max |coeff| * (1 + |r|)^degree.
RESIDUAL_TOL = 1e-10
# Two reported roots closer than this are flagged as one cluster.
CLUSTER_TOL = 1e-7

_MAX_ITER = 200
# Sweeps of the critical-point iteration before it reports not converged.
_MAX_SWEEPS = 300
# Complex values in each of the kernel's rows x (g - 1) x g temporaries
# (4 MB), which sets the rows in one block of sendov_distances.
_BLOCK_TEMPORARY = 2 ** 18
# Unit roundoff of binary64.
_U = 2.0 ** -53
# Irrational angular offset keeps each circle of start points off axes and
# off any symmetric root configuration.
_ANGULAR_OFFSET = 1.0 / math.sqrt(2.0)


# The package has one error class; this name stays for existing callers.
InvalidInputError = DomainError


def _require_finite_complex(values, what: str, ndim: int = 1) -> np.ndarray:
    """values as an ndim-dimensional complex128 array, if every entry is a
    finite number: an int, float or complex (numpy's numeric scalars too),
    never a bool or a string, as ``bounds._real_in`` rules for reals.  An
    ndarray is checked by its dtype alone, with no loop over its entries."""
    if isinstance(values, np.ndarray):
        numbers = values.dtype.kind in "iufc"
    else:
        values = np.asarray(values, dtype=object)
        numbers = all(
            issubclass(kind, (int, float, complex, np.number)) and not issubclass(kind, bool)
            for kind in set(map(type, values.flat))
        )
    if not numbers or values.ndim != ndim:
        raise DomainError(
            f"{what} must be {'rows of ' * (ndim - 1)}numbers: int, float or complex, "
            "not bool or str"
        )
    try:
        with np.errstate(over="ignore"):
            arr = values.astype(np.complex128, copy=False)
    except OverflowError as exc:
        raise DomainError(f"{what} must be finite: {exc}") from None
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class Polynomial:
    """Coefficient-form polynomial, ascending degree, nonzero leading term.

    Degree 0 values are permitted; operations that need roots demand
    degree >= 1 themselves.

    ``tails`` optionally carries the rounding residual of each coefficient,
    so that coefficients[k] + tails[k] is the polynomial's exact coefficient
    when that needs more than binary64 (``from_roots`` fills it from its
    clongdouble expansion).  None means the coefficients are exact.  The
    tails are finite, one per coefficient, and take no part in equality or
    ``repr``; only ``find_roots``' clongdouble sweeps and its mpmath rescue
    read them.
    """

    coefficients: tuple[complex, ...]
    tails: tuple[complex, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = _require_finite_complex(self.coefficients, "coefficients")
        if coeffs.size == 0:
            raise DomainError("a polynomial needs at least one coefficient")
        if coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", tuple(coeffs.tolist()))
        if self.tails is not None:
            tails = _require_finite_complex(self.tails, "tails")
            if tails.size != coeffs.size:
                raise DomainError(
                    f"{tails.size} tails for {coeffs.size} coefficients"
                )
            object.__setattr__(self, "tails", tuple(tails.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _require_unit_disk(zeros: np.ndarray) -> None:
    """Every other zero of a SendovInstance has modulus <= 1, up to 1e-12 of
    slack."""
    worst = float(np.abs(zeros).max())
    if worst > 1.0 + 1e-12:
        raise DomainError(
            f"every other zero must have modulus <= 1, worst is {worst!r}"
        )


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
        a = _check_a(self.a)
        zeros = _require_finite_complex(self.other_zeros, "other_zeros")
        if zeros.size == 0:
            raise DomainError("need at least one other zero (degree >= 2)")
        _require_unit_disk(zeros)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "other_zeros", tuple(zeros.tolist()))

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
        """The instance of a ``to_dict`` payload.  ``a`` and every zero
        component must be numbers already: a string or a bool is rejected,
        not converted."""
        try:
            a = data["a"]
            pairs = [(re, im) for re, im in data["zeros"]]
            bad = {kind for kind in set(map(type, (x for pair in pairs for x in pair)))
                   if issubclass(kind, bool) or not issubclass(kind, (int, float))}
            if bad:
                part = next(x for pair in pairs for x in pair if type(x) in bad)
                raise TypeError(f"zero component {part!r} is not a number")
            zeros = tuple(complex(re, im) for re, im in pairs)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"bad instance payload: {exc}") from None
        return cls(a=a, other_zeros=zeros)

    @classmethod
    def from_json(cls, text: str) -> "SendovInstance":
        try:
            data = json.loads(text)
        # ValueError also covers an integer literal past Python's digit
        # limit, RecursionError a nesting deeper than the parser's stack.
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"instance is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError("instance JSON must be an object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class RootResult:
    """Roots reported by find_roots plus their certificates.

    residuals[i] = |P(roots[i])| / (max|coeff| * (1+|roots[i]|)^degree);
    converged means every residual is at or below RESIDUAL_TOL.  clusters
    lists index groups whose pairwise distance is below CLUSTER_TOL (likely
    multiple roots); iterations counts the binary64 Aberth sweeps, at most
    200, and is 0 when every root is 0.
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
        return str(bracket_verdict(self.sendov_distance, self.distance_radius, threshold))


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
        raise DomainError("from_roots needs at least one root")
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
    return Polynomial(tuple(head.tolist()), tuple(tail.tolist()))


def evaluate(p: Polynomial, z: complex) -> complex:
    """p(z), for a finite z."""
    z = _require_finite_complex((z,), "evaluation point")
    return complex(_values(np.asarray(p.coefficients), z)[0])


def _values(c: np.ndarray, z: np.ndarray, derivative: bool = False):
    """p(z) for every z at once, and p'(z) too with ``derivative``, in the
    dtype of c and z: one Vandermonde matrix V[i, k] = z_i^k gives p = V c
    and p' = V[:, :-1] (k c_k).  A value past the floating range comes back
    inf or nan without a warning; every caller handles it."""
    n = len(c) - 1
    with np.errstate(all="ignore"):
        v = np.vander(z, n + 1, increasing=True)
        pz = v @ c
        if not derivative:
            return pz
        return pz, v[:, :n] @ (c[1:] * np.arange(1, n + 1))


def _certified_residuals(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / (max|c| (1+|z|)^deg), with the scale kept in log space so a
    far-out root cannot overflow the denominator into a vacuous certificate."""
    deg = len(coeffs) - 1
    pz = np.abs(_values(coeffs, z))
    log_scale = math.log(np.abs(coeffs).max()) + deg * np.log1p(np.abs(z))
    with np.errstate(all="ignore"):
        residuals = np.exp(np.log(pz) - log_scale)
    return np.where(np.isfinite(pz), residuals, np.inf)


def _aberth(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Aberth-Ehrlich sweeps on the roots of sum c_k z^k from the
    approximations z, in the dtype of c; returns (z, sweeps, arrived).
    It arrives after two sweeps in a row whose steps are all at most 1e-13
    of 1 + |z|, or once they are at most 1e-5 and have not shrunk in ten
    sweeps, and gives up after 200 sweeps."""
    sweeps = 0
    quiet = 0
    stall = 0
    best_step = np.inf
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            sweeps += 1
            pz, dpz = _values(c, z, derivative=True)
            w = pz / dpz
            bad = ~np.isfinite(w)
            if bad.any():
                # overflow far from the root cloud, or p' = 0 on a multiple
                # root: move the offenders and sweep again
                z = np.where(bad, 0.5 * z, z)
                continue
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            corr = w / (1.0 - w * s)
            corr = np.where(np.isfinite(corr), corr, w)
            z = z - corr
            step_max = float((np.abs(corr) / (1.0 + np.abs(z))).max())
            if step_max <= 1e-13:
                quiet += 1
                if quiet >= 2:
                    return z, sweeps, True
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
                    return z, sweeps, True
    return z, sweeps, False


def _polish(p: Polynomial, exact: np.ndarray, z: np.ndarray) -> np.ndarray:
    """50-digit Newton finish for the roots z still adrift after the sweeps
    on ``exact``, p's coefficients + ``tails`` in clongdouble.

    A random degree-50 unit-disk polynomial can have |p'(root)| ~ 1e-9 with
    coefficient mass ~ 1e4, putting even the 80-bit evaluation noise floor
    above 1e-8 of root error.  A root whose Newton step on ``exact`` is over
    1e-10 of 1 + |z| is refined in mpmath against coefficients + tails.
    """
    pz, dpz = _values(exact, z, derivative=True)
    with np.errstate(all="ignore"):
        w = pz / dpz
    w = np.where(np.isfinite(w), w, 0.0)
    stubborn = np.nonzero(np.abs(w) > 1e-10 * (1.0 + np.abs(z)))[0]
    if stubborn.size:
        import mpmath as mp

        with mp.workdps(50):
            cs = [mp.mpc(c) for c in p.coefficients]
            if p.tails is not None:
                cs = [c + mp.mpc(t) for c, t in zip(cs, p.tails)]
            cs.reverse()
            for i in stubborn:
                x = mp.mpc(complex(z[i]))
                for _ in range(8):
                    pv, dv = mp.polyval(cs, x, derivative=True)
                    if dv == 0:
                        break
                    delta = pv / dv
                    x -= delta
                    if abs(delta) <= 1e-16 * (1 + abs(x)):
                        break
                z[i] = complex(x)
    return z.astype(np.complex128)


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

    The zero coefficients below the lowest nonzero one are exact roots at 0
    and come back as 0j.  The other roots start from the Newton polygon
    (Bini 1996, as in MPSolve): each edge k1 -> k2 of the upper convex hull
    of the points (k, log|c_k|) puts k2 - k1 starts on the circle of radius
    (|c_k1|/|c_k2|)^(1/(k2 - k1)), at equal angles turned by a multiple of
    a fixed irrational offset, so roots whose moduli span decades each
    start near their own modulus.  One run of ``_aberth`` on the binary64
    monic coefficients c_k/c_n follows.  The same sweeps then run in
    clongdouble on coefficients + ``tails``, and ``_polish`` finishes any
    root still adrift.  ``converged`` reflects the binary64 residual
    certificates of the final values (a non-converged report is returned
    rather than guessing); ``iterations`` counts the binary64 sweeps.  A
    ratio c_k/c_n past binary64 range raises ``DomainError``.
    """
    if p.degree < 1:
        raise DomainError("find_roots needs degree >= 1")
    coeffs = np.asarray(p.coefficients, dtype=np.complex128)
    nonzero = np.flatnonzero(coeffs)
    low = int(nonzero[0])
    z = np.zeros(p.degree - low, dtype=np.complex128)
    with np.errstate(all="ignore"):
        monic = coeffs[low:] / coeffs[-1]
        if not np.isfinite(monic).all():
            k = low + int(np.flatnonzero(~np.isfinite(monic))[0])
            raise DomainError(f"coefficient ratio c_{k}/c_{p.degree} overflows binary64")
        logs = np.log(np.abs(coeffs))
        # Fed from k = n down, the chain's left turns trace the upper hull.
        hull = _convex_chain([(k, logs[k]) for k in nonzero[::-1].tolist()])
        for e, ((k2, log2), (k1, log1)) in enumerate(zip(hull, hull[1:]), 1):
            # The e-th circle from the outside turns by e offsets, so starts
            # on neighbouring circles do not line up along one ray.
            angles = 2.0 * np.pi * np.arange(k2 - k1) / (k2 - k1) + e * _ANGULAR_OFFSET
            z[k1 - low:k2 - low] = np.exp((log1 - log2) / (k2 - k1)) * np.exp(1j * angles)
    iterations = 0
    if z.size:
        z, iterations, _ = _aberth(monic, z)
        exact = coeffs[low:].astype(np.clongdouble)
        if p.tails is not None:
            exact += np.asarray(p.tails[low:]).astype(np.clongdouble)
        z, _, _ = _aberth(exact, z.astype(np.clongdouble))
        z = _polish(p, exact, z)
    z = np.concatenate((np.zeros(low, dtype=np.complex128), z))
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
    found root paired with expected[i]: the Hungarian assignment, which
    minimises the total distance over the pairs.  Where every expected
    root's nearest found root is a different one, that pairing already
    attains the minimum, row by row, and scipy is not imported.
    """
    f = _require_finite_complex(found, "found")
    e = _require_finite_complex(expected, "expected")
    if f.size != e.size or f.size == 0:
        raise DomainError("matching needs two equal nonempty root lists")
    dist = np.abs(e[:, None] - f[None, :])
    cols = dist.argmin(axis=1)
    if np.unique(cols).size < cols.size:
        from scipy.optimize import linear_sum_assignment

        cols = linear_sum_assignment(dist)[1]
    return tuple(cols.tolist()), float(dist[np.arange(cols.size), cols].max())


def _starts(zeta: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """g - 1 start points per row for the roots of Q, one Newton step of Q
    from the zeros.

    ``zeta`` holds one row of g distinct zeros per instance and ``k`` their
    multiplicities, or None when every one is 1.  At zeta_j, where f has a
    pole but Q does not, the Newton step of Q has the finite limit
    Q/Q' = k_j / (k_j S_j + F_j), with S_j = sum_{l != j} 1/(zeta_j - zeta_l)
    and F_j = sum_{l != j} k_l/(zeta_j - zeta_l).  Each zero less the one
    with the longest step gives a start; from there a random degree-64
    instance settles in about 7 sweeps, where the circle about the zero
    centroid through the farthest zero takes about 25.  A start takes its
    point on that circle instead when it has no finite value (two zeros so
    close that 1/(zeta_j - zeta_l) overflows), or when an earlier start lies
    within 1e-6 of its step length: the steps from both zeros of a tight
    pair can land on the pair's one critical point, where Aberth cannot
    part the two points.  The test is relative to the step and not to the
    spread of all the zeros, so the starts inside a tight cluster, whose
    roots of Q lie as close together as its zeros, keep their places.
    """
    rows, g = zeta.shape
    m = g - 1
    diagonal = np.arange(g)
    with np.errstate(all="ignore"):
        gaps = np.subtract(zeta[:, :, None], zeta[:, None, :])
        np.reciprocal(gaps, out=gaps)
        gaps[:, diagonal, diagonal] = 0.0
        sums = gaps.sum(axis=-1)
        if k is None:
            # k S + F is S + S for unit k, except where S is not finite:
            # k * S then has a NaN part, and so the start takes the circle.
            steps = np.divide(1.0, np.where(np.isfinite(sums), sums + sums, np.nan))
        else:
            steps = k * sums + np.multiply(gaps, k[:, None, :], out=gaps).sum(axis=-1)
            np.divide(k, steps, out=steps)
        del gaps
        kept = np.ones((rows, g), dtype=bool)
        kept[np.arange(rows), np.argmax(np.abs(steps), axis=-1)] = False
        near = (zeta - steps)[kept].reshape(rows, m)
        bound = 1e-6 * np.abs(steps)[kept].reshape(rows, m)
        # |Re d| <= |d|: only pairs whose real parts lie within the bound
        # can lie within it, so only those have their modulus taken.
        apart = near.real[:, :, None] - near.real[:, None, :]
        pairs = np.abs(apart, out=apart) <= bound[:, :, None]
        pairs &= np.tri(m, m, -1, dtype=bool)
        t, i, j = np.unravel_index(np.flatnonzero(pairs), pairs.shape)
        close = np.abs(near[t, i] - near[t, j]) <= bound[t, i]
    crowded = np.zeros((rows, m), dtype=bool)
    crowded[t[close], i[close]] = True
    if k is None:
        center = zeta.sum(axis=-1) / g
    else:
        center = (k * zeta).sum(axis=-1) / k.sum(axis=-1)
    radius = np.abs(zeta - center[:, None]).max(axis=-1)
    angles = 2.0 * np.pi * np.arange(m) / m + _ANGULAR_OFFSET
    circle = center[:, None] + radius[:, None] * np.exp(1j * angles)
    return np.where(np.isfinite(near) & ~crowded, near, circle)


def _minus_rows(column, x, t) -> np.ndarray:
    """column - x[t], one row per point: ``column`` holds the points w[t, i]
    as a column.  The gathered rows are a fresh copy: the difference
    overwrites it."""
    gathered = x[t]
    return np.subtract(column, gathered, out=gathered)


def _aberth_corrections(w, zeta, kc, points) -> np.ndarray:
    """Aberth corrections for the points w[t, i] of ``points`` = (t, i), each
    an approximation to a root of Q in row t.

    Row t has zeros ``zeta[t]`` and multiplicities ``kc[t]`` (complex; None
    means all ones).  Q'/Q = sum_j 1/(z - zeta_j) + f'/f gives the Newton
    step f / (f * sum_j 1/(z - zeta_j) + f') at O(g) per point.  Sums run
    along the last axis only, with no matrix products: a point's sums then
    round the same whatever else is gathered, and no BLAS threads start.
    The points x g temporaries are gathered, and freed, one at a time.
    """
    t, i = points
    column = w[t, i, None]
    r = _minus_rows(column, zeta, t)
    np.reciprocal(r, out=r)
    rk = r if kc is None else r * kc[t]
    f = rk.sum(axis=-1)
    newton = f * (f if kc is None else r.sum(axis=-1))
    newton -= np.multiply(rk, r, out=rk).sum(axis=-1)
    del r, rk
    np.divide(f, newton, out=newton)
    diff = _minus_rows(column, w, t)
    diff[np.arange(t.size), i] = np.inf
    np.reciprocal(diff, out=diff)
    return newton / (1.0 - newton * diff.sum(axis=-1))


def _nearest(w, zeta, points) -> np.ndarray:
    """Distance from each point w[t, i] of ``points`` = (t, i) to the
    nearest zero or other point of its row."""
    t, i = points
    column = w[t, i, None]
    nearest = np.abs(_minus_rows(column, zeta, t)).min(axis=-1)
    gap = _minus_rows(column, w, t)
    gap[np.arange(t.size), i] = np.inf
    return np.minimum(nearest, np.abs(gap).min(axis=-1))


def _secular_aberth(
    zeta: np.ndarray, k: np.ndarray | None, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of Q = prod(z - zeta_j) * f, f = sum_j k_j / (z - zeta_j), for
    each row.

    Row t of ``zeta`` holds g >= 3 distinct zeros of one instance and of
    ``k`` their multiplicities (None when every one is 1: the product by
    unit multiplicities would cost a full pass, and a temporary, of the
    points x zeros array every sweep), so Q has degree g - 1 and its roots
    are the critical points of P that are not repeated zeros.  Starts from ``w``
    (rows x (g - 1)) and returns (approximations, settled per row).

    A point stops moving once its own step s is at most 1e-10 * scale, with
    scale = 1 + max|zeta_j|, at most 1e-3 of its distance delta to the
    nearest zero or other point (MPSolve's per-root stopping rule), and so
    small that the error it leaves, about s^2 sum_j e_j / |w - w_j|^2 for
    neighbours off by e_j, is at most 1e-16 * scale even with all m at delta
    and off by the row's largest step; the others go on using it.  A row
    ends when none of its points move, or when its largest steps are small
    and stop shrinking, or at the sweep cap, which leaves it not settled.
    Each sweep gathers only the moving points, each with its row, and a
    point's arithmetic does not depend on what else is gathered, so a row's
    result does not depend on the other rows.
    """
    rows, m = w.shape
    # By Gauss-Lucas every root of Q lies in the hull of the zeros, so this
    # bounds 1 + |w| for the points worth measuring steps against.
    scale = 1.0 + np.abs(zeta).max(axis=-1)
    # A point whose step is not finite (it sits on a zero or on another
    # point, or Q' vanishes there) moves off by this fixed offset and its
    # row retries the sweep.  The offsets differ in length: two points
    # nudged off one root by equal lengths sit symmetrically about it, where
    # Aberth's repulsion (which cubes the ratio of their errors) cannot
    # part them.
    angles = 2.0 * np.pi * np.arange(m) / m + _ANGULAR_OFFSET
    nudge = 1e-7 * scale[:, None] * ((1.0 + np.arange(m) / m) * np.exp(1j * (angles + 1.0)))
    kc = None if k is None else k.astype(np.complex128)
    moving = np.ones((rows, m), dtype=bool)
    settled = np.zeros(rows, dtype=bool)
    stall = np.zeros(rows, dtype=int)
    best_step = np.full(rows, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            points = np.nonzero(moving)
            if points[0].size == 0:
                break
            corr = np.zeros((rows, m), dtype=np.complex128)
            corr[points] = _aberth_corrections(w, zeta, kc, points)
            step = np.abs(corr) / scale[:, None]
            small = moving & (step <= 1e-10)
            finite = np.isfinite(corr)
            if finite.all():
                w = w - corr
                swept = moving.any(axis=-1)
            else:
                nudged = ~finite.all(axis=-1)
                w = np.where(finite, np.where(nudged[:, None], w, w - corr), w + nudge)
                swept = moving.any(axis=-1) & ~nudged
                small &= swept[:, None]
            # A small step freezes a point only if it is also small against
            # the nearest zero or neighbour (in a tight cluster every step is
            # small, and points frozen early leave discs that overlap) and
            # leaves an error at the rounding floor, as the docstring says.
            largest = step.max(axis=-1)
            if small.any():
                t, _ = points = np.nonzero(small)
                s, near = np.abs(corr[points]), _nearest(w, zeta, points)
                small[points] = (s <= 1e-3 * near) & (s * s * m * largest[t] <= 1e-16 * near**2)
                moving &= ~small
            # Ill-conditioned points rattle at a rounding noise floor; once a
            # row's steps are small and stop shrinking, more sweeps only
            # re-sample it.  The inclusion radii then say how far off the
            # points are.
            improved = swept & (largest < 0.7 * best_step)
            best_step = np.where(improved, largest, best_step)
            stall += swept
            stall[improved] = 0
            ended = swept & (~moving.any(axis=-1) | ((stall >= 10) & (largest <= 1e-5)))
            settled |= ended
            moving[ended] = False
    return w, settled


def _inclusion_radii(w, zeta, k) -> tuple[np.ndarray, np.ndarray]:
    """Weierstrass inclusion radii (g - 1)|W_i| for the roots of Q, per row,
    and each w_i's distance to its nearest w_j, from the products' |w_i - w_j|.

    W_i = Q(w_i) / (n prod_{j != i}(w_i - w_j)), where n = sum(k) is Q's
    leading coefficient (``k`` None means every multiplicity is 1).  The
    union of the discs |z - w_i| <= (g - 1)|W_i| holds every root of Q, and
    a connected group of d discs holds exactly d (Gerschgorin's theorem on
    the Weierstrass matrix).  The products are
    taken as sums of logs, so no degree over- or underflows them, and each
    radius is widened by a rounding-error bound on f and on the log sums
    (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).  A
    radius that cannot be bounded is inf.
    """
    g = zeta.shape[-1]
    m = w.shape[-1]
    kk = 1.0 if k is None else k[:, None, :]
    log_n = np.log(float(g)) if k is None else np.log(k.sum(axis=-1))[:, None]
    diagonal = np.arange(m)
    with np.errstate(all="ignore"):
        d = np.subtract(w[:, :, None], zeta[:, None, :])
        mod_d = np.abs(d)
        # k scales the reciprocals once taken, so unit k gives k None's bits.
        f = np.reciprocal(d, out=d)
        f = (f if k is None else np.multiply(f, kk, out=f)).sum(axis=-1)
        del d
        # Each term k/(w - zeta) is off by a few units of roundoff and the
        # sum adds at most (g - 1) more, each relative to sum |terms|.
        f_bound = np.abs(f) + 2.0 * (g + 10) * _U * (kk / mod_d).sum(axis=-1)
        # On a zero, Q(zeta_j) = k_j prod_{l != j}(zeta_j - zeta_l): the
        # pole of f leaves the products and k_j takes the place of |f|.
        hit = mod_d == 0.0
        if hit.any():
            f_bound = np.where(hit.any(axis=-1), (hit * kk).sum(axis=-1), f_bound)
            mod_d[hit] = 1.0
        log_d = np.log(mod_d, out=mod_d)
        sum_d, size_d = log_d.sum(axis=-1), np.abs(log_d).sum(axis=-1)
        del mod_d, log_d
        log_e = np.abs(w[:, :, None] - w[:, None, :])
        log_e[:, diagonal, diagonal] = np.inf
        nearest = log_e.min(axis=-1)
        np.log(log_e, out=log_e)
        log_e[:, diagonal, diagonal] = 0.0
        sum_e, size_e = log_e.sum(axis=-1), np.abs(log_e).sum(axis=-1)
        slack = 4.0 * (g + m) * _U * (1.0 + size_d + size_e)
        log_radius = math.log(m) + sum_d + np.log(f_bound) - log_n - sum_e + slack
        radii = np.exp(log_radius)
    return np.where(np.isnan(radii), np.inf, radii), nearest


def _free_points(zeta: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """(points, radii, nearest, settled): the critical points that are not
    repeated zeros, each with its distance to the nearest other, for each
    row of distinct zeros ``zeta`` with multiplicities ``k``.

    They are the roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j):
    none for one zero; (k_1 zeta_2 + k_2 zeta_1)/n with a rounding radius for
    two; otherwise ``_secular_aberth`` finds them and ``_inclusion_radii``
    certifies them.
    """
    rows, g = zeta.shape
    if g == 1:
        return np.empty((rows, 0), np.complex128), *np.empty((2, rows, 0)), np.ones(rows, bool)
    if g == 2:
        # Two roundings in the numerator and one in the quotient, per
        # component: at most gamma_3 * sqrt(2) relative to the sum of moduli.
        n = k.sum(axis=-1, keepdims=True)
        points = (k[:, :1] * zeta[:, 1:] + k[:, 1:] * zeta[:, :1]) / n
        radii = 5.0 * _U * (k[:, :1] * np.abs(zeta[:, 1:]) + k[:, 1:] * np.abs(zeta[:, :1])) / n
        return points, radii, np.full((rows, 1), np.inf), np.ones(rows, bool)
    if (k == 1.0).all():
        k = None
    points, settled = _secular_aberth(zeta, k, _starts(zeta, k))
    return (points, *_inclusion_radii(points, zeta, k), settled)


def _distance_bracket(a, exact, free, free_radii, free_nearest) -> tuple[np.ndarray, np.ndarray]:
    """(nearest distance to a, bracket half-width), per row.

    Every critical point lies in some disc, so none is nearer than
    min(dist - radius).  An exact point, or a disc that meets no other
    disc, holds a critical point within dist + radius; any other disc's
    connected group holds one within 2 * sum(radii) of its centre.  A disc
    whose ``free_nearest`` centre is farther than its radius plus the row's
    largest meets no other, even rounded; only the rest are tested pair by
    pair.  The computed |w - a| is within 3 roundings of the true one, and
    the final 4u * upper covers the arithmetic on the bracket ends.
    """
    points = np.concatenate([exact, free], axis=-1)
    radii = np.concatenate([np.zeros(exact.shape), free_radii], axis=-1)
    dist = np.abs(points - a[:, None])
    with np.errstate(invalid="ignore"):
        alone = free_nearest > free_radii + free_radii.max(axis=-1, initial=0.0, keepdims=True)
        t, i = np.nonzero(~alone)
        gap = np.abs(_minus_rows(free[t, i, None], free, t))
        gap[np.arange(t.size), i] = np.inf
        alone[t, i] = (gap > free_radii[t, i, None] + free_radii[t]).all(axis=-1)
        isolated = np.concatenate([np.ones(exact.shape, dtype=bool), alone], axis=-1)
        reach = np.where(isolated, radii, 2.0 * radii.sum(axis=-1, keepdims=True))
        upper = (dist * (1.0 + 4.0 * _U) + reach).min(axis=-1)
        lower = np.maximum(dist * (1.0 - 4.0 * _U) - radii, 0.0).min(axis=-1)
    nearest = dist.min(axis=-1)
    half_width = np.maximum(upper - nearest, nearest - lower) + 4.0 * _U * upper
    return nearest, half_width


def bracket_verdict(distance, radius, threshold: float):
    """PASS or FAIL where the whole bracket distance +- radius lies on one
    side of threshold (FAIL above it), else UNRESOLVED; elementwise over
    arrays, as a string array of the same shape."""
    distance = np.asarray(distance)
    radius = np.asarray(radius)
    return np.where(
        distance + radius <= threshold, "PASS",
        np.where(distance - radius > threshold, "FAIL", "UNRESOLVED"),
    )


def critical_report(inst: SendovInstance) -> CriticalPointReport:
    """Critical points with inclusion radii, Sendov distance, and zero-mean.

    Works on the zeros, never on coefficients.  Exactly equal zeros are
    grouped into (zeta_j, k_j): each zeta_j with k_j >= 2 is an exact
    critical point of multiplicity k_j - 1 (radius 0).  The others are the
    roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j), found and
    certified as a block of one row (see ``_free_points``).
    """
    zeros = np.asarray(inst.all_zeros())
    n = zeros.size
    zeta, counts = np.unique(zeros, return_counts=True)
    exact = np.repeat(zeta, counts - 1)
    free, free_radii, free_nearest, settled = _free_points(zeta[None], counts[None] * 1.0)
    nearest, half_width = _distance_bracket(
        np.array([inst.a]), exact[None], free, free_radii, free_nearest
    )

    points = np.concatenate([exact, free[0]])
    radii = np.concatenate([np.zeros(exact.size), free_radii[0]])
    order = np.lexsort((points.imag, points.real))
    mean = sum(zeros.real.tolist()) / n
    return CriticalPointReport(
        critical_points=tuple(points[order].tolist()),
        sendov_distance=float(nearest[0]),
        mean_real_part=float(mean),
        radii=tuple(radii[order].tolist()),
        distance_radius=float(half_width[0]),
        converged=bool(settled[0]),
    )


def _block_rows(g: int) -> int:
    """Rows of g zeros in one block of ``sendov_distances``."""
    return max(1, _BLOCK_TEMPORARY // (g * (g - 1)))


def sendov_distances(a: float, other_zeros) -> tuple[np.ndarray, np.ndarray]:
    """Sendov distance and bracket half-width of many instances sharing a.

    Row t of ``other_zeros`` holds the other zeros of one instance; the
    rows are validated together by ``SendovInstance``'s rule.  Each row's
    pair is bit for bit what ``critical_report`` gives for that instance:
    rows whose zeros are all distinct run through the same kernel in
    blocks whose temporaries hold at most 2**18 values each (see
    ``_block_rows``), and a row with a repeated zero runs through
    ``critical_report`` itself.
    """
    others = _require_finite_complex(other_zeros, "other_zeros", ndim=2)
    if others.size == 0:
        raise DomainError("other_zeros must be a nonempty array of rows of zeros")
    a = _check_a(a)
    _require_unit_disk(others)
    rows, g = others.shape[0], others.shape[1] + 1
    # Sorted as np.unique sorts, so a block row matches critical_report's zeta.
    zeros = np.sort(np.concatenate([np.full((rows, 1), complex(a)), others], axis=1), axis=1)
    repeated = (zeros[:, 1:] == zeros[:, :-1]).any(axis=1)
    distance = np.empty(rows)
    radius = np.empty(rows)
    for t in np.nonzero(repeated)[0]:
        report = critical_report(SendovInstance(a, tuple(others[t].tolist())))
        distance[t], radius[t] = report.sendov_distance, report.distance_radius
    distinct = np.nonzero(~repeated)[0]
    block = _block_rows(g)
    for start in range(0, distinct.size, block):
        t = distinct[start:start + block]
        zeta = zeros[t]
        free = _free_points(zeta, np.ones(zeta.shape))[:3]
        distance[t], radius[t] = _distance_bracket(
            np.full(t.size, a), np.empty((t.size, 0), np.complex128), *free
        )
    return distance, radius


def hull_distance(point: complex, vertices: Sequence[complex]) -> float:
    """Euclidean distance from point to the convex hull of vertices (0 inside).

    Monotone-chain hull; degenerate vertex sets (single point, collinear)
    fall back to point/segment distance.
    """
    w = complex(_require_finite_complex((point,), "point")[0])
    pts = _require_finite_complex(vertices, "vertices")
    if pts.size == 0:
        raise DomainError("hull needs at least one vertex")
    uniq = np.unique(pts)
    xy = sorted((z.real, z.imag) for z in uniq)
    if len(xy) == 1:
        return abs(w - complex(*xy[0]))
    hull = _convex_chain(xy)[:-1] + _convex_chain(xy[::-1])[:-1]

    if len(hull) == 2:
        return _segment_distance(w, hull[0], hull[1])

    inside = True
    for i in range(len(hull)):
        if _cross(hull[i], hull[(i + 1) % len(hull)], (w.real, w.imag)) < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(w, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def _cross(o, p, q) -> float:
    """z-component of (p - o) x (q - o): positive for a left turn o -> p -> q."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _convex_chain(points: list) -> list:
    """Andrew's monotone chain over points in the given order, keeping only
    left turns: the lower hull of points sorted by x, the upper hull of
    points sorted by decreasing x, from end to end."""
    chain: list = []
    for pt in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) <= 0:
            chain.pop()
        chain.append(pt)
    return chain


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
