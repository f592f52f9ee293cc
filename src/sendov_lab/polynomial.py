"""Critical points of Sendov instances, certified by inclusion discs.

This module carries the empirical side of the package.  Critical points of
P(z) = (z - a) * prod(z - z_j) are computed from the zeros themselves, never
from coefficients: since P'/P = sum_j k_j / (z - zeta_j) over the distinct
zeros zeta_j of multiplicity k_j, an Aberth-Ehrlich iteration runs on that
sum at O(degree) per point (the secular-equation view of MPSolve).  Each
critical point carries a Weierstrass inclusion radius with a rounding bound,
so the Sendov distance min |w - a| comes with a bracket that holds the true
value.  One kernel serves one instance (``critical_report``) and many at
once (``sendov_distances``): its stages take a leading axis of instances,
each sweep of ``_sweeps`` gathers only the points still moving, and an
instance's result does not depend on what else is in the block.

The root finder in ``roots`` runs this module's sweep loop ``_sweeps`` with
its own step and takes its radii by the same rule, ``_weierstrass_radii``;
``_discs_meet``, which says when two discs meet, serves the kernel's
bracket alone.  Nothing here imports ``roots``.

All public values are immutable and safe to share across threads.  Every
rejected argument or instance raises ``bounds.DomainError``, the package's
one error class: the zero a and every complex argument are checked by the
argument rule of ``bounds``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import DomainError, _real_in, _require_finite_complex

__all__ = [
    "SendovInstance",
    "CriticalPointReport",
    "critical_report",
    "sendov_distances",
    "bracket_verdict",
    "VIOLATION_THRESHOLD",
]

# Sweeps of ``_sweeps`` before it ends a row not settled, for both solvers.
_MAX_SWEEPS = 300
# Complex values in each of the kernel's rows x (g - 1) x g temporaries
# (4 MB), which sets the rows in one block of sendov_distances.
_BLOCK_TEMPORARY = 2 ** 18
# Unit roundoff of binary64.
_U = 2.0 ** -53
# Irrational angular offset keeps each circle of start points off axes and
# off any symmetric root configuration.
_ANGULAR_OFFSET = 1.0 / math.sqrt(2.0)


def _sendov_zeros(a, other_zeros, ndim: int = 1) -> tuple[float, np.ndarray]:
    """(a, other zeros as complex128) by SendovInstance's rule: a in (0, 1),
    and at least one other zero, each a finite number of modulus <= 1 up to
    1e-12 of slack.  ndim=2 takes rows of instances that share a."""
    a = _real_in("a", a, 0, 1)
    zeros = _require_finite_complex(other_zeros, "other_zeros", ndim)
    if zeros.size == 0:
        raise DomainError("need at least one other zero (degree >= 2)")
    worst = float(np.abs(zeros).max())
    if worst > 1.0 + 1e-12:
        raise DomainError(f"every other zero must have modulus <= 1, worst is {worst!r}")
    return a, zeros


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
        a, zeros = _sendov_zeros(self.a, self.other_zeros)
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
        not converted.  ``zeros`` passes ``_require_finite_complex`` as
        rows, each of two real components [re, im]."""
        try:
            a, zeros = data["a"], data["zeros"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad instance payload: {exc}") from None
        # An empty list or tuple has no second axis: it is no zeros, which the
        # constructor rejects by name.
        if isinstance(zeros, (list, tuple)) and not zeros:
            rows = np.empty((0, 2))
        else:
            rows = _require_finite_complex(zeros, "zeros", ndim=2)
        if rows.shape[1] != 2 or rows.imag.any():
            raise DomainError("each zero must be a row [re, im] of two real numbers")
        # Viewing each row as one complex keeps a -0.0 component's sign.
        return cls(a=a, other_zeros=np.ascontiguousarray(rows.real).view(np.complex128)[:, 0])

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
class CriticalPointReport:
    """Critical points of one SendovInstance and the derived measurements.

    Every critical point lies in the union of the discs
    |z - critical_points[i]| <= radii[i]; a radius of 0 marks an exact
    critical point (a repeated zero).  The true Sendov distance lies in
    sendov_distance +- distance_radius.  converged says that the iteration
    settled within ``_MAX_SWEEPS`` sweeps and that every radius is finite;
    the discs hold either way, so the verdict rests on the bracket alone.
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


def _starts(zeta: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """g - 1 start points per row for the roots of Q, one second-order step
    from the zeros.

    ``zeta`` holds one row of g distinct zeros per instance and ``k`` their
    multiplicities, or None when every one is 1.  Near zeta_j, with
    u = z - zeta_j and G_jl = 1/(zeta_j - zeta_l),
    f = k_j/u + F_j - T_j u + O(u^2), where F_j = sum_{l != j} k_l G_jl and
    T_j = sum_{l != j} k_l G_jl^2.  One fixed-point pass u = -k_j/(F_j - T_j u)
    on that model, from its first-order root -k_j/F_j, gives the start
    zeta_j - s_j with s_j = k_j/(F_j + k_j T_j/F_j), or 1/(S_j + T_j/S_j) for
    unit k.  On an isolated pair it is the exact critical point
    (k_1 zeta_2 + k_2 zeta_1)/(k_1 + k_2), as the Newton step of Q from a
    zero, k_j/(k_j S_j + F_j), is; but at an isolated simple zero that step
    stops half-way, at 1/(2 S_j), to a root near 1/S_j, and this one does
    not.  Each zero less the one with the longest step gives a start; from
    there a random degree-64 instance settles in about 6 sweeps, with 3.3
    evaluations per point (4.2 from the Newton step), where the circle about
    the zero centroid through the farthest zero takes about 25 sweeps.

    A start takes its point on that circle instead when its step is not
    finite or is 0 (two zeros so close that a reciprocal or a sum
    overflows), or when an earlier start lies within max(1e-6 |s_j|,
    4u |start|) of it: the steps from both zeros of a tight pair land on the
    pair's one critical point, where Aberth cannot part the two points.
    Below a pair spacing of about 1e-10, 1e-6 of the step is less than an
    ulp of the start, and two starts rounded one ulp apart would escape the
    relative test alone.  The test is relative to the step and not to the
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
        weighted = gaps if k is None else gaps * k[:, None, :]
        f_j = weighted.sum(axis=-1)
        t_j = np.multiply(weighted, gaps, out=weighted).sum(axis=-1)
        del gaps, weighted
        steps = 1.0 / (f_j + t_j / f_j) if k is None else k / (f_j + k * t_j / f_j)
        # A step that overflowed (to 0 or NaN) takes the circle; as NaN it
        # is also the one dropped, and crowds no other start.
        steps[~np.isfinite(steps) | (steps == 0.0)] = np.nan
        kept = np.ones((rows, g), dtype=bool)
        kept[np.arange(rows), np.argmax(np.abs(steps), axis=-1)] = False
        near = (zeta - steps)[kept].reshape(rows, m)
        bound = np.maximum(1e-6 * np.abs(steps)[kept].reshape(rows, m), 4.0 * _U * np.abs(near))
        # |Re d| <= |d|: only pairs whose real parts lie within the bound
        # can lie within it, so only those have their modulus taken.
        apart = near.real[:, :, None] - near.real[:, None, :]
        pairs = np.abs(apart, out=apart) <= bound[:, :, None]
        pairs &= np.tri(m, m, -1, dtype=bool)
        t, i, j = np.unravel_index(np.flatnonzero(pairs), pairs.shape)
        close = np.abs(near[t, i] - near[t, j]) <= bound[t, i]
    crowded = np.zeros((rows, m), dtype=bool)
    crowded[t[close], i[close]] = True
    center = zeta.sum(axis=-1) / g if k is None else (k * zeta).sum(axis=-1) / k.sum(axis=-1)
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
    nearest zero or other point of its row; a row may have no zeros."""
    t, i = points
    column = w[t, i, None]
    nearest = np.abs(_minus_rows(column, zeta, t)).min(axis=-1, initial=np.inf)
    gap = _minus_rows(column, w, t)
    gap[np.arange(t.size), i] = np.inf
    return np.minimum(nearest, np.abs(gap).min(axis=-1))


def _sweeps(w, zeta, corrections, scale) -> tuple[np.ndarray, np.ndarray, int]:
    """Sweeps of the step ``corrections`` on each row of approximations
    ``w``; returns (approximations, settled per row, sweeps run).

    ``corrections(w, points)`` gives the step of each point w[t, i] of
    ``points`` = (t, i).  Row t of ``zeta`` holds the fixed points of row t
    that a point's nearest distance also counts (the kernel's zeros; the
    root finder has none), and ``scale`` per row must bound 1 + |r| for
    every root r the row approximates: steps are measured against it.

    A point stops moving once its own step s is at most 1e-10 * scale, at
    most 1e-3 of its distance delta to the nearest zero or other point
    (MPSolve's per-root stopping rule), and so small that the error it
    leaves, about s^2 sum_j e_j / |w - w_j|^2 for neighbours off by e_j, is
    at most 1e-16 * scale even with all m at delta and off by the row's
    largest step; the others go on using it.  A zero step passes all three
    tests.  A point whose step is not finite moves by a fixed nudge, 1e-7
    to 2e-7 of the scale, while the rest of its row waits.  A row ends
    when none of its points move, or when its largest steps are small and
    stop shrinking, or, not settled, at ``_MAX_SWEEPS`` sweeps.
    Each sweep gathers only the moving points, each with its row, and where
    a point's step does not depend on what else is gathered, a row's result
    does not depend on the other rows.  A row has m >= 1 points: the kernel
    sends g <= 2 zeros to closed forms and the finder skips an empty row.
    """
    rows, m = w.shape
    # The nudges differ in length: two points nudged off one root by equal
    # lengths sit symmetrically about it, where Aberth's repulsion (which
    # cubes the ratio of their errors) cannot part them.
    angles = 2.0 * np.pi * np.arange(m) / m + _ANGULAR_OFFSET
    nudge = 1e-7 * scale[:, None] * ((1.0 + np.arange(m) / m) * np.exp(1j * (angles + 1.0)))
    moving = np.ones((rows, m), dtype=bool)
    stall = np.zeros(rows, dtype=int)
    best_step = np.full(rows, np.inf)
    sweeps = 0
    with np.errstate(all="ignore"):
        while sweeps < _MAX_SWEEPS:
            points = np.nonzero(moving)
            if not points[0].size:
                break
            sweeps += 1
            corr = np.zeros((rows, m), dtype=np.complex128)
            corr[points] = corrections(w, points)
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
            stall = np.where(improved, 0, stall + swept)
            moving[swept & (stall >= 10) & (largest <= 1e-5)] = False
    # A row ends by clearing its moving points, so the rows still moving
    # are those the budget cut short.
    return w, ~moving.any(axis=-1), sweeps


def _weierstrass_radii(w, first, second, lead, size, count) -> np.ndarray:
    """The radii m exp(first + second - lead - sum_{j != i} log|w_i - w_j|
    + slack) of the m points w_i of each row.  Where first + second >=
    log|v(w_i)| and lead = log|c| for a polynomial v of degree m and
    leading coefficient c, every root of v lies in the discs
    |z - w_i| <= radii[i], d in each connected group of d (Carstensen,
    Numer. Math. 59, 1991); as sums of logs the products never over- or
    underflow.  The slack 4 count u (1 + size + sum_j |log|w_i - w_j||),
    given the caller's term count >= 5 and size (sum of |log| of its own
    terms), covers the rounding of the logs and their sum; its constant
    term, at least 20u, covers exp's rounding of a few ulps.  NaN gives inf."""
    m = w.shape[-1]
    diagonal = np.arange(m)
    with np.errstate(all="ignore"):
        log_e = np.abs(w[..., :, None] - w[..., None, :])
        np.log(log_e, out=log_e)
        log_e[..., diagonal, diagonal] = 0.0
        sum_e, size_e = log_e.sum(axis=-1), np.abs(log_e).sum(axis=-1)
        slack = 4.0 * count * _U * (1.0 + size + size_e)
        radii = np.exp(math.log(m) + first + second - lead - sum_e + slack)
    return np.where(np.isnan(radii), np.inf, radii)


def _discs_meet(gap, reach) -> np.ndarray:
    """Whether discs whose centres lie a computed |w_i - w_j| = ``gap`` apart,
    with radii summing to ``reach``, meet: the margin 1 - 4u covers the
    gap's three roundings, so discs that meet are never parted."""
    return gap * (1.0 - 4.0 * _U) <= reach


def _inclusion_radii(w, zeta, k) -> np.ndarray:
    """``_weierstrass_radii`` for the roots of Q = prod(z - zeta_j) * f,
    f = sum_j k_j/(z - zeta_j), of leading coefficient n = sum(k) (``k`` None
    for all ones): |Q(w)| <= prod_j |w - zeta_j| * f_bound, with f_bound |f|
    widened by an a-priori bound on its rounding (Higham 2002, ch. 3-4)."""
    g = zeta.shape[-1]
    kk = 1.0 if k is None else k[:, None, :]
    log_n = np.log(float(g)) if k is None else np.log(k.sum(axis=-1))[:, None]
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
        sum_d, size_d, log_f = log_d.sum(axis=-1), np.abs(log_d).sum(axis=-1), np.log(f_bound)
        del mod_d, log_d
    return _weierstrass_radii(w, sum_d, log_f, log_n, size_d, g + w.shape[-1])


def _free_points(zeta: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """(points, radii, settled): the critical points that are not repeated
    zeros, each with its inclusion radius, for each row of distinct zeros
    ``zeta`` with multiplicities ``k``.

    They are the roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j).
    For g <= 2 one closed form gives them, (k_1 zeta_2 + k_2 zeta_1)/n with
    a rounding radius, and none for one zero, whose column slices are empty.
    Otherwise ``_sweeps`` finds them with ``_aberth_corrections``' step from
    ``_starts``, and ``_inclusion_radii`` certifies them.
    """
    rows, g = zeta.shape
    if g <= 2:
        # Two roundings in the numerator and one in the quotient, per
        # component: at most gamma_3 * sqrt(2) relative to the sum of moduli.
        n = k.sum(axis=-1, keepdims=True)
        points = (k[:, :1] * zeta[:, 1:] + k[:, 1:] * zeta[:, :1]) / n
        radii = 5.0 * _U * (k[:, :1] * np.abs(zeta[:, 1:]) + k[:, 1:] * np.abs(zeta[:, :1])) / n
        return points, radii, np.ones(rows, bool)
    if (k == 1.0).all():
        k = None
    kc = None if k is None else k.astype(np.complex128)
    # By Gauss-Lucas every root of Q lies in the hull of the zeros, so this
    # bounds 1 + |w| for the points worth measuring steps against.
    scale = 1.0 + np.abs(zeta).max(axis=-1)
    points, settled, _ = _sweeps(
        _starts(zeta, k), zeta, lambda w, moving: _aberth_corrections(w, zeta, kc, moving), scale
    )
    return points, _inclusion_radii(points, zeta, k), settled


def _distance_bracket(a, exact, free, free_radii) -> tuple[np.ndarray, np.ndarray]:
    """(nearest distance to a, bracket half-width), per row.

    Every critical point lies in some disc, so none is nearer than
    min(dist - radius).  An exact point, or a disc that meets no other
    disc, holds a critical point within dist + radius; any other disc's
    connected group holds one within 2 * sum(radii) of its centre.  Each
    disc's term lies between these two, rounded alike, so only a disc
    whose dist + radius is at most the row's least dist + 2 * sum(radii)
    can set the upper end; only those are tested pair by pair, by
    ``_discs_meet``.  The computed |w - a| is within 3 roundings of the
    true one, and the final 4u * upper covers the arithmetic on the
    bracket ends.
    """
    points = np.concatenate([exact, free], axis=-1)
    radii = np.concatenate([np.zeros(exact.shape), free_radii], axis=-1)
    dist = np.abs(points - a[:, None])
    with np.errstate(invalid="ignore"):
        far, spread = dist * (1.0 + 4.0 * _U), 2.0 * radii.sum(axis=-1, keepdims=True)
        ceiling = (far + spread).min(axis=-1, keepdims=True)
        e = exact.shape[-1]
        t, i = np.nonzero(far[:, e:] + free_radii <= ceiling)
        gap = np.abs(_minus_rows(free[t, i, None], free, t))
        gap[np.arange(t.size), i] = np.inf
        meets = np.zeros(points.shape, dtype=bool)
        meets[t, e + i] = _discs_meet(gap, free_radii[t, i, None] + free_radii[t]).any(axis=-1)
        upper = (far + np.where(meets, spread, radii)).min(axis=-1)
        lower = np.maximum(dist * (1.0 - 4.0 * _U) - radii, 0.0).min(axis=-1)
    nearest = dist.min(axis=-1)
    half_width = np.maximum(upper - nearest, nearest - lower) + 4.0 * _U * upper
    return nearest, half_width


# A Sendov distance above this counts as a violation, for check and fuzz:
# slack of 1e-9 over the unit disk absorbs root-finder noise without hiding
# a genuine counterexample.
VIOLATION_THRESHOLD = 1.0 + 1e-9


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
    free, free_radii, settled = _free_points(zeta[None], counts[None] * 1.0)
    nearest, half_width = _distance_bracket(np.array([inst.a]), exact[None], free, free_radii)

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
        converged=bool(settled[0]) and bool(np.isfinite(free_radii).all()),
    )


def _block_rows(g: int) -> int:
    """Rows of g zeros in one block of ``sendov_distances``."""
    return max(1, _BLOCK_TEMPORARY // (g * (g - 1)))


def _brackets(a: float, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distance, half-width) for rows ``zeta`` of distinct zeros sharing a."""
    rows = zeta.shape[0]
    free = _free_points(zeta, np.ones(zeta.shape))[:2]
    return _distance_bracket(np.full(rows, a), np.empty((rows, 0), np.complex128), *free)


def sendov_distances(a: float, other_zeros) -> tuple[np.ndarray, np.ndarray]:
    """Sendov distance and bracket half-width of many instances sharing a.

    Row t of ``other_zeros`` holds the other zeros of one instance; the
    rows are validated together by ``SendovInstance``'s rule.  Each row's
    pair is bit for bit what ``critical_report`` gives for that instance:
    rows whose zeros are all distinct run through the same kernel in
    blocks whose temporaries hold at most max(2**18, g(g - 1)) values each
    for g zeros a row (see ``_block_rows``: a block is at least one row),
    and a row with a repeated zero runs through ``critical_report`` itself.
    """
    a, others = _sendov_zeros(a, other_zeros, ndim=2)
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
        distance[t], radius[t] = _brackets(a, zeros[t])
    return distance, radius

