"""Critical points of Sendov instances, certified by inclusion discs.

This module carries the empirical side of the package.  Critical points of
P(z) = (z - a) * prod(z - z_j) are computed from the zeros themselves, never
from coefficients: since P'/P = sum_j k_j / (z - zeta_j) over the distinct
zeros zeta_j of multiplicity k_j, an Aberth-Ehrlich iteration runs on that
sum at O(degree) per point (the secular-equation view of MPSolve).  Starts,
steps and certificate take every sum from ``_sums``, its bound from
``_margins``.  Each critical point carries a Weierstrass inclusion radius
with a rounding bound, so the Sendov distance min |w - a| comes with a
bracket that holds the true value.  One kernel serves one instance
(``critical_report``) and many at once (``sendov_distances``): its stages
take a leading axis of instances, each sweep of ``_sweeps`` gathers only
the points still moving, and an instance's result does not depend on what
else is in the block.  ``fuzz_sendov`` runs it on seeded random instances,
a block at a time, and sums a cell of trials into a ``FuzzReport``.

``_distance_bracket`` reads one set of points per row: its lower end comes
from the discs, its upper end is the least |w - a| + reach, where an exact
point has radius and reach 0 and a free one the disc and Newton radius that
``_inclusion_radii`` gives it.  ``roots`` runs the sweep loop ``_sweeps``
with its own step and takes its radii by the same rule,
``_weierstrass_radii``.  Nothing here imports ``roots``.

All public values are immutable and safe to share across threads.  Every
rejected argument or instance raises DomainError, the package's one error
class, at home in ``_arguments`` (``bounds`` re-exports it): the zero a and
every complex argument are checked by the argument rule stated there.
Nothing here imports ``bounds``, so ``check`` and ``fuzz`` start without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._arguments import DEFAULT_SEED, DomainError, _int_in, _real_in, _require_finite_complex

__all__ = [
    "SendovInstance",
    "CriticalPointReport",
    "critical_report",
    "sendov_distances",
    "bracket_verdict",
    "VIOLATION_THRESHOLD",
    "FuzzReport",
    "fuzz_sendov",
]

# Sweeps of ``_sweeps`` before it ends a row not settled, for both solvers.
_MAX_SWEEPS = 300
# Complex values in each of the kernel's rows x (g - 1) x g temporaries
# (4 MB), which sets the rows in one block of sendov_distances.
_BLOCK_TEMPORARY = 2 ** 18
# Unit roundoff of binary64.
_U = 2.0 ** -53
# An absolute term in every float radius.  Below 2^-1022 a result is
# rounded to a multiple of 2^-1074, exp's as any other, so it may fall short
# of its value by up to a unit of 2^-1074 whatever its size (half a unit if
# rounded once, less than one if rounded to 53 bits first): the relative
# slacks cover the error before that rounding, not the rounding itself.
# Four units cover it with room, and the rounding of |w - a| at a subnormal
# distance, under a unit too, which the bracket's relative margins miss.  A
# radius r >= 2^-1018 keeps its bits: half its ulp is at least 2^-1071,
# eight units, so r plus four rounds back to r; no rounded sum is below r.
_RADIUS_FLOOR = 4.0 * 2.0 ** -1074
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


def _sums(d, kk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, S, T) = (sum_j k_j/d_j, sum_j 1/d_j, sum_j k_j/d_j^2) along the
    last axis of the differences d, which become their reciprocals; ``kk``
    is the multiplicities in d's shape, or None for all ones (S is then F).
    k scales the reciprocals once taken, so unit k gives k None's bits, and
    a real inf d_j gives a 0 term.  No matrix products: a point's sums round
    the same whatever else is gathered, and no BLAS threads start."""
    r = np.reciprocal(d, out=d)
    rk = r if kk is None else r * kk
    f = rk.sum(axis=-1)
    s = f if kk is None else r.sum(axis=-1)
    return f, s, np.multiply(rk, r, out=rk).sum(axis=-1)


def _margins(mod_d, kk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on the rounding of ``_sums``' F, S and T over g terms of
    moduli ``mod_d``: (c sum_j k_j/|d_j|, c sum_j 1/|d_j|, 2c sum_j
    k_j/|d_j|^2), c = 2(g + 10)u, where an inf modulus gives a 0 term.
    w - zeta_j rounds by u |d|, numpy's complex reciprocal (Smith's rule)
    5 times, so 1/d and k/d are within 7u, and k/d^2 (a complex product,
    sqrt(5) u) within 16u; a sum of g terms adds sqrt(2)(g - 1)u of the sum
    of |terms| (Higham 2002, ch. 3-4).  So c bounds the errors of F and S,
    and 2c that of T, with 13u to spare for the moduli and a caller's few
    operations.  Scaled by an exact 2^-e, the terms round as unscaled ones
    do: ldexp is exact but where it overflows (the term 0, under 2^-1024
    against a sum of |terms| >= 1) or falls below 2^-1022 (under 2^-1074
    against a modulus >= 1/2), and a difference below 2^-1022 is exact."""
    c = 2.0 * (mod_d.shape[-1] + 10) * _U
    weighted = (1.0 if kk is None else kk) / mod_d
    f_error = c * weighted.sum(axis=-1)
    s_error = f_error if kk is None else c * (1.0 / mod_d).sum(axis=-1)
    return f_error, s_error, 2.0 * c * np.divide(weighted, mod_d, out=weighted).sum(axis=-1)


def _starts(zeta: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """g - 1 start points per row for the roots of Q, one second-order step
    from the zeros.

    ``zeta`` holds one row of g distinct zeros per instance and ``k`` their
    multiplicities, or None when every one is 1.  Near zeta_j, with
    u = z - zeta_j, f = k_j/u + F_j - T_j u + O(u^2), F_j and T_j being
    ``_sums``' F and T at zeta_j over the other zeros (its own gap is a real
    inf, a 0 term).  One fixed-point pass u = -k_j/(F_j - T_j u)
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
    with np.errstate(all="ignore"):
        gaps = np.subtract(zeta[:, :, None], zeta[:, None, :])
        gaps[:, np.arange(g), np.arange(g)] = np.inf
        f_j, _, t_j = _sums(gaps, None if k is None else k[:, None, :])
        del gaps
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


def _aberth_corrections(w, zeta, k, points) -> np.ndarray:
    """Aberth corrections for the points w[t, i] of ``points`` = (t, i), each
    an approximation to a root of Q in row t.

    Row t has zeros ``zeta[t]`` and real multiplicities ``k[t]`` (None
    means all ones).  Q'/Q = S + f'/f gives the Newton step f/(f S + f')
    = F/(F S - T) from ``_sums`` at O(g) per point; the sum over the row's
    other points runs along the last axis too.  The points x g temporaries
    are gathered, and freed, one at a time.
    """
    t, i = points
    column = w[t, i, None]
    f, s, df = _sums(_minus_rows(column, zeta, t), None if k is None else k[t])
    # Into T's array: a new array would split the block the gather freed and
    # send later gathers to fresh pages (+0.6 MB RSS, 6% slower on fuzz cells).
    newton = np.subtract(f * s, df, out=df)
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
    term, at least 20u, covers exp's rounding of a few ulps, and
    ``_RADIUS_FLOOR`` its rounding below 2^-1022.  NaN gives inf."""
    m = w.shape[-1]
    diagonal = np.arange(m)
    with np.errstate(all="ignore"):
        log_e = np.abs(w[..., :, None] - w[..., None, :])
        np.log(log_e, out=log_e)
        log_e[..., diagonal, diagonal] = 0.0
        sum_e, size_e = log_e.sum(axis=-1), np.abs(log_e).sum(axis=-1)
        slack = 4.0 * count * _U * (1.0 + size + size_e)
        radii = np.exp(math.log(m) + first + second - lead - sum_e + slack) + _RADIUS_FLOOR
    return np.where(np.isnan(radii), np.inf, radii)


def _inclusion_radii(w, zeta, k) -> tuple[np.ndarray, np.ndarray]:
    """(Weierstrass radii, Newton radii) of the points w for the roots of
    Q = prod(z - zeta_j) * f, f = sum_j k_j/(z - zeta_j), of degree g - 1 and
    leading coefficient n = sum(k) (``k`` None for all ones), from one
    evaluation of ``_sums`` (f = F, f' = -T, and S) with ``_margins``'
    bounds: |Q(w)| <= prod_j |w - zeta_j| (|f| + margin), or on zeta_j
    k_j prod_{l != j} |zeta_j - zeta_l|, and some root lies within
    (g - 1)/|Q'/Q(w)| of w (Henrici, Applied and Computational Complex
    Analysis 1, 1974, ch. 6), Q'/Q = S + f'/f, or on zeta_j S + f/k_j
    without term j.  A Newton radius is inf where no bound is found."""
    g = zeta.shape[-1]
    kk = None if k is None else k[:, None, :]
    log_n = np.log(float(g)) if k is None else np.log(k.sum(axis=-1))[:, None]
    high, low = 1.0 + 2.0 * _U, 1.0 - 4.0 * _U
    with np.errstate(all="ignore"):
        d = np.subtract(w[:, :, None], zeta[:, None, :])
        mod_d = np.abs(d)
        f, s, df = _sums(d, kk)
        del d
        f_error, s_error, df_error = _margins(mod_d, kk)
        k_on, e = np.zeros(f.shape), np.zeros(f.shape, dtype=int)
        # On or within about 1e-154 of a zero f' or its margin overflows: there
        # the sums are taken again at 2^-e, e from frexp of the least nonzero
        # |w - zeta_j|; a term on a zero, or out of ldexp's range, is a real
        # inf, a 0 term (numpy's reciprocal of inf + inf j is NaN).  A term on
        # the zero leaves the products; |e| log 2 joins size (slack factor 4).
        t, i = np.nonzero(~(np.isfinite(df) & np.isfinite(df_error)))
        if t.size:
            d = _minus_rows(w[t, i, None], zeta, t)
            on = d == 0.0
            e[t, i] = np.frexp(np.where(on, np.inf, np.abs(d)).min(axis=-1))[1]
            d = np.ldexp(d.view(np.float64), -e[t, i, None]).view(np.complex128)
            mod_t = np.where(on, np.inf, np.abs(d))
            d[~np.isfinite(mod_t)] = np.inf
            kt = None if k is None else k[t]
            f[t, i], s[t, i], df[t, i] = _sums(d, kt)
            f_error[t, i], s_error[t, i], df_error[t, i] = _margins(mod_t, kt)
            k_on[t, i] = np.where(on, 1.0 if k is None else kt, 0.0).sum(axis=-1)
            del d, mod_t
            mod_d[mod_d == 0.0] = 1.0
        log_d = np.log(mod_d, out=mod_d)
        sum_d, size_d = log_d.sum(axis=-1), np.abs(log_d).sum(axis=-1)
        on = k_on > 0.0
        shift = np.where(on, 0.0, e * math.log(2.0))
        log_f = np.where(on, np.log(k_on), np.log(np.abs(f) + f_error) - shift)
        size_d += np.abs(shift)
        # |Q'/Q| >= |f'|/|f| - |S|, or |S + f/k_j|, >= q: each side of the
        # subtraction moves past its own roundings, the subtraction rounds
        # by u of q, and the radius's 1 + 4u covers that and its own two;
        # ``_RADIUS_FLOOR`` covers ldexp's rounding below 2^-1022.
        q = (np.abs(df) - df_error) / (np.abs(f) + f_error) * low - (np.abs(s) + s_error) * high
        if on.any():
            q = np.where(on, np.abs(s + f / k_on) * low - (s_error + f_error / k_on) * high, q)
        newton = np.ldexp((g - 1) / q * (1.0 + 4.0 * _U), e) + _RADIUS_FLOOR
        newton[~(q > 0.0)] = np.inf
        del mod_d, log_d, f, f_error, s, s_error, df, df_error, k_on, e, q
    return _weierstrass_radii(w, sum_d, log_f, log_n, size_d, g + w.shape[-1]), newton


def _free_points(zeta: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """(points, radii, reach, settled): the critical points that are not
    repeated zeros, each with its inclusion radius and reach, for each row
    of distinct zeros ``zeta`` with multiplicities ``k``.

    They are the roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j).
    For g <= 2 one closed form gives them, (k_1 zeta_2 + k_2 zeta_1)/n with
    a rounding radius as radius and reach, and none for one zero, whose
    column slices are empty.  Otherwise ``_sweeps`` finds them with
    ``_aberth_corrections``' step from ``_starts``, and ``_inclusion_radii``
    gives radii and reach.
    """
    rows, g = zeta.shape
    if g <= 2:
        # Two roundings in the numerator and one in the quotient, per
        # component: at most gamma_3 * sqrt(2) relative to the sum of moduli,
        # and below 2^-1022 half a unit of 2^-1074 each (``_RADIUS_FLOOR``).
        n = k.sum(axis=-1, keepdims=True)
        points = (k[:, :1] * zeta[:, 1:] + k[:, 1:] * zeta[:, :1]) / n
        radii = 5.0 * _U * (k[:, :1] * np.abs(zeta[:, 1:]) + k[:, 1:] * np.abs(zeta[:, :1])) / n
        radii += _RADIUS_FLOOR
        return points, radii, radii, np.ones(rows, bool)
    if (k == 1.0).all():
        k = None
    # By Gauss-Lucas every root of Q lies in the hull of the zeros, so this
    # bounds 1 + |w| for the points worth measuring steps against.
    scale = 1.0 + np.abs(zeta).max(axis=-1)
    points, settled, _ = _sweeps(
        _starts(zeta, k), zeta, lambda w, moving: _aberth_corrections(w, zeta, k, moving), scale
    )
    return points, *_inclusion_radii(points, zeta, k), settled


def _distance_bracket(a, points, radii, reach) -> tuple[np.ndarray, np.ndarray]:
    """(nearest distance to a, bracket half-width) per row of critical
    points with their radii and reach, both 0 at an exact point (a repeated
    zero).  Every critical point lies in some disc, so none is nearer than
    min(dist - radius); one lies within dist + reach of every point.  The
    computed |w - a| is within 3 roundings of the true one, and the final
    4u * upper covers the arithmetic on the bracket ends."""
    dist = np.abs(points - a[:, None])
    with np.errstate(invalid="ignore"):
        upper = (dist * (1.0 + 4.0 * _U) + reach).min(axis=-1)
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
    critical point of multiplicity k_j - 1 (radius and reach 0).  The
    others are the roots of Q = prod(z - zeta_j) * sum_j k_j/(z - zeta_j),
    found and certified as a block of one row (see ``_free_points``).
    """
    zeros = np.asarray(inst.all_zeros())
    n = zeros.size
    zeta, counts = np.unique(zeros, return_counts=True)
    exact = np.repeat(zeta, counts - 1)
    free, free_radii, reach, settled = _free_points(zeta[None], counts[None] * 1.0)
    none = np.zeros(exact.size)
    points = np.concatenate([exact, free[0]])
    radii = np.concatenate([none, free_radii[0]])
    reach = np.concatenate([none, reach[0]])
    a = np.array([inst.a])
    nearest, half_width = _distance_bracket(a, points[None], radii[None], reach[None])
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
        free = _free_points(zeros[t], np.ones((t.size, g)))[:3]
        distance[t], radius[t] = _distance_bracket(np.full(t.size, a), *free)
    return distance, radius


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate of one randomized fuzzing cell (fixed a, degree, seed),
    as ``fuzz_sendov`` returns it.

    violations counts trials whose whole Sendov distance bracket lies above
    ``VIOLATION_THRESHOLD``, check's threshold too; non_converged counts the
    UNRESOLVED trials, whose bracket straddles the threshold, which never
    count as violations and do not enter the maximum.  Any violating
    instance is kept in full as JSON so it can be re-checked independently.
    """

    a: float
    degree: int
    trials: int
    max_sendov_distance: float
    violations: int
    seed: int
    non_converged: int
    violation_instances: tuple[str, ...] = ()


def _words(n: int) -> list[int]:
    """n >= 0 as numpy coerces seed entropy: little-endian 32-bit words, [0] for 0."""
    return [(n >> shift) & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def fuzz_sendov(a: float, degree: int, trials: int, seed: int = DEFAULT_SEED) -> FuzzReport:
    """Randomized check of the conjecture at one (a, degree) cell.

    Each trial draws degree-1 other zeros area-uniformly from the closed
    unit disk (radius sqrt(u)) with its own generator seeded by
    (seed, trial index), so any single trial can be reproduced in isolation.
    The trials are drawn and checked a block at a time by
    ``sendov_distances``, one kernel call per block of rows whose
    temporaries hold at most 2**18 values, so memory stays that of one
    block however many trials run.  Each trial's distance bracket is bit
    for bit what ``critical_report`` gives for that trial alone, so no
    result depends on the number of trials or on the block a trial falls
    in.
    """
    a = _real_in("a", a, 0, 1)
    degree = _int_in("degree", degree, 2, 200)
    trials = _int_in("trials", trials, 1)
    seed = _int_in("seed", seed, 0)
    m = degree - 1
    block = _block_rows(degree)
    seed_words = _words(seed)
    largest = 0.0
    unresolved = 0
    violating: list[str] = []
    for first in range(0, trials, block):
        indices = range(first, min(first + block, trials))
        # Each trial's m radius and then m angle uniforms, from one stream.
        draws = np.empty((len(indices), 2 * m))
        for row, index in enumerate(indices):
            entropy = np.array(seed_words + _words(index), dtype=np.uint32)
            draws[row] = np.random.default_rng(entropy).random(2 * m)
        others = np.sqrt(draws[:, :m]) * np.exp(1j * (draws[:, m:] * (2.0 * np.pi)))
        distance, radius = sendov_distances(a, others)
        verdicts = bracket_verdict(distance, radius, VIOLATION_THRESHOLD)
        resolved = verdicts != "UNRESOLVED"
        largest = max(largest, float(distance[resolved].max(initial=0.0)))
        unresolved += int(len(indices) - resolved.sum())
        violating.extend(
            SendovInstance(a=a, other_zeros=tuple(others[t].tolist())).to_json()
            for t in np.nonzero(verdicts == "FAIL")[0]
        )
    return FuzzReport(
        a=a,
        degree=degree,
        trials=trials,
        max_sendov_distance=largest,
        violations=len(violating),
        seed=seed,
        non_converged=unresolved,
        violation_instances=tuple(violating),
    )

