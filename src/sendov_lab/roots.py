"""Polynomials in coefficient form and their certified roots.

This module carries the coefficient side of the package; the critical-point
kernel in ``polynomial`` works from the zeros and never calls it.  A
``Polynomial`` holds coefficients and tails only; ``from_roots`` expands in
complex double-double, so head + tail carries about twice binary64
precision on every platform.  ``find_roots`` runs the kernel's sweep loop,
``polynomial._sweeps``, with Borsch-Supan's step, which reads p alone: on
the binary64 coefficients from Newton-polygon starts, then with p from
compensated Horner on head + tail, built on the error-free transformations
of ``_eft``, to each root's rounding floor; one Horner pass gives p and
its error bound.  Every evaluation at a point outside the unit circle runs
at an exact power-of-two scale, so p and the Weierstrass products stay in
range at a far root.  The final points take their inclusion radii by the
kernel's rule, ``polynomial._weierstrass_radii``.

All public values are immutable and safe to share across threads.  Every
rejected argument raises DomainError, the package's one error class, by
the argument rule of ``_arguments``, where both are at home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._arguments import DomainError, _require_finite_complex
from ._eft import _presplit_two_product, _split, _two_sum
from .polynomial import _ANGULAR_OFFSET, _U, _sweeps, _weierstrass_radii

__all__ = [
    "Polynomial",
    "RootResult",
    "from_roots",
    "find_roots",
    "match_roots",
]


@dataclass(frozen=True)
class Polynomial:
    """Coefficient-form polynomial, ascending degree, nonzero leading term.

    Degree 0 values are permitted; operations that need roots demand
    degree >= 1 themselves.

    ``tails`` optionally carries the rounding residual of each coefficient,
    so that coefficients[k] + tails[k] is the polynomial's coefficient to
    about twice binary64 precision (``from_roots`` fills it from its
    double-double expansion).  None means the coefficients are exact.  The
    tails are finite, one per coefficient, and take no part in equality or
    ``repr``; only ``find_roots``' compensated sweeps read them.
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


@dataclass(frozen=True)
class RootResult:
    """Roots reported by find_roots with their inclusion discs.

    Every root of P lies in the union of the discs |z - roots[i]| <= radii[i],
    and a connected group of d overlapping discs holds d of them; radius 0
    marks an exact root at 0.  converged means every radius is finite;
    iterations counts the sweeps of the binary64 run before the refinement,
    at most ``polynomial._MAX_SWEEPS`` (300), and is 0 when every root is 0.
    """

    roots: tuple[complex, ...]
    radii: tuple[float, ...]
    converged: bool
    iterations: int


def from_roots(roots: Sequence[complex]) -> Polynomial:
    """Monic polynomial with the given roots (incremental (z - r) products).

    The expansion runs in complex double-double, on every platform:
    ``coefficients`` holds each coefficient rounded to binary64 and
    ``tails`` its low double, and head + tail errs by a few n u^2 of the
    coefficients of prod(z + |r_j|).  One rounding to binary64 can move the
    true roots of an ill-conditioned set by up to ~2e-7 at degree ~50 in the
    unit disk; the tails take that back.  The roots are scaled by a power of
    two to components of at most 1, and the coefficients back, so Veltkamp's
    split (x * (2^27 + 1)) stays in range.
    """
    arr = _require_finite_complex(roots, "roots")
    if arr.size == 0:
        raise DomainError("from_roots needs at least one root")
    n, parts = arr.size, np.ascontiguousarray(arr).view(np.float64)
    scale = math.frexp(float(np.abs(parts).max()))[1]
    head, tail = c = np.zeros((2, n + 1), dtype=np.complex128)
    head[-1] = 1.0
    # An expansion past binary64 range is rejected by Polynomial's finiteness
    # check; numpy's overflow warnings on the way there say nothing more.
    with np.errstate(all="ignore"):
        # From z^n, each root multiplies by (z - r)/z: c_k -= r c_(k+1).
        for r in np.ldexp(parts, -scale).view(np.complex128):
            p, e = _complex_product(head[1:], _product_matrix(r))
            s, f = _two_sum(head[:-1], -p)
            head[:-1], tail[:-1] = _two_sum(s, f + tail[:-1] - e - r * tail[1:])
        powers = np.repeat(scale * np.arange(n, -1, -1), 2)
        c = np.ldexp(c.view(np.float64), powers).view(np.complex128)
    # tolist() hands over Python complex values, which validate faster than
    # numpy scalars; the values are the same.
    return Polynomial(tuple(c[0].tolist()), tuple(c[1].tolist()))


def _product_matrix(y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real 2 x 2 matrix of each complex y and its Veltkamp halves, as
    ``_complex_product`` reads them; a loop that multiplies by one y builds
    them once."""
    matrix = np.stack([y.real, y.imag, -y.imag, y.real], axis=-1).reshape(*np.shape(y), 2, 2)
    return (matrix, *_split(matrix))


def _complex_product(x: np.ndarray, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s + e = x * y up to a few u^2 |x| |y|, for a complex array
    x and the ``_product_matrix`` of a complex y that broadcasts against it
    (TwoProdCplx of Graillat & Menissier-Morain 2012): ``_eft``'s Dekker
    product makes the four real products exact and ``_two_sum`` the two
    sums, barring under- and overflow."""
    p, e = _presplit_two_product(x.view(np.float64).reshape(*x.shape, 2, 1), *y)
    p, e = p.view(np.complex128), e.view(np.complex128)
    s, f = _two_sum(p[..., 0, 0], p[..., 1, 0])
    return s, f + e[..., 0, 0] + e[..., 1, 0]


def _compensated_horner(head, tail, z, e) -> tuple[np.ndarray, np.ndarray]:
    """(p, b): p(z) 2^(-n e) at every z for p = sum (head_k + tail_k) z^k,
    as accurate as Horner in twice binary64 precision then rounded
    (Graillat, Langlois & Louvet 2009), and bounds b >= |p - p(z) 2^(-n e)|.

    Horner runs at y = z 2^-e on each point's own coefficients, c_k times
    2^(-(n - k) e), so that with ``_exponents``' e no term overflows at a
    far point; e = 0 evaluates p(z) itself.  Each step's rounding errors,
    exact by ``_complex_product`` and ``_two_sum``, and the tails feed a
    second, binary64 Horner added at the end; two more carry
    sum |head_k| |y|^k and sum |tail_k| |y|^k, scaled alike, for the bound:
    about u |p| + O(n^2 u^2) sum |c_k| |y|^k (Graillat & Menissier-Morain
    2012), plus an absolute term for gradual underflow that holds where
    |y| <= 1.  A value past Veltkamp's split range gives NaN.
    """
    n = head.size - 1
    # Row k holds, per point, head_k and tail_k times 2^(-(n - k) e), each
    # part rounded once (exact unless it is subnormal), and their moduli.
    parts = np.stack((head, tail), axis=-1)[:, None]
    shift = (np.arange(-n, 1, dtype=np.int32)[:, None] * e)[..., None]
    scaled = np.ldexp(parts.view(np.float64), shift).view(np.complex128).transpose(0, 2, 1)
    sizes = np.ldexp(np.abs(parts), shift)
    y = z * np.ldexp(1.0, -e)
    s = np.full_like(z, head[-1])
    r = np.full_like(z, tail[-1])
    absy, matrix = np.abs(y)[:, None], _product_matrix(y)
    size = np.repeat(sizes[-1, :1], z.size, axis=0)
    for (h, t), c in zip(scaled[-2::-1], sizes[-2::-1]):
        p, f = _complex_product(s, matrix)
        s, g = _two_sum(p, h)
        r = r * y + (f + g + t)
        size = size * absy + c
    pz = s + r
    # The n + 1 steps' rounding errors add up to 4u (n + 1) sum |c_k| |y|^k;
    # the binary64 Horner summing them, and the tails, errs by
    # 2 gamma_(2n+2) of theirs: 16 (n + 1)^2 u^2, taken four times over.
    # Underflow in a step, the coefficients' scaling included, adds less
    # than 16 times the least subnormal 2^-1074, which no later step
    # enlarges while |y| <= 1; y's own rounding moves p by less than
    # n 2^-1074 sum |c_k| |y|^k, inside the spare of the size term.
    return pz, (2.0 * _U * np.abs(pz) + 64.0 * ((n + 1) * _U) ** 2 * size[:, 0]
                + 4.0 * (n + 2) * _U * size[:, 1] + (n + 1) * 2.0 ** -1069)


def _exponents(z: np.ndarray) -> np.ndarray:
    """e_i = 0 where |z_i| <= 1 or is not finite, else the binary exponent
    of |z_i|: |z_i 2^-e_i| <= 1 wherever |z_i| is finite, and scaling by
    2^-e_i rounds nothing above the subnormal range."""
    size = np.abs(z)
    return np.frexp(size)[1] * (size > 1.0)


def _values(c: np.ndarray, z: np.ndarray, e) -> np.ndarray:
    """p(z) 2^(-n e) for every z at once in binary64, as the Vandermonde
    matrix of y = z 2^-e, its column k times 2^(-(n - k) e), times c; e = 0
    gives p(z).  A value past the floating range comes back inf or nan,
    unwarned."""
    n = len(c) - 1
    with np.errstate(all="ignore"):
        scale = np.ldexp(np.ones(z.shape), -e)
        v = np.vander(z * scale, n + 1, increasing=True)
        v *= np.vander(scale, n + 1)
        return v @ c


def _radii(head, tail, z) -> np.ndarray:
    """``polynomial._weierstrass_radii`` of the approximations z to the roots
    of p = sum (head_k + tail_k) z^k: |p(z_i)| <= (|pz_i| + b_i) 2^(n e_i) for
    ``_compensated_horner``'s pz_i and bound b_i at ``_exponents``' scale."""
    n = z.size
    e = _exponents(z)
    with np.errstate(all="ignore"):
        pz, error = _compensated_horner(head, tail, z, e)
        log_p = np.log(np.abs(pz) + error)
        log_c = np.log(abs(head[-1] + tail[-1]))
        # The size term also covers the two roundings of n e_i log 2.
        log_scale = n * e * math.log(2.0)
        size = np.abs(log_p) + abs(log_c) + log_scale
    return _weierstrass_radii(z[None], log_p, log_scale, log_c, size, n + 4)[0]


def _root_corrections(c, tails=None):
    """Borsch-Supan's step on the roots of p = sum c_k z^k, as the
    ``corrections`` of ``_sweeps`` for one row of approximations z.

    The Weierstrass corrections W_i = p(z_i) / (c_n prod_{j != i}(z_i - z_j))
    give the step W_i / (1 + sum_{j != i} W_j / (z_i - z_j)): cubic
    convergence to simple roots, as Aberth's step has, from p alone
    (Borsch-Supan 1963).  p is binary64, or with ``tails`` compensated
    Horner on c + tails, read as 0, for a zero step, where |p| is at most
    its finite error bound.  p is taken at every point, frozen ones too,
    since each W_j enters the other points' steps.  Both p(z_i) and each
    factor z_i - z_j are taken at ``_exponents``' scale 2^-e_i, exactly, so
    neither overflows at a far point.  A point where W is not finite, as on
    another point, gets no finite step, and ``_sweeps`` nudges it while the
    others wait.
    """
    def corrections(w, points):
        z = w[0]
        e = _exponents(z)
        if tails is None:
            pz = _values(c, z, e)
        else:
            pz, error = _compensated_horner(c, tails, z, e)
            pz[(np.abs(pz) <= error) & (error < np.inf)] = 0.0
        # Column i holds (z_i - z_j) 2^-e_i, and 2^-e_i on the diagonal, so
        # its product carries p(z_i)'s scale 2^(-n e_i): numpy reduces down
        # columns faster.
        scale = np.ldexp(1.0, -e)
        diff = z[None, :] - z[:, None]
        np.fill_diagonal(diff, 1.0)
        diff *= scale
        weier = pz / (c[-1] * diff.prod(axis=0))
        np.fill_diagonal(diff, np.inf)
        corr = weier / (1.0 + (weier @ np.reciprocal(diff)) * scale)
        return np.where(np.isfinite(corr), corr, weier)[points[1]]
    return corrections


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


def find_roots(p: Polynomial) -> RootResult:
    """All roots of p, each with an inclusion radius.

    The coefficients c_k = head + tail that are 0 below the lowest nonzero
    one are exact roots at 0 and come back as 0j with radius 0.  The others
    start from the Newton polygon (Bini 1996, as in MPSolve): each edge
    k1 -> k2 of the upper convex hull of the points (k, log|c_k|) puts
    k2 - k1 starts on the circle of radius (|c_k1|/|c_k2|)^(1/(k2 - k1)),
    at equal angles turned by a multiple of a fixed irrational offset, so
    roots whose moduli span decades each start near their own.  Two runs of
    ``_sweeps`` with Borsch-Supan's step (``_root_corrections``) follow: on
    the binary64 monic coefficients c_k/c_n, then with p from compensated
    Horner on coefficients + ``tails``, which stops each root at its
    rounding floor (Bini 1996).  Both runs evaluate a point outside the
    unit circle at a power-of-two scale (``_exponents``), so a root whose
    |z|^n is past binary64 range is found and certified as any other.  A
    compensated evaluation at the final points gives each root its radius
    (see ``_radii``).  ``converged`` means every radius is finite, and
    ``iterations`` counts the sweeps of the first run.  A ratio c_k/c_n past
    binary64 range raises ``DomainError``.
    """
    if p.degree < 1:
        raise DomainError("find_roots needs degree >= 1")
    coeffs = np.asarray(p.coefficients, dtype=np.complex128)
    tails = np.zeros_like(coeffs) if p.tails is None else np.asarray(p.tails)
    total = coeffs + tails
    nonzero = np.flatnonzero(total)
    low = int(nonzero[0])
    z = np.zeros(p.degree - low, dtype=np.complex128)
    radii = np.zeros(p.degree)
    with np.errstate(all="ignore"):
        monic = coeffs[low:] / coeffs[-1]
        overflows = np.flatnonzero(~np.isfinite(monic))
        if overflows.size:
            k = low + int(overflows[0])
            raise DomainError(f"coefficient ratio c_{k}/c_{p.degree} overflows binary64")
        logs = np.log(np.abs(total))
        # Fed from k = n down, the chain's left turns trace the upper hull.
        hull = _convex_chain([(k, logs[k]) for k in nonzero[::-1].tolist()])
        for e, ((k2, log2), (k1, log1)) in enumerate(zip(hull, hull[1:]), 1):
            # The e-th circle from the outside turns by e offsets, so starts
            # on neighbouring circles do not line up along one ray.
            angles = 2.0 * np.pi * np.arange(k2 - k1) / (k2 - k1) + e * _ANGULAR_OFFSET
            z[k1 - low:k2 - low] = np.exp((log1 - log2) / (k2 - k1)) * np.exp(1j * angles)
    iterations = 0
    if z.size:
        head, tail = coeffs[low:], tails[low:]
        # Twice the outer start circle's radius bounds every root (Fujiwara's
        # bound), and the row has no fixed points besides its own.
        scale, none = np.array([1.0 + 2.0 * np.abs(z).max()]), np.empty((1, 0), np.complex128)
        w, _, iterations = _sweeps(z[None], none, _root_corrections(monic), scale)
        (z,), _, _ = _sweeps(w, none, _root_corrections(head, tail), scale)
        radii[low:] = _radii(head, tail, z)
    z = np.concatenate((np.zeros(low, dtype=np.complex128), z))
    order = np.lexsort((z.imag, z.real))
    z, radii = z[order], radii[order]
    return RootResult(
        roots=tuple(complex(v) for v in z),
        radii=tuple(radii.tolist()),
        converged=bool(np.isfinite(radii).all()),
        iterations=iterations,
    )


def match_roots(
    found: Sequence[complex], expected: Sequence[complex]
) -> tuple[tuple[int, ...], float]:
    """Pair each expected root with a distinct found root.

    Returns (assignment, worst_distance) where assignment[i] indexes the
    found root paired with expected[i]: the Hungarian assignment, which
    minimises the total distance over the pairs.
    """
    from scipy.optimize import linear_sum_assignment

    f = _require_finite_complex(found, "found")
    e = _require_finite_complex(expected, "expected")
    if f.size != e.size or f.size == 0:
        raise DomainError("matching needs two equal nonempty root lists")
    dist = np.abs(e[:, None] - f[None, :])
    rows, cols = linear_sum_assignment(dist)
    return tuple(cols.tolist()), float(dist[rows, cols].max())
