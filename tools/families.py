"""Seeded rows of zeros for the tests and tools: each family of inputs to
the critical-point kernel has its one definition here, as a pure function
of its generator or of (degree, round).

Rows keep their bytes.  A new family appends its draws after the old ones,
so every row drawn before it stays as it was, and the digests that the
tests pin on these rows hold.  The module imports numpy alone, so the rows
do not depend on the code they test, and a script can load it by path.
"""

from __future__ import annotations

import numpy as np

# Degrees of ``pinned_rows``.
PINNED_DEGREES = (3, 8, 17, 64, 200)
_TAG = 0x41475245
# The rows of one round, in the order ``rows`` builds them.
FAMILIES = (
    "disk, first draw",
    "disk, second draw",
    "clusters of spread 1e-9",
    "clusters of spread 1e-4",
    "repeated zeros",
    "a zero equal to a",
    "zeros within 1e-12 of a",
    "unit circle",
    "near-extremal, eps 1e-9",
    "near-extremal, eps 1e-12",
    "clusters of spread 1e-15",
)


def disk(rng, size):
    """size points drawn area-uniformly from the unit disk: every radius
    uniform, then every angle uniform (size None gives one point)."""
    return np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def separated_disk(rng, degree, separation=1e-3):
    """degree points drawn one by one from the unit disk, each at least
    separation from those drawn before it."""
    roots = []
    while len(roots) < degree:
        z = complex(disk(rng, None))
        if all(abs(z - w) >= separation for w in roots):
            roots.append(z)
    return tuple(roots)


def circle(m, turn=0.0):
    """The m points exp(i(2 pi k + turn)/m), k = 0 .. m - 1: the zeros of
    z^m = 1 when turn is 0, of z^m = -1 when it is pi."""
    return np.exp(1j * ((2.0 * np.pi * np.arange(m) + turn) / m))


def near_extremal(degree, eps):
    """(a, other zeros) of the near-extremal row (Phelps & Rodriguez 1972;
    Miller 1990): a = 1 - eps and the degree-th roots of unity other than 1."""
    return 1.0 - eps, np.exp(2j * np.pi * np.arange(1, degree) / degree)


def clusters(rng, spread, m):
    """m zeros of the given spread around three centres drawn in the disk of radius 0.9."""
    centres = 0.9 * disk(rng, 3)
    return centres[rng.integers(3, size=m)] + spread * disk(rng, m)


def _shared_families(rng, a: float, m: int) -> list[np.ndarray]:
    """The rows of m zeros that ``rows`` and ``pinned_rows`` both draw, in
    this order: clusters of spread 1e-9 and 1e-4, exactly repeated zeros, a
    zero equal to a, and zeros within 1e-12 of a."""
    out = [clusters(rng, spread, m) for spread in (1e-9, 1e-4)]
    out.append(np.repeat(disk(rng, (m + 1) // 2), 2)[:m])
    out.append(np.concatenate([[a], disk(rng, m - 1)]))
    near = max(1, m // 4)
    out.append(np.concatenate([a + 1e-12 * disk(rng, near), disk(rng, m - near)]))
    return out


def rows(degree: int, round_: int) -> list[tuple[str, float, np.ndarray]]:
    """(family, a, other zeros) for one round at one degree, in the order of
    ``FAMILIES``; the near-extremal families come in round 0 only.  The
    draws of the first eight families come first, and the unit circle is
    turned by a seeded angle."""
    rng = np.random.default_rng([_TAG, degree, round_])
    m = degree - 1
    a = float(rng.uniform(0.01, 0.99))
    out = [disk(rng, m), disk(rng, m)] + _shared_families(rng, a, m)
    sign = rng.integers(2)
    angles = (2.0 * np.pi * np.arange(m) + sign * np.pi) / m + rng.uniform(0.0, 2.0 * np.pi)
    out.append(np.exp(1j * angles))
    out = [(family, a, row) for family, row in zip(FAMILIES, out)]
    if round_ == 0:
        out += [(family, *near_extremal(degree, eps))
                for family, eps in zip(FAMILIES[8:10], (1e-9, 1e-12))]
    out.append((FAMILIES[10], a, clusters(rng, 1e-15, m)))
    return out


def pinned_rows(degree: int) -> tuple[float, np.ndarray]:
    """(a, rows of other zeros) at one degree, seeded: four disk draws, the
    rows of ``_shared_families``, a zero a subnormal distance from a (where
    steps overflow and points are nudged), and the two unit-circle families
    z^m = 1 and z^m = -1.  The tests pin the kernel's output on them at
    ``PINNED_DEGREES``, and ``make_reference_values.py`` prints the true
    critical points of their first six rows."""
    rng = np.random.default_rng([0x4B45524E, degree])
    m = degree - 1
    a = float(rng.uniform(0.01, 0.99))
    out = [disk(rng, m) for _ in range(4)] + _shared_families(rng, a, m)
    out.append(np.concatenate([[complex(a, 2.2250738585e-313)], disk(rng, m - 1)]))
    # z^m = -1 as 2 pi k/m + pi/m, not circle(m, pi): the two differ in a
    # last bit at m = 7, 63 and 199.
    out += [circle(m), np.exp(1j * (2.0 * np.pi * np.arange(m) / m + np.pi / m))]
    return a, np.array(out)
