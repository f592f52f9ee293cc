#!/usr/bin/env python3
"""Compare the critical-point kernel of two source trees, row by row.

    python3 tools/kernel_agreement.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds a ``sendov_lab`` package, such as
the ``src`` of a checkout.  Both trees run ``critical_report`` on the same
seeded rows at degrees 3 to 200: area-uniform draws in the unit disk,
clusters of spread 1e-9 and 1e-4, exactly repeated zeros, a zero equal to
a, zeros within 1e-12 of a, and the unit-circle families z^m = 1 and
z^m = -1 turned by a seeded angle.

Over all rows it prints the worst distance from a critical point of one
tree to the nearest point of the other, the range of the ratio of each
row's largest radius (change over parent), the largest ratio of bracket
half-widths, and the worst difference between the Sendov distances.  The
two versions agree within the certified error bar when every difference of
distances is at most the sum of the two half-widths; the script exits 1 if
one is not.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

DEGREES = (3, 4, 5, 6, 8, 11, 16, 17, 23, 32, 45, 64, 90, 128, 200)
# Rounds of the eight row families per degree: 15 degrees x 34 x 8 = 4080 rows.
ROUNDS = 34
_TAG = 0x41475245


def load(src: str, name: str):
    """The sendov_lab package under ``src``, imported as module ``name``."""
    init = Path(src) / "sendov_lab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no sendov_lab package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def rows(degree: int, round_: int) -> tuple[float, list[np.ndarray]]:
    """(a, eight rows of other zeros) for one round at one degree."""
    rng = np.random.default_rng([_TAG, degree, round_])
    m = degree - 1

    def disk(size):
        return np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))

    a = float(rng.uniform(0.01, 0.99))
    out = [disk(m), disk(m)]
    for spread in (1e-9, 1e-4):
        centres = 0.9 * disk(3)
        out.append(centres[rng.integers(3, size=m)] + spread * disk(m))
    out.append(np.repeat(disk((m + 1) // 2), 2)[:m])
    out.append(np.concatenate([[a], disk(m - 1)]))
    near = max(1, m // 4)
    out.append(np.concatenate([a + 1e-12 * disk(near), disk(m - near)]))
    sign = rng.integers(2)
    angles = (2.0 * np.pi * np.arange(m) + sign * np.pi) / m + rng.uniform(0.0, 2.0 * np.pi)
    out.append(np.exp(1j * angles))
    return a, out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/kernel_agreement.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = load(argv[0], "parent_sendov_lab"), load(argv[1], "change_sendov_lab")
    count = 0
    worst_point = 0.0
    ratios = []
    worst_bracket = 0.0
    worst_distance = 0.0
    beyond = 0
    for degree in DEGREES:
        for round_ in range(ROUNDS):
            a, others = rows(degree, round_)
            for row in others:
                zeros = tuple(row.tolist())
                old = parent.critical_report(parent.SendovInstance(a, zeros))
                new = change.critical_report(change.SendovInstance(a, zeros))
                count += 1
                p_old = np.array(old.critical_points)
                p_new = np.array(new.critical_points)
                gap = np.abs(p_new[:, None] - p_old[None, :])
                worst_point = max(worst_point, gap.min(axis=1).max(), gap.min(axis=0).max())
                r_old, r_new = max(old.radii), max(new.radii)
                if 0.0 < r_old < np.inf and 0.0 < r_new < np.inf:
                    ratios.append(r_new / r_old)
                elif r_old != r_new:
                    ratios.append(np.inf if r_new > r_old else 0.0)
                if new.distance_radius > old.distance_radius:
                    worst_bracket = max(
                        worst_bracket,
                        new.distance_radius / old.distance_radius if old.distance_radius else np.inf,
                    )
                difference = abs(new.sendov_distance - old.sendov_distance)
                worst_distance = max(worst_distance, difference)
                if difference > new.distance_radius + old.distance_radius:
                    beyond += 1
                    print(f"beyond the brackets: degree {degree}, round {round_}, a {a!r}, "
                          f"|delta distance| {difference:.3e}")
    ratios = np.array(ratios)
    print(f"rows: {count} at degrees {DEGREES[0]}-{DEGREES[-1]}")
    print(f"worst point difference: {worst_point:.3e}")
    print(f"largest-radius ratio, change / parent: {ratios.min():.4f} to {ratios.max():.4f}")
    print(f"largest bracket growth, change / parent: {max(worst_bracket, 1.0):.4f}")
    print(f"worst |delta distance|: {worst_distance:.3e}")
    print(f"distances beyond the two brackets: {beyond}")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
