#!/usr/bin/env python3
"""Compare the critical-point kernel of two source trees, row by row.

    python3 tools/kernel_agreement.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds a ``sendov_lab`` package, such as
the ``src`` of a checkout.  Both trees run ``critical_report`` on the same
seeded rows, ``families.rows`` of each round at each degree: every family
of ``families.FAMILIES``, the near-extremal ones in round 0 only, since
they draw nothing.

Over all rows it prints the worst distance from a critical point of one
tree to the nearest point of the other, the range of the ratio of each
row's largest radius (change over parent), the largest ratio of bracket
half-widths, the worst difference between the Sendov distances, and how
many rows give reports identical in bytes: critical points, radii,
distance, half-width and ``converged``.  For
each family it prints the rows whose verdict differs between the two
trees at ``check``'s threshold (the change tree's
``polynomial.VIOLATION_THRESHOLD``), each tree's PASS, FAIL and
UNRESOLVED counts, and each tree's count of rows whose report is not
``converged`` with the seconds its ``critical_report`` calls took.  The two
versions agree within the certified error bar when every difference of
distances is at most the sum of the two half-widths, and the change
resolves every row the parent resolves; the script exits 1 on a distance
beyond the brackets or on a PASS or FAIL of the parent that is UNRESOLVED
in the change.

The change tree also runs ``sendov_distances`` once per degree and round,
on that round's rows that share a (all but the near-extremal ones), and
the script prints how many of those rows get the (distance, half-width)
bytes of the same tree's ``critical_report``; it exits 1 on any that do
not.  A row with a repeated zero goes through ``critical_report`` there
too, while the others run through the kernel in blocks.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from families import FAMILIES, rows

DEGREES = (3, 4, 5, 6, 8, 11, 16, 17, 23, 32, 45, 64, 90, 128, 200)
# Rounds of the row families per degree: the first eight give
# 15 degrees x 34 x 8 = 4080 rows.
ROUNDS = 34


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


def report_bytes(report) -> bytes:
    """The critical points, radii, distance, half-width and ``converged``
    flag of one ``critical_report``, as bytes."""
    return b"".join((
        np.array(report.critical_points, dtype=complex).tobytes(),
        np.array(report.radii, dtype=float).tobytes(),
        np.array([report.sendov_distance, report.distance_radius]).tobytes(),
        bytes([report.converged]),
    ))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/kernel_agreement.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = load(argv[0], "parent_sendov_lab"), load(argv[1], "change_sendov_lab")
    threshold = change.polynomial.VIOLATION_THRESHOLD
    count = 0
    worst_point = 0.0
    ratios = []
    worst_bracket = 0.0
    worst_distance = 0.0
    beyond = 0
    identical = 0
    changed = {family: [] for family in FAMILIES}
    counts = {family: ({}, {}) for family in FAMILIES}
    # Per family and tree: [rows not converged, seconds in critical_report].
    costs = {family: ([0, 0.0], [0, 0.0]) for family in FAMILIES}
    lost = 0
    block_count = 0
    block_identical = 0
    for degree in DEGREES:
        for round_ in range(ROUNDS):
            round_rows = rows(degree, round_)
            shared = round_rows[0][1]
            block = []
            for family, a, row in round_rows:
                zeros = tuple(row.tolist())
                reports = []
                for tree, cost in zip((parent, change), costs[family]):
                    instance = tree.SendovInstance(a, zeros)
                    start = time.perf_counter()
                    reports.append(tree.critical_report(instance))
                    cost[1] += time.perf_counter() - start
                    cost[0] += not reports[-1].converged
                old, new = reports
                count += 1
                identical += report_bytes(old) == report_bytes(new)
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
                verdicts = old.verdict(threshold), new.verdict(threshold)
                for tally, verdict in zip(counts[family], verdicts):
                    tally[verdict] = tally.get(verdict, 0) + 1
                if verdicts[0] != verdicts[1]:
                    changed[family].append(
                        f"degree {degree}, round {round_}: {verdicts[0]} -> {verdicts[1]}, "
                        f"half-width {old.distance_radius:.3e} -> {new.distance_radius:.3e}"
                    )
                    lost += verdicts[0] != "UNRESOLVED" and verdicts[1] == "UNRESOLVED"
                if a == shared:
                    block.append((row, new))
            others = np.array([row for row, _ in block])
            distance, radius = change.polynomial.sendov_distances(shared, others)
            for (_, report), d, r in zip(block, distance, radius):
                alone = np.array([report.sendov_distance, report.distance_radius])
                block_identical += np.array([d, r]).tobytes() == alone.tobytes()
            block_count += len(block)
    ratios = np.array(ratios)
    print(f"rows: {count} at degrees {DEGREES[0]}-{DEGREES[-1]}")
    print(f"worst point difference: {worst_point:.3e}")
    print(f"largest-radius ratio, change / parent: {ratios.min():.4f} to {ratios.max():.4f}")
    print(f"largest bracket growth, change / parent: {max(worst_bracket, 1.0):.4f}")
    print(f"worst |delta distance|: {worst_distance:.3e}")
    print(f"distances beyond the two brackets: {beyond}")
    print(f"reports identical in bytes: {identical} of {count}")
    print(f"block rows identical to critical_report: {block_identical} of {block_count}")
    print(f"verdict changes at {threshold!r}, per family:")
    for family, lines in changed.items():
        print(f"  {family}: {len(lines)}")
        for line in lines:
            print(f"    {line}")
    print("verdicts per family, PASS / FAIL / UNRESOLVED, parent | change:")
    for family, tallies in counts.items():
        parent_, change_ = (" / ".join(str(t.get(v, 0)) for v in ("PASS", "FAIL", "UNRESOLVED"))
                            for t in tallies)
        print(f"  {family}: {parent_} | {change_}")
    print(f"rows resolved by the parent, UNRESOLVED in the change: {lost}")
    print("rows not converged and seconds in critical_report per family, parent | change:")
    for family, (old, new) in costs.items():
        print(f"  {family}: {old[0]} in {old[1]:.2f} s | {new[0]} in {new[1]:.2f} s")
    return 1 if beyond or lost or block_identical < block_count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
