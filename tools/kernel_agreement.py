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
distance, mean real part, half-width and ``converged``.  For each family it prints how
many of its rows do not, how many half-widths the change narrows and how
many it widens, the rows whose verdict differs between the two
trees at ``check``'s threshold (the change tree's
``polynomial.VIOLATION_THRESHOLD``), each tree's PASS, FAIL and
UNRESOLVED counts, each row the change leaves UNRESOLVED with its degree,
round and bracket d +- h, and each tree's count of rows whose report is not
``converged`` with the seconds its ``critical_report`` calls took.  The two
versions agree within the certified error bar when every difference of
distances is at most the sum of the two half-widths, and the change
resolves every row the parent resolves; the script exits 1 on a distance
beyond the brackets or on a PASS or FAIL of the parent that is UNRESOLVED
in the change.

Conjugating the zeros conjugates the critical points and keeps the Sendov
distance, since a is real, and conj is exact in binary64: a free oracle.
The change tree runs ``critical_report`` on each row's conjugate too, and
for each family the script prints how many rows have a bracket disjoint
from their conjugate's, where one of the two must be wrong (it exits 1 on
any), and how many change verdict under conjugation, which is no error by
itself and is reported only.

The free bounds are a second free oracle.  With n the degree and
delta_j = |zeta_j - a|, the Sendov distance lies in [L, U], where
U = (prod delta_j / n)^(1/(n - 1)) and
L = delta_min/(1 + delta_min sum 1/delta_j) (``tests/exact.py``'s
``free_bounds`` gives them exactly), so a bracket that misses [L, U] is
wrong.  ``free_bounds`` here computes them in binary64 and widens them by
the relative margin 4(n + 2)u(1 + max_j |log delta_j|), u = 2^-53: twice
what covers the rounding of each delta_j (3u), of the sums, logs, exp and
quotients after it, and of the bracket's ends.  That holds when every
delta_j is 0 or at least 2^-1022; a row with a smaller delta_j, whose
rounding is absolute, gets [0, inf] and so is not checked.  For each
family the script prints how many of the change tree's brackets miss
[L, U], and it exits 1 on any.

The change tree also runs ``sendov_distances`` once per degree and round,
on that round's rows that share a (all but the near-extremal ones), and
the script prints how many of those rows get the (distance, half-width)
bytes of the same tree's ``critical_report``; it exits 1 on any that do
not.  A row with a repeated zero goes through ``critical_report`` there
too, while the others run through the kernel in blocks.
"""

from __future__ import annotations

import importlib.util
import math
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
    """The critical points, radii, distance, mean real part, half-width and
    ``converged`` flag of one ``critical_report``, as bytes."""
    return b"".join((
        np.array(report.critical_points, dtype=complex).tobytes(),
        np.array(report.radii, dtype=float).tobytes(),
        np.array([report.sendov_distance, report.mean_real_part, report.distance_radius]).tobytes(),
        bytes([report.converged]),
    ))


def free_bounds(a: float, zeros: np.ndarray) -> tuple[float, float]:
    """(L, U) in binary64, widened to hold the exact free bounds of the row
    (a, zeros); see the module docstring."""
    delta = np.abs(zeros - a)
    n = delta.size + 1
    if (delta == 0.0).any():
        return 0.0, 0.0
    if delta.min() < np.finfo(float).tiny:
        return 0.0, math.inf
    log_delta = np.log(delta)
    margin = 4.0 * (n + 2) * 2.0 ** -53 * (1.0 + np.abs(log_delta).max())
    lower = 1.0 / (1.0 / delta.min() + (1.0 / delta).sum())
    upper = math.exp((log_delta.sum() - math.log(n)) / (n - 1))
    return lower * (1.0 - margin), upper * (1.0 + margin)


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
    changed = {family: [] for family in FAMILIES}
    unresolved = {family: [] for family in FAMILIES}
    moved = dict.fromkeys(FAMILIES, 0)
    # Per family: [half-widths narrowed, half-widths widened] by the change.
    widths = {family: [0, 0] for family in FAMILIES}
    counts = {family: ({}, {}) for family in FAMILIES}
    # Per family and tree: [rows not converged, seconds in critical_report].
    costs = {family: ([0, 0.0], [0, 0.0]) for family in FAMILIES}
    # Per family, in the change: [brackets disjoint from the conjugate's,
    # verdicts changed by conjugation].
    mirrored = {family: [0, 0] for family in FAMILIES}
    # Per family, in the change: brackets disjoint from [L, U].
    unbounded = dict.fromkeys(FAMILIES, 0)
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
                moved[family] += report_bytes(old) != report_bytes(new)
                p_old = np.array(old.critical_points)
                p_new = np.array(new.critical_points)
                gap = np.abs(p_new[:, None] - p_old[None, :])
                worst_point = max(worst_point, gap.min(axis=1).max(), gap.min(axis=0).max())
                r_old, r_new = max(old.radii), max(new.radii)
                if 0.0 < r_old < np.inf and 0.0 < r_new < np.inf:
                    ratios.append(r_new / r_old)
                elif r_old != r_new:
                    ratios.append(np.inf if r_new > r_old else 0.0)
                widths[family][0] += new.distance_radius < old.distance_radius
                widths[family][1] += new.distance_radius > old.distance_radius
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
                if verdicts[1] == "UNRESOLVED":
                    unresolved[family].append(
                        f"degree {degree}, round {round_}: "
                        f"{new.sendov_distance:.12g} +- {new.distance_radius:.3e}")
                conj = change.critical_report(change.SendovInstance(a, tuple(row.conj().tolist())))
                apart = abs(new.sendov_distance - conj.sendov_distance)
                if apart > new.distance_radius + conj.distance_radius:
                    mirrored[family][0] += 1
                    print(f"disjoint from the conjugate: degree {degree}, round {round_}, {family}")
                mirrored[family][1] += new.verdict(threshold) != conj.verdict(threshold)
                lower, upper = free_bounds(a, row)
                d, h = new.sendov_distance, new.distance_radius
                if d + h < lower or d - h > upper:
                    unbounded[family] += 1
                    print(f"disjoint from [L, U]: degree {degree}, round {round_}, {family}")
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
    identical = count - sum(moved.values())
    print(f"reports identical in bytes: {identical} of {count}; the others per family:")
    for family, rows_moved in moved.items():
        print(f"  {family}: {rows_moved}")
    print("half-widths narrowed / widened by the change, per family:")
    for family, (narrowed, widened) in widths.items():
        print(f"  {family}: {narrowed} / {widened}")
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
    print("rows UNRESOLVED in the change, per family:")
    for family, lines in unresolved.items():
        print(f"  {family}: {len(lines)}")
        for line in lines:
            print(f"    {line}")
    print(f"rows resolved by the parent, UNRESOLVED in the change: {lost}")
    print("rows not converged and seconds in critical_report per family, parent | change:")
    for family, (old, new) in costs.items():
        print(f"  {family}: {old[0]} in {old[1]:.2f} s | {new[0]} in {new[1]:.2f} s")
    print("conjugated rows in the change per family, brackets disjoint / verdicts changed:")
    for family, (disjoint, flipped) in mirrored.items():
        print(f"  {family}: {disjoint} / {flipped}")
    print("brackets in the change disjoint from the free bounds [L, U], per family:")
    for family, disjoint in unbounded.items():
        print(f"  {family}: {disjoint}")
    disjoint = sum(count for count, _ in mirrored.values()) + sum(unbounded.values())
    return 1 if beyond or lost or disjoint or block_identical < block_count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
