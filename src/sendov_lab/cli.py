"""Command-line front end: bound evaluation, table comparison, verification, fuzzing.

Exit codes are uniform across subcommands: 0 for success / all checks passed,
1 for a verification, fuzz, or conjecture-check failure, 2 for usage or
domain errors.  ``--seed`` takes precedence over the ``SENDOV_LAB_SEED``
environment variable, which takes precedence over the built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import bounds, verify
from .polynomial import SendovInstance, critical_report

# Degree thresholds published by Degot for a = 0.1, ..., 0.9, transcribed for
# comparison; they come from a per-polynomial procedure this package does not
# reproduce.
DEGOT_N = (15064, 3587, 1654, 1004, 718, 563, 560, 616, 1006)

# The printed values of the closed-form threshold at the same points, kept as
# strings so each row is compared at exactly its printed precision.
PRINTED_FINAL = ("3.4e11", "4e9", "4e8", "9.8e7", "4.3e7", "3e7", "3.2e7", "6.2e7", "4.4e8")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + " ".join(repr(v) for v in value) + ")"
    return str(value)


def _emit(args: argparse.Namespace, rows: list[dict], text_lines, csv_columns=None) -> None:
    """Render rows in ``args.format`` and write them to ``args.out`` or stdout.

    json is one object per row, with full precision.  csv is a header and
    one line of ``_csv_cell`` cells per row; ``csv_columns`` maps each
    header name to its row key and defaults to the rows' own keys.  text is
    the lines ``text_lines(rows)`` makes, one template per layout.
    """
    if args.format == "json":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    elif args.format == "csv":
        columns = csv_columns or {key: key for key in rows[0]}
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(row[key]) for key in columns.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(line + "\n" for line in text_lines(rows))
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise bounds.DomainError(f"cannot write --out file: {exc}") from None


def _row(report) -> dict:
    """The output row of a report dataclass: its fields in order, with the
    fields of a nested dataclass (``BoundBreakdown.aux``) inlined in its
    place.  A tuple stays a tuple: json writes it as a list, csv as "(x y)"
    and text as Python prints it.  Reports are frozen and hold only
    numbers, strings and tuples, so the values need no copy."""
    row = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if dataclasses.is_dataclass(value):
            row.update(_row(value))
        else:
            row[field.name] = value
    return row


def _key_value_lines(rows: list[dict]) -> list[str]:
    """One row as aligned key/value lines, values to 6 significant digits."""
    width = max(len(key) for key in rows[0])
    return [f"{key:<{width}}  {_fmt_value(value)}" for key, value in rows[0].items()]


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SENDOV_LAB_SEED")
    if env is None:
        return verify.DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise bounds.DomainError(
            f"SENDOV_LAB_SEED must be an integer, got {env!r}"
        ) from None


def _ceil_sig(x: float, sig: int) -> float:
    """Round x up to sig significant figures (tiny tolerance for exact hits)."""
    exponent = math.floor(math.log10(x))
    scale = 10.0 ** (exponent - sig + 1)
    return math.ceil(x / scale - 1e-12) * scale


def _sig_figs(printed: str) -> int:
    mantissa = printed.split("e")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def cmd_bound(args: argparse.Namespace) -> int:
    _emit(args, [_row(bounds.breakdown(args.a))], _key_value_lines)
    return 0


def _table_rows() -> list[dict]:
    rows = []
    for i, degot in enumerate(DEGOT_N):
        a = round(0.1 * (i + 1), 1)
        computed = bounds.final_bound(a)
        printed = PRINTED_FINAL[i]
        # The printed column rounds up at its own precision (the values are
        # upper bounds), so the comparison does the same before flagging.
        agreed = math.isclose(
            _ceil_sig(computed, _sig_figs(printed)), float(printed), rel_tol=1e-9
        )
        rows.append({
            "a": a,
            "degot_n": degot,
            "computed_n": computed,
            "printed_n": printed,
            "flag": not agreed,
        })
    return rows


def _table_lines(rows: list[dict]) -> list[str]:
    lines = [f"{'a':>3}  {'degot_n':>8}  {'computed_n':>12}  {'printed_n':>9}  flag"]
    lines += [
        f"{row['a']:>3}  {row['degot_n']:>8}  {row['computed_n']:>12.6g}  "
        f"{row['printed_n']:>9}  {'*' if row['flag'] else ''}"
        for row in rows
    ]
    return lines


def cmd_table(args: argparse.Namespace) -> int:
    _emit(args, _table_rows(), _table_lines)
    return 0


# The csv layout of verify: every outcome field but the notes.
VERIFY_CSV = {
    key: key for key in ("check_id", "passed", "worst_margin", "worst_location", "samples")
}


def _verify_lines(rows: list[dict]) -> list[str]:
    return [
        f"{'PASS' if row['passed'] else 'FAIL'}  {row['check_id']:<40}  "
        f"worst_margin={row['worst_margin']:.6g}  at={row['worst_location']}  "
        f"samples={row['samples']}"
        for row in rows
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    outcomes = (
        verify.run_inequality_suite(grid_step=args.grid_step, seed=seed)
        + verify.verify_limits()
        + verify.verify_estimate_chain(grid_step=args.grid_step)
    )
    _emit(args, [_row(o) for o in outcomes], _verify_lines, VERIFY_CSV)
    return 0 if all(o.passed for o in outcomes) else 1


# The csv layout of fuzz: its own column order, no instances, and the
# distance under a shorter name.
FUZZ_CSV = {
    "a": "a", "degree": "degree", "trials": "trials", "violations": "violations",
    "max_distance": "max_sendov_distance", "non_converged": "non_converged", "seed": "seed",
}


def _fuzz_lines(rows: list[dict]) -> list[str]:
    """The key/value layout, with the count of violating instances in place of them."""
    record = dict(rows[0], violation_instances=len(rows[0]["violation_instances"]))
    return _key_value_lines([record])


def cmd_fuzz(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    report = verify.fuzz_sendov(args.a, args.degree, args.trials, seed=seed)
    _emit(args, [_row(report)], _fuzz_lines, FUZZ_CSV)
    return 0 if report.violations == 0 else 1


def _check_lines(rows: list[dict]) -> list[str]:
    row = rows[0]
    lines = ["critical points:"]
    lines += [f"  {re:.6g} {im:+.6g}i" for re, im in row["critical_points"]]
    lines += _key_value_lines([
        {key: row[key] for key in ("sendov_distance", "mean_real_part", "converged")}
    ])
    lines.append(row["verdict"])
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    try:
        payload = Path(args.instance).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise bounds.DomainError(f"cannot read instance file: {exc}") from None
    report = critical_report(SendovInstance.from_json(payload))
    verdict = report.verdict(verify.VIOLATION_THRESHOLD)
    row = {
        "critical_points": [[w.real, w.imag] for w in report.critical_points],
        "sendov_distance": report.sendov_distance,
        "mean_real_part": report.mean_real_part,
        "radii": list(report.radii),
        "distance_radius": report.distance_radius,
        "converged": report.converged,
        "verdict": verdict,
    }
    _emit(args, [row], _check_lines)
    return 0 if verdict == "PASS" else 1


def cmd_mean_bound(args: argparse.Namespace) -> int:
    _emit(args, [_row(bounds.mean_upper_bound(args.a, args.n))], _key_value_lines)
    return 0


def _add_common(sub: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", metavar="PATH", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sendov-lab",
        description=(
            "Evaluate explicit degree bounds for Sendov's conjecture and "
            "verify them numerically."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("bound", help="full breakdown of the degree bound at one a")
    p.add_argument("--a", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = commands.add_parser("table", help="computed thresholds vs the published table")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = commands.add_parser("verify", help="run every registered verification check")
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("fuzz", help="randomized conjecture check at one (a, degree)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_fuzz)

    p = commands.add_parser("check", help="critical points and Sendov distance of one instance")
    p.add_argument("--instance", metavar="PATH", required=True)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_check)

    p = commands.add_parser("mean-bound", help="upper bound on the mean real part of zeros")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mean_bound)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building it costs
    over a millisecond, far more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except bounds.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
