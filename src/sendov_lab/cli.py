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
from .polynomial import InvalidInputError, SendovInstance, critical_report

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
    return str(value)


def _render_flat(record: dict, fmt: str) -> str:
    """Render one flat mapping as text (6 significant digits), JSON, or CSV."""
    if fmt == "json":
        return json.dumps(record) + "\n"
    if fmt == "csv":
        header = ",".join(record)
        row = ",".join(_csv_cell(v) for v in record.values())
        return header + "\n" + row + "\n"
    width = max(len(k) for k in record)
    return "".join(f"{k:<{width}}  {_fmt_value(v)}\n" for k, v in record.items())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


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
    record = bounds.breakdown(args.a).to_dict()
    _emit(_render_flat(record, args.format), args.out)
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


def cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows()
    if args.format == "json":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    elif args.format == "csv":
        lines = ["a,degot_n,computed_n,printed_n,flag"]
        lines += [
            ",".join(_csv_cell(v) for v in row.values()) for row in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'a':>3}  {'degot_n':>8}  {'computed_n':>12}  {'printed_n':>9}  flag"]
        for row in rows:
            mark = "*" if row["flag"] else ""
            lines.append(
                f"{row['a']:>3}  {row['degot_n']:>8}  "
                f"{row['computed_n']:>12.6g}  {row['printed_n']:>9}  {mark}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    outcomes = (
        verify.run_inequality_suite(grid_step=args.grid_step, seed=seed)
        + verify.verify_limits()
        + verify.verify_estimate_chain(grid_step=args.grid_step)
    )
    if args.format == "json":
        text = verify.render_outcomes_jsonl(outcomes)
    elif args.format == "csv":
        text = verify.render_outcomes_csv(outcomes)
    else:
        lines = []
        for o in outcomes:
            status = "PASS" if o.passed else "FAIL"
            lines.append(
                f"{status}  {o.check_id:<40}  worst_margin={o.worst_margin:.6g}  "
                f"at={o.worst_location}  samples={o.samples}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all(o.passed for o in outcomes) else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    report = verify.fuzz_sendov(args.a, args.degree, args.trials, seed=seed)
    if args.format == "csv":
        text = verify.render_fuzz_csv([report])
    else:
        record = report.to_dict()
        if args.format == "text":
            record["violation_instances"] = len(record["violation_instances"])
        text = _render_flat(record, args.format)
    _emit(text, args.out)
    return 0 if report.violations == 0 else 1


def cmd_check(args: argparse.Namespace) -> int:
    try:
        payload = Path(args.instance).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read instance file: {exc}") from None
    try:
        instance = SendovInstance.from_json(payload)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed instance: {exc}") from None
    report = critical_report(instance)
    verdict = report.verdict(verify.VIOLATION_THRESHOLD)
    if args.format == "json":
        record = {
            "critical_points": [[w.real, w.imag] for w in report.critical_points],
            "sendov_distance": report.sendov_distance,
            "mean_real_part": report.mean_real_part,
            "radii": list(report.radii),
            "distance_radius": report.distance_radius,
            "converged": report.converged,
            "verdict": verdict,
        }
        text = json.dumps(record) + "\n"
    else:
        lines = ["critical points:"]
        lines += [f"  {w.real:.6g} {w.imag:+.6g}i" for w in report.critical_points]
        lines.append(f"sendov_distance  {report.sendov_distance:.6g}")
        lines.append(f"mean_real_part   {report.mean_real_part:.6g}")
        lines.append(f"converged        {str(report.converged).lower()}")
        lines.append(verdict)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if verdict == "PASS" else 1


def cmd_mean_bound(args: argparse.Namespace) -> int:
    result = bounds.mean_upper_bound(args.a, args.n)
    _emit(_render_flat(dataclasses.asdict(result), args.format), args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
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
    _add_common(p)
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
    except (bounds.DomainError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
