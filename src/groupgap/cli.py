"""Command-line interface.

Exit codes: 0 success with all certificates holding, 2 on validation or
input errors (unreadable or unwritable files included), 3 when a certificate
(or the compared ratio) fails, 4 on an internal error (a step that cannot
fail on valid input failed: a bug, not a bad instance). Exit 4 is
``InvariantViolated`` alone; every other ``GroupGapError`` and any
``OSError`` exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io
from .errors import GroupGapError, InvariantViolated, ValidationError
from .exact import solve_exact
from .generate import GeneratorSpec, generate
from .lp_oracle import LpOracle
from .model import render_rational, validate_instance
from .pipeline import solve
from .submodular import certify_ratio_bound

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CERT_FAILED = 3
EXIT_INTERNAL = 4


def _grid_step(text: str) -> float:
    value = float(text)
    if not 0 < value <= 0.125:
        raise argparse.ArgumentTypeError(f"must be in (0, 1/8], got {value}")
    return value


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = io.load_instance(args.file)
    assignment, report = solve(inst)
    if args.trace:
        for step in report.fill_steps:
            print(json.dumps(io.fill_step_to_dict(step), sort_keys=True), file=sys.stderr)

    doc = io.report_to_dict(report, assignment)
    ratio_ok = True
    if args.exact_compare:
        optimum, _witness = solve_exact(inst)
        doc["exact_optimum"] = render_rational(optimum)
        if optimum > 0:
            ratio = report.final_profit / optimum
            ratio_ok = 6 * report.final_profit >= optimum
        else:
            ratio = Fraction(1)
        doc["ratio_vs_exact"] = float(ratio)

    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        rows = [
            ("instance", str(args.file)),
            ("bins", str(inst.m)),
            ("selected groups", str(doc["selected_groups"])),
            ("group LP value", doc["group_lp_value"]),
            ("fractional value", doc["fractional_value"]),
            ("rounded profit", doc["rounded_profit"]),
            ("final profit", doc["final_profit"]),
            ("upper bound", doc["upper_bound"]),
            ("certificates", "all OK" if report.all_certified() else "FAILED"),
        ]
        if args.exact_compare:
            rows.append(("exact optimum", doc["exact_optimum"]))
            rows.append(("ratio vs exact", f"{doc['ratio_vs_exact']:.4f}"))
        _print_table(rows)
    return EXIT_OK if report.all_certified() and ratio_ok else EXIT_CERT_FAILED


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        seed=args.seed,
        n=args.n,
        groups=args.groups,
        bins=args.bins,
        flavor=args.flavor,
        size_denominator=args.size_denominator,
        max_profit=args.max_profit,
    )
    inst = generate(spec)
    validate_instance(inst, strict=True)
    io.save_instance(inst, args.output)
    return EXIT_OK


def _cmd_check_lemma4(args: argparse.Namespace) -> int:
    report = certify_ratio_bound(step=args.step)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} min={report.min_value:.9f} at (p1={report.argmin[0]:.6f}, "
        f"p2={report.argmin[1]:.6f}, s1={report.argmin[2]:.6f}, s2={report.argmin[3]:.6f}) "
        f"step={report.step} skipped={report.skipped}"
    )
    return EXIT_OK if report.passed else EXIT_CERT_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = io.load_instance(args.file)
    validate_instance(inst, strict=False)
    try:
        group_ids = [int(tok) - 1 for tok in args.groups.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--groups must be comma-separated integers, got {args.groups!r}")
    known = {g.id for g in inst.groups}
    for gid in group_ids:
        if gid not in known:
            raise ValidationError(f"group {gid + 1} does not exist (1..{len(inst.groups)})")
    print(render_rational(LpOracle(inst).group_value(group_ids)))
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = io.load_instance(args.file)
    optimum, _witness = solve_exact(inst)
    print(render_rational(optimum))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupgap",
        description="Grouped assignment solver with exact certified guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the approximation pipeline on an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--exact-compare", action="store_true", help="also solve exactly and report the ratio"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="emit the filling step trace as JSON lines on stderr"
    )
    p_solve.add_argument("--json", action="store_true", help="machine-readable report")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a deterministic instance file")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True, help="number of items")
    p_gen.add_argument("--groups", type=int, required=True)
    p_gen.add_argument("--bins", type=int, required=True)
    p_gen.add_argument("--flavor", choices=["uniform", "vod"], default="uniform")
    p_gen.add_argument("--size-denominator", type=int, default=64)
    p_gen.add_argument("--max-profit", type=int, default=100)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser(
        "check-lemma4",
        help="grid-certify that the reserved-capacity ratio floor stays above 1/3",
    )
    p_check.add_argument("--step", type=_grid_step, default=1.0 / 64.0)
    p_check.set_defaults(func=_cmd_check_lemma4)

    p_oracle = sub.add_parser("oracle", help="print the LP value of a set of groups")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--groups", required=True, help="comma-separated 1-based group ids")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exact = sub.add_parser("exact", help="print the exact optimum (desk-scale instances)")
    p_exact.add_argument("file")
    p_exact.set_defaults(func=_cmd_exact)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GroupGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
