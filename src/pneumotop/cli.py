"""Command-line interface.

Verbs: ``optimize``, ``evaluate``, ``seal-check``, ``export``, ``bench``,
``fixtures``. Exit codes for optimize: 0 converged, 2 iteration limit,
3 configuration error, 4 solver failure. Log level comes from the
``PNEUMOTOP_LOG`` environment variable only.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import bench, fixtures, io, runner
from .errors import ConfigError, SolveError
from .problem import CLOSURE_MODES, load_problem


def _setup_logging():
    level = os.environ.get("PNEUMOTOP_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pneumotop",
        description="Topology optimization of pressure-driven soft mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run an optimization problem")
    p_opt.add_argument("problem", help="problem file or fixture name")
    p_opt.add_argument("--max-iters", type=int, default=None)
    p_opt.add_argument("--out-dir", default="out")
    p_opt.add_argument("--closure", choices=CLOSURE_MODES, default=None)

    p_eval = sub.add_parser("evaluate", help="sweep output springs on a fixed design")
    p_eval.add_argument("design")
    p_eval.add_argument("problem")
    p_eval.add_argument("--sweep", type=float, nargs="+", default=None,
                        help="spring stiffnesses in N/m (default: 9 points, 0.1-1000)")
    p_eval.add_argument("--out-dir", default="out")

    p_seal = sub.add_parser("seal-check", help="flood-fill airtightness check")
    p_seal.add_argument("design")
    p_seal.add_argument("problem")
    p_seal.add_argument("--out-dir", default=None)

    p_exp = sub.add_parser("export", help="export design + solved fields as VTK")
    p_exp.add_argument("design")
    p_exp.add_argument("problem")
    p_exp.add_argument("-o", "--output", default="fields.vtk")

    p_bench = sub.add_parser("bench", help="run a comparison suite")
    p_bench.add_argument("suite", help="suite definition file")
    p_bench.add_argument("--out-dir", default="bench_out")

    p_fix = sub.add_parser("fixtures", help="export packaged fixture problems")
    p_fix.add_argument("--out-dir", default="fixtures")
    return parser


def cmd_optimize(args) -> int:
    spec = load_problem(args.problem, closure=args.closure, max_iters=args.max_iters)
    summary = runner.optimize_problem(spec, args.out_dir)
    status = "converged" if summary["converged"] else "hit iteration limit"
    print(
        f"{spec.name}: {status} after {summary['iterations']} iterations, "
        f"f={summary['objective']}, u_out={summary['u_out_m']:.4g} m, "
        f"sealed={summary['seal']['sealed']}"
    )
    return summary["exit_code"]


def cmd_evaluate(args) -> int:
    rows = runner.evaluate_design(args.design, args.problem, sweep=args.sweep)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_metrics_csv(out / "evaluation.csv", rows)
    print("k_out [N/m], u_out [m], SE [J], W [J], E_t")
    for r in rows:
        print(
            f"{r['k_out']:10.4g} {r['u_out']:12.5g} {r['SE']:12.5g} "
            f"{r['W']:12.5g} {r['E_t']:12.5g}"
        )
    return 0


def cmd_seal_check(args) -> int:
    report = runner.seal_check_design(args.design, args.problem)
    print(f"sealed: {report.sealed}")
    if report.leak_path:
        print(f"leak path ({len(report.leak_path)} elements): "
              f"{list(report.leak_path)}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        io.write_summary(out / "seal_report.json", report.to_dict())
    return 0 if report.sealed else 1


def cmd_export(args) -> int:
    path = runner.export_design_fields(args.design, args.problem, args.output)
    print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    cases, sweep = bench.load_suite(args.suite)
    summary = bench.run_suite(cases, args.out_dir, sweep=sweep)
    print(f"suite complete: {len(summary['cases'])} cases, "
          f"{len(summary['failed'])} failed")
    return 0 if not summary["failed"] else 1


def cmd_fixtures(args) -> int:
    written = fixtures.export_fixtures(args.out_dir)
    for p in written:
        print(p)
    return 0


_COMMANDS = {
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "seal-check": cmd_seal_check,
    "export": cmd_export,
    "bench": cmd_bench,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return runner.EXIT_CONFIG_ERROR
    except SolveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return runner.EXIT_SOLVE_ERROR


if __name__ == "__main__":
    sys.exit(main())
