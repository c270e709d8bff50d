"""Command-line entry point.

Commands:
  check <config.json>                 run the full pipeline
  sweep <config.json> --param --values   one-parameter family of runs
  dubins --N --space [--emit-config]  print a ready-made Dubins config

Exit status: 0 certified, 2 refuted or failed checks, 1 operational error.
A stage that breaks down numerically still yields a report (verdict
"error", written as usual) and exit status 1; in a sweep, any such run
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import (
    SWEEP_PARAMETERS,
    ConfigError,
    emit,
    load_config,
    run_check,
    run_sweep,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singcert",
        description="Numerical sufficient-optimality verification for "
                    "singular minimum-time extremals.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the verification pipeline")
    check.add_argument("config", help="path to a JSON run configuration")

    sweep = sub.add_parser("sweep", help="run a one-parameter sweep")
    sweep.add_argument("config", help="path to a JSON run configuration")
    sweep.add_argument("--param", required=True,
                       choices=list(SWEEP_PARAMETERS))
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")

    dubins = sub.add_parser("dubins", help="emit a Dubins configuration")
    dubins.add_argument("--N", type=int, default=3)
    dubins.add_argument("--space", default="euclidean",
                        choices=["euclidean", "sphere", "hyperbolic"])
    dubins.add_argument("--emit-config", action="store_true",
                        help="print the materialized config and exit")
    return parser


def _read_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _verdict_status(verdict: str) -> int:
    if verdict == "error":
        return 1
    return 0 if verdict in ("optimality certified", "no checks requested") else 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            report = run_check(_read_config(args.config))
            out_path = report["config"]["output"]["report"]
            text = emit(report, out_path)
            if not out_path:
                sys.stdout.write(text)
            return _verdict_status(report["verdict"])
        if args.command == "sweep":
            config = _read_config(args.config)
            values = [v for v in args.values.split(",") if v]
            reports = run_sweep(config, args.param, values)
            out_path = load_config(config)["output"]["report"]
            text = emit(reports, out_path)
            if not out_path:
                sys.stdout.write(text)
            if not reports:
                return 0
            codes = {_verdict_status(r["verdict"]) for r in reports}
            return 1 if 1 in codes else max(codes)
        if args.command == "dubins":
            config = load_config({
                "system": {"kind": "dubins", "space_form": args.space,
                           "N": args.N}})
            if args.emit_config:
                sys.stdout.write(emit(config))
                return 0
            report = run_check(config)
            sys.stdout.write(emit(report))
            return _verdict_status(report["verdict"])
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
