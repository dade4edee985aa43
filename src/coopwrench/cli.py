"""Command-line interface: run scenarios, validate them, emit built-ins.

Exit codes: 0 on success, 2 for configuration/validation problems, 3 for
runtime aborts (unreachable trajectory, export failure).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import MODES, SCENARIO_TEXTS, ScenarioError, parse_scenario
from .runner import ExportError, TrajectoryError, emit_plot_data, export, \
    run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coopwrench",
        description="Wrench-task capability of cooperative manipulator groups "
                    "along object trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="evaluate a scenario and write CSV/JSON/plot outputs")
    run_p.add_argument("--config", required=True, help="scenario file")
    run_p.add_argument("--mode", choices=MODES,
                       help="override the scenario's capability mode")
    run_p.add_argument("--dt", type=float, help="override the time step [s]")
    run_p.add_argument("--cycles", type=int,
                       help="override the trajectory repetition count")
    run_p.add_argument("--out", required=True, help="output directory")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--config", required=True, help="scenario file")

    ref_p = sub.add_parser(
        "reference", help="write a built-in scenario file")
    ref_p.add_argument("--variant", choices=sorted(SCENARIO_TEXTS),
                       default="reference")
    ref_p.add_argument("--out", help="destination file (default: stdout)")
    return parser


def _load_config(path):
    # bytes, so PyYAML does the decoding and a bad encoding is a YAML error
    with open(path, "rb") as handle:
        return parse_scenario(handle.read())


def _cmd_run(args):
    # one replace, so the grid cap checks the grid the flags give together
    overrides = {key: getattr(args, key) for key in ("mode", "dt", "cycles")
                 if getattr(args, key) is not None}
    try:
        config = dataclasses.replace(_load_config(args.config), **overrides)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        result = run_scenario(config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrajectoryError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        os.makedirs(args.out, exist_ok=True)
        export(result, "csv", os.path.join(args.out, "result.csv"))
        export(result, "json", os.path.join(args.out, "result.json"))
        emit_plot_data(result, os.path.join(args.out, "plot.dat"))
    except (OSError, ExportError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    summary = result.summary
    print(f"samples: {summary['sample_count']}  "
          f"flagged: {summary['flagged_steps']}")
    for name in ("K0", "K1"):
        series = summary[name]
        if series is not None:
            print(f"{name} min/mean/max: {series['min']:.6g} / "
                  f"{series['mean']:.6g} / {series['max']:.6g}")
    if summary["improvement_percent"] is not None:
        print(f"mean improvement: {summary['improvement_percent']:.4g}%")
    print(f"results written to {args.out}")
    return EXIT_OK


def _cmd_validate(args):
    try:
        config = _load_config(args.config)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.config}: valid scenario with "
          f"{len(config.manipulators)} manipulators, mode {config.mode}")
    return EXIT_OK


def _cmd_reference(args):
    text = SCENARIO_TEXTS[args.variant]
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"wrote {args.variant} scenario to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "reference": _cmd_reference}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
