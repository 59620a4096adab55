"""Command-line entry point: simulate / stationary / mms / report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .diagnostics import convergence_monitor, read_csv
from .errors import NlcflowError
from .runner import (PRESETS, load_config, mms_verify, preset_config, run,
                     validate_config)
from .stationary import solve_stationary


def _config_from_args(args):
    if args.preset:
        return preset_config(args.preset, **(
            {"out_dir": args.out_dir} if args.out_dir else {}))
    if not args.config:
        raise SystemExit("either a config file or --preset is required")
    cfg = load_config(args.config)
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    result = run(cfg)
    checks = result.report["checks"]
    print(json.dumps(result.report, indent=2, default=float))
    return 0 if all(checks.values()) else 1


def cmd_stationary(args) -> int:
    cfg = _config_from_args(args)
    st = solve_stationary(cfg.grid, validate_config(cfg)["trace"], cfg.eta,
                          cfg.tol_stationary)
    print(json.dumps({"residual": st.residual, "energy": st.energy,
                      "iterations": st.iterations}, indent=2))
    return 0 if st.residual <= cfg.tol_stationary else 1


def cmd_mms(args) -> int:
    table = mms_verify()
    print(json.dumps(table, indent=2, default=float))
    return 0


def cmd_report(args) -> int:
    try:
        summary = convergence_monitor(read_csv(args.csv))
    except (OSError, ValueError) as exc:  # no file, a foreign or short CSV
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, default=float))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="nlcflow",
        description="Simulator for nonhomogeneous incompressible nematic "
                    "liquid crystal flow on a staggered grid")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, needs_cfg in (("simulate", cmd_simulate, True),
                                ("stationary", cmd_stationary, True),
                                ("mms", cmd_mms, False),
                                ("report", cmd_report, False)):
        p = sub.add_parser(name)
        if needs_cfg:
            p.add_argument("config", nargs="?",
                           help="key=value config file with sections")
            p.add_argument("--preset", choices=sorted(PRESETS),
                           help="built-in scenario instead of a config file")
            p.add_argument("--out-dir", default=None)
        p.set_defaults(func=fn)
    sub.choices["report"].add_argument("csv", help="diagnostics CSV to summarize")

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NlcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
