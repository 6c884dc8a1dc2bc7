"""Command-line front end for the scenario harness.

`rfpe-lab run study.json` executes a configuration file; each scenario
kind also has a subcommand that runs its default configuration, so
`rfpe-lab convergence --plot` reproduces the standard convergence study
without writing any JSON. Exit status: 0 on success, 2 for rejected
configurations (message is line-anchored on stderr), 1 for failures in
the middle of a run (the manifest is left marked incomplete).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import scenarios


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the scenario rng_seed")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="output directory (default: $%s, else ./results)"
                             % scenarios.OUT_DIR_ENV)
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for Monte-Carlo trials")
    parser.add_argument("--plot", action="store_true",
                        help="also render the scenario's SVG plot")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfpe-lab",
        description="Bayesian phase-estimation laboratory: run simulated "
                    "RFPE/IPEA studies and write CSV, JSON, and SVG results.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    runp = sub.add_parser("run", help="execute a scenario configuration file")
    runp.add_argument("config", help="path to a %s JSON scenario"
                                     % scenarios.SCHEMA_VERSION)
    _add_common(runp)

    for kind in scenarios.KINDS:
        kp = sub.add_parser(kind, help=f"run the default {kind} scenario")
        _add_common(kp)
        kp.add_argument("--label", default=None, metavar="NAME",
                        help="file-name stem for outputs (default: the kind)")
        if kind == "molecular_scan":
            kp.add_argument("--table", required=True, metavar="CSV",
                            help="molecular records "
                                 "(distance, eigenphase, reference_energy, "
                                 "scale, offset)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg_path = Path(args.config)
            text, obj = scenarios.read_config_file(cfg_path)
            if args.seed is not None:
                if not isinstance(obj, dict):
                    raise scenarios.ConfigError(
                        f"{cfg_path}:1: config: expected a JSON object")
                obj = dict(obj, rng_seed=args.seed)
            manifest = scenarios.run_scenario_config(
                obj, out_dir=args.out_dir, workers=args.workers,
                plot=args.plot, source=str(cfg_path), text=text,
                base_dir=cfg_path.parent)
        else:
            obj = {"schema": scenarios.SCHEMA_VERSION, "kind": args.command}
            if args.seed is not None:
                obj["rng_seed"] = args.seed
            if args.label is not None:
                obj["label"] = args.label
            if args.command == "molecular_scan":
                obj["table"] = args.table
            manifest = scenarios.run_scenario_config(
                obj, out_dir=args.out_dir, workers=args.workers,
                plot=args.plot, source=f"<{args.command}>")
    except scenarios.ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    names = manifest["outputs"] + [f"{manifest['label']}_manifest.json"]
    print(f"{manifest['label']}: wrote {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
