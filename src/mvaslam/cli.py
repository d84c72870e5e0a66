"""Command-line entry point: run a scenario's Monte-Carlo experiment."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MvaSlamError
from .experiment import run_experiment, write_outputs
from .scenario import bundled_scenario, load_scenario

BUNDLED = ("exp1_rect_room", "exp3_olos", "nonrect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvaslam",
        description="Multipath-based SLAM simulator: jointly estimates an agent "
                    "trajectory and a map of reflective surfaces from synthetic "
                    "distance/angle measurements.")
    parser.add_argument("--scenario", required=True,
                        help=f"path to a scenario JSON, or one of {', '.join(BUNDLED)}")
    parser.add_argument("--runs", type=int, default=1, help="number of Monte-Carlo runs")
    parser.add_argument("--particles", type=int, default=None,
                        help="override the scenario's particle count")
    parser.add_argument("--seed", type=int, default=0, help="base seed (per-run seeds derive from it)")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for parallel runs")
    parser.add_argument("--out-dir", default="out", help="directory for results.csv / summary.json")
    parser.add_argument("--setup", type=int, choices=(1, 2), default=None,
                        help="1: single- and double-bounce paths; 2: single-bounce only")
    parser.add_argument("--no-visibility", action="store_true",
                        help="disable ray-traced availability gating in the filter (ablation)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.exit(2, "mvaslam: error: --runs must be >= 1\n")
    if args.particles is not None and args.particles < 1:
        parser.exit(2, "mvaslam: error: --particles must be >= 1\n")
    if args.threads < 1:
        parser.exit(2, "mvaslam: error: --threads must be >= 1\n")

    try:
        if args.scenario in BUNDLED:
            config = bundled_scenario(args.scenario)
        else:
            config = load_scenario(args.scenario)
    except FileNotFoundError:
        print(f"mvaslam: error: scenario file not found: {args.scenario}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:            # a directory, unreadable, not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"mvaslam: error: cannot read scenario file {args.scenario}: {reason}",
              file=sys.stderr)
        return 1
    except MvaSlamError as exc:
        print(f"mvaslam: error: {exc}", file=sys.stderr)
        return 1

    params = config.params
    if args.particles is not None:
        params = replace(params, n_particles=args.particles)
    if args.no_visibility:
        params = replace(params, visibility_check=False)
    config = replace(config, params=params)
    if args.setup is not None:
        double = args.setup == 1
        config = replace(config, double_bounce=double,
                         params=replace(config.params, use_double_bounce=double))

    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"mvaslam: error: cannot create --out-dir: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_experiment(config, runs=args.runs, base_seed=args.seed,
                                threads=args.threads)
    except MvaSlamError as exc:
        print(f"mvaslam: error: {exc}", file=sys.stderr)
        return 1
    try:
        paths = write_outputs(args.out_dir, result)
    except OSError as exc:                                  # e.g. results.csv is a directory
        print(f"mvaslam: error: cannot write outputs to {args.out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1

    summary = result.summary
    print(f"scenario {summary['scenario']}: {summary['runs']} runs, "
          f"{summary['diverged']} diverged")
    if "time_averaged" in summary:
        ta = summary["time_averaged"]
        print(f"time-averaged agent RMSE {ta['rmse_pos']:.3f} m, "
              f"MVA MOSPA {ta['mospa_mva']:.3f} m")
    print(f"wrote {paths['csv']}, {paths['summary']}, {paths['timing']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
