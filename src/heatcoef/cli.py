"""Command-line front end.

    heatcoef <mode> --config scenario.cfg --out results/

Every run setting comes from the config file; the command line names only
the file and the output directory.

Modes: forward, invert, verify-spectral, stability-sweep.  Exit code is 0
when every summary check passes, 2 when any FAIL line was emitted, and 1
on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from .runner import MODES, RunnerError, run_scenario, write_reports
from .scenario import ConfigError, parse_config

_MODE_HELP = {
    "forward": "evolve the heat flow and report decay/lower-bound diagnostics",
    "invert": "reconstruct the coefficient from a final-time snapshot",
    "verify-spectral": "check spectral bounds, gaps, and perturbation sweeps",
    "stability-sweep": "measure the stability ratio rho(T) over a time grid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcoef",
        description="forward/inverse solvers for diffusion-coefficient recovery "
                    "from one late-time snapshot on the unit square",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="mode")
    for mode in MODES:
        p = sub.add_parser(mode, help=_MODE_HELP[mode])
        p.add_argument("--config", required=True, help="scenario config file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory for CSV/grid/report files")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which this tool reserves for
        # failed checks; remap so 2 always means "a numeric check failed".
        return 0 if not exc.code else 1

    try:
        scenario = parse_config(args.config)
        artifact = run_scenario(scenario, args.mode, args.out)
        write_reports(artifact)
    except (ConfigError, RunnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in artifact.summary_lines:
        print(line)
    print(f"[{artifact.n_pass} passed, {artifact.n_fail} failed] reports in {args.out}")
    return 2 if artifact.n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
