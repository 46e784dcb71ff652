#!/usr/bin/env python3
"""Run every bundled scenario in its natural mode and collect the reports.

Writes per-scenario artifact directories under --out and prints one
status line per scenario.  Exits 2 if any summary check failed, 0
otherwise, mirroring the CLI convention.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heatcoef.runner import RunnerError, run_scenario, write_reports
from heatcoef.scenario import ConfigError, parse_config

SCENARIO_MODES = {
    "forward_decay": "forward",
    "bump_invert": "invert",
    "bump_invert64": "invert",
    "constant_invert": "invert",
    "verify_spectral": "verify-spectral",
    "stability_sweep": "stability-sweep",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", default=Path(__file__).resolve().parents[1] / "scenarios",
                        type=Path, help="directory holding the .cfg files")
    parser.add_argument("--out", default=Path("results"), type=Path,
                        help="root output directory (one subdirectory per scenario)")
    args = parser.parse_args(argv)

    any_fail = False
    for cfg in sorted(args.scenarios.glob("*.cfg")):
        mode = SCENARIO_MODES.get(cfg.stem)
        if mode is None:
            print(f"{cfg.stem}: no registered mode, skipping", file=sys.stderr)
            continue
        start = time.monotonic()
        try:
            scenario = parse_config(cfg)
            artifact = run_scenario(scenario, mode, args.out / cfg.stem)
            write_reports(artifact)
        except (ConfigError, RunnerError, OSError) as exc:  # what the CLI catches
            print(f"{cfg.stem}: error: {exc}", file=sys.stderr)
            return 1
        status = "ok" if artifact.all_pass else "FAILED CHECKS"
        any_fail |= not artifact.all_pass
        print(f"{cfg.stem:>16} [{mode}] {status}: {artifact.n_pass} passed, "
              f"{artifact.n_fail} failed ({time.monotonic() - start:.3f}s) "
              f"-> {args.out / cfg.stem}")
        for line in artifact.summary_lines:
            if line.startswith("FAIL"):
                print(f"                 {line}")
    return 2 if any_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
