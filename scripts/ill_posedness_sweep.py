#!/usr/bin/env python3
"""Sweep the snapshot time and tabulate how reconstruction degrades.

For each T in the grid this runs a noisy inversion of the bump
coefficient and records the relative error, in one CSV ready for plotting.
The stability ratio rho(T) = ||a - a~|| / ||u - u~||_H2 of the bump against
the two-bump coefficient comes from one run of the stability-sweep mode over
the same times (at least four, increasing), written under <out>/stability;
its flow-spectrum and stability-rate summary lines are printed on stdout, the
rate line with its bracket, verdict and fit_points=N.  Each run writes its
reports as it ends; a run that is refused or cannot be written ends the
script with one error: line and exit 1.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heatcoef.catalog import make_coefficient
from heatcoef.fem import grid, l2_norm
from heatcoef.mesh import read_grid
from heatcoef.runner import RunnerError, run_scenario, write_reports
from heatcoef.scenario import ConfigError, parse_config_text

CONFIG = """\
name = ill_posedness
coefficient = gaussian-bump
perturbation = two-bump
nx = {nx}
ny = {nx}
noise = {noise}
seed = {seed}
T_grid = {times}
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/ill_posedness"))
    parser.add_argument("--noise", type=float, default=1e-6,
                        help="H2-surrogate data-error level")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--nx", type=int, default=32)
    parser.add_argument("--times", default="0.15,0.3,0.6,1.2",
                        help="comma-separated snapshot times, at least four, increasing")
    args = parser.parse_args(argv)

    cfg = CONFIG.format(nx=args.nx, noise=args.noise, seed=args.seed, times=args.times)
    rows = []
    try:  # the stability run first: it refuses a time grid before any inversion
        stability = run_scenario(parse_config_text(cfg), "stability-sweep", args.out / "stability")
        write_reports(stability)
        for line in stability.summary_lines:
            if line.split()[1] in ("flow-spectrum:", "stability-rate:"):
                print(line)
        table = csv.DictReader(stability.files["stability.csv"].splitlines())
        # the truth of every inversion is the scenario's own coefficient
        s = stability.scenario
        disc = grid(s.nx, s.ny)
        a = make_coefficient(disc.mesh, s.coefficient.kind, s.coefficient.params_dict(), s.a_plus).values
        for T, r in zip(s.T_grid, table):
            run = run_scenario(parse_config_text(cfg + f"T = {T}\n"), "invert", args.out / f"T{T:g}")
            write_reports(run)
            # the runner's rel_error, at full precision, from the written a_rec
            a_rec = read_grid(run.out_dir / "a_rec.grid")[2]
            rel = l2_norm(a_rec - a, disc.mass) / l2_norm(a, disc.mass)
            rows.append((T, rel, float(r["rho"]), float(r["bracket"])))
            print(f"T={T:<6g} rel_error={rel:.6e}")
    except (ConfigError, RunnerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_path = args.out / "ill_posedness.csv"
    with csv_path.open("w", encoding="ascii") as fh:
        fh.write("T,rel_error,rho,bracket\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
