#!/usr/bin/env python3
"""Sweep the snapshot time and tabulate how reconstruction degrades.

For each T in the grid this runs a noisy inversion of the bump
coefficient and records the relative error, then fits the exponential
growth rate of the stability ratio rho(T) = ||a - a~|| / ||u - u~||_H2
for a fixed admissible pair.  The pair's spectra follow the stability-sweep
mode: --modes caps them, and each holds only the eigenpairs the earliest
time can see (solve_flow_spectrum), with its cutoff printed on stdout.
--modes caps nothing else: the inversions solve no spectrum.
Output is one CSV ready for plotting plus a fitted-rate line on stdout
that ends with the number of grid times the fit used (fit_points=N).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from heatcoef.catalog import make_coefficient
from heatcoef.fem import grid, l2_norm
from heatcoef.inversion import stability_ratio_experiment
from heatcoef.mesh import distance_to_boundary, read_grid
from heatcoef.runner import run_scenario
from heatcoef.scenario import Scenario, parse_config_text
from heatcoef.spectral import solve_flow_spectrum

CONFIG = """\
name = ill_posedness
coefficient = gaussian-bump
nx = {nx}
ny = {nx}
noise = {noise}
seed = {seed}
T = {T}
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/ill_posedness"))
    parser.add_argument("--noise", type=float, default=1e-6,
                        help="H2-surrogate data-error level")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--nx", type=int, default=32)
    parser.add_argument("--modes", type=int, default=Scenario.modes,
                        help="cap of the stability pair's spectra; the inversions ignore it "
                             "(default: the runner's)")
    parser.add_argument("--times", default="0.15,0.3,0.6,1.2",
                        help="comma-separated snapshot times")
    args = parser.parse_args(argv)

    times = [float(t) for t in args.times.split(",")]
    if len(times) < 2 or any(t <= 0 for t in times):
        parser.error("--times needs at least two positive values")

    args.out.mkdir(parents=True, exist_ok=True)
    disc = grid(args.nx, args.nx)  # the inversions' grid
    mesh = disc.mesh
    a = make_coefficient(mesh, "gaussian-bump", None, 2.0)
    rows = []
    for T in times:
        cfg = CONFIG.format(nx=args.nx, noise=args.noise, seed=args.seed, T=T)
        out = run_scenario(parse_config_text(cfg), "invert", args.out / f"T{T:g}").out_dir
        # the runner's rel_error, at full precision, from the written a_rec
        a_rec = read_grid(out / "a_rec.grid")[2]
        rel = l2_norm(a_rec - a.values, disc.mass) / l2_norm(a.values, disc.mass)
        rows.append((T, rel))
        print(f"T={T:<6g} rel_error={rel:.6e}")

    a_tilde = make_coefficient(mesh, "two-bump", None, 2.0)
    spectra = []
    for label, c in (("a", a), ("a~", a_tilde)):
        pair = disc.pair(c.values)
        spec, cut = solve_flow_spectrum(pair, min(times), min(args.modes, pair.stiffness.shape[0]))
        print(f"flow-spectrum {label}: {cut.describe()}")
        spectra.append(spec)
    tab = stability_ratio_experiment(a, a_tilde, distance_to_boundary(mesh), times, *spectra)

    csv = args.out / "ill_posedness.csv"
    with csv.open("w", encoding="ascii") as fh:
        fh.write("T,rel_error,rho,bracket\n")
        for (T, rel), rho, bracket in zip(rows, tab.rho, tab.bracket):
            fh.write(f"{T:.17g},{rel:.17g},{rho:.17g},{bracket:.17g}\n")

    inside = tab.rate_low <= tab.fitted_rate <= tab.rate_high
    fit_points = int(np.count_nonzero(tab.rho[~tab.indistinguishable] > 0))
    print(f"fitted rho-rate: {tab.fitted_rate:.6f} "
          f"(bracket [{tab.rate_low:.4f}, {tab.rate_high:.4f}], "
          f"{'inside' if inside else 'OUTSIDE'}) fit_points={fit_points}")
    print(f"wrote {csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
