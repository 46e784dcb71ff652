"""Layer scaling table: single layer calls timed at several grid sizes.

run.py runs this in the traced run, once with the BLAS thread count pinned
to nproc and once to 1 (the single-threaded baseline), and prints the rows.
Each row names the layer, the grid, the pencil size n and K.  For the
dense layers it adds the dense operand bytes 16 n^2 (two n x n float64
matrices), computed from the size, not measured.

    python3 benchmark/scaling.py --layers eig_k1,transport_ls --grids 32,48,64
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

LAYERS = ("eig_k1", "eig_k40", "assembly", "transport_ls", "proj_norm")
MIN_SECONDS = 0.3  # repeat short calls until this much time is measured
MAX_REPS = 20


def timed(fn) -> tuple[float, int]:
    """Median seconds of repeated calls, and the number of calls."""
    times: list[float] = []
    while not times or (sum(times) < MIN_SECONDS and len(times) < MAX_REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def measure(layer: str, grid: int) -> dict:
    import numpy as np
    from heatcoef import catalog
    from heatcoef.fem import apply_dirichlet, assemble_pair, make_field
    from heatcoef.inversion import build_transport_system, solve_transport_ls
    from heatcoef.mesh import build_structured_mesh
    from heatcoef.spectral import projection_difference_norm, solve_generalized_eig

    mesh = build_structured_mesh(grid, grid)
    coeff = catalog.coefficient_values(mesh, "gaussian-bump")
    pair = apply_dirichlet(assemble_pair(mesh, coeff), mesh)
    n = pair.stiffness.shape[0]
    row = {"layer": layer, "grid": grid, "n": n, "K": None, "dense_bytes_computed": None}
    if layer in ("eig_k1", "eig_k40"):
        K = 1 if layer == "eig_k1" else 40
        seconds, reps = timed(lambda: solve_generalized_eig(pair, K))
        row.update(K=K, dense_bytes_computed=16 * n * n)
    elif layer == "assembly":
        seconds, reps = timed(lambda: apply_dirichlet(assemble_pair(mesh, coeff), mesh))
    elif layer == "transport_ls":
        # A smooth interior snapshot (the unit ground mode) with its exact
        # eigenvalue: the least-squares system has the workload's sparsity.
        unit = apply_dirichlet(assemble_pair(mesh, 1.0), mesh)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        u = np.sin(np.pi * x) * np.sin(np.pi * y)
        u[mesh.boundary_node_flags] = 0.0
        ones = np.ones(mesh.n_nodes)
        system = build_transport_system(mesh, unit, u, 2 * np.pi ** 2, np.zeros(mesh.n_nodes),
                                        1e-8, ones)
        prior = make_field(mesh, ones, 2.0)
        seconds, reps = timed(lambda: solve_transport_ls(system, prior))
    elif layer == "proj_norm":
        spec = solve_generalized_eig(pair, 1)
        seconds, reps = timed(lambda: projection_difference_norm(spec, spec, pair, 1))
        row.update(K=1, dense_bytes_computed=16 * n * n)
    else:
        raise ValueError(f"unknown layer {layer!r}; choose from {LAYERS}")
    row.update(seconds=seconds, reps=reps)
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--layers", required=True, help="comma-separated subset of " + ",".join(LAYERS))
    p.add_argument("--grids", default="32,48,64", help="comma-separated cells per side")
    args = p.parse_args(argv)
    from worker import import_package

    import_package()
    rows = [measure(layer, int(grid)) for layer in args.layers.split(",")
            for grid in args.grids.split(",")]
    print("RESULT " + json.dumps({"rows": rows}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
