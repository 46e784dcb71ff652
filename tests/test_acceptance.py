"""End-to-end acceptance checks with pinned tolerances.

Each test pins the numeric contract of one advertised capability:
analytic spectrum oracle, two-sided eigenvalue bounds, perturbation
sweeps, decay-rate fits, positivity floors, reconstruction quality,
noise scaling, and bit-level determinism.  Tolerances and runtime
budgets are asserted, not logged.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from heatcoef.catalog import COEFFICIENT_KINDS, direction_values, initial_state, make_coefficient
from heatcoef.fem import discretize, grid, nodal_gradients
from heatcoef.heat import ModalFlow, evolve, fit_log_slope, krylov_flow, l2_norm
from heatcoef.fem import assemble_mass
from heatcoef.inversion import stability_ratio_experiment
from heatcoef.mesh import boundary_band, build_structured_mesh, distance_to_boundary
from heatcoef.runner import run_scenario, write_reports
from heatcoef.scenario import parse_config, parse_config_text
from heatcoef.spectral import (
    perturbation_sweep,
    solve_generalized_eig,
    verify_minmax_sandwich,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_unit_square_spectrum_matches_analytic_oracle():
    start = time.monotonic()
    mesh = build_structured_mesh(32, 32)
    unit = make_coefficient(mesh, "constant", {"value": 1.0}, 2.0)
    spec = solve_generalized_eig(discretize(mesh).pair(unit.values), 10)
    lam1_exact = 2.0 * np.pi ** 2
    lam2_exact = 5.0 * np.pi ** 2
    assert abs(spec.eigenvalues[0] - lam1_exact) <= 0.01 * lam1_exact
    assert abs(spec.eigenvalues[1] - lam2_exact) <= 0.02 * lam2_exact
    assert abs(spec.eigenvalues[2] - lam2_exact) <= 0.02 * lam2_exact
    # the degenerate pair is detected as one cluster of size two
    assert spec.multiplicities[1] == 2
    assert time.monotonic() - start < 30.0


def test_unit_square_converges_at_second_order():
    # P1 eigenvalues and the M-norm error of the flow both converge like h^2;
    # the observed order log2(e_h / e_{h/2}) is pinned on 8^2 -> 16^2 -> 32^2
    # against pi^2 (2, 5, 5, 8) and e^{-2 pi^2 T} times the interpolant of
    # sin(pi x) sin(pi y)
    T = 0.15
    lam_exact = np.pi ** 2 * np.array([2.0, 5.0, 5.0, 8.0])
    lam_err, flow_err = [], []
    for nx in (8, 16, 32):
        mesh = build_structured_mesh(nx, nx)
        pair = discretize(mesh).pair(1.0)
        spec = solve_generalized_eig(pair, 4)
        lam_err.append(np.abs(spec.eigenvalues[:4] - lam_exact) / lam_exact)
        u0 = initial_state(mesh, "sine-product")
        exact = np.exp(-2.0 * np.pi ** 2 * T) * u0
        flow = krylov_flow(pair, u0, T).u
        flow_err.append(l2_norm(flow - exact, pair.disc.mass) / l2_norm(exact, pair.disc.mass))
    lam_order = np.log2(np.divide(lam_err[:-1], lam_err[1:]))
    flow_order = np.log2(np.divide(flow_err[:-1], flow_err[1:]))
    assert np.all((1.9 <= lam_order) & (lam_order <= 2.1))  # measured 2.002-2.023
    assert np.all((1.9 <= flow_order) & (flow_order <= 2.1))  # measured 1.955, 1.989


def test_bundled_bump_ground_eigenvalue_converges_at_second_order():
    # no closed form: the self-convergence order log2((l_16 - l_32) / (l_32 - l_64))
    # of the bundled bump's lambda_1 (measured 21.393566, 21.255523, 21.221078;
    # Richardson limit 21.2096)
    lam = []
    for n in (16, 32, 64):
        disc = grid(n, n)
        a = make_coefficient(disc.mesh, "gaussian-bump", None, 2.0)
        lam.append(float(solve_generalized_eig(disc.pair(a.values), 1).eigenvalues[0]))
    order = np.log2((lam[0] - lam[1]) / (lam[1] - lam[2]))
    assert 1.9 <= order <= 2.1  # measured 2.003


def test_eigenvalues_sandwiched_by_unit_pencil_for_every_catalog_coefficient():
    start = time.monotonic()
    mesh = build_structured_mesh(32, 32)
    unit = make_coefficient(mesh, "constant", {"value": 1.0}, 2.0)
    spec_unit = solve_generalized_eig(discretize(mesh).pair(unit.values), 20)
    for kind in sorted(COEFFICIENT_KINDS):
        a = make_coefficient(mesh, kind, None, 2.0)
        spec_a = solve_generalized_eig(discretize(mesh).pair(a.values), 20)
        report = verify_minmax_sandwich(spec_a, spec_unit, 2.0)
        bad = np.flatnonzero(~(report.lower_ok & report.upper_ok))
        assert bad.size == 0, f"{kind}: first violation at k={bad[0] + 1}"
    assert time.monotonic() - start < 60.0


def test_eigenvalue_shift_ratio_uniform_across_perturbation_sweep():
    start = time.monotonic()
    mesh = build_structured_mesh(32, 32)
    unit = make_coefficient(mesh, "constant", {"value": 1.0}, 2.0)
    eta = direction_values(mesh, "gaussian-bump", {"amplitude": 0.04})
    spec = solve_generalized_eig(discretize(mesh).pair(unit.values), 20)
    table, _ = perturbation_sweep(spec, unit, eta, (1e-3, 1e-2, 1e-1))
    assert np.all(np.isfinite(table.ratio) & (table.ratio > 0))
    assert table.ratio.max() / table.ratio.min() <= 50.0  # measured 2.30
    assert time.monotonic() - start < 120.0


def test_projection_difference_normalized_within_one_order_of_magnitude():
    mesh = build_structured_mesh(32, 32)
    unit = make_coefficient(mesh, "constant", {"value": 1.0}, 2.0)
    eta = direction_values(mesh, "gaussian-bump", {"amplitude": 0.04})
    spec = solve_generalized_eig(discretize(mesh).pair(unit.values), 20)
    _, table = perturbation_sweep(spec, unit, eta, (1e-3, 1e-2, 1e-1), gamma=0.0)
    assert table.in_gate.sum() >= 2  # the gate must actually select a regime
    gated = table.normalized[table.in_gate]
    assert np.all(np.isfinite(gated) & (gated > 0))
    assert gated.max() / gated.min() <= 10.0  # measured 6.44


def test_correction_field_decay_and_lipschitz_slopes():
    mesh = build_structured_mesh(32, 32)
    bump = make_coefficient(mesh, "gaussian-bump", None, 2.0)
    two = make_coefficient(mesh, "two-bump", None, 2.0)
    d = distance_to_boundary(mesh)
    grid = np.linspace(1.0, 5.0, 9)
    spec = solve_generalized_eig(discretize(mesh).pair(bump.values), 40)
    lam2 = spec.hat_eigenvalues[1]
    flow = ModalFlow(spec, d)
    norms = [l2_norm(spec.disc.restrict(evolve(flow, t).F), spec.disc.mass_int) for t in grid]
    assert abs(fit_log_slope(grid, norms) + lam2) <= 0.05 * lam2  # measured 0.49%

    spec_two = solve_generalized_eig(discretize(mesh).pair(two.values), 40)
    tab = stability_ratio_experiment(bump, two, grid, flow, ModalFlow(spec_two, d))
    assert abs(tab.F_slope + tab.beta2) <= 0.05 * tab.beta2  # measured 0.44%


def test_snapshot_norm_decays_at_ground_rate(mesh32, bump_spec32):
    # positive-weight start: fitted slope within 2% of the ground eigenvalue
    d = distance_to_boundary(mesh32)
    M = assemble_mass(mesh32)
    grid = np.linspace(1.0, 5.0, 9)
    flow = ModalFlow(bump_spec32, d)
    norms = [l2_norm(evolve(flow, t).u, M) for t in grid]
    slope = fit_log_slope(grid, norms)
    lam1 = bump_spec32.hat_eigenvalues[0]
    assert abs(slope + lam1) <= 0.02 * lam1

    # pure ground mode: exact
    phi1 = bump_spec32.disc.extend(bump_spec32.eigenvectors[:, 0])
    flow1 = ModalFlow(bump_spec32, phi1)
    norms1 = [l2_norm(evolve(flow1, t).u, M) for t in grid]
    slope1 = fit_log_slope(grid, norms1)
    assert abs(slope1 + lam1) <= 1e-6  # measured 1.5e-13


def test_ground_mode_lower_bound_quotients_all_positive(mesh32, bump_spec32):
    d = distance_to_boundary(mesh32)
    report = ModalFlow(bump_spec32, d).report(2.0)
    assert report.all_positive
    assert report.u_ratio_min > 0.0
    assert report.dudt_ratio_min > 0.0
    assert report.grad_ratio_min > 0.0
    assert report.grad_phi1_band_min > 0.0
    assert report.eig_floor_min > 0.0


def test_band_gradient_floor_stable_under_mesh_refinement():
    # The Hopf-type floor C0 = min over the 0.1-band of |grad phi1| must
    # settle to within +-20% between successive refinements.  On the
    # square the Dirichlet ground mode behaves like r^2 sin(2 theta) at
    # each right-angle corner (locally phi1 ~ c x y; Grisvard 1985), so
    # |grad phi1| vanishes linearly there and the minimum over the whole
    # band is attained at a corner node and tends to 0 like h.  Two assertions
    # follow from one K=1 solve per grid:
    #   1. the floor over band nodes at distance >= rho = 0.25 from every
    #      corner settles: measured 4.570 / 4.428 / 4.467 (4.445 at 24^2,
    #      4.513 at 40^2).  rho is physical, not a number of grid spacings:
    #      next to the excluded disc |grad phi1| ~ c r, so the floor sits on
    #      the first node past rho and jitters by O(h / rho);
    #   2. the corner gap is first order: the raw band minimum over h
    #      settles, measured 0.918 / 0.461 / 0.307 raw, i.e.
    #      10.387 / 10.427 / 10.434 times h.
    rho = 0.25
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    floors, corner_scaled = [], []
    for n in (16, 32, 48):
        mesh = build_structured_mesh(n, n)
        a = make_coefficient(mesh, "gaussian-bump", None, 2.0)
        spec = solve_generalized_eig(discretize(mesh).pair(a.values), 1)
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        g = nodal_gradients(mesh, phi1)
        grad_norm = np.sqrt(np.einsum("nd,nd->n", g, g))
        mask = boundary_band(mesh, 0.1)
        corner_dist = np.min(
            np.linalg.norm(mesh.nodes[:, None, :] - corners[None, :, :], axis=2), axis=1)
        floors.append(float(np.min(grad_norm[mask & (corner_dist >= rho)])))
        corner_scaled.append(float(np.min(grad_norm[mask])) / mesh.h)
    assert all(c > 0.0 for c in floors)
    for prev, curr in zip(floors, floors[1:]):
        assert abs(curr - prev) <= 0.2 * prev, (
            f"band gradient floor away from the corners moved "
            f"{abs(curr - prev) / prev:.1%} between refinements: {floors}")
    for prev, curr in zip(corner_scaled, corner_scaled[1:]):
        assert abs(curr - prev) <= 0.2 * prev, (
            f"band gradient minimum / h moved {abs(curr - prev) / prev:.1%} "
            f"between refinements: {corner_scaled}")


def test_noiseless_reconstruction_quality(tmp_path):
    start = time.monotonic()
    bump = parse_config(SCENARIO_DIR / "bump_invert.cfg")
    art = run_scenario(bump, "invert", tmp_path / "bump")
    assert art.all_pass
    conv = next(l for l in art.summary_lines if "fixed-point-converged" in l)
    iters = int(re.search(r"after (\d+) iteration", conv).group(1))
    assert conv.startswith("PASS") and iters <= 50
    err_line = next(l for l in art.summary_lines if "reconstruction-error" in l)
    rel = float(re.search(r"measured=([0-9.e+-]+)", err_line).group(1))
    assert rel <= 0.02  # measured 8.41e-7 after 5 outer steps

    const = parse_config(SCENARIO_DIR / "constant_invert.cfg")
    art_c = run_scenario(const, "invert", tmp_path / "const")
    conv_c = next(l for l in art_c.summary_lines if "fixed-point-converged" in l)
    assert int(re.search(r"after (\d+) iteration", conv_c).group(1)) <= 2
    err_c = next(l for l in art_c.summary_lines if "reconstruction-error" in l)
    assert float(re.search(r"measured=([0-9.e+-]+)", err_c).group(1)) <= 1e-6
    assert time.monotonic() - start < 120.0


@pytest.mark.parametrize("amplitude,cx,cy", [(0.512, 0.3007, 0.3893), (0.5, 0.6, 0.7)])
def test_admissible_bump_stall_reproducers_converge(tmp_path, amplitude, cx, cy):
    # admissible bumps of benchmark/NOTES.md known defect 2, which once
    # stalled above TOL_FP
    text = (f"name = stall\ncoefficient = gaussian-bump\ncoefficient.amplitude = {amplitude}\n"
            f"coefficient.center_x = {cx}\ncoefficient.center_y = {cy}\n"
            "nx = 32\nny = 32\nT = 0.15\n")
    art = run_scenario(parse_config_text(text), "invert", tmp_path)
    conv = next(l for l in art.summary_lines if "fixed-point-converged" in l)
    assert conv.startswith("PASS"), conv  # measured 5 steps, final step 2.1e-9 / 2.2e-9
    assert art.all_pass, art.summary_lines


def test_bump_reconstruction_on_64_grid(tmp_path):
    start = time.monotonic()
    art = run_scenario(parse_config(SCENARIO_DIR / "bump_invert64.cfg"), "invert", tmp_path)
    assert art.all_pass, art.summary_lines
    err_line = next(l for l in art.summary_lines if "reconstruction-error" in l)
    rel = float(re.search(r"measured=([0-9.e+-]+)", err_line).group(1))
    assert rel <= 0.02  # measured 9.90e-7 after 6 outer steps
    assert time.monotonic() - start < 60.0  # measured 3.0 s (2 cores)


NOISY_INVERT = """\
name = ladder
coefficient = gaussian-bump
nx = 32
ny = 32
noise = 1e-6
seed = 1234
T = {T}
"""


def test_noise_floor_grows_with_snapshot_time(tmp_path):
    ladder_T = (0.15, 0.3, 0.6, 1.2)
    errors = []
    for T in ladder_T:
        s = parse_config_text(NOISY_INVERT.format(T=T))
        art = run_scenario(s, "invert", tmp_path / f"T{T}")
        line = next(l for l in art.summary_lines if "reconstruction-error" in l)
        errors.append(float(re.search(r"rel_error=([0-9.e+-]+)", line).group(1)))
    assert all(b >= a for a, b in zip(errors, errors[1:])), errors

    mesh = build_structured_mesh(32, 32)
    bump = make_coefficient(mesh, "gaussian-bump", None, 2.0)
    two = make_coefficient(mesh, "two-bump", None, 2.0)
    d = distance_to_boundary(mesh)
    spec, spec_two = (solve_generalized_eig(discretize(mesh).pair(c.values), 8)
                      for c in (bump, two))
    tab = stability_ratio_experiment(bump, two, ladder_T, ModalFlow(spec, d), ModalFlow(spec_two, d))
    assert tab.rate_low <= tab.fitted_rate <= tab.rate_high  # measured 20.13 in [17.00, 47.48]
    assert tab.rate_low == pytest.approx(0.8 * tab.lambda1, abs=1e-12)
    assert tab.rate_high == pytest.approx(1.2 * tab.a_plus * tab.lambda1_unit, abs=1e-12)


@pytest.mark.parametrize("cfg,mode", [
    ("bump_invert.cfg", "invert"),
    ("stability_sweep.cfg", "stability-sweep"),
])
def test_repeated_runs_are_byte_identical(tmp_path, cfg, mode):
    scenario = parse_config(SCENARIO_DIR / cfg)
    first = run_scenario(scenario, mode, tmp_path / "a")
    write_reports(first)
    second = run_scenario(scenario, mode, tmp_path / "b")
    write_reports(second)
    assert first.files == second.files  # the texts, name for name
    assert list(first.files) == list(second.files)
    for name in [*first.files, "summary.txt", "manifest.txt"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
