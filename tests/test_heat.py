import dataclasses
import warnings

import numpy as np
import pytest

from heatcoef import heat
from heatcoef.catalog import initial_state, make_coefficient
from heatcoef.fem import assemble_mass, discretize, l2_norm
from heatcoef.fem import nodal_gradients
from heatcoef.heat import (
    ModalFlow,
    check_u0_condition,
    evolve,
    fit_log_slope,
    krylov_flow,
)
from heatcoef.inversion import stability_ratio_experiment
from heatcoef.mesh import build_structured_mesh, distance_to_boundary
from heatcoef.spectral import (
    _RESIDUAL_TOL,
    _residual_of,
    certify_ground,
    solve_generalized_eig,
)


class TestEvolve:
    def test_single_mode_is_exact(self, unit_spec32):
        spec = unit_spec32
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        lam1 = spec.hat_eigenvalues[0]
        snap = evolve(ModalFlow(spec, phi1), 0.7)
        assert np.allclose(snap.u, np.exp(-lam1 * 0.7) * phi1, atol=1e-13)
        assert snap.truncation_bound < 1e-12

    def test_linearity(self, bump_spec32):
        spec = bump_spec32
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        phi5 = spec.disc.extend(spec.eigenvectors[:, 4])
        combined = evolve(ModalFlow(spec, phi1 + 2.0 * phi5), 0.3)
        parts = evolve(ModalFlow(spec, phi1), 0.3).u + 2.0 * evolve(ModalFlow(spec, phi5), 0.3).u
        assert np.allclose(combined.u, parts, atol=1e-12)

    def test_t0_is_projection_onto_span(self, mesh32, unit_spec32, rng):
        spec = unit_spec32
        u0 = np.zeros(mesh32.n_nodes)
        interior = ~mesh32.boundary_node_flags
        u0[interior] = rng.normal(size=interior.sum())
        flow = ModalFlow(spec, u0)
        snap = evolve(flow, 0.0)
        coeffs = spec.eigenvectors.T @ (spec.disc.mass_int @ spec.disc.restrict(u0))
        proj = spec.disc.extend(spec.eigenvectors @ coeffs)
        assert np.allclose(snap.u, proj, atol=1e-12)
        # the truncation bound at t=0 is exactly the norm of what was dropped
        M = assemble_mass(mesh32)
        tail = l2_norm(u0 - proj, M)
        assert snap.truncation_bound == pytest.approx(tail, abs=1e-12)
        later = evolve(flow, 0.3)
        assert later.truncation_bound < snap.truncation_bound

    def test_rejects_negative_time(self, unit_spec32):
        phi1 = unit_spec32.disc.extend(unit_spec32.eigenvectors[:, 0])
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(ModalFlow(unit_spec32, phi1), -0.1)

    def test_rejects_nonzero_boundary_data(self, mesh32, unit_spec32):
        with pytest.raises(ValueError, match="boundary"):
            ModalFlow(unit_spec32, np.ones(mesh32.n_nodes))

    def test_in_span_product_mode_decays_at_cluster_rate(self, mesh32, unit_spec32):
        # sin(pi x) sin(2 pi y) lies (after projection) inside the doubly
        # degenerate second cluster, so the snapshot is an exact exponential
        # at the clustered rate.
        spec = unit_spec32
        x, y = mesh32.nodes[:, 0], mesh32.nodes[:, 1]
        u0 = np.sin(np.pi * x) * np.sin(2.0 * np.pi * y)
        u0[mesh32.boundary_node_flags] = 0.0
        assert spec.multiplicities[1] == 2
        lam2 = spec.hat_eigenvalues[1]
        flow = ModalFlow(spec, u0)
        start = evolve(flow, 0.0).u
        snap = evolve(flow, 0.05)
        M = assemble_mass(mesh32)
        dev = l2_norm(snap.u - np.exp(-lam2 * 0.05) * start, M) / l2_norm(start, M)
        assert dev < 1e-12  # measured 1.399e-15


class TestDecaySlopes:
    def test_ground_mode_slope_is_lambda1(self, mesh32, unit_spec32):
        spec = unit_spec32
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        M = assemble_mass(mesh32)
        ts = np.linspace(0.5, 2.5, 6)
        flow = ModalFlow(spec, phi1)
        norms = [l2_norm(evolve(flow, t).u, M) for t in ts]
        slope = fit_log_slope(ts, norms)
        assert abs(slope + spec.hat_eigenvalues[0]) < 1e-10  # measured 7.1e-15

    def test_positive_mean_state_slope_is_lambda1(self, mesh32, bump_spec32):
        # d_Omega has positive ground-mode weight, so over a late window the
        # first mode dominates to machine precision.
        d = distance_to_boundary(mesh32)
        M = assemble_mass(mesh32)
        ts = np.linspace(1.0, 5.0, 9)
        flow = ModalFlow(bump_spec32, d)
        norms = [l2_norm(evolve(flow, t).u, M) for t in ts]
        slope = fit_log_slope(ts, norms)
        lam1 = bump_spec32.hat_eigenvalues[0]
        assert abs(slope + lam1) / lam1 < 1e-10  # measured 3.3e-16
        assert lam1 == pytest.approx(21.25552253, abs=1e-6)

    def test_fit_log_slope_edge_cases(self):
        ts = np.array([0.0, 1.0, 2.0])
        assert fit_log_slope(ts, np.exp(-3.0 * ts)) == pytest.approx(-3.0, abs=1e-12)
        assert np.isnan(fit_log_slope([1.0, 2.0], [0.0, 0.0]))
        assert np.isnan(fit_log_slope([1.0], [2.0]))


class TestCorrectionField:
    def test_ground_mode_gives_zero(self, unit_spec32):
        spec = unit_spec32
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        F = evolve(ModalFlow(spec, phi1), 1.0).F
        assert np.max(np.abs(F)) < 1e-14

    def test_nodewise_identity_with_snapshot(self, mesh32, unit_spec32):
        # F must equal du/dt + l_1 u at the same time, node for node: the
        # closed form sum_k (l_1 - l_k) e^{-l_k T} c_k phi_k, summed mode by
        # mode over the clustered rates, with the snapshot's u beside it.
        spec = unit_spec32
        d = distance_to_boundary(mesh32)
        snap = evolve(ModalFlow(spec, d), 2.0)
        coeffs = spec.eigenvectors.T @ (spec.disc.mass_int @ spec.disc.restrict(d))
        lam1 = spec.hat_eigenvalues[0]
        u = np.zeros(mesh32.n_nodes)
        recon = np.zeros(mesh32.n_nodes)
        for j, k in enumerate(spec.cluster_index):
            lam = spec.hat_eigenvalues[k]
            mode = coeffs[j] * np.exp(-lam * 2.0) * spec.disc.extend(spec.eigenvectors[:, j])
            u += mode
            recon += (lam1 - lam) * mode
        assert np.max(np.abs(snap.u - u)) < 1e-12
        assert np.max(np.abs(snap.F - recon)) < 1e-12

    def test_two_mode_closed_form(self, bump_spec32):
        # all bump clusters are simple, so u0 = phi1 + phi2 gives
        # F(T) = (l_1 - l_2) e^{-l_2 T} phi2 exactly.
        spec = bump_spec32
        assert np.all(spec.multiplicities == 1)
        phi1 = spec.disc.extend(spec.eigenvectors[:, 0])
        phi2 = spec.disc.extend(spec.eigenvectors[:, 1])
        lam1, lam2 = spec.hat_eigenvalues[:2]
        F = evolve(ModalFlow(spec, phi1 + phi2), 0.4).F
        closed = (lam1 - lam2) * np.exp(-lam2 * 0.4) * phi2
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(F - closed)) < 1e-12 * scale

    def test_fitted_decay_rate_matches_lambda2(self, mesh32, unit_spec32):
        d = distance_to_boundary(mesh32)
        ts = np.linspace(1.0, 5.0, 9)
        disc, flow = unit_spec32.disc, ModalFlow(unit_spec32, d)
        norms = [l2_norm(disc.restrict(evolve(flow, t).F), disc.mass_int) for t in ts]
        rate = fit_log_slope(ts, norms)
        lam2 = unit_spec32.hat_eigenvalues[1]
        assert lam2 == pytest.approx(49.57696526, abs=1e-6)
        assert abs(rate + lam2) / lam2 < 0.05


class TestKrylovFlow:
    def test_matches_the_spectral_flow(self, mesh32, bump32, bump_pair32, spectrum):
        spec = spectrum(mesh32, bump32, 40)
        d = distance_to_boundary(mesh32)
        M = spec.disc.mass
        flow = krylov_flow(bump_pair32, d, 0.15)
        ref = evolve(ModalFlow(spec, d), 0.15)
        u_ref, F_ref = ref.u, ref.F
        assert l2_norm(flow.u - u_ref, M) <= 1e-12 * l2_norm(u_ref, M)  # measured 4.7e-15
        assert l2_norm(flow.F - F_ref, M) <= 1e-9 * l2_norm(F_ref, M)  # measured 3.2e-14
        lam1 = solve_generalized_eig(bump_pair32, 1).eigenvalues[0]
        assert abs(flow.ground.eigenvalues[0] - lam1) <= 1e-12 * lam1  # measured 1.8e-15
        assert flow.m == 24
        assert certify_ground(bump_pair32, flow.ground)

    def test_higher_eigenvector_breaks_down_on_its_own_pair(self, bump_pair32, bump_spec32):
        # A discrete eigenvector spans an invariant space: the recurrence
        # stops after one solve, and the Ritz pair is (lambda_2, phi_2), an
        # eigenpair that passes the residual check but is not the ground.
        spec = bump_spec32
        phi2 = spec.disc.extend(spec.eigenvectors[:, 1])
        flow = krylov_flow(bump_pair32, phi2, 0.15)
        assert flow.m == 1
        assert np.all(np.isfinite(flow.u)) and np.all(np.isfinite(flow.F))
        assert flow.ground.eigenvalues[0] == pytest.approx(spec.eigenvalues[1], rel=1e-12)
        assert np.max(np.abs(flow.F)) == 0.0  # u0 is all ground Ritz component
        V = flow.ground.eigenvectors
        assert _residual_of(bump_pair32.stiffness @ V, bump_pair32.mass @ V,
                            flow.ground.eigenvalues) <= _RESIDUAL_TOL
        assert not certify_ground(bump_pair32, flow.ground)

    def test_rejects_bad_input(self, mesh32, bump_pair32):
        d = distance_to_boundary(mesh32)
        with pytest.raises(ValueError, match="positive"):
            krylov_flow(bump_pair32, d, 0.0)
        with pytest.raises(ValueError, match="boundary"):
            krylov_flow(bump_pair32, np.ones(mesh32.n_nodes), 0.15)
        with pytest.raises(ValueError, match="vanishes"):
            krylov_flow(bump_pair32, np.zeros(mesh32.n_nodes), 0.15)
        with pytest.raises(ValueError, match="positive definite"):
            krylov_flow(bump_pair32.disc.pair(-1.0), d, 0.15)


class TestFLipschitz:
    def test_identical_pair_is_refused(self, mesh32, bump32, spectrum):
        flow = ModalFlow(spectrum(mesh32, bump32, 8), distance_to_boundary(mesh32))
        with pytest.raises(ValueError, match="coincides"):
            stability_ratio_experiment(bump32, bump32, np.linspace(1, 5, 9), flow, flow)

    def test_rejects_bad_time_grid(self, mesh32, bump32, spectrum):
        flow = ModalFlow(spectrum(mesh32, bump32, 8), distance_to_boundary(mesh32))
        with pytest.raises(ValueError, match="two positive times"):
            stability_ratio_experiment(bump32, bump32, [1.0], flow, flow)
        with pytest.raises(ValueError, match="two positive times"):
            stability_ratio_experiment(bump32, bump32, [-1.0, 2.0], flow, flow)


class TestLowerBounds:
    def test_weighted_mass_sign(self, mesh32, disc32):
        d = distance_to_boundary(mesh32)
        w = check_u0_condition(disc32, d)
        assert w == pytest.approx(0.04166667, abs=1e-7)
        assert check_u0_condition(disc32, -d) == pytest.approx(-w, abs=1e-12)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_weighted_mass_of_rounding_is_zero(self, n):
        # sin(m pi x) sin(n pi y) with (m, n) != (1, 1) is odd about a midline,
        # so its sum is rounding (about 1e-18) under the bound n eps (|u0| . M d)
        disc = discretize(build_structured_mesh(n, n))
        for m, k in [(2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
            u0 = initial_state(disc.mesh, "sine-product", {"m": m, "n": k})
            assert check_u0_condition(disc, u0) == 0.0, (m, k)
        assert check_u0_condition(disc, initial_state(disc.mesh, "sine-product", None)) > 0.1
        assert check_u0_condition(disc, initial_state(disc.mesh, "d_Omega", None)) > 0.04

    def test_report_minima_frozen(self, mesh32, bump_spec32):
        d = distance_to_boundary(mesh32)
        rep = ModalFlow(bump_spec32, d).report(2.0)
        assert rep.all_positive
        assert rep.u_ratio_min == pytest.approx(0.20242208, abs=1e-7)
        assert rep.dudt_ratio_min == pytest.approx(4.30258701, abs=1e-7)
        assert rep.grad_ratio_min == pytest.approx(0.04097470, abs=1e-7)
        assert rep.grad_phi1_band_min == pytest.approx(0.46080865, abs=1e-7)
        assert rep.eig_floor_min == pytest.approx(0.09517545, abs=1e-7)
        assert bump_spec32.hat_eigenvalues[0] == pytest.approx(21.25552253, abs=1e-6)

    def test_rejects_nonpositive_weight_or_time(self, mesh32, bump_spec32):
        # a u0 without ground weight still has a flow; only the bounds refuse it
        d = distance_to_boundary(mesh32)
        flow = ModalFlow(bump_spec32, -d)
        assert flow.weight < 0
        assert np.array_equal(evolve(flow, 2.0).u, -evolve(ModalFlow(bump_spec32, d), 2.0).u)
        with pytest.raises(ValueError, match="positive"):
            flow.report(2.0)
        with pytest.raises(ValueError, match="positive"):
            flow.threshold([-1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            ModalFlow(bump_spec32, d).report(0.0)

    def test_certified_threshold(self, mesh32, bump_spec32):
        d = distance_to_boundary(mesh32)
        ground = ModalFlow(bump_spec32, d)
        assert ground.threshold([0.25, 0.5, 1.0, 2.0]) == 0.25  # every grid time passes
        assert ground.threshold([-1.0, 0.0]) is None

    @pytest.mark.parametrize("T", [20.0, 40.0])
    def test_late_times_neither_underflow_nor_divide_by_zero(self, mesh32, bump_spec32, T):
        # e^{-l1 T} ~ 1e-185 at T = 20 and underflows at T >= 36: the quotients
        # come from the flow scaled by e^{l1 T}, whose limit is c1 phi1
        d = distance_to_boundary(mesh32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ModalFlow(bump_spec32, d).report(T)
        c1 = bump_spec32.eigenvectors[:, 0] @ (bump_spec32.disc.mass_int @ d[bump_spec32.disc.interior])
        assert rep.all_positive
        assert rep.u_ratio_min == pytest.approx(c1, rel=1e-12)
        assert rep.dudt_ratio_min == pytest.approx(bump_spec32.hat_eigenvalues[0] * c1, rel=1e-12)
        assert rep.grad_ratio_min == pytest.approx(c1 ** 2, rel=1e-12)

    def test_a_nan_minimum_is_not_positive(self, mesh32, bump_spec32):
        rep = ModalFlow(bump_spec32, distance_to_boundary(mesh32)).report(2.0)
        assert rep.all_positive
        assert not dataclasses.replace(rep, grad_ratio_min=float("nan")).all_positive
        assert not dataclasses.replace(rep, u_ratio_min=float("nan")).all_positive

    def test_threshold_search_evaluates_the_ground_mode_once(self, mesh32, bump_spec32, monkeypatch):
        # u0 = 0.3 phi1 + phi2 changes sign until phi2 has decayed: the first
        # two grid times fail, the third passes
        V = bump_spec32.eigenvectors
        u0 = bump_spec32.disc.extend(0.3 * V[:, 0] + V[:, 1])
        grid = [0.02, 0.05, 0.1, 0.2]
        first = [t for t in grid
                 if ModalFlow(bump_spec32, u0).report(t).all_positive][0]
        gradients, conditions = [], []
        monkeypatch.setattr(heat, "nodal_gradients",
                            lambda mesh, w: gradients.append(1) or nodal_gradients(mesh, w))
        monkeypatch.setattr(heat, "check_u0_condition",
                            lambda disc, u: conditions.append(1) or check_u0_condition(disc, u))
        assert ModalFlow(bump_spec32, u0).threshold(grid) == first == 0.1
        assert (len(gradients), len(conditions)) == (1 + 3, 1)  # phi1 once, u at 3 times
