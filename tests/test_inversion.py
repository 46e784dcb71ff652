import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from heatcoef import inversion, spectral

from heatcoef.catalog import direction_values, make_coefficient
from heatcoef.fem import (
    BandCholesky,
    Discretization,
    OperatorPair,
    assemble_mass,
    assemble_stiffness,
    compute_norms,
    definite_factor,
    l2_norm,
    make_field,
)
from heatcoef.heat import ModalFlow, evolve
from heatcoef.inversion import (
    TransportSolveError,
    _normal_solve,
    _next_closure_point,
    admissible_projection,
    build_transport_system,
    fixed_point_invert,
    gradient_bound,
    solve_transport_ls,
    stability_ratio_experiment,
    transport_rhs,
)
from heatcoef.mesh import distance_to_boundary
from heatcoef.runner import RunnerError, run_scenario
from heatcoef.scenario import parse_config, parse_config_text


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _count_calls(monkeypatch, *names, counts=lambda *args: True, module=inversion):
    """Wrap each named function of module (inversion by default); the
    returned dict tallies the calls whose positional arguments satisfy
    counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += counts(*args)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.fixture(scope="module")
def bump_snapshot(mesh32, bump32, bump_spec32):
    """Forward data (u_T, lam1, F) for the bump coefficient at T=0.15."""
    d = distance_to_boundary(mesh32)
    T = 0.15
    snap = evolve(ModalFlow(bump_spec32, d), T)
    return d, T, snap.u, float(bump_spec32.hat_eigenvalues[0]), snap.F


class TestTransportOperator:
    def test_factorization_is_exact_for_any_coefficient(self, mesh32, disc32, bump_snapshot, rng):
        # G a must reproduce -(A(a) u_T) on interior rows without any
        # quadrature error, because the coefficient enters elementwise as
        # the vertex average.
        _, _, u_T, _, _ = bump_snapshot
        G = disc32.transport_operator(u_T)
        a = 1.0 + 0.4 * rng.random(mesh32.n_nodes)
        lhs = G @ a
        rhs = -(assemble_stiffness(mesh32, a) @ u_T)[~mesh32.boundary_node_flags]
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_manufactured_data_residual(self, mesh32, bump32, unit_pair32, bump_snapshot):
        # with the exact eigenvalue and correction field, the true
        # coefficient solves the transport system to rounding.
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        residual = np.linalg.norm(system.G @ bump32.values - system.rhs)
        assert residual < 1e-13  # measured 2.94e-15

    def test_rejects_a_unit_pair_of_another_mesh(self, mesh16, unit_pair32):
        zero = np.zeros(mesh16.n_nodes)
        with pytest.raises(ValueError, match="^unit_pair was built on a different mesh$"):
            build_transport_system(mesh16, unit_pair32, zero, 0.0, zero, 1e-8, zero)

    def test_zero_snapshot_returns_prior(self, mesh32, disc32, unit_pair32, bump32):
        zero = np.zeros(mesh32.n_nodes)
        system = build_transport_system(
            mesh32, unit_pair32, zero, 20.0, zero, 1e-8, bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        sol = solve_transport_ls(system, prior)
        assert np.allclose(sol, prior.values, atol=1e-12)

    def test_huge_alpha_pulls_to_prior(self, mesh32, disc32, unit_pair32, bump32, bump_snapshot):
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e6, bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        sol = solve_transport_ls(system, prior)
        M = assemble_mass(mesh32)
        assert l2_norm(sol - prior.values, M) < 1e-5

    def test_single_solve_error_tracks_alpha(self, mesh32, disc32, bump32, unit_pair32, bump_snapshot):
        # one regularized solve with exact data recovers the coefficient
        # down to the regularization floor.
        _, _, u_T, lam1, F = bump_snapshot
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        M = assemble_mass(mesh32)
        den = l2_norm(bump32.values, M)
        bounds = {1e-6: 2e-6, 1e-8: 2e-8, 1e-10: 2e-10, 1e-12: 1e-11}
        errs = []
        for alpha, bound in bounds.items():
            system = build_transport_system(
                mesh32, unit_pair32, u_T, lam1, F, alpha, bump32.values)
            sol = solve_transport_ls(system, prior)
            err = l2_norm(sol - bump32.values, M) / den
            errs.append(err)
            assert err < bound  # measured 7.9e-7 / 9.2e-9 / 9.2e-11 / 1.9e-12
        assert np.all(np.diff(errs) < 0)

    def test_factored_solve_matches_normal_equations(self, mesh32, disc32, bump32, unit_pair32,
                                                     bump_snapshot):
        # reference: the normal equations assembled in full here, with their
        # boundary lift, and solved by a Cholesky factor of the H_II formed
        # here; so the system built once must equal them
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        G, R, I, B = system.G, disc32.unit_stiffness, disc32.interior, disc32.boundary
        H = (G.T @ G + system.alpha * R).tocsr()
        b = G.T @ system.rhs + system.alpha * (R @ prior.values)
        ref = bump32.values.copy()
        ref[I] = definite_factor(H[I][:, I]).solve(b[I] - H[I][:, B] @ bump32.values[B])
        sol = solve_transport_ls(system, prior)
        assert np.max(np.abs(sol - ref)) <= 1e-12

    def test_factored_solve_forward_error(self, mesh32, disc32, bump32, unit_pair32,
                                          bump_snapshot):
        # reference: the solve refined three times with its own factor against
        # the residual of H_II formed here.  H_II at alpha = 1e-8 has condition
        # number about 6.0e5 at 32^2, so a backward-stable solve may be off by
        # about cond * eps = 1.3e-10 relative; the bound leaves room above that
        # (at 64^2 the same error measures 1.8e-9).
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        G, R, I = system.G, disc32.unit_stiffness, disc32.interior
        H_II = (G.T @ G + system.alpha * R).tocsr()[I][:, I]
        b = (G.T @ system.rhs + system.alpha * (R @ prior.values))[I] - system.boundary_lift
        sol = solve_transport_ls(system, prior)[I]
        ref = sol.copy()
        for _ in range(3):
            ref += system.factor.solve(b - H_II @ ref)
        err = np.max(np.abs(sol - ref)) / np.max(np.abs(ref))
        assert err <= 1e-9  # measured 1.3e-11

    def test_factored_solve_lands_on_the_refined_solution(self, mesh32, disc32, bump32,
                                                          unit_pair32, bump_snapshot):
        # reference: an independent pivoted LU solve of the H_II formed here,
        # refined five times against its residual.  The entries are at most
        # 1.5, so the bound is absolute; the pivoted LU solve itself lands
        # 7.0e-11 from the reference.
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        G, R, I = system.G, disc32.unit_stiffness, disc32.interior
        H_II = (G.T @ G + system.alpha * R).tocsr()[I][:, I]
        b = (G.T @ system.rhs + system.alpha * (R @ prior.values))[I] - system.boundary_lift
        lu = spla.splu(H_II.tocsc())
        ref = lu.solve(b)
        for _ in range(5):
            ref += lu.solve(b - H_II @ ref)
        sol = solve_transport_ls(system, prior)[I]
        assert np.max(np.abs(sol - ref)) <= 1e-11  # measured 2.2e-12

    def test_replacing_rhs_equals_rebuilding(self, mesh32, disc32, bump32, unit_pair32,
                                             bump_snapshot):
        _, _, u_T, lam1, F = bump_snapshot
        base = build_transport_system(mesh32, unit_pair32, u_T, 0.0, np.zeros_like(F), 1e-8,
                                      bump32.values)
        swapped = dataclasses.replace(base, rhs=transport_rhs(disc32, u_T, lam1, F))
        rebuilt = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        assert np.array_equal(swapped.rhs, rebuilt.rhs)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        assert np.array_equal(solve_transport_ls(swapped, prior),
                              solve_transport_ls(rebuilt, prior))


class TestTransportSolveError:
    def test_a_singular_factor_names_the_diagonal_ratio(self, mesh32, unit_pair32, bump32,
                                                        bump_snapshot, monkeypatch):
        _, _, u_T, lam1, F = bump_snapshot
        monkeypatch.setattr(inversion, "definite_factor", lambda C: None)
        with pytest.raises(TransportSolveError,
                           match=r"^singular normal matrix in transport solve "
                                 r"\(diagonal ratio \d\.\d{3}e[+-]\d+\)$"):
            build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)

    def test_a_non_finite_solve_names_the_pivot_ratio(self, mesh32, unit_pair32, bump32,
                                                      bump_snapshot):
        _, _, u_T, lam1, F = bump_snapshot
        system = build_transport_system(mesh32, unit_pair32, u_T, lam1, F, 1e-8, bump32.values)
        nan_factor = SimpleNamespace(solve=lambda b: np.full_like(b, np.nan),
                                     band=system.factor.band)
        with pytest.raises(TransportSolveError,
                           match=r"^singular normal matrix in transport solve "
                                 r"\(pivot ratio \d\.\d{3}e[+-]\d+\)$"):
            _normal_solve(dataclasses.replace(system, factor=nan_factor), system.rhs)

    def test_invert_surfaces_it_as_a_runner_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(inversion, "definite_factor", lambda C: None)
        scenario = parse_config_text("name = inv16\nnx = 16\nny = 16\n"
                                     "coefficient = gaussian-bump\nT = 0.15\n")
        with pytest.raises(RunnerError,
                           match=r"^scenario 'inv16', mode invert: singular normal matrix "
                                 r"in transport solve \(diagonal ratio "):
            run_scenario(scenario, "invert", tmp_path)


class TestAdmissibleProjection:
    def test_idempotent_on_admissible_field(self, disc32, bump32):
        proj, capped = admissible_projection(disc32, bump32.values, bump32.values, 2.0)
        assert not capped
        assert np.allclose(proj.values, bump32.values, atol=1e-15)

    def test_clamps_and_reimposes_trace(self, mesh32, disc32, bump32):
        wild = np.full(mesh32.n_nodes, 5.0)
        wild[0] = -3.0
        proj, _ = admissible_projection(disc32, wild, bump32.values, 2.0)
        assert proj.values.min() >= 1.0
        assert proj.values.max() <= 2.0
        b = mesh32.boundary_node_flags
        assert np.allclose(proj.values[b], bump32.values[b], atol=1e-15)

    def test_flags_unsmoothable_gradient(self, mesh32, disc32, bump32, rng):
        rough = 1.0 + 0.4 * rng.random(mesh32.n_nodes)
        proj, capped = admissible_projection(disc32, rough, bump32.values, 2.0)
        assert capped
        assert gradient_bound(mesh32, proj.values) > 2.0


class TestClosurePoint:
    def test_picard_with_one_sample(self):
        assert _next_closure_point([(20.0, 1.5)], 20.0) == pytest.approx(21.5)

    def test_secant_lands_on_linear_root(self):
        phi = lambda x: -0.7 * (x - 19.25)
        samples = [(x, phi(x)) for x in (20.0, 21.0)]
        assert _next_closure_point(samples, 20.0) == pytest.approx(19.25, abs=1e-12)

    def test_secant_uses_the_last_two_samples(self):
        # the first sample is the best one, but only the last two enter
        phi = lambda x: -0.5 * (x - 19.0)
        samples = [(19.1, 0.05), (21.0, phi(21.0)), (22.0, phi(22.0))]
        assert _next_closure_point(samples, 20.0) == pytest.approx(19.0, abs=1e-12)

    def test_duplicate_returns_none(self):
        assert _next_closure_point([(20.0, 0.0)], 20.0) is None

    def test_wild_extrapolation_falls_back_to_picard(self):
        # a nearly flat phi puts the secant root at 100, outside the trust
        # region around 20: the last sample, not the best, takes a Picard step.
        phi = lambda x: (100.0 - x) / 1000.0
        samples = [(x, phi(x)) for x in (22.0, 20.0)]
        assert _next_closure_point(samples, 20.0) == pytest.approx(20.0 + phi(20.0))

    @pytest.mark.parametrize("samples", [
        [(20.0, 0.5), (21.0, 0.5)],  # equal phi: no secant
        [(20.0, 19.0), (21.0, 19.5)],  # secant point at -18
    ])
    def test_unusable_secant_falls_back_to_picard(self, samples):
        x1, phi1 = samples[-1]
        assert _next_closure_point(samples, 20.0) == pytest.approx(x1 + phi1)

    def test_nonpositive_target_returns_none(self):
        assert _next_closure_point([(1.0, -2.0)], 1.0) is None


class TestFixedPointInvert:
    def test_recovers_bump_from_clean_snapshot(self, disc32, bump32, bump_snapshot):
        d, T, u_T, _, _ = bump_snapshot
        rep = fixed_point_invert(disc32, d, u_T, bump32.values, 2.0, T)
        assert rep.converged
        assert rep.iterations <= 8  # measured 5
        rel_error = (l2_norm(rep.a_rec.values - bump32.values, disc32.mass)
                     / l2_norm(bump32.values, disc32.mass))
        assert rel_error < 1e-5  # measured 8.41e-7
        assert rep.lambda1_trace[-1] == pytest.approx(21.25552253, abs=1e-4)
        assert rep.residual_trace[-1] <= inversion.TOL_FP

    def test_constant_coefficient_in_one_step(self, mesh32, disc32, unit_spec32):
        d = distance_to_boundary(mesh32)
        unit = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        u_T = evolve(ModalFlow(unit_spec32, d), 2.0).u
        rep = fixed_point_invert(disc32, d, u_T, unit.values, 2.0, 2.0)
        assert rep.converged
        assert rep.iterations <= 2  # measured 1
        rel_error = (l2_norm(rep.a_rec.values - unit.values, disc32.mass)
                     / l2_norm(unit.values, disc32.mass))
        assert rel_error < 1e-6  # measured 1.16e-12

    def test_transport_system_built_once_per_inversion(self, disc32, bump32, bump_snapshot,
                                                       monkeypatch):
        operators = _count_calls(monkeypatch, "transport_operator", module=Discretization)
        calls = _count_calls(monkeypatch, "_normal_solve")
        d, T, u_T, _, _ = bump_snapshot
        rep = fixed_point_invert(disc32, d, u_T, bump32.values, 2.0, T)
        assert operators["transport_operator"] == 1
        # one back-substitution per outer step and one for the candidate's
        # slope in the eigenvalue, however many closure evaluations there are
        assert calls["_normal_solve"] == rep.transport_solves == rep.iterations + 1
        assert rep.closure_solves > rep.transport_solves  # measured 26 against 6

    def test_reads_only_the_boundary_entries_of_a0(self, disc32, bump32, bump_snapshot,
                                                   monkeypatch):
        # the runner passes the trace alone, NaN at every interior node, as
        # a0: the NaNs must not reach the reconstruction
        monkeypatch.setattr(inversion, "_MAX_ITER", 3)
        d, T, u_T, _, _ = bump_snapshot
        blind = bump32.values.copy()
        blind[disc32.interior] = np.nan
        ref, rep = (fixed_point_invert(disc32, d, u_T, a0, 2.0, T)
                    for a0 in (bump32.values, blind))
        assert rep.iterations == ref.iterations > 0
        assert np.array_equal(rep.a_rec.values, ref.a_rec.values)
        assert np.array_equal(rep.residual_trace, ref.residual_trace)

    def test_closure_stops_when_no_new_point_is_offered(self, disc32, bump32, bump_snapshot,
                                                         monkeypatch):
        monkeypatch.setattr(inversion, "_next_closure_point", lambda samples, lam_raw: None)
        monkeypatch.setattr(inversion, "_MAX_ITER", 3)
        d, T, u_T, _, _ = bump_snapshot
        rep = fixed_point_invert(disc32, d, u_T, bump32.values, 2.0, T)
        assert rep.iterations > 0
        assert rep.closure_solves == rep.iterations  # one evaluation per outer step

    def test_affine_candidate_matches_direct_solves(self, mesh32, disc32, bump32, unit_pair32,
                                                    bump_snapshot):
        # raw(x) = raw_0 - x d against a back-substitution at each x; the
        # bound is test_factored_solve_forward_error's
        _, _, u_T, lam1, F = bump_snapshot
        base = build_transport_system(mesh32, unit_pair32, u_T, 0.0, np.zeros_like(F), 1e-8,
                                      bump32.values)
        prior, _ = admissible_projection(disc32, np.ones(mesh32.n_nodes), bump32.values, 2.0)
        solve = lambda x: solve_transport_ls(
            dataclasses.replace(base, rhs=transport_rhs(disc32, u_T, x, F)), prior)
        raw0, d = solve(0.0), inversion._eigenvalue_direction(base, u_T)
        assert np.all(d[disc32.boundary] == 0.0)
        for x in (0.9 * lam1, lam1, 1.1 * lam1):
            direct = solve(x)
            err = np.max(np.abs(raw0 - x * d - direct)) / np.max(np.abs(direct))
            assert err <= 1e-9, x  # measured 6.4e-12, 2.2e-11, 4.8e-11

    def test_bundled_bump_closure_eigensolves(self, tmp_path, monkeypatch):
        # which band solves and band factors run inside solve_ground_pair,
        # and which factors inside certify_ground
        inside, band_solves, factors = [None], [], []
        solve, factor = BandCholesky.solve, OperatorPair.pencil_factor

        def marked(name):
            inner = getattr(inversion, name)

            def call(*args):
                inside[0] = name
                try:
                    return inner(*args)
                finally:
                    inside[0] = None
            monkeypatch.setattr(inversion, name, call)

        def solve_marked(self, b):
            band_solves.append(inside[0] == "solve_ground_pair")
            return solve(self, b)

        def factor_marked(self, sigma):
            factors.append(inside[0])
            return factor(self, sigma)
        marked("solve_ground_pair")
        marked("certify_ground")
        monkeypatch.setattr(BandCholesky, "solve", solve_marked)
        monkeypatch.setattr(OperatorPair, "pencil_factor", factor_marked)
        calls = _count_calls(monkeypatch, "solve_ground_pair")
        # the ground solver's fallback is spectral's own K=1 binding
        arpack = _count_calls(monkeypatch, "solve_generalized_eig",
                              counts=lambda pair, K: K == 1, module=spectral)
        art = run_scenario(parse_config(SCENARIO_DIR / "bump_invert.cfg"), "invert", tmp_path)
        assert art.all_pass
        n = calls["solve_ground_pair"]
        assert n == 26  # one per closure evaluation
        # one band factor per outer step: the later evaluations borrow the
        # first one's, and the floor proves every pair (no refusal); the
        # outer steps' Krylov pairs are proved by the floor too
        assert factors.count("solve_ground_pair") == 5
        assert factors.count("certify_ground") == 0
        # each warm solve returns at its first iterate within the residual
        # bound: 64 inverse-iteration solves with 26 factors, 67 with 5
        assert sum(band_solves) == 67
        assert arpack["solve_generalized_eig"] == 0
        assert f"INFO closure-eigensolves: warm={n} fallback=0" in art.summary_lines
        assert "INFO transport-solves: 6" in art.summary_lines  # 5 outer steps and d
        # every outer step certified its Krylov ground pair
        assert "INFO outer-step-flow: krylov=5 fallback=0" in art.summary_lines
        rows = art.files["residuals.csv"].splitlines()
        assert rows[0] == "iter,step_l2,lambda1,krylov_m"
        assert [int(row.split(",")[3]) for row in rows[1:]] == [24] * 5

    def test_uncertified_outer_step_falls_back(self, bump_pair32, bump_spec32, monkeypatch):
        # u0 = phi_2 has no ground component, so its Krylov space is
        # invariant after one solve and its Ritz pair is (lambda_2, phi_2):
        # the certificate rejects it, and the step takes lambda_1 from a K=1
        # solve and moves the Krylov F to it.
        calls = _count_calls(monkeypatch, "solve_generalized_eig", "evolve")
        phi2 = bump_spec32.disc.extend(bump_spec32.eigenvectors[:, 1])
        ground, F, m = inversion._outer_step(bump_pair32, phi2, 0.15)
        assert calls == {"solve_generalized_eig": 1, "evolve": 0}
        assert m == 0
        assert ground.K == 1
        assert ground.eigenvalues[0] == pytest.approx(bump_spec32.eigenvalues[0], rel=1e-12)
        # the spectral F of the K=8 spectrum, (lambda_1 - lambda_2) e^{-lambda_2 T} phi_2
        ref = evolve(ModalFlow(bump_spec32, phi2), 0.15).F
        M = bump_spec32.disc.mass
        assert l2_norm(F - ref, M) <= 1e-12 * l2_norm(ref, M)  # measured 7.6e-15

    def test_iteration_cap_flags_stall(self, disc32, bump32, bump_snapshot, monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_ITER", 1)
        monkeypatch.setattr(inversion, "TOL_FP", 1e-14)
        d, T, u_T, _, _ = bump_snapshot
        rep = fixed_point_invert(disc32, d, u_T, bump32.values, 2.0, T)
        assert not rep.converged
        assert rep.iterations == 1

    def test_stall_reports_the_kept_iterate(self, mesh16, spectrum, monkeypatch):
        # A growing step is rejected and the previous iterate kept, so the
        # report must match a run capped just before that step, bit for bit.
        monkeypatch.setattr(inversion, "TOL_FP", 1e-300)
        bump = make_coefficient(mesh16, "gaussian-bump", None, 2.0)
        spec = spectrum(mesh16, bump, 40)
        d = distance_to_boundary(mesh16)
        u_T = evolve(ModalFlow(spec, d), 0.15).u
        stalled = fixed_point_invert(spec.disc, d, u_T, bump.values, 2.0, 0.15)
        assert not stalled.converged
        assert stalled.iterations < inversion._MAX_ITER  # measured 10
        assert stalled.residual_trace[-1] > stalled.residual_trace[-2]
        monkeypatch.setattr(inversion, "_MAX_ITER", stalled.iterations - 1)
        capped = fixed_point_invert(spec.disc, d, u_T, bump.values, 2.0, 0.15)
        assert np.array_equal(capped.a_rec.values, stalled.a_rec.values)
        assert capped.data_residual == stalled.data_residual

    def test_rejects_sign_indefinite_initial_state(self, disc32, bump32, bump_snapshot):
        d, T, u_T, _, _ = bump_snapshot
        with pytest.raises(ValueError, match="int u0"):
            fixed_point_invert(disc32, -d, u_T, bump32.values, 2.0, T)


class TestStabilityExperiment:
    def test_close_pair_rate_and_bracket(self, mesh32, bump32, spectrum):
        other = make_coefficient(mesh32, "gaussian-bump", {"amplitude": 0.45}, 2.0)
        d = distance_to_boundary(mesh32)
        tab = stability_ratio_experiment(bump32, other, [0.15, 0.3, 0.6, 1.2],
                                         ModalFlow(spectrum(mesh32, bump32, 8), d),
                                         ModalFlow(spectrum(mesh32, other, 8), d))
        assert not tab.indistinguishable.any()
        assert np.all(np.diff(tab.rho) > 0)  # conditioning degrades with T
        assert tab.fitted_rate == pytest.approx(19.434238, abs=1e-4)
        lo = 0.8 * tab.lambda1
        hi = 1.2 * tab.a_plus * tab.lambda1_unit
        assert lo <= tab.fitted_rate <= hi
        assert tab.lambda1 == pytest.approx(21.255523, abs=1e-5)
        assert tab.lambda1_unit == pytest.approx(19.781512, abs=1e-5)

    def test_close_pair_lipschitz_slope_matches_beta2(self, mesh32, bump32, spectrum):
        other = make_coefficient(mesh32, "gaussian-bump", {"amplitude": 0.45}, 2.0)
        d = distance_to_boundary(mesh32)
        ts = np.linspace(1.0, 5.0, 9)
        tab = stability_ratio_experiment(bump32, other, ts,
                                         ModalFlow(spectrum(mesh32, bump32, 40), d),
                                         ModalFlow(spectrum(mesh32, other, 40), d))
        assert tab.coeff_diff == pytest.approx(0.01524830, abs=1e-7)
        assert np.all(np.diff(tab.F_ratio) < 0)
        assert abs(tab.F_slope + tab.beta2) / tab.beta2 < 0.05  # measured 2.26e-4

    def test_one_pass_matches_reference_loop(self, mesh16, spectrum):
        bump = make_coefficient(mesh16, "gaussian-bump", None, 2.0)
        two = make_coefficient(mesh16, "two-bump", None, 2.0)
        spec, spec_t = spectrum(mesh16, bump, 8), spectrum(mesh16, two, 8)
        d = distance_to_boundary(mesh16)
        ts = np.array([0.15, 0.3, 0.6, 1.2])
        flow, flow_t = ModalFlow(spec, d), ModalFlow(spec_t, d)
        tab = stability_ratio_experiment(bump, two, ts, flow, flow_t)

        disc = spec.disc
        cdiff = l2_norm(bump.values - two.values, disc.mass)
        l2d, h2d, fdiff = np.empty(4), np.empty(4), np.empty(4)
        for i, t in enumerate(ts):
            snap, snap_t = evolve(flow, t), evolve(flow_t, t)
            norms = compute_norms(snap.u - snap_t.u, disc)
            l2d[i], h2d[i] = norms.l2, norms.h2_surrogate
            fdiff[i] = l2_norm(disc.restrict(snap.F - snap_t.F), disc.mass_int)
        assert not tab.indistinguishable.any()
        assert tab.coeff_diff == cdiff
        for got, want in ((tab.T, ts), (tab.l2_udiff, l2d), (tab.h2_udiff, h2d),
                          (tab.rho, cdiff / h2d), (tab.F_diff, fdiff), (tab.F_ratio, fdiff / cdiff)):
            assert np.array_equal(got, want)

    def test_unit_ground_matches_arpack(self, mesh32, bump32, spectrum):
        # l_1(1) is the grid's memoized unit spectrum; a cold ARPACK solve of
        # the unit pencil must give the same eigenvalue
        other = make_coefficient(mesh32, "gaussian-bump", {"amplitude": 0.45}, 2.0)
        d = distance_to_boundary(mesh32)
        spec = spectrum(mesh32, bump32, 8)
        tab = stability_ratio_experiment(bump32, other, [0.15, 0.3], ModalFlow(spec, d),
                                         ModalFlow(spectrum(mesh32, other, 8), d))
        cold = spectral.solve_generalized_eig(spec.disc.unit_pair, 1).eigenvalues[0]
        assert tab.lambda1_unit == pytest.approx(cold, rel=1e-12, abs=0.0)

    def test_indistinguishable_is_relative_to_the_snapshots(self, mesh32, bump32, spectrum):
        # a~ = a + 1e-13 eta differs from a by rounding at every T; the
        # bundled pair at T = 3 differs by 1e-29 in norm, but by a fraction
        # of the snapshots themselves, which are as small.
        d = distance_to_boundary(mesh32)
        ts = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        eta = direction_values(mesh32, "gaussian-bump")
        near = make_field(mesh32, bump32.values + 1e-13 * eta, bump32.a_plus)
        tab = stability_ratio_experiment(bump32, near, ts, ModalFlow(spectrum(mesh32, bump32, 8), d),
                                         ModalFlow(spectrum(mesh32, near, 8), d))
        assert tab.indistinguishable.all()
        assert np.isnan(tab.rho).all()

        bump, two = (make_coefficient(mesh32, kind, None, 2.0) for kind in ("gaussian-bump", "two-bump"))
        tab = stability_ratio_experiment(bump, two, ts, ModalFlow(spectrum(mesh32, bump, 8), d),
                                         ModalFlow(spectrum(mesh32, two, 8), d))
        assert tab.l2_udiff[-1] < 1e-14
        assert not tab.indistinguishable[-1]

    def test_identical_pair_is_refused(self, mesh32, bump32, spectrum):
        flow = ModalFlow(spectrum(mesh32, bump32, 8), distance_to_boundary(mesh32))
        with pytest.raises(ValueError, match="coincides"):
            stability_ratio_experiment(bump32, bump32, np.linspace(1, 5, 9), flow, flow)

    def test_rejects_bad_grid(self, mesh32, bump32, spectrum):
        flow = ModalFlow(spectrum(mesh32, bump32, 4), distance_to_boundary(mesh32))
        with pytest.raises(ValueError, match="two positive times"):
            stability_ratio_experiment(bump32, bump32, [1.0], flow, flow)
