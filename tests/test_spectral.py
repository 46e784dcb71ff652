import dataclasses

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from heatcoef import spectral
from heatcoef.catalog import direction_values, initial_state, make_coefficient
from heatcoef.fem import (
    AdmissibilityError,
    BandCholesky,
    OperatorPair,
    definite_factor,
    discretize,
    make_field,
)
from heatcoef.heat import krylov_flow
from heatcoef.mesh import build_structured_mesh
from heatcoef.spectral import (
    FLOW_TAIL_TOL,
    EigensolverError,
    SpectralDecomposition,
    certify_ground,
    gap_report,
    perturbation_sweep,
    projection_difference_norm,
    solve_flow_spectrum,
    solve_generalized_eig,
    solve_ground_pair,
    strictify_spectrum,
    verify_minmax_sandwich,
    weyl_ratios,
)

PI2 = np.pi ** 2


class TestSquareOracle:
    def test_ground_eigenvalue_within_one_percent(self, unit_spec32):
        assert unit_spec32.hat_eigenvalues[0] == pytest.approx(2 * PI2, rel=0.01)
        # frozen discrete value on the 32x32 grid
        assert unit_spec32.hat_eigenvalues[0] == pytest.approx(19.78151183, abs=1e-6)

    def test_second_cluster_is_the_degenerate_pair(self, unit_spec32):
        assert unit_spec32.multiplicities[0] == 1
        assert unit_spec32.multiplicities[1] == 2
        assert unit_spec32.hat_eigenvalues[1] == pytest.approx(5 * PI2, rel=0.02)
        # the alternating-diagonal triangulation keeps the (1,2)/(2,1) pair
        # exactly degenerate, not just within cluster_tol
        lam = unit_spec32.eigenvalues
        assert abs(lam[1] - lam[2]) <= 1e-12 * lam[1]

    def test_multiplicity_pattern_k10(self, unit_spec32):
        assert list(unit_spec32.multiplicities) == [1, 2, 1, 2, 2, 2]

    def test_orthonormality_and_residuals(self, unit_spec32, unit_pair32):
        V = unit_spec32.eigenvectors
        G = V.T @ (unit_pair32.mass @ V)
        assert np.allclose(G, np.eye(V.shape[1]), atol=1e-10)
        R = unit_pair32.stiffness @ V - (unit_pair32.mass @ V) * unit_spec32.eigenvalues
        assert np.max(np.abs(R)) < 1e-8 * unit_spec32.eigenvalues[-1]

    def test_ground_mode_positive_mean(self, unit_spec32, unit_pair32):
        phi1 = unit_spec32.eigenvectors[:, 0]
        assert np.ones(phi1.size) @ (unit_pair32.mass @ phi1) > 0


class TestSparseSolver:
    """The ARPACK path against a dense LAPACK reference written here."""

    @pytest.mark.parametrize("K", [1, 40])
    @pytest.mark.parametrize("which", ["unit_pair32", "bump_pair32"])
    def test_matches_dense_reference(self, request, which, K):
        pair = request.getfixturevalue(which)
        assert 2 * K + 1 <= pair.stiffness.shape[0]  # n = 961: the sparse path runs
        spec = solve_generalized_eig(pair, K)
        # one pair past the cut tells whether the cut splits the last cluster
        vals, vecs = la.eigh(pair.stiffness.toarray(), pair.mass.toarray(),
                             subset_by_index=(0, K))
        mult = strictify_spectrum(vals[:K])
        ref = dataclasses.replace(spec, eigenvalues=vals[:K], eigenvectors=vecs[:, :K],
                                  multiplicities=mult)

        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues) / ref.eigenvalues) <= 1e-10
        V = spec.eigenvectors
        assert np.max(np.abs(V.T @ (pair.mass @ V) - np.eye(K))) <= 1e-12

        split = vals[K] - vals[K - 1] < 1e-6 * vals[K - 1]
        complete = ref.n_clusters - int(split)
        assert np.array_equal(spec.multiplicities[:complete], ref.multiplicities[:complete])
        for k in range(1, complete + 1):
            assert projection_difference_norm(spec, ref, pair, k) <= 1e-8, k

    def test_unit_cut_at_40_splits_a_degenerate_pair(self, unit_pair32):
        # lambda_40 = lambda_41 on the square, so the last cluster of a K=40
        # solve is one vector of a 2-d eigenspace for either solver; the
        # comparison above leaves it out.
        vals = la.eigh(unit_pair32.stiffness.toarray(), unit_pair32.mass.toarray(),
                       eigvals_only=True, subset_by_index=(38, 40))
        assert vals[2] - vals[1] < 1e-12 * vals[1] < vals[1] - vals[0]

    def test_arpack_failure_raises_eigensolver_error(self, mesh32, monkeypatch):
        # on a grid of its own, whose memo holds no solve; a failure is not memoized
        pair = discretize(mesh32).unit_pair
        eigsh = spla.eigsh

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                           np.empty((0, 0)))
        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(EigensolverError, match="No convergence"):
            solve_generalized_eig(pair, 1)
        assert not pair.disc.spectra
        monkeypatch.setattr(spla, "eigsh", eigsh)
        assert solve_generalized_eig(pair, 1).K == 1

    def test_nan_back_transform_raises_eigensolver_error(self, mesh32, monkeypatch):
        eigsh = spla.eigsh

        def nan_vector(*args, **kwargs):
            mu, Y = eigsh(*args, **kwargs)
            Y[0, -1] = np.nan
            return mu, Y
        monkeypatch.setattr(spla, "eigsh", nan_vector)
        with pytest.raises(EigensolverError, match="residual nan"):
            solve_generalized_eig(discretize(mesh32).unit_pair, 4)

    @pytest.mark.parametrize("nx", [32, 48])
    def test_matches_scipys_own_shift_invert(self, nx):
        # scipy's own ARPACK shift-invert (mode 3) with its internal factor of A
        # (column minimum degree, partial pivoting), against the standard mode
        # on definite_factor's band Cholesky
        mesh = build_structured_mesh(nx, nx)
        pair = discretize(mesh).pair(make_coefficient(mesh, "gaussian-bump", None, 2.0).values)
        n, K = pair.stiffness.shape[0], 40
        spec = solve_generalized_eig(pair, K)
        v0 = np.random.default_rng(spectral._V0_SEED).standard_normal(n)
        vals, vecs = spla.eigsh(pair.stiffness, k=K, M=pair.mass, sigma=0.0, v0=v0)
        order = np.argsort(vals)
        ref = dataclasses.replace(spec, eigenvalues=vals[order], eigenvectors=vecs[:, order],
                                  multiplicities=strictify_spectrum(vals[order]))

        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues) / ref.eigenvalues) <= 1e-10
        complete = ref.n_clusters - 1  # the cut may split the last cluster
        assert np.array_equal(spec.multiplicities[:complete], ref.multiplicities[:complete])
        for k in range(1, complete + 1):
            assert projection_difference_norm(spec, ref, pair, k) <= 1e-8, k

    @pytest.mark.parametrize("which", ["unit_pair32", "bump_pair32"])
    def test_each_non_ground_column_leads_with_a_positive_entry(self, request, which):
        V = solve_generalized_eig(request.getfixturevalue(which), 20).eigenvectors
        for j in range(1, 20):
            lead = int(np.argmax(np.abs(V[:, j])))
            assert V[lead, j] > 0, j

    def test_indefinite_stiffness_is_refused(self, unit_pair32):
        lam1 = solve_generalized_eig(unit_pair32, 1).eigenvalues[0]
        shifted = OperatorPair(unit_pair32.stiffness - 2.0 * lam1 * unit_pair32.mass,
                               unit_pair32.disc)
        with pytest.raises(EigensolverError, match="positive definite"):
            solve_generalized_eig(shifted, 4)

    @pytest.mark.parametrize("nx", [3, 5, 8])
    def test_small_pencils_take_arpack_wherever_it_fits(self, nx, monkeypatch):
        eigsh, calls = spla.eigsh, []

        def counted(C, **kwargs):
            # ARPACK runs on L^-1 M L^-T, L the package's own factor of A
            assert isinstance(C, spla.LinearOperator)
            assert not {"M", "sigma", "OPinv"} & kwargs.keys()
            x = np.arange(1.0, n + 1)
            expected = la.solve_triangular(L, pair.mass @ x, lower=True)
            assert np.allclose(C.matvec(L.T @ x), expected, rtol=1e-10, atol=0.0)
            calls.append(kwargs["k"])
            return eigsh(C, **kwargs)
        monkeypatch.setattr(spla, "eigsh", counted)
        mesh = build_structured_mesh(nx, nx)
        bump = make_coefficient(mesh, "gaussian-bump", None, 2.0)
        pair = discretize(mesh).pair(bump.values)
        n = pair.stiffness.shape[0]
        band = pair.pencil_factor(0.0).band  # band[i - j, j] = L[i, j]
        L = sum(np.diag(band[d, :n - d], -d) for d in range(band.shape[0]))
        ref = la.eigh(pair.stiffness.toarray(), pair.mass.toarray(), eigvals_only=True)
        ks = range(1, (n - 1) // 2 + 1)  # every K with 2K + 1 <= n
        for K in ks:
            lam = solve_generalized_eig(pair, K).eigenvalues
            assert np.max(np.abs(lam - ref[:K]) / ref[:K]) <= 1e-10, K
        assert calls == list(ks)

    def test_back_transform_is_m_orthonormal_at_48(self):
        # the 48^2 bump with K=12, the first solve of a forward flow spectrum
        mesh = build_structured_mesh(48, 48)
        pair = discretize(mesh).pair(make_coefficient(mesh, "gaussian-bump", None, 2.0).values)
        spec = solve_generalized_eig(pair, 12)
        V, lam = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(V.T @ (pair.mass @ V) - np.eye(12))) <= 1e-12
        scale = np.sqrt(np.outer(lam, lam))
        assert np.max(np.abs(V.T @ (pair.stiffness @ V) - np.diag(lam)) / scale) <= 1e-10

    def test_small_or_nearly_full_requests_stay_dense(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("eigsh called")
        monkeypatch.setattr(spla, "eigsh", unexpected)
        pair = discretize(build_structured_mesh(22, 22)).pair(1.0)  # n = 441
        spec = solve_generalized_eig(pair, 221)  # 2K + 1 > n
        assert spec.K == 221


def _gapped_solver(solve, skip: int, times: int):
    """spectral._solve that, on its first `times` calls, misses pair `skip`
    (0-based): it solves K + 1 pairs and returns the other K."""
    calls = []

    def gapped(pair, K):
        calls.append(K)
        if len(calls) > times:
            return solve(pair, K)
        vals, vecs = solve(pair, K + 1)
        keep = np.delete(np.arange(K + 1), skip)
        return vals[keep], vecs[:, keep]
    return gapped, calls


@pytest.fixture()
def cold_bump_pair32(mesh32, bump32):
    """bump_pair32 on a Discretization of its own, whose spectrum memo starts
    empty and keeps a test's patched solves to itself."""
    return discretize(mesh32).pair(bump32.values)


class TestFlowSpectrum:
    def test_bump_is_certified_by_the_first_solve(self, bump_pair32):
        spec, cut = solve_flow_spectrum(bump_pair32, 0.5, 40)
        assert (cut.certified, cut.K, cut.kept, cut.count) == (True, 11, 11, 11)
        assert cut.tail <= FLOW_TAIL_TOL and spec.K == 11
        ref = solve_generalized_eig(bump_pair32, 40)
        assert cut.sigma < ref.eigenvalues[11]  # every dropped pair lies above the cut
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues[:11]) / ref.eigenvalues[:11]) <= 1e-10
        assert np.array_equal(spec.multiplicities, ref.leading(11).multiplicities)

    def test_a_split_top_pair_is_dropped(self, unit_pair32):
        # on the square lambda_12 = lambda_13 = 20 pi^2 (to rounding): the K=12
        # solve holds one vector of that eigenspace, and the cut drops it
        spec, cut = solve_flow_spectrum(unit_pair32, 1.0, 40)
        assert (cut.certified, cut.K, cut.count) == (True, 11, 11)
        assert list(spec.multiplicities) == [1, 2, 1, 2, 2, 2, 1]

    def test_a_skipped_pair_grows_K(self, bump_pair32, cold_bump_pair32, monkeypatch):
        gapped, calls = _gapped_solver(spectral._solve, skip=3, times=1)
        monkeypatch.setattr(spectral, "_solve", gapped)
        spec, cut = solve_flow_spectrum(cold_bump_pair32, 0.5, 40)
        assert calls == [12, 24]
        assert cut.certified and cut.count == cut.kept == spec.K
        ref = solve_generalized_eig(bump_pair32, spec.K)
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues) / ref.eigenvalues) <= 1e-10

    def test_a_pair_skipped_up_to_the_cap_is_reported(self, cold_bump_pair32, monkeypatch):
        gapped, calls = _gapped_solver(spectral._solve, skip=3, times=3)
        monkeypatch.setattr(spectral, "_solve", gapped)
        spec, cut = solve_flow_spectrum(cold_bump_pair32, 0.5, 40)
        assert calls == [12, 24, 40]
        assert not cut.certified and cut.count == cut.kept + 1
        assert spec.K == cut.K == 40
        assert "uncertified at the cap" in cut.describe()

    def test_a_cap_below_the_certified_K_is_the_capped_solve(self, bump_pair32):
        spec, cut = solve_flow_spectrum(bump_pair32, 0.5, 6)  # certified K is 11 here
        ref = solve_generalized_eig(bump_pair32, 6)
        assert not cut.certified and cut.tail > FLOW_TAIL_TOL
        for attr in ("eigenvalues", "eigenvectors", "multiplicities"):
            assert np.array_equal(getattr(spec, attr), getattr(ref, attr))

    def test_one_pair_has_no_tail_bound(self, bump_pair32):
        spec, cut = solve_flow_spectrum(bump_pair32, 1.0, 1)
        assert (spec.K, cut.kept, cut.tail, cut.certified) == (1, 0, np.inf, False)

    def test_rejects_a_nonpositive_time(self, bump_pair32):
        with pytest.raises(ValueError, match="positive"):
            solve_flow_spectrum(bump_pair32, 0.0, 40)


class TestSpectrumMemo:
    """Discretization.spectra: one solve per pencil and K while its entry is held."""

    @staticmethod
    def counted(monkeypatch):
        calls, solve = [], spectral._solve

        def counted(pair, K):
            calls.append(K)
            return solve(pair, K)
        monkeypatch.setattr(spectral, "_solve", counted)
        return calls

    def test_a_repeated_solve_reads_the_memo(self, mesh16, monkeypatch):
        solves = self.counted(monkeypatch)
        disc = discretize(mesh16)
        first = solve_generalized_eig(disc.pair(1.5), 3)
        again = solve_generalized_eig(disc.pair(1.5), 3)  # another pair object, the same pencil
        assert solves == [3]
        assert again.eigenvectors is first.eigenvectors and again.disc is disc
        # each K is a solve of its own, never the leading pairs of a larger K
        assert solve_generalized_eig(disc.pair(1.5), 2).K == 2 and solves == [3, 2]

    def test_the_least_recently_used_pencil_leaves_first(self, mesh16, monkeypatch):
        solves = self.counted(monkeypatch)
        disc = discretize(mesh16)
        pairs = [disc.pair(1.0 + 0.1 * i) for i in range(spectral.SPECTRUM_MEMO_SIZE + 1)]
        for pair in pairs:
            solve_generalized_eig(pair, 1)
        assert len(solves) == len(disc.spectra) + 1 == spectral.SPECTRUM_MEMO_SIZE + 1
        solve_generalized_eig(pairs[1], 1)  # held, and now the most recent
        assert len(solves) == spectral.SPECTRUM_MEMO_SIZE + 1
        solve_generalized_eig(pairs[0], 1)  # the first pencil left the memo
        assert len(solves) == spectral.SPECTRUM_MEMO_SIZE + 2
        solve_generalized_eig(pairs[1], 1)  # still held: pairs[2] left instead
        solve_generalized_eig(pairs[2], 1)
        assert len(solves) == spectral.SPECTRUM_MEMO_SIZE + 3


class TestGroundPair:
    """The warm K=1 solve against the ARPACK one on the same pencil."""

    @staticmethod
    def bump_pencils(nx):
        # the pencil to solve, and a nearby one whose ground pair starts it
        disc = discretize(build_structured_mesh(nx, nx))
        pairs = [disc.pair(make_coefficient(disc.mesh, "gaussian-bump", {"amplitude": amp},
                                            2.0).values) for amp in (0.5, 0.499)]
        return pairs[0], solve_generalized_eig(pairs[1], 1)

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls, solve = [], spectral.solve_generalized_eig

        def counted(pair, K):
            calls.append(K)
            return solve(pair, K)
        monkeypatch.setattr(spectral, "solve_generalized_eig", counted)
        return calls

    @staticmethod
    def count_band_solves(monkeypatch):
        calls, solve = [], BandCholesky.solve

        def counted(self, b):
            calls.append(b.shape)
            return solve(self, b)
        monkeypatch.setattr(BandCholesky, "solve", counted)
        return calls

    @pytest.mark.parametrize("nx", [32, 64])
    def test_warm_start_matches_arpack(self, nx, monkeypatch):
        pair, near = self.bump_pencils(nx)
        ref = solve_generalized_eig(pair, 1)
        fallbacks = self.count_fallbacks(monkeypatch)
        # a negated start vector checks the sign rule as well
        spec, warm = solve_ground_pair(pair, -near.eigenvectors[:, 0], near.eigenvalues[0])
        assert warm and fallbacks == []
        assert spec.K == 1 and list(spec.multiplicities) == [1]
        lam, lam_ref = spec.eigenvalues[0], ref.eigenvalues[0]
        assert abs(lam - lam_ref) <= 1e-13 * lam_ref
        v = spec.eigenvectors[:, 0]
        assert 1.0 - abs(v @ (pair.mass @ ref.eigenvectors[:, 0])) <= 1e-12
        assert np.ones(v.size) @ (pair.mass @ v) > 0

    def test_shift_above_ground_fails_the_certificate(self, monkeypatch):
        pair, near = self.bump_pencils(32)
        fallbacks = self.count_fallbacks(monkeypatch)
        # sigma = 0.9 * 1.5 lambda_1 lies between lambda_1 and lambda_2
        spec, warm = solve_ground_pair(pair, near.eigenvectors[:, 0], 1.5 * near.eigenvalues[0])
        assert not warm and fallbacks == [1]
        ref = solve_generalized_eig(pair, 1)
        assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
        assert np.array_equal(spec.eigenvectors, ref.eigenvectors)

    @pytest.mark.parametrize("nx,a", [(32, 1.89), (16, 1.94)])
    def test_returns_the_first_iterate_within_the_bound(self, nx, a, monkeypatch):
        # From the Krylov ground pair of these constant pencils the first
        # iterate's residual is near 6e-14, inside _RESIDUAL_TOL, so the solve
        # returns it after one band solve.  Later iterates would move the
        # Rayleigh quotient only at rounding, where it can alternate between
        # values a few ulp apart (6 ulp at 32^2, a = 1.89, with one summation
        # order of A(a); 16^2, a = 1.94 with another).
        disc = discretize(build_structured_mesh(nx, nx))
        pair = disc.pair(a)
        near = krylov_flow(pair, initial_state(disc.mesh, "d_Omega"), 0.15).ground
        ref = solve_generalized_eig(pair, 1)
        fallbacks = self.count_fallbacks(monkeypatch)
        band_solves = self.count_band_solves(monkeypatch)
        spec, warm = solve_ground_pair(pair, near.eigenvectors[:, 0], near.eigenvalues[0])
        assert warm and fallbacks == [] and len(band_solves) == 1
        assert abs(spec.eigenvalues[0] - ref.eigenvalues[0]) <= 1e-13 * ref.eigenvalues[0]

    def test_iteration_cap_falls_back(self, monkeypatch):
        pair, near = self.bump_pencils(32)
        fallbacks = self.count_fallbacks(monkeypatch)
        # from the amplitude-0.499 pencil's pair the first iterate is still
        # outside _RESIDUAL_TOL (4 band solves reach it), so a cap of one
        # iteration ends without accepting and ARPACK solves the pencil
        monkeypatch.setattr(spectral, "_GROUND_MAX_ITER", 1)
        spec, warm = solve_ground_pair(pair, near.eigenvectors[:, 0], near.eigenvalues[0])
        assert not warm and fallbacks == [1]
        assert np.array_equal(spec.eigenvalues, solve_generalized_eig(pair, 1).eigenvalues)


class TestCertifyGround:
    """The ground certificate of a pair found outside spectral."""

    @pytest.fixture()
    def two_well(self, two_well16):
        pair, spec = two_well16
        assert spec.eigenvalues[1] < spec.eigenvalues[0] / spectral._GROUND_SHIFT
        return pair, spec

    @staticmethod
    def kth_pair(spec, k):
        return SpectralDecomposition(spec.eigenvalues[k:k + 1], spec.eigenvectors[:, k:k + 1],
                                     np.array([1]), spec.disc)

    def test_accepts_the_ground_pair_only(self, two_well):
        pair, spec = two_well
        assert certify_ground(pair, self.kth_pair(spec, 0))
        assert not certify_ground(pair, self.kth_pair(spec, 1))

    def test_second_pair_within_the_warm_shift_is_rejected(self, two_well):
        # Warm inverse iteration from (lambda_2, phi_2) keeps its shift
        # 0.9 lambda_2 below lambda_1, so its own certificate passes and it
        # stays on phi_2: it cannot tell the second pair from the ground.
        pair, spec = two_well
        second = self.kth_pair(spec, 1)
        warm_spec, warm = solve_ground_pair(pair, second.eigenvectors[:, 0],
                                            second.eigenvalues[0])
        assert warm
        assert warm_spec.eigenvalues[0] == pytest.approx(spec.eigenvalues[1], rel=1e-12)
        assert not certify_ground(pair, second)

    def test_rejects_a_large_residual(self, two_well):
        # below lambda_1 the inertia test passes; the residual bound does not
        pair, spec = two_well
        ground = self.kth_pair(spec, 0)
        low = dataclasses.replace(ground, eigenvalues=ground.eigenvalues * (1.0 - 1e-6))
        assert definite_factor(pair.stiffness - float(low.eigenvalues[0]) * pair.mass) is not None
        assert not certify_ground(pair, low)


def _clustered(spec: SpectralDecomposition, lam) -> SpectralDecomposition:
    """spec with eigenvalues lam, grouped by strictify_spectrum (eigenvectors kept)."""
    lam = np.asarray(lam, dtype=float)
    return dataclasses.replace(spec, eigenvalues=lam, multiplicities=strictify_spectrum(lam))


class TestStrictify:
    def test_no_merge_for_separated_values(self, unit_spec32):
        mult = strictify_spectrum([2.0, 5.0, 10.0])
        assert np.array_equal(mult, [1, 1, 1])
        assert np.array_equal(_clustered(unit_spec32, [2.0, 5.0, 10.0]).hat_eigenvalues,
                              [2.0, 5.0, 10.0])

    def test_merges_to_cluster_mean(self, unit_spec32):
        lam = [2.0, 2.0 + 2e-9, 5.0]
        assert np.array_equal(strictify_spectrum(lam), [2, 1])
        hat = _clustered(unit_spec32, lam).hat_eigenvalues
        assert hat[0] == pytest.approx(2.0 + 1e-9, abs=1e-15)
        assert np.all(np.diff(hat) > 0)

    def test_rejects_unsorted_and_empty(self):
        with pytest.raises(ValueError):
            strictify_spectrum([3.0, 2.0])
        with pytest.raises(ValueError):
            strictify_spectrum([])


class TestGapReport:
    def test_reference_values_gamma0(self):
        rep = gap_report([2.0, 5.0, 10.0], gamma=0.0, delta=1.0)
        assert rep.satisfied.all()
        assert rep.delta_max == pytest.approx(3.0)
        assert np.allclose(rep.rho, 0.25)

    def test_reference_values_gamma1(self):
        rep = gap_report([2.0, 5.0, 10.0], gamma=1.0, delta=6.0)
        # pair (2,5): 3 >= 6/2; pair (5,10): 5 >= 6/5
        assert rep.satisfied.all()
        assert rep.delta_max == pytest.approx(6.0)

    def test_fails_above_delta_max(self):
        rep = gap_report([2.0, 5.0, 10.0], gamma=0.0, delta=3.0 + 1e-9)
        # gaps 3 and 5 against delta: only the first pair breaks
        assert rep.satisfied.tolist() == [False, True]

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            gap_report([2.0], 0.0, 1.0)


class TestProjections:
    def test_out_of_range_cluster(self, unit_spec32):
        with pytest.raises(IndexError):
            unit_spec32.cluster_slice(unit_spec32.n_clusters + 1)

    def test_difference_norm_same_spec_is_zero(self, unit_spec32, unit_pair32):
        assert projection_difference_norm(unit_spec32, unit_spec32, unit_pair32, 1) == pytest.approx(0.0, abs=1e-12)

    def test_difference_norm_of_orthogonal_rank_one_is_one(self, unit_spec32, unit_pair32):
        # swap phi1 with phi4 (both simple clusters): orthogonal rank-1
        # projections differ by exactly 1 in operator norm
        V = unit_spec32.eigenvectors.copy()
        V[:, [0, 3]] = V[:, [3, 0]]
        swapped = dataclasses.replace(unit_spec32, eigenvectors=V)
        assert projection_difference_norm(unit_spec32, swapped, unit_pair32, 1) == pytest.approx(1.0, abs=1e-10)

    def test_difference_norm_bounded_by_one(self, mesh32, unit_spec32, unit_pair32):
        eta = direction_values(mesh32, "gaussian-bump", {"amplitude": 0.04, "width": 0.05})
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        pert = solve_generalized_eig(discretize(mesh32).pair(a.values + 0.01 * eta),
                                     unit_spec32.K)
        pert = dataclasses.replace(pert, multiplicities=unit_spec32.multiplicities)
        for k in range(1, 4):
            nrm = projection_difference_norm(unit_spec32, pert, unit_pair32, k)
            assert 0.0 <= nrm <= 1.0 + 1e-12

    def test_difference_norm_matches_dense_reference_with_unequal_ranks(
            self, mesh32, unit_spec32, unit_pair32):
        # The off-centre bump splits the square's degenerate pairs, so the
        # independently clustered perturbed spectrum has rank-1 clusters
        # where the unit spectrum has rank-2 ones.
        eta = direction_values(mesh32, "gaussian-bump", None)
        pert = solve_generalized_eig(discretize(mesh32).pair(1.0 + 0.1 * eta), unit_spec32.K)
        # dense reference: largest |eigenvalue| of S (P - P~) S^-1, S = M^(1/2)
        w, U = np.linalg.eigh(unit_pair32.mass.toarray())
        S = (U * np.sqrt(w)) @ U.T
        unequal = 0
        for k in range(1, 6):
            Qa = S @ unit_spec32.eigenvectors[:, unit_spec32.cluster_slice(k)]
            Qb = S @ pert.eigenvectors[:, pert.cluster_slice(k)]
            ref = np.max(np.abs(np.linalg.eigvalsh(Qa @ Qa.T - Qb @ Qb.T)))
            nrm = projection_difference_norm(unit_spec32, pert, unit_pair32, k)
            assert nrm == pytest.approx(ref, abs=1e-9)
            if Qa.shape[1] != Qb.shape[1]:
                unequal += 1
                assert nrm == pytest.approx(1.0, abs=1e-9)
        assert unequal > 0


class TestRegroup:
    def test_inherits_pattern_and_means(self, unit_spec32):
        pattern = np.array([3, 3, 4])
        re = dataclasses.replace(unit_spec32, multiplicities=pattern)
        assert np.array_equal(re.multiplicities, pattern)
        assert re.hat_eigenvalues[0] == pytest.approx(unit_spec32.eigenvalues[:3].mean())
        assert np.array_equal(re.cluster_index, np.repeat([0, 1, 2], [3, 3, 4]))


class TestLeading:
    @pytest.mark.parametrize("k", [1, 8, 20])
    def test_matches_a_fresh_solve(self, mesh32, bump32, spectrum, k):
        lead = spectrum(mesh32, bump32, 40).leading(k)
        fresh = spectrum(mesh32, bump32, k)
        assert lead.K == k
        assert np.array_equal(lead.multiplicities, fresh.multiplicities)
        assert np.allclose(lead.hat_eigenvalues, fresh.hat_eigenvalues, rtol=1e-10, atol=0)

    def test_reclusters_the_unit_spectrum(self, unit_pair32, unit_spec32):
        lead = solve_generalized_eig(unit_pair32, 40).leading(10)
        assert np.array_equal(lead.multiplicities, unit_spec32.multiplicities)
        assert np.allclose(lead.hat_eigenvalues, unit_spec32.hat_eigenvalues, rtol=1e-10, atol=0)

    def test_rejects_more_pairs_than_held(self, unit_spec32):
        with pytest.raises(ValueError):
            unit_spec32.leading(11)


class TestMinmaxSandwich:
    def test_unit_coefficient_equality(self, unit_spec32):
        rep = verify_minmax_sandwich(unit_spec32, unit_spec32, a_plus=2.0)
        assert rep.lower_ok.all() and rep.upper_ok.all()
        assert np.allclose(rep.lambdas, rep.lambdas_unit)

    def test_scaled_coefficient_upper_equality(self, mesh32, unit_pair32, unit_spec32):
        spec2 = solve_generalized_eig(discretize(mesh32).pair(2.0), 10)
        rep = verify_minmax_sandwich(spec2, unit_spec32, a_plus=2.0)
        assert rep.lower_ok.all() and rep.upper_ok.all()
        assert np.allclose(rep.lambdas, 2.0 * rep.lambdas_unit, rtol=1e-10)

    def test_product_coefficient_sandwich_k20(self, mesh32):
        values = 1.0 + mesh32.nodes[:, 0] * mesh32.nodes[:, 1]
        pair = discretize(mesh32).pair(values)
        unit = discretize(mesh32).pair(1.0)
        rep = verify_minmax_sandwich(
            solve_generalized_eig(pair, 20),
            solve_generalized_eig(unit, 20),
            a_plus=2.0,
        )
        assert rep.lower_ok.all() and rep.upper_ok.all(), (rep.lower_ok, rep.upper_ok)

    def test_first_violation_below_the_unit_spectrum(self, unit_spec32, bump_spec32):
        # swapped: the bump pencil (a >= 1) plays the unit one and lies above
        rep = verify_minmax_sandwich(unit_spec32, bump_spec32, a_plus=2.0)
        assert not rep.lower_ok[0] and rep.upper_ok[0]
        lam, lam_unit = unit_spec32.eigenvalues[0], bump_spec32.eigenvalues[0]
        assert (rep.lambdas[0], rep.lambdas_unit[0]) == (lam, lam_unit) and lam < lam_unit

    def test_first_violation_above_a_plus_times_the_unit_spectrum(self, unit_spec32, bump_spec32):
        rep = verify_minmax_sandwich(bump_spec32, unit_spec32, a_plus=1.0001)
        assert rep.lower_ok[0] and not rep.upper_ok[0]
        lam, lam_unit = bump_spec32.eigenvalues[0], unit_spec32.eigenvalues[0]
        assert (rep.lambdas[0], rep.lambdas_unit[0]) == (lam, lam_unit)
        assert lam > 1.0001 * lam_unit


class TestEigenPerturbation:
    def test_zero_scale_has_zero_differences(self, mesh32, spectrum):
        a = make_coefficient(mesh32, "constant", {"value": 1.5}, 2.0)
        eta = direction_values(mesh32, "affine", None)
        tab, _ = perturbation_sweep(spectrum(mesh32, a, 20), a, eta, [0.0])
        assert np.allclose(tab.diff, 0.0, atol=1e-10)

    def test_uniform_direction_scales_the_spectrum(self, mesh32, unit_pair32):
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        eta = np.ones(mesh32.n_nodes)
        tab, _ = perturbation_sweep(solve_generalized_eig(unit_pair32, 20), a, eta, [0.5])
        assert np.allclose(tab.lam_tilde, 1.5 * tab.lam, rtol=1e-12)
        assert np.all(np.isfinite(tab.ratio))

    def test_inadmissible_perturbation_raises(self, mesh32, unit_spec32):
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        with pytest.raises(AdmissibilityError):
            perturbation_sweep(unit_spec32, a, -np.ones(mesh32.n_nodes), [0.5])


class TestSweepRefusals:
    def test_names_an_inadmissible_base(self, mesh32):
        # the sweep's base is a field, and make_field refuses an inadmissible one
        with pytest.raises(AdmissibilityError) as info:
            make_field(mesh32, np.full(mesh32.n_nodes, 0.5), 2.0)
        assert str(info.value) == "coefficient value 0.5 < 1 at node 0 (x=0, y=0)"

    def test_names_the_first_inadmissible_scale(self, mesh32, unit_spec32):
        a = make_coefficient(mesh32, "constant", {"value": 1.5}, 2.0)
        with pytest.raises(AdmissibilityError) as info:
            perturbation_sweep(unit_spec32, a, -np.ones(mesh32.n_nodes), [0.1, 0.9, 1.2])
        assert str(info.value) == ("perturbed coefficient (s=0.9): "
                                   "coefficient value 0.6 < 1 at node 0 (x=0, y=0)")

    def test_refuses_too_few_strict_eigenvalues(self, mesh32, unit_spec32, monkeypatch):
        # four pairs of the square hold the clusters [1, 2, 1]
        monkeypatch.setattr(spectral, "_SWEEP_K", 4)
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        with pytest.raises(ValueError,
                           match=r"^K=4 eigenpairs yield only 3 strict eigenvalues, need 6$"):
            perturbation_sweep(unit_spec32, a, np.zeros(mesh32.n_nodes), [0.1])

    def test_refuses_a_fifth_cluster_that_reaches_the_cut(self, mesh32, unit_spec32, monkeypatch):
        # eight pairs hold the clusters [1, 2, 1, 2, 2]: the fifth ends at the
        # top pair, which a cut may split, so the projection rows cannot trust it
        monkeypatch.setattr(spectral, "_SWEEP_K", 8)
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        with pytest.raises(ValueError,
                           match=r"^K=8 eigenpairs yield only 5 strict eigenvalues, need 6$"):
            perturbation_sweep(unit_spec32, a, np.zeros(mesh32.n_nodes), [0.1])

    def test_refuses_an_empty_scale_list(self, mesh32, unit_spec32):
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        with pytest.raises(ValueError, match="^perturbation sweep needs at least one scale$"):
            perturbation_sweep(unit_spec32, a, np.zeros(mesh32.n_nodes), [])


def _assert_tables_close(got, ref):
    for tab, ref_tab in zip(got, ref):
        for f in dataclasses.fields(ref_tab):
            np.testing.assert_allclose(getattr(tab, f.name), getattr(ref_tab, f.name),
                                       rtol=1e-8, atol=0, err_msg=f.name)


class TestSweepReusesTheRunSpectrum:
    def test_matches_a_fresh_k20_base(self, mesh32, unit_pair32, unit_spec32):
        # The bundled verify-spectral sweep: unit coefficient, bump direction.
        # A K=20 or K=40 run spectrum is cut to its first 11 pairs; a K=10 one
        # makes the sweep solve its own K=11 base.
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        eta = direction_values(mesh32, "gaussian-bump", {"amplitude": 0.04})
        scales = (1e-3, 1e-2, 1e-1)
        ref = perturbation_sweep(solve_generalized_eig(unit_pair32, 20), a, eta, scales)
        for run_spec in (solve_generalized_eig(unit_pair32, 40), unit_spec32):
            _assert_tables_close(perturbation_sweep(run_spec, a, eta, scales), ref)

    @pytest.mark.parametrize("centre", [(0.3, 0.7), (0.62, 0.21), (0.8, 0.5)])
    def test_eleven_pairs_per_pencil_match_twenty(self, mesh32, unit_pair32, monkeypatch, centre):
        # No row reads past pair 10, so solving each pencil with 11 pairs
        # instead of 20 moves the tables only by ARPACK's rounding (at most
        # 5.1e-10 relative on these centres).
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        eta = direction_values(mesh32, "gaussian-bump", {
            "amplitude": 0.04, "center_x": centre[0], "center_y": centre[1]})
        run_spec = solve_generalized_eig(unit_pair32, 40)
        scales = (1e-3, 1e-2, 1e-1)
        got = perturbation_sweep(run_spec, a, eta, scales)
        monkeypatch.setattr(spectral, "_SWEEP_K", 20)
        _assert_tables_close(got, perturbation_sweep(run_spec, a, eta, scales))


class TestProjectionPerturbation:
    def test_gate_and_ranks(self, mesh32, unit_pair32):
        a = make_coefficient(mesh32, "constant", {"value": 1.0}, 2.0)
        eta = direction_values(mesh32, "gaussian-bump", {"amplitude": 0.04, "width": 0.05})
        _, tab = perturbation_sweep(solve_generalized_eig(unit_pair32, 20), a, eta,
                                    (1e-3, 1e-2, 1e-1))
        assert tab.in_gate.sum() == 7
        # inherited grouping: every row measures equal-rank projections
        assert np.all(tab.proj_norm <= 1.0 + 1e-12)
        assert np.all(tab.proj_norm[tab.in_gate] < 0.5)
        gated = tab.normalized[tab.in_gate]
        assert np.all(np.isfinite(gated) & (gated > 0))
        assert gated.max() / gated.min() < 10.0


class TestWeyl:
    def test_frozen_endpoint_ratios(self, unit_pair32):
        spec = solve_generalized_eig(unit_pair32, 40)
        r = weyl_ratios(spec, 10, 40)
        assert r[0] == pytest.approx(1.35250, abs=1e-3)
        assert r[-1] == pytest.approx(1.27619, abs=1e-3)
        assert r[-1] < r[0]  # drifting toward 1 from above
        assert r.min() > 1.0

    def test_range_validation(self, unit_spec32):
        with pytest.raises(ValueError):
            weyl_ratios(unit_spec32, 5, 50)
