"""Generalized eigendecomposition of the elliptic pencil and its diagnostics.

This module owns how a pencil becomes a spectrum: solve_generalized_eig
solves A(a) v = lambda M v for a Dirichlet-reduced pencil disc.pair(a) by
standard ARPACK Lanczos on L^-1 M L^-T, A = L L' (dense LAPACK only where
ARPACK's 2K + 1 Lanczos vectors do not fit), and strictify_spectrum groups
every spectrum by the one rule CLUSTER_TOL.  Every definite factor is a
pencil_factor, the fem.definite_factor of A - sigma M scattered straight
into its band: a banded Cholesky that exists only for a positive definite
matrix, it proves A positive definite for ARPACK's L and A - sigma M for the
two ground solves below.  solve_flow_spectrum solves only the pairs a heat
flow from a given earliest time can see, and its count of the eigenvalues
below the cut, the inertia of the indefinite A - sigma M by
fem.symmetric_factor, proves that none was skipped.  Both read the grid's
memo disc.spectra, so a pencil's solve for a K, and its cut's count, are
paid once per grid.  solve_ground_pair is the warm K=1 solve of a pencil
close to one already solved: preconditioned inverse iteration from the
known ground pair with a nearby pencil's band factor or the pencil's own
A - sigma M, whose factor certifies sigma < lambda_1, and
solve_generalized_eig as the fallback.  Every admissible pencil on the unit
square has lambda_2 >= 5 pi^2 (_GROUND_FLOOR), so an eigenvalue bound below
it proves a pair is the ground pair: a borrowed factor's pair must pass it,
and certify_ground, which proves that a pair found elsewhere (a Krylov Ritz
pair) is the ground pair, tries it before a Cholesky test.  Every pair is
checked to one relative residual bound, and each iterative solve stops
once that check can pass: ARPACK at _ARPACK_TOL, a thousandth of it,
inverse iteration at its first iterate within it.  Also here: the gap and
min-max checks, the projection-difference norm, and one perturbation sweep
a -> a + s*eta that reads the run's spectrum of a, solves each perturbed
pencil once, groups it like that spectrum, and tabulates eigenvalue shifts
(Kato) and projection differences (Davis-Kahan).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .fem import (
    AdmissibilityError,
    BandCholesky,
    CoefficientField,
    Discretization,
    OperatorPair,
    l2_norm,
    make_field,
    symmetric_factor,
)

__all__ = [
    "SpectralDecomposition",
    "FlowCutoff",
    "GapReport",
    "SandwichReport",
    "EigenPerturbationTable",
    "ProjectionPerturbationTable",
    "EigensolverError",
    "solve_generalized_eig",
    "solve_flow_spectrum",
    "solve_ground_pair",
    "certify_ground",
    "orient_ground",
    "strictify_spectrum",
    "gap_report",
    "projection_difference_norm",
    "verify_minmax_sandwich",
    "perturbation_sweep",
    "weyl_ratios",
]

# Normalization exponent 1 + n/4 of the eigenvalue-difference rows
# (n = 2 space dimensions).
RATE_EXPONENT_2D = 1.5

# Rows of perturbation_sweep: eigenvalue shifts for k <= EIGEN_SWEEP_ROWS and
# projection differences for strict clusters k <= PROJECTION_SWEEP_ROWS.
# Every pencil of the sweep is solved with _SWEEP_K eigenpairs, one more than
# the rows read: no row reads the solve's top pair, so a cut that splits a
# cluster never touches a read row (the sweep refuses a base whose last read
# cluster does not end below the cut).
EIGEN_SWEEP_ROWS = 10
PROJECTION_SWEEP_ROWS = 5
_SWEEP_K = EIGEN_SWEEP_ROWS + 1
# Smallness constant of the projection rows' gate
# ||a - a~|| <= _ETA_HAT max(l_k, l_k~)^-(1+gamma+n/4); the bound leaves it
# free, and 0.05 gates 7 of the 15 rows of the bundled verify_spectral sweep.
_ETA_HAT = 0.05

# Consecutive eigenvalues closer than this relative gap form one strict
# cluster (strictify_spectrum); every spectrum is grouped by this rule.
CLUSTER_TOL = 1e-6

_RESIDUAL_TOL = 1e-8
# ARPACK's tol: its default, machine precision, runs far past the bound every
# pair is checked to.  This leaves bump pencil residuals (K = 11, 12) of at
# most 3.2e-11 / 2.3e-11 / 4e-11 at 32^2 / 48^2 / 64^2, 250x below it, and a
# K=11 sweep pencil at 32^2 takes 50 operator applications, not 61.
_ARPACK_TOL = 1e-3 * _RESIDUAL_TOL
# Relative slack of verify_minmax_sandwich, for floating-point noise only.
_SANDWICH_SLACK = 1e-8

# Seed of the fixed ARPACK start vector, so repeated solves are identical.
_V0_SEED = 0

# solve_ground_pair shifts by this fraction of the previous ground
# eigenvalue.  With lambda_2 about 2.5 lambda_1 each inverse-iteration
# solve shrinks the error by about (1 - 0.9) / (2.5 - 0.9) ~ 1/16, while
# the shift stays below lambda_1 unless the pencil moved by 10%.
_GROUND_SHIFT = 0.9
# Safety net only: reaching it sends the solve to ARPACK, never accepts.
_GROUND_MAX_ITER = 20
# certify_ground: relative width of the interval below a candidate ground
# eigenvalue that must hold lambda_1.  The Cholesky test resolves 1e-12 on the
# bump and unit pencils at 32^2 to 128^2.
_GROUND_AGREEMENT = 1e-10
# An eigenvalue below this floor is lambda_1 (_below_floor).  Every Mesh is
# the unit square, whose second Dirichlet eigenvalue is 5 pi^2.  Conforming
# P1 with the consistent mass is a Rayleigh-Ritz method, so lambda_2 of the
# unit pencil is at least 5 pi^2 on every grid (Boffi, Acta Numerica 19,
# 2010, 8), and A(a) >= A(1) for 1 <= a (the min-max sandwich) lifts every
# admissible pencil's lambda_2 above it too.  The slack absorbs rounding and
# the admissibility tolerance; lambda_2^h(1) is 49.58 at 32^2 against 49.35.
_GROUND_FLOOR = 5.0 * np.pi ** 2 * (1.0 - _SANDWICH_SLACK)

# Entries of a grid's spectrum memo (disc.spectra), least recently used out
# first: one run's working set.  verify-spectral with a sweep reads five (a,
# unit K=20, three K=11; four for the unit a), a stability sweep three (a, a~,
# unit K=1).  An entry holds 8 K n_interior bytes, 1.3 MB for K=40 at 64^2.
SPECTRUM_MEMO_SIZE = 5

# solve_flow_spectrum starts at _FLOW_K_START pairs and doubles K up to its
# cap.  It accepts a cut whose dropped tail, against cluster 2, the heat
# flow has damped by at most FLOW_TAIL_TOL at the earliest evaluated time:
# below double-precision rounding of anything the flow still carries.
_FLOW_K_START = 12
FLOW_TAIL_TOL = 1e-16


class EigensolverError(RuntimeError):
    """Generalized eigensolver failed, did not converge, or returned poor residuals."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Leading eigenpairs of A(a) v = lambda M v on interior nodes.

    eigenvalues : (K,) ascending, multiplicities repeated.
    eigenvectors : (n_interior, K), M-orthonormal columns; the first is
        normalized to positive M-weighted mean.
    multiplicities : cluster sizes, summing to K.
    disc : the Discretization of the pencil (mass matrix and partition).

    K, hat_eigenvalues and cluster_index are derived from these.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    multiplicities: np.ndarray
    disc: Discretization

    @property
    def K(self) -> int:
        return self.eigenvalues.size

    @property
    def n_clusters(self) -> int:
        return self.multiplicities.size

    @cached_property
    def _offsets(self) -> np.ndarray:
        """(n_clusters + 1,) first column of each cluster, then K."""
        return np.concatenate([[0], np.cumsum(self.multiplicities)])

    @cached_property
    def hat_eigenvalues(self) -> np.ndarray:
        """Strictly increasing cluster values, the mean of each cluster's members."""
        o = self._offsets
        return np.array([self.eigenvalues[o[i]:o[i + 1]].mean() for i in range(self.n_clusters)])

    @cached_property
    def cluster_index(self) -> np.ndarray:
        """(K,) position of each eigenvalue's cluster."""
        return np.repeat(np.arange(self.n_clusters), self.multiplicities)

    def cluster_slice(self, k: int) -> slice:
        """Column slice of the eigenvectors belonging to strict index k (1-based)."""
        if not 1 <= k <= self.n_clusters:
            raise IndexError(f"strict index k={k} outside 1..{self.n_clusters}")
        return slice(int(self._offsets[k - 1]), int(self._offsets[k]))

    def leading(self, k: int) -> SpectralDecomposition:
        """The first k eigenpairs, clustered afresh as a K=k solve would be."""
        if not 1 <= k <= self.K:
            raise ValueError(f"requested {k} leading eigenpairs of a spectrum with K={self.K}")
        vals = self.eigenvalues[:k]
        return SpectralDecomposition(vals, self.eigenvectors[:, :k], strictify_spectrum(vals),
                                     self.disc)


@dataclass(frozen=True)
class GapReport:
    """Separation of the strict spectrum against delta * lambda^-gamma."""

    gaps: np.ndarray       # hat_lambda_{k+1} - hat_lambda_k per consecutive strict pair
    bounds: np.ndarray     # the required gap delta * hat_lambda_k^-gamma per pair
    satisfied: np.ndarray  # gaps >= bounds
    delta_max: float       # largest delta for which every pair passes
    rho: np.ndarray        # isolation radii delta / (4 lambda_k^gamma)


@dataclass(frozen=True)
class SandwichReport:
    """Per-index masks of lambda_k(1) <= lambda_k(a) <= a_plus * lambda_k(1)."""

    rel_slack: float
    lambdas: np.ndarray
    lambdas_unit: np.ndarray
    lower_ok: np.ndarray
    upper_ok: np.ndarray


def solve_generalized_eig(pair: OperatorPair, K: int) -> SpectralDecomposition:
    """Lowest K eigenpairs of the reduced pencil disc.pair(a), M-orthonormal.

    With A = L L' the definite_factor of A (pair.pencil_factor(0)), the
    pencil is congruent to the standard symmetric problem C y = mu y,
    C = L^-1 M L^-T, mu = 1/lambda (Ericsson-Ruhe, Math. Comp. 35, 1980;
    Lehoucq-Sorensen-Yang, ARPACK Users' Guide, 1998, 3.2).  ARPACK's
    standard Lanczos finds the K largest mu, each step one band solve with
    L', one product with M and one band solve with L, and x = L^-T y /
    sqrt(mu) is M-orthonormal, since y' C y = mu.  The factor proves A
    positive definite, so the K largest mu give the lowest lambda; a
    stiffness it rejects raises EigensolverError.  The start vector is
    fixed, and ARPACK stops at tol=_ARPACK_TOL, not machine precision.
    Only a pencil too small for ARPACK's default Lanczos basis of
    2K + 1 vectors takes the dense LAPACK path.  Eigenvalues are clustered
    by CLUSTER_TOL.  Memoized per pencil and K (_memo_entry), read-only.
    """
    vals, vecs, mults, _ = _memo_entry(pair, K)
    return SpectralDecomposition(vals, vecs, mults, pair.disc)


def _memo_entry(pair: OperatorPair, K: int) -> tuple:
    """pair.disc.spectra's entry of the pencil and K, solved (_solve) on a miss:
    the read-only eigenvalues, eigenvectors and multiplicities (arrays only, as
    a decomposition points back at its Discretization) and the inertia counts
    of A - sigma M by sigma that solve_flow_spectrum fills.  K and a SHA-256
    digest of the stiffness key it (M is the grid's M_II).  Each K is a solve
    of its own, whatever ran on the grid before; a failed solve leaves none."""
    A = pair.stiffness
    key = (hashlib.sha256(b"".join(v.tobytes() for v in (A.data, A.indices, A.indptr))).digest(), K)
    memo = pair.disc.spectra
    if key not in memo:
        vals, vecs = _solve(pair, K)
        memo[key] = (vals, vecs, strictify_spectrum(vals), {})
        for v in memo[key][:3]:
            v.flags.writeable = False
        if len(memo) > SPECTRUM_MEMO_SIZE:
            memo.popitem(last=False)
    memo.move_to_end(key)
    return memo[key]


def _solve(pair: OperatorPair, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of solve_generalized_eig, solved afresh."""
    n = pair.stiffness.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"requested K={K} eigenpairs from a pencil of size {n}")
    if 2 * K + 1 > n:
        try:
            vals, vecs = la.eigh(pair.stiffness.toarray(), pair.mass.toarray(),
                                 subset_by_index=(0, K - 1))
        except la.LinAlgError as exc:  # pragma: no cover - depends on LAPACK failure
            raise EigensolverError(f"generalized eigensolver failed: {exc}") from exc
    else:
        lu = pair.pencil_factor(0.0)
        if lu is None:
            raise EigensolverError(f"stiffness matrix is not positive definite (n={n})")
        mass = pair.mass
        congruent = spla.LinearOperator(
            (n, n), matvec=lambda y: lu.solve_lower(mass @ lu.solve_upper(y)), dtype=float)
        v0 = np.random.default_rng(_V0_SEED).standard_normal(n)
        try:
            mu, Y = spla.eigsh(congruent, k=K, which="LA", v0=v0, tol=_ARPACK_TOL)
        except spla.ArpackError as exc:  # ArpackNoConvergence included
            raise EigensolverError(
                f"ARPACK eigensolver failed (n={n}, K={K}): {exc}") from exc
        order = np.argsort(-mu)
        mu = mu[order]
        vals, vecs = 1.0 / mu, lu.solve_upper(Y[:, order]) / np.sqrt(mu)

    rel = _residual_of(pair.stiffness @ vecs, pair.mass @ vecs, vals)
    if not np.isfinite(vals).all() or not rel <= _RESIDUAL_TOL:
        raise EigensolverError(
            f"eigensolver residual {rel:.3e} above {_RESIDUAL_TOL:.0e} "
            f"(n={n}, K={K}); pencil may be ill-conditioned"
        )

    orient_ground(pair, vecs)
    # every other column: its largest-magnitude entry positive
    lead = np.argmax(np.abs(vecs[:, 1:]), axis=0)
    vecs[:, 1:] *= np.where(vecs[lead, np.arange(1, K)] < 0, -1.0, 1.0)
    return vals, vecs


@dataclass(frozen=True)
class FlowCutoff:
    """How solve_flow_spectrum cut the spectrum it returned.

    K : pairs returned.  K_max : the cap.  t_min : earliest flow time.
    sigma : lambda_K' (1 - CLUSTER_TOL) of the last solve, K' its size.
    kept : eigenpairs of that solve strictly below sigma.
    count : pencil eigenvalues below sigma by the inertia of A - sigma M
        (symmetric_factor), None when the factor gave no inertia.
    tail : e^{-(sigma - hat_lambda_2) t_min}, hat_lambda_2 of the kept
        pairs; inf when they hold fewer than two clusters.
    certified : count == kept and tail <= FLOW_TAIL_TOL.  The K returned
        pairs are then every eigenpair below sigma; otherwise they are the
        K_max pairs of the capped solve.
    """

    K: int
    K_max: int
    t_min: float
    sigma: float
    kept: int
    count: int | None
    tail: float
    certified: bool

    def describe(self) -> str:
        text = (f"K={self.K} of modes={self.K_max}, t_min={self.t_min:g}, sigma={self.sigma:.10g}, "
                f"count={self.count if self.count is not None else 'none'}, tail={self.tail:.3g}")
        if self.certified:
            return text
        return (text + f"; uncertified at the cap ({self.kept} solved pairs below sigma, "
                f"tail bound {FLOW_TAIL_TOL:g}), all {self.K} pairs kept")


def solve_flow_spectrum(
    pair: OperatorPair, t_min: float, K_max: int
) -> tuple[SpectralDecomposition, FlowCutoff]:
    """The eigenpairs a heat flow evaluated at times t >= t_min can see.

    The flow damps mode k by e^{-lambda_k t}, so pairs far above lambda_2
    do not change it.  solve_generalized_eig runs with K = min(
    _FLOW_K_START, K_max), doubling up to K_max.  Each solve keeps its
    pairs strictly below sigma = lambda_K (1 - CLUSTER_TOL), which drops a
    top cluster the cut may have split, and is accepted when the tail
    factor e^{-(sigma - hat_lambda_2) t_min} is at most FLOW_TAIL_TOL and
    the inertia of A - sigma M counts exactly the kept eigenvalues: then no
    eigenvalue below sigma was skipped (the missed-eigenvalue check of
    shift-invert Lanczos, Grimes-Lewis-Simon, SIMAX 15, 1994), and every
    dropped mode decays at least like e^{-sigma t}.  When K_max is reached
    without acceptance the K_max solve is returned whole and the cutoff
    says it is uncertified.  The count is kept in the solve's memo entry.
    """
    if not t_min > 0:
        raise ValueError(f"earliest flow time must be positive, got {t_min}")
    K = min(_FLOW_K_START, K_max)
    while True:
        *arrays, counts = _memo_entry(pair, K)
        spec = SpectralDecomposition(*arrays, pair.disc)
        sigma = float(spec.eigenvalues[-1]) * (1.0 - CLUSTER_TOL)
        kept = int(np.count_nonzero(spec.eigenvalues < sigma))
        lead = spec.leading(kept) if kept else None
        tail = (float(np.exp(-(sigma - lead.hat_eigenvalues[1]) * t_min))
                if lead is not None and lead.n_clusters >= 2 else float("inf"))
        # A tail above the bound rejects the cut whatever the inertia says,
        # so a solve below the cap doubles K without counting.
        if tail <= FLOW_TAIL_TOL or K >= K_max:
            if sigma not in counts:
                counts[sigma] = symmetric_factor(pair.stiffness - sigma * pair.mass)
            count = counts[sigma]
            certified = count == kept and tail <= FLOW_TAIL_TOL
            if certified or K >= K_max:
                out = lead if certified else spec
                return out, FlowCutoff(K=out.K, K_max=K_max, t_min=float(t_min), sigma=sigma,
                                       kept=kept, count=count, tail=tail, certified=certified)
        K = min(2 * K, K_max)


def _residual_of(Av: np.ndarray, Mv: np.ndarray, vals: np.ndarray) -> float:
    """Largest |A v - lambda M v| entry, relative to the largest |lambda M v| per
    column, from the products A v and M v of the columns v."""
    res = np.abs(Av - Mv * vals[None, :])
    res /= np.abs(vals) * np.max(np.abs(Mv), axis=0) + 1e-300
    return float(np.max(res))


def orient_ground(pair: OperatorPair, vecs: np.ndarray) -> None:
    """Flip the first column in place to a positive M-weighted mean."""
    if np.ones(vecs.shape[0]) @ (pair.mass @ vecs[:, 0]) < 0:
        vecs[:, 0] = -vecs[:, 0]


def _below_floor(pair: OperatorPair, v: np.ndarray, Av: np.ndarray, Mv: np.ndarray) -> bool:
    """Whether the eigenvalue next to v's Rayleigh quotient is below _GROUND_FLOOR,
    and so is lambda_1, from v and its products A v and M v.

    With v M-normalized, rho = v' A v and r = A v - rho M v, some eigenvalue
    lies within ||r||_{M^-1} of rho (Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 15), and ||r||_{M^-1} <= ||r||_2 / sqrt(d_min) with
    d_min = disc.mass_floor <= lambda_min(M_II).  No higher pair can pass,
    provided the pencil is one of a coefficient a >= 1, as every
    CoefficientField is (fem.make_field).
    """
    vMv = v @ Mv
    rho = (v @ Av) / vMv
    return rho + np.linalg.norm(Av - rho * Mv) / np.sqrt(vMv * pair.disc.mass_floor) < _GROUND_FLOOR


def _pinvit(pair: OperatorPair, lu: BandCholesky, start: np.ndarray, own: bool) -> tuple | None:
    """(v, A v, M v) of the first iterate of v <- v - B^-1 (A v - rho M v),
    B = lu's L L' and rho = v' A v, whose relative residual (_residual_of) is
    within _RESIDUAL_TOL, v M-normalized; None after _GROUND_MAX_ITER
    iterations.  With the pencil's own B = A - sigma M (own) the step is
    (rho - sigma) B^-1 M v, taken as B^-1 M v: shifted inverse iteration."""
    A, M = pair.stiffness, pair.mass
    v, Av, Mv = start, A @ start, M @ start
    lam = (v @ Av) / (v @ Mv)
    for _ in range(_GROUND_MAX_ITER):
        v = lu.solve(Mv) if own else v - lu.solve(Av - lam * Mv)
        Mv = M @ v
        norm = np.sqrt(v @ Mv)
        v, Mv = v / norm, Mv / norm
        Av = A @ v
        lam = v @ Av
        if _residual_of(Av[:, None], Mv[:, None], np.array([lam])) <= _RESIDUAL_TOL:
            return v, Av, Mv
    return None


def solve_ground_pair(
    pair: OperatorPair, start: np.ndarray, lam_prev: float, factor: BandCholesky | None = None
) -> tuple[SpectralDecomposition, bool, BandCholesky | None]:
    """Ground eigenpair of disc.pair(a), warm-started from a nearby pencil's.

    start and lam_prev are the ground vector and eigenvalue of a pencil
    close to this one.  Preconditioned inverse iteration (PINVIT,
    Knyazev-Neymeyr, LAA 358, 2003) v <- v - B^-1 (A v - rho M v) returns
    its first iterate whose relative residual is at most _RESIDUAL_TOL, the
    bound every pair of this module is checked to: the Rayleigh quotient's
    error is of the order of the residual squared.

    factor, when given, is a band factor B of a nearby pencil (the one this
    function returned for it); a pair found with it is accepted only when
    _below_floor proves it is lambda_1's.  Otherwise, or after
    _GROUND_MAX_ITER iterations, B is the pencil's own A - sigma M,
    sigma = _GROUND_SHIFT * lam_prev (pair.pencil_factor), whose Cholesky
    factor certifies sigma < lambda_1; PINVIT with it is shifted inverse
    iteration (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 4).

    Returns (spec, warm, factor): spec is a K=1 decomposition with the
    residual bound and sign rule of solve_generalized_eig; warm is False when
    the own factor failed or _GROUND_MAX_ITER was reached, and spec then
    comes from solve_generalized_eig(pair, 1); factor is the band factor the
    pair was found with, None after that fallback.
    """
    start = np.asarray(start, dtype=float)
    found = None if factor is None else _pinvit(pair, factor, start, own=False)
    if found is None or not _below_floor(pair, *found):
        factor = pair.pencil_factor(_GROUND_SHIFT * lam_prev)
        found = None if factor is None else _pinvit(pair, factor, start, own=True)
        if found is None:
            return solve_generalized_eig(pair, 1), False, None
    v, Av, _ = found
    lam = np.array([v @ Av])
    v = v[:, None]
    orient_ground(pair, v)
    return SpectralDecomposition(lam, v, np.array([1]), pair.disc), True, factor


def certify_ground(pair: OperatorPair, ground: SpectralDecomposition) -> bool:
    """Whether a K=1 pair found outside this module is the pencil's ground pair.

    The residual bound of solve_generalized_eig puts an eigenvalue next to
    the pair's lam, but every eigenpair passes it: a Krylov start vector
    with no ground component yields lambda_2 or higher.  _below_floor proves
    that eigenvalue is lambda_1 for one vector norm whenever it lies below
    _GROUND_FLOOR, as on every pencil with lambda_1 well below 5 pi^2.  Only
    a pencil the floor cannot decide (lambda_1 near or above it, a_plus
    above about 2.5) pays a Cholesky factor of A - (1 - _GROUND_AGREEMENT)
    lam M (pair.pencil_factor): it shows that no eigenvalue lies below
    (1 - _GROUND_AGREEMENT) lam, so the eigenvalue next to lam is lambda_1.
    A top Ritz value of a shift-invert Krylov space is never below
    lambda_1, so for it lambda_1 lies in ((1 - _GROUND_AGREEMENT) lam, lam].
    """
    lam, v = float(ground.eigenvalues[0]), ground.eigenvectors[:, 0]
    Av, Mv = pair.stiffness @ v, pair.mass @ v
    if not _residual_of(Av[:, None], Mv[:, None], ground.eigenvalues[:1]) <= _RESIDUAL_TOL:
        return False
    return (_below_floor(pair, v, Av, Mv)
            or pair.pencil_factor((1.0 - _GROUND_AGREEMENT) * lam) is not None)


def strictify_spectrum(eigenvalues) -> np.ndarray:
    """Strict cluster sizes of an ascending spectrum: consecutive eigenvalues
    with relative gap below CLUSTER_TOL share a cluster."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("expected a non-empty 1-d eigenvalue array")
    gaps = np.diff(lam)
    if np.any(gaps < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    cuts = np.flatnonzero(gaps >= CLUSTER_TOL * np.maximum(np.abs(lam[:-1]), 1e-300)) + 1
    return np.diff(np.concatenate([[0], cuts, [lam.size]]))


def gap_report(hat_eigenvalues, gamma: float, delta: float) -> GapReport:
    """Check hat_lambda_{k+1} - hat_lambda_k >= delta * hat_lambda_k^-gamma per pair."""
    hat = np.asarray(hat_eigenvalues, dtype=float)
    if hat.size < 2:
        raise ValueError("gap check needs at least two strict eigenvalues")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    gaps = np.diff(hat)
    bounds = delta * hat[:-1] ** (-gamma)
    satisfied = gaps >= bounds
    delta_max = float(np.min(gaps * hat[:-1] ** gamma))
    rho = delta / (4.0 * hat ** gamma)
    return GapReport(gaps=gaps, bounds=bounds, satisfied=satisfied, delta_max=delta_max, rho=rho)


def projection_difference_norm(
    spec_a: SpectralDecomposition,
    spec_b: SpectralDecomposition,
    pair: OperatorPair,
    k: int,
) -> float:
    """L2(M)-operator norm of P_k - Ptilde_k.

    With M-orthonormal cluster bases Va and Vb (M = pair.mass) the norm is
    the sine of the largest principal angle between their ranges
    (Davis-Kahan 1970; Bjorck-Golub 1973): the larger M-norm of
    R = Vb - Va (Va' M Vb) and Q = Va - Vb (Vb' M Va).  Both directions
    are needed because the cluster ranks may differ; the residuals are
    formed directly, which keeps small angles accurate where
    sqrt(1 - sigma_min^2) would cancel.
    """
    if spec_a.eigenvectors.shape[0] != spec_b.eigenvectors.shape[0]:
        raise ValueError("decompositions live on different meshes")
    M = pair.mass
    Va = spec_a.eigenvectors[:, spec_a.cluster_slice(k)]
    Vb = spec_b.eigenvectors[:, spec_b.cluster_slice(k)]
    C = Va.T @ (M @ Vb)
    R = Vb - Va @ C
    Q = Va - Vb @ C.T
    sin2 = max(la.eigvalsh(R.T @ (M @ R))[-1], la.eigvalsh(Q.T @ (M @ Q))[-1])
    return float(np.sqrt(max(sin2, 0.0)))


def verify_minmax_sandwich(
    spec_a: SpectralDecomposition,
    spec_unit: SpectralDecomposition,
    a_plus: float,
) -> SandwichReport:
    """Check the two-sided eigenvalue bound against the unit-coefficient pencil.

    Exact for the discrete pencils whenever 1 <= a <= a_plus holds
    elementwise, because the quadratic forms then nest; the relative slack
    _SANDWICH_SLACK only absorbs floating-point noise.
    """
    kmax = min(spec_a.K, spec_unit.K)
    lam, lam1 = spec_a.eigenvalues[:kmax], spec_unit.eigenvalues[:kmax]
    lower_ok = lam >= lam1 * (1.0 - _SANDWICH_SLACK)
    upper_ok = lam <= a_plus * lam1 * (1.0 + _SANDWICH_SLACK)
    return SandwichReport(rel_slack=_SANDWICH_SLACK, lambdas=lam, lambdas_unit=lam1,
                          lower_ok=lower_ok, upper_ok=upper_ok)


@dataclass(frozen=True)
class EigenPerturbationTable:
    """Rows of the eigenvalue-difference sweep; columns as in the CSV output."""

    k: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    lam_tilde: np.ndarray
    diff: np.ndarray
    l2_coeff_diff: np.ndarray
    ratio: np.ndarray


@dataclass(frozen=True)
class ProjectionPerturbationTable:
    """Rows of the projection-difference sweep with the admissibility gate."""

    k: np.ndarray
    s: np.ndarray
    l2_coeff_diff: np.ndarray
    gate_bound: np.ndarray
    in_gate: np.ndarray
    proj_norm: np.ndarray
    normalized: np.ndarray


def perturbation_sweep(
    spec: SpectralDecomposition,
    a: CoefficientField,
    eta: np.ndarray,
    scales,
    gamma: float = 0.0,
) -> tuple[EigenPerturbationTable, ProjectionPerturbationTable]:
    """Sweep a -> a + s*eta and tabulate eigenvalue and projection differences.

    spec is the decomposition of a's pencil.  Each a + s*eta is made a field
    (fem.make_field, which refuses it outside [1, a_plus]) before the first solve.  The base
    spectrum is the first _SWEEP_K pairs of spec (solved afresh only when
    spec holds fewer), each perturbed pencil is solved once with _SWEEP_K
    eigenpairs, and both tables read those spectra.

    Eigenvalue rows (k <= EIGEN_SWEEP_ROWS, repeated spectrum):
    ratio = diff / (min(lambda, lambda~)^(1 + n/4) * ||a - a~||_L2), n = 2.

    Projection rows (strict clusters k <= PROJECTION_SWEEP_ROWS) are
    "gated" when ||a - a~|| <= _ETA_HAT * max(l_k, l_k~)^-(1+gamma+n/4)
    (the smallness regime of the projection bound); normalized is
    ||P_k - P~_k|| / ((max(l_k, l_k~)^(gamma+1) + 1)^2 ||a - a~||).
    Each perturbed spectrum inherits the base multiplicity pattern, so that
    cluster k has the same rank on both sides: clustering it afresh can
    split a symmetry degeneracy (by more than CLUSTER_TOL but still tiny),
    and ||P_k - P~_k|| would then measure a rank mismatch, not the
    perturbation.  Both spectra hold _SWEEP_K pairs, so the pattern fits.
    The base must hold more than PROJECTION_SWEEP_ROWS clusters: then the
    last projection row's cluster ends below the top pair, which the cut may
    split and no row reads.
    """
    disc = spec.disc
    eta = np.asarray(eta, dtype=float)
    perturbed = []
    for s in map(float, scales):
        try:
            perturbed.append((s, make_field(disc.mesh, a.values + s * eta, a.a_plus).values))
        except AdmissibilityError as exc:
            raise AdmissibilityError(f"perturbed coefficient (s={s:g}): {exc}") from exc
    if not perturbed:
        raise ValueError("perturbation sweep needs at least one scale")
    base = (spec.leading(_SWEEP_K) if spec.K >= _SWEEP_K
            else solve_generalized_eig(disc.pair(a.values), _SWEEP_K))
    if base.n_clusters <= PROJECTION_SWEEP_ROWS:
        raise ValueError(
            f"K={_SWEEP_K} eigenpairs yield only {base.n_clusters} strict eigenvalues, "
            f"need {PROJECTION_SWEEP_ROWS + 1}"
        )
    eig_rows, proj_rows = [], []
    for s, values in perturbed:
        pair = disc.pair(values)
        pert = dataclasses.replace(solve_generalized_eig(pair, _SWEEP_K),
                                   multiplicities=base.multiplicities)
        cdiff = l2_norm(values - a.values, disc.mass)
        for k in range(EIGEN_SWEEP_ROWS):
            lam, lamt = float(base.eigenvalues[k]), float(pert.eigenvalues[k])
            diff = abs(lam - lamt)
            denom = min(lam, lamt) ** RATE_EXPONENT_2D * cdiff
            eig_rows.append((k + 1, s, lam, lamt, diff, cdiff,
                             diff / denom if denom > 0 else float("nan")))
        for k in range(1, PROJECTION_SWEEP_ROWS + 1):
            lmax = max(base.hat_eigenvalues[k - 1], pert.hat_eigenvalues[k - 1])
            gate = _ETA_HAT * lmax ** (-(1.0 + gamma + 0.5))
            pnorm = projection_difference_norm(base, pert, pair, k)
            denom = (lmax ** (gamma + 1.0) + 1.0) ** 2 * cdiff
            proj_rows.append((k, s, cdiff, gate, cdiff <= gate, pnorm,
                              pnorm / denom if denom > 0 else float("nan")))
    return (EigenPerturbationTable(*map(np.array, zip(*eig_rows))),
            ProjectionPerturbationTable(*map(np.array, zip(*proj_rows))))


def weyl_ratios(spec: SpectralDecomposition, k_lo: int, k_hi: int) -> np.ndarray:
    """lambda_k / (4 pi k) for k in [k_lo, k_hi] (1-based, repeated spectrum).

    4 pi k / |Omega| is Weyl's asymptote, with |Omega| = 1 on the unit square.
    """
    if not 1 <= k_lo <= k_hi <= spec.K:
        raise ValueError(f"range [{k_lo}, {k_hi}] outside computed 1..{spec.K}")
    ks = np.arange(k_lo, k_hi + 1)
    return spec.eigenvalues[k_lo - 1:k_hi] / (4.0 * np.pi * ks)
