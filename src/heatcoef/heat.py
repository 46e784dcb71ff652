"""Spectral heat flow, the first-mode correction field, and decay diagnostics.

A ModalFlow expands u0 once in the eigenbasis of one spectrum, and every
reading of that pair comes from the one expansion.  evolve(flow, t) forms
the strictly ordered flow u(t) = sum_k e^{-l_k t} P_k u0 over the computed
clusters, and its correction field

    F(a; x, T) = d_t u(x, T) + l_1 u(x, T)

removes the ground-mode rate from the snapshot; by construction it has no
cluster-1 content and decays like e^{-l_2 T}.  (Expanded in the eigenbasis
its tail coefficients are (l_1 - l_k) e^{-l_k T}, k >= 2.)  The flow also
holds u0's weight per cluster and int u0 d_Omega, and reads the
lower-bound quotients u(T) / (e^{-l_1 T} phi1) at one time (report) or
finds the first grid time at which all are positive (threshold).

krylov_flow computes u(T), F and the ground Ritz pair of one pencil
without an eigenbasis, from a shift-invert Krylov space of u0; the
inversion's outer steps use it.

No diagnostic here takes a mesh: each reads the mesh and matrices from
the Discretization it is given, or from its spectrum's.  The
coefficient-Lipschitz table of F is measured together with the stability
ratios, in one pass over two flows, by inversion.stability_ratio_experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la

from .fem import Discretization, OperatorPair, l2_norm, nodal_gradients, require_zero_boundary
from .mesh import boundary_band, distance_to_boundary
from .spectral import SpectralDecomposition, orient_ground

__all__ = [
    "HeatSnapshot",
    "LowerBoundReport",
    "ModalFlow",
    "evolve",
    "KrylovFlow",
    "krylov_flow",
    "fit_log_slope",
    "check_u0_condition",
]


@dataclass(frozen=True)
class HeatSnapshot:
    """State of the spectral heat flow at one time.

    u and F are full nodal fields (zero on the boundary): the snapshot and
    its correction field d_t u + l_1 u, both from the flow's projection of u0.
    The truncation bound is e^{-l_K t}, l_K the top computed cluster, times
    the L2 norm of the part of u0 outside the computed span.  It bounds the
    dropped tail when no eigenvalue below l_K was skipped, which the
    inertia count of spectral.solve_flow_spectrum certifies for the
    spectra of the forward and stability-sweep runs.
    """

    u: np.ndarray
    F: np.ndarray
    truncation_bound: float


# krylov_flow grows its space from _KRYLOV_START vectors by _KRYLOV_STEP
# until F moves by at most _KRYLOV_TOL relative between two sizes.
_KRYLOV_START = 16
_KRYLOV_STEP = 4
_KRYLOV_TOL = 1e-10
# A new Lanczos vector whose M-norm is at most this fraction of its
# solve's is rounding: the space is invariant (happy breakdown).
_BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class KrylovFlow:
    """u(T), F and the ground Ritz pair from one Krylov space of u0.

    u and F are full nodal fields; ground is a K=1 decomposition of the top
    Ritz pair, oriented by the sign rule of solve_generalized_eig but not
    certified (spectral.certify_ground does that); m is the dimension of
    the Krylov space.
    """

    u: np.ndarray
    F: np.ndarray
    ground: SpectralDecomposition
    m: int


def krylov_flow(pair: OperatorPair, u0, T: float) -> KrylovFlow:
    """Heat flow and correction field of u0 from a shift-invert Krylov space.

    M-orthonormal Lanczos on A^-1 M from the interior part of u0, with full
    re-orthogonalisation and one banded Cholesky factor of A,
    pair.pencil_factor(0), which also proves A positive definite, the same
    factor whose two triangular halves ARPACK's standard operator applies
    in spectral.solve_generalized_eig.  The first pass of each
    re-orthogonalisation is a column of the projected matrix
    H = V' M A^-1 M V, so H costs no extra solve.
    With H = Q diag(theta) Q' the Ritz values are 1/theta, and a function f
    of L = M^-1 A acts on u0 as ||u0||_M V Q f(1/theta) Q' e_1: f = e^{-lT}
    for u(T) and (l_1 - l) e^{-lT} for F, with l_1 the top Ritz value, so F
    has no ground Ritz component (shift-invert rational Krylov
    approximation of the matrix exponential: Hochbruck-Lubich, SINUM 34,
    1997; van den Eshof-Hochbruck, SISC 27, 2006).  The space grows from
    _KRYLOV_START vectors by _KRYLOV_STEP until ||F_{m+step} - F_m||_M is at
    most _KRYLOV_TOL ||F||_M, and stops early on a happy breakdown, where
    the space is invariant and the flow exact; it cannot exceed the pencil
    size.  V, M V and H are filled in place, in Fortran order, with room for
    twice the space; a space that outgrows it moves into twice its size.
    """
    if T <= 0:
        raise ValueError(f"snapshot time must be positive, got {T}")
    disc = pair.disc
    u0 = np.asarray(u0, dtype=float)
    w = disc.restrict(u0)
    require_zero_boundary(u0, disc.boundary, "initial state must vanish on boundary nodes")
    M, n = pair.mass, w.size
    Mw = M @ w
    beta0 = float(np.sqrt(w @ Mw))
    if not beta0 > 0:
        raise ValueError("initial state vanishes on the interior nodes")
    lu = pair.pencil_factor(0.0)
    if lu is None:
        raise ValueError("stiffness matrix is not positive definite")

    V, MV, H = np.empty((n, 0)), np.empty((n, 0)), np.empty((0, 0))
    v, Mv = w / beta0, Mw / beta0
    prev, m, size = None, 0, _KRYLOV_START
    while True:
        m0, m = m, min(size, n)
        if m > H.shape[0]:  # room for twice the space, filled in place from here
            cap = min(2 * m, n)
            room = [np.empty(shape, order="F") for shape in ((n, cap), (n, cap), (cap, cap))]
            room[0][:, :m0], room[1][:, :m0], room[2][:m0, :m0] = V[:, :m0], MV[:, :m0], H[:m0, :m0]
            V, MV, H = room
        invariant = False
        for j in range(m0, m):
            V[:, j], MV[:, j] = v, Mv
            x = lu.solve(Mv)
            h = MV[:, :j + 1].T @ x
            H[:j + 1, j] = H[j, :j + 1] = h
            r = x - V[:, :j + 1] @ h
            r -= V[:, :j + 1] @ (MV[:, :j + 1].T @ r)
            Mr = M @ r
            beta = float(np.sqrt(max(r @ Mr, 0.0)))
            if beta <= _BREAKDOWN_TOL * np.linalg.norm(h):
                m, invariant = j + 1, True
                break
            v, Mv = r / beta, Mr / beta
        theta, Q = la.eigh(H[:m, :m], check_finite=False)
        lam = 1.0 / theta  # Ritz values, descending; lam[-1] is the ground
        damp = np.exp(-lam * T)
        gain = (lam[-1] - lam) * damp
        gain[-1] = 0.0
        coef_F = Q @ (gain * Q[0])
        if invariant or m == n or (prev is not None and np.hypot(  # prev padded with zeros
                np.linalg.norm(coef_F[:prev.size] - prev), np.linalg.norm(coef_F[prev.size:]))
                <= _KRYLOV_TOL * np.linalg.norm(coef_F)):
            break
        prev = coef_F
        size = m + _KRYLOV_STEP

    u = V[:, :m] @ (beta0 * (Q @ (damp * Q[0])))
    F = V[:, :m] @ (beta0 * coef_F)
    vecs = V[:, :m] @ Q[:, -1:]
    orient_ground(pair, vecs)
    ground = SpectralDecomposition(lam[-1:], vecs, np.array([1]), disc)
    return KrylovFlow(u=disc.extend(u), F=disc.extend(F), ground=ground, m=m)


def fit_log_slope(ts, values) -> float:
    """Least-squares slope of log(values) against ts; nan if under two positive points."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0
    if mask.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(ts[mask], np.log(values[mask]), 1)
    return float(slope)


@dataclass(frozen=True)
class LowerBoundReport:
    """Minima of the ground-mode comparison quotients at time T.

    u_ratio_min / dudt_ratio_min run over interior nodes; the gradient
    quotient and the raw |grad phi1| minimum run over the boundary band;
    eig_floor_min is min over all nodes of phi1^2 + 1_band |grad phi1|^2.

    On the square the ground mode behaves like phi1 ~ c x y at each corner,
    so grad_phi1_band_min is attained at a corner node and scales like h
    (about 10.4 h for the bundled gaussian bump).  It is a positivity check
    for one mesh, not a mesh-independent floor; a floor that settles under
    refinement exists only away from the corners.  eig_floor_min is the
    same kind of check: it is set by the first node just outside the band
    near a corner, where phi1 is small and the gradient term is off, so it
    moves with where the grid lines fall against the band edge (about
    0.097 / 0.095 / 0.048 at 16^2 / 32^2 / 48^2 for the bundled bump).
    """

    u_ratio_min: float
    dudt_ratio_min: float
    grad_ratio_min: float
    grad_phi1_band_min: float
    eig_floor_min: float

    @property
    def all_positive(self) -> bool:
        """Every minimum is positive; a nan minimum (nothing to compare) is not."""
        return bool(np.all(np.array([self.u_ratio_min, self.dudt_ratio_min, self.grad_ratio_min,
                                     self.grad_phi1_band_min, self.eig_floor_min]) > 0.0))


def check_u0_condition(disc: Discretization, u0) -> float:
    """Weighted mass int u0 * d_Omega dx (mass-matrix quadrature).

    0.0 when the sum is within the rounding bound of its dot product,
    n eps (|u0| . M d_Omega) (Higham, Accuracy and Stability, section 3.1):
    there its sign is that of rounding, as for a u0 odd about a midline.
    """
    u0 = np.asarray(u0, dtype=float)
    md = disc.mass @ distance_to_boundary(disc.mesh)
    w = float(u0 @ md)
    return 0.0 if abs(w) <= u0.size * np.finfo(float).eps * float(np.abs(u0) @ md) else w


# Width of the lower bounds' boundary band, a tenth of the side: phi1 vanishes
# on the boundary, so there the bounds rest on gradients, and Hopf's lemma keeps
# |grad phi1| positive away from the corners (the band-floor refinement test).
_BAND_EPS = 0.1


class ModalFlow:
    """u0 expanded once in the eigenbasis of one spectrum, and what it gives.

    The constructor checks that u0 vanishes on the boundary and projects
    it: coeffs are its M-inner products with the eigenvectors, rates the
    clustered eigenvalue of each, tail the M-norm of the part of u0
    outside the span, weights the M-norm of the projection onto each
    cluster (cluster 1 first) and weight = int u0 d_Omega
    (check_u0_condition).  evolve(flow, t) reads the flow at one time;
    report(T) and threshold(T_grid) read the ground-mode lower-bound
    quotients, which need weight > 0 (otherwise the snapshot has no
    certified sign and the quotients are meaningless) and raise
    ValueError without it.  Their band (mesh.boundary_band at _BAND_EPS),
    phi1 and its gradients are evaluated once, on the first such read.
    The quotients divide u(T) by e^{-l_1 T} phi1, so they are formed from
    the flow scaled by e^{l_1 T}, sum_k e^{-(l_k - l_1) T} c_k phi_k,
    which neither underflows nor divides by an underflowed e^{-l_1 T} at
    large T.
    """

    def __init__(self, spec: SpectralDecomposition, u0) -> None:
        u0 = np.asarray(u0, dtype=float)
        wi = spec.disc.restrict(u0)
        require_zero_boundary(u0, spec.disc.boundary, "initial state must vanish on boundary nodes")
        self.spec = spec
        self.coeffs = spec.eigenvectors.T @ (spec.disc.mass_int @ wi)
        self.rates = spec.hat_eigenvalues[spec.cluster_index]
        self.tail = l2_norm(wi - spec.eigenvectors @ self.coeffs, spec.disc.mass_int)
        self.weights = np.sqrt(np.bincount(spec.cluster_index, weights=self.coeffs ** 2,
                                           minlength=spec.n_clusters))
        self.weight = check_u0_condition(spec.disc, u0)

    @cached_property
    def _ground(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(band mask, phi1, |grad phi1|^2); refuses a u0 without ground weight."""
        if self.weight <= 0:
            raise ValueError(f"int u0 * d_Omega = {self.weight:.6g} must be positive for lower bounds")
        disc = self.spec.disc
        phi1 = disc.extend(self.spec.eigenvectors[:, 0])
        g_phi = nodal_gradients(disc.mesh, phi1)
        return boundary_band(disc.mesh, _BAND_EPS), phi1, np.einsum("nd,nd->n", g_phi, g_phi)

    def report(self, T: float) -> LowerBoundReport:
        """The ground-mode lower-bound quotients at time T > 0."""
        bmask, phi1, gp2 = self._ground
        if T <= 0:
            raise ValueError(f"snapshot time must be positive, got {T}")
        V, disc = self.spec.eigenvectors, self.spec.disc
        damp = np.exp(-(self.rates - self.spec.hat_eigenvalues[0]) * T)
        u = V @ (self.coeffs * damp)
        u_ratio = u / V[:, 0]
        dudt_ratio = (V @ (self.rates * self.coeffs * damp)) / V[:, 0]

        g_u = nodal_gradients(disc.mesh, disc.extend(u))
        gu2 = np.einsum("nd,nd->n", g_u, g_u)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad_ratio = gu2[bmask] / gp2[bmask]
        grad_ratio = grad_ratio[np.isfinite(grad_ratio)]
        floor = phi1 ** 2 + np.where(bmask, gp2, 0.0)

        return LowerBoundReport(
            u_ratio_min=float(np.min(u_ratio)),
            dudt_ratio_min=float(np.min(dudt_ratio)),
            grad_ratio_min=float(np.min(grad_ratio)) if grad_ratio.size else float("nan"),
            grad_phi1_band_min=float(np.min(np.sqrt(gp2[bmask]))) if bmask.any() else float("nan"),
            eig_floor_min=float(np.min(floor)),
        )

    def threshold(self, T_grid) -> float | None:
        """Smallest positive grid time at which all lower-bound minima are
        positive, or None; the search stops at the first such time."""
        self._ground  # refuses a u0 without ground weight, whatever the grid
        for t in sorted(np.asarray(T_grid, dtype=float)):
            if t > 0 and self.report(t).all_positive:
                return float(t)
        return None


def evolve(flow: ModalFlow, t: float) -> HeatSnapshot:
    """Heat snapshot sum_k e^{-l_k t} P_k u0 of flow's u0 and its correction field.

    F is the tail series sum_{k >= 2} (l_1 - l_k) e^{-l_k t} P_k u0, its
    cluster-1 weight set to zero rather than computed as l_1 - l_1.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    spec = flow.spec
    damp = np.exp(-flow.rates * t)
    gain = (spec.hat_eigenvalues[0] - flow.rates) * damp
    gain[spec.cluster_index == 0] = 0.0
    u = spec.disc.extend(spec.eigenvectors @ (flow.coeffs * damp))
    F = spec.disc.extend(spec.eigenvectors @ (flow.coeffs * gain))
    bound = float(np.exp(-spec.hat_eigenvalues[-1] * t)) * flow.tail
    return HeatSnapshot(u=u, F=F, truncation_bound=bound)
