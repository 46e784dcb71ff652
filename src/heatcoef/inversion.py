"""Coefficient reconstruction from a single final-time snapshot.

At the snapshot time the evolution satisfies the stationary transport
identity div(a grad u_T) = -l_1 u_T + F(a; ., T) exactly at the discrete
level, so testing against interior basis functions gives a linear system
in the nodal coefficient values:

    G(u_T) a = -l_1 M u_T + M F        (interior rows)

with G a = -(A(a) u_T)_I for every a, built from the stiffness map S of
fem (Discretization.transport_operator).  Both l_1 and F depend on the
unknown coefficient, which the outer fixed-point loop re-estimates from
the current iterate.  It needs no eigenbasis for that:
F = (l_1 - L) e^{-TL} u0 with L = M^-1 A(a), and the weights e^{-l_k T}
kill the high modes, so one shift-invert Krylov space of u0
(heat.krylov_flow) gives F and the ground Ritz pair.  The pair is
accepted only when spectral.certify_ground proves it is the ground pair;
otherwise the step takes the ground pair from a K=1 eigensolve and moves
F, which is affine in the inserted eigenvalue, to it.

The scalar l_1 needs special treatment: M u_T lies almost entirely inside
the range of G (a coefficient increment can absorb an eigenvalue shift),
so the data equation leaves l_1 nearly free and re-inserting the previous
iterate's eigenvalue contracts that direction only algebraically (the
error decays like 1/iteration -- measured, not a guess).  Each outer step
therefore refines the scalar by solving the self-consistency equation
phi(x) = l_1(candidate(x)) - x = 0.  The right-hand side is affine in the
inserted x, so the unprojected candidate is raw(x) = raw_0 - x d: d is
solved once per inversion and raw_0 once per outer step, and each
evaluation of phi costs an axpy, an admissible projection and a ground
solve.  phi is only piecewise smooth -- it has kinks where the active set
of the admissible clamp changes -- so each inner evaluation takes a secant
step through the last two samples, which needs no model of phi beyond a
local slope.

stability_ratio_experiment measures both facts the stability estimate
rests on for one coefficient pair, in one pass over a time grid: the
inversion constant rho(T) grows exponentially in T, and F(a; ., T) is
Lipschitz in a with a constant that decays like e^{-l_2 T}.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (
    BandCholesky,
    CoefficientField,
    Discretization,
    OperatorPair,
    compute_norms,
    definite_factor,
    gradient_bound,
    l2_norm,
    make_field,
)
from .heat import ModalFlow, check_u0_condition, evolve, fit_log_slope, krylov_flow
from .mesh import Mesh
from .spectral import (
    SpectralDecomposition,
    certify_ground,
    solve_generalized_eig,
    solve_ground_pair,
)

__all__ = [
    "TransportSystem",
    "InversionReport",
    "StabilityTable",
    "TransportSolveError",
    "build_transport_system",
    "transport_rhs",
    "solve_transport_ls",
    "admissible_projection",
    "fixed_point_invert",
    "stability_ratio_experiment",
    "TOL_FP",
]

_SMOOTHING_PASS_CAP = 5
# Tikhonov weight of fixed_point_invert, relative to the largest diagonal of
# G'G: one exact-data transport solve lands 9.2e-9 from the bundled bump at
# 32^2, while the interior normal block keeps a condition number near 6e5.
_ALPHA = 1e-8
# L2 step at which fixed_point_invert calls the fixed point converged, set
# at the relative error floor that _ALPHA leaves.  Public because the runner
# prints it as the bound of its fixed-point-converged check.
TOL_FP = 1e-8
# Safety cap on outer steps: the bundled inversions stop after 1 to 6 steps,
# the stalling 16^2 bump of the tests after 10.
_MAX_ITER = 50
# Inner eigenvalue-closure budget per outer step.  One evaluation costs an
# axpy on the affine candidate raw_0 - x d, an admissible projection, a
# pencil (one product with the stiffness map) and a warm K=1 ground solve
# (solve_ground_pair), whose band factor and inverse iteration are most of
# it; 3 of the 5 bundled bump steps cap, 26 evaluations in all.
_CLOSURE_EVAL_CAP = 7
# Relative M-norm difference of two snapshots at or below which the
# stability experiment calls them indistinguishable: rounding of the modal
# sums, with margin.
_INDISTINGUISHABLE_RTOL = 1e-12


class TransportSolveError(RuntimeError):
    """The regularized transport solve failed (singular normal matrix)."""


@dataclass(frozen=True)
class TransportSystem:
    """Weak transport operator, right-hand side and regularization data.

    G : (n_interior, n_nodes) operator on nodal coefficient values.
    rhs : interior test-function moments of -l_1 u_T + F (transport_rhs).
    alpha : absolute regularization weight (already scaled).
    boundary_values : a0 as given; only its entries at boundary nodes are read.
    disc : supplies the Tikhonov metric A(1) over all coefficient nodes and
        the interior/boundary partition of the coefficient dofs.
    factor : band Cholesky factor (fem.definite_factor) of the interior
        block H_II of the normal matrix H = G'G + alpha A(1).
    boundary_lift : H_IB a0_B, the prescribed boundary values' share of
        the normal equations.

    Everything but rhs depends only on u_T, alpha and a0, so a system for
    another eigenvalue or correction field is
    dataclasses.replace(system, rhs=transport_rhs(...)).  Its solution is
    affine in the eigenvalue: solve_transport_ls at l_1 is the solve at 0
    minus l_1 times _eigenvalue_direction(system, u_T), which
    fixed_point_invert uses so that its closure makes no back-substitution.
    """

    G: sp.csr_matrix
    rhs: np.ndarray
    alpha: float
    boundary_values: np.ndarray
    disc: Discretization
    factor: BandCholesky
    boundary_lift: np.ndarray


@dataclass(frozen=True)
class InversionReport:
    a_rec: CoefficientField
    iterations: int
    residual_trace: np.ndarray
    data_residual: float
    converged: bool
    lambda1_trace: np.ndarray
    smoothing_capped: int
    closure_solves: int  # K=1 ground solves of the closure evaluations
    closure_fallbacks: int  # of those, solves that fell back to ARPACK
    transport_solves: int  # normal-matrix back-substitutions: one per outer step, one for d
    krylov_m: np.ndarray  # Krylov dimension per outer step, 0 where the step fell back

    @property
    def outer_fallbacks(self) -> int:
        """Outer steps whose Krylov ground pair failed certify_ground."""
        return int(np.count_nonzero(self.krylov_m == 0))


def transport_rhs(disc: Discretization, u_T, lambda1: float, F_values) -> np.ndarray:
    """Interior moments -lambda1 (M u_T)_I + (M F)_I of the transport right-hand side."""
    M = disc.mass
    u_T = np.asarray(u_T, dtype=float)
    F_values = np.asarray(F_values, dtype=float)
    return (-lambda1 * (M @ u_T) + M @ F_values)[disc.interior]


def build_transport_system(
    mesh: Mesh,
    unit_pair: OperatorPair,
    u_T,
    lambda1: float,
    F_values,
    alpha: float,
    a0,
) -> TransportSystem:
    """Assemble and factor the regularized transport system of one snapshot.

    G, the mass matrix, the Tikhonov metric A(1) and the partition come
    from unit_pair.disc, which must be built on mesh.  alpha is relative:
    the stored weight is alpha times the largest diagonal of G'G (falling
    back to alpha itself when G vanishes).  The interior block of the
    normal matrix, symmetric positive definite, is Cholesky-factored here,
    once; solve_transport_ls only back-substitutes.  Only the boundary
    entries of a0 are read.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    disc = unit_pair.disc
    if disc.mesh is not mesh:
        raise ValueError("unit_pair was built on a different mesh")
    G = disc.transport_operator(u_T)
    col_sq = np.asarray(G.multiply(G).sum(axis=0)).ravel()
    scale = float(col_sq.max()) if col_sq.max() > 0 else 1.0
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (mesh.n_nodes,):
        raise ValueError(f"boundary trace has shape {a0.shape}, expected ({mesh.n_nodes},)")
    alpha = float(alpha * scale)
    I, B = disc.interior, disc.boundary
    H = (G.T @ G + alpha * disc.unit_stiffness).tocsr()
    H_I = H[I]
    H_II = H_I[:, I]
    factor = definite_factor(H_II)
    if factor is None:
        diag = H_II.diagonal()
        cond = float(diag.max() / max(diag.min(), 1e-300))
        raise TransportSolveError(
            f"singular normal matrix in transport solve (diagonal ratio {cond:.3e})"
        )
    return TransportSystem(G=G, rhs=transport_rhs(disc, u_T, lambda1, F_values), alpha=alpha,
                           boundary_values=a0, disc=disc, factor=factor,
                           boundary_lift=H_I[:, B] @ a0[B])


def _normal_solve(system: TransportSystem, b: np.ndarray) -> np.ndarray:
    """H_II^-1 b by back-substitution with the factor of build_transport_system."""
    sol = system.factor.solve(b)
    if not np.all(np.isfinite(sol)):
        pivots = system.factor.band[0] ** 2
        cond = float(pivots.max() / max(pivots.min(), 1e-300))
        raise TransportSolveError(
            f"singular normal matrix in transport solve (pivot ratio {cond:.3e})"
        )
    return sol


def solve_transport_ls(system: TransportSystem, a_prior: CoefficientField) -> np.ndarray:
    """Minimize ||G a - rhs||^2 + alpha (a - prior)' R (a - prior), a|_G = a0.

    R is the unit stiffness A(1).  Solved through the symmetric normal
    equations after eliminating the constrained boundary values, by
    back-substitution with the factor built in build_transport_system.
    Returns the nodal values, *not* projected onto the admissible set and
    so not a CoefficientField; admissible_projection makes one of them.
    """
    G, alpha, disc = system.G, system.alpha, system.disc
    R, I, B = disc.unit_stiffness, disc.interior, disc.boundary
    b = G.T @ system.rhs + alpha * (R @ a_prior.values)
    a = np.empty(disc.n_nodes)
    a[B] = system.boundary_values[B]
    a[I] = _normal_solve(system, b[I] - system.boundary_lift)
    return a


def admissible_projection(
    disc: Discretization,
    a,
    a0,
    a_plus: float,
) -> tuple[CoefficientField, bool]:
    """Project nodal values onto the admissible set.

    Clamps to [1, a_plus], re-imposes the boundary trace, and if the
    elementwise gradient exceeds a_plus runs up to five interior Jacobi
    smoothing passes (re-clamping after each).  Returns (field, capped):
    capped is True when the gradient bound is still violated after the
    final pass.
    """
    values = np.asarray(a, dtype=float).copy()
    a0 = np.asarray(a0, dtype=float)
    bnd, I = disc.boundary, disc.interior

    def enforce(v):
        v = np.clip(v, 1.0, a_plus)
        v[bnd] = a0[bnd]
        return v

    values = enforce(values)
    capped = False
    if gradient_bound(disc.mesh, values) > a_plus:
        A = disc.unit_stiffness
        diag = A.diagonal()
        for _ in range(_SMOOTHING_PASS_CAP):
            smoothed = values - (A @ values) / diag
            values[I] = smoothed[I]
            values = enforce(values)
            if gradient_bound(disc.mesh, values) <= a_plus:
                break
        else:
            capped = True
    return make_field(disc.mesh, values, a_plus), capped


def _eigenvalue_direction(system: TransportSystem, u_T) -> np.ndarray:
    """d with solve_transport_ls(system at eigenvalue x) = (solve at 0) - x d.

    transport_rhs(x) = transport_rhs(0) - x (M u_T)_I, so d is the normal
    solve of G' (M u_T)_I: no prior, zero boundary values.  It vanishes on
    the boundary.
    """
    disc, I = system.disc, system.disc.interior
    return disc.extend(_normal_solve(system, (system.G.T @ (disc.mass @ u_T)[I])[I]))


def _next_closure_point(samples: list[tuple[float, float]], lam_raw: float) -> float | None:
    """Next trial eigenvalue for the root of phi(x) = l_1(candidate(x)) - x.

    Steps to the secant root through the last two samples.  Falls back to
    a Picard step x + phi from the last sample when there is only one, when
    the two phi values are equal, or when the secant point is farther than
    0.5 |lam_raw| from lam_raw (a non-finite point fails that test, and for
    lam_raw > 0 so does a non-positive one).  Returns None when the trial is
    non-positive or would duplicate an existing sample (nothing new to
    learn).
    """
    x1, phi1 = samples[-1]
    xn = x1 + phi1
    if len(samples) > 1 and phi1 != samples[-2][1]:
        x0, phi0 = samples[-2]
        secant = x1 - phi1 * (x1 - x0) / (phi1 - phi0)
        if abs(secant - lam_raw) <= 0.5 * abs(lam_raw):
            xn = secant
    if not np.isfinite(xn) or xn <= 0.0:
        return None
    if any(abs(xn - xs) <= 1e-15 * max(1.0, abs(xn)) for xs, _ in samples):
        return None
    return float(xn)


def _outer_step(pair: OperatorPair, u0, T: float) -> tuple[SpectralDecomposition, np.ndarray, int]:
    """Ground pair and correction field F of one outer pencil.

    Returns (ground, F, m): krylov_flow's ground Ritz pair and F when
    certify_ground accepts the pair, with m the Krylov dimension; otherwise
    the K=1 spectrum, F moved to its eigenvalue and m = 0 (F = (l_1 - L) u(T)
    is affine in the inserted l_1).
    """
    flow = krylov_flow(pair, u0, T)
    if certify_ground(pair, flow.ground):
        return flow.ground, flow.F, flow.m
    ground = solve_generalized_eig(pair, 1)
    shift = float(ground.eigenvalues[0] - flow.ground.eigenvalues[0])
    return ground, flow.F + shift * flow.u, 0


def fixed_point_invert(
    disc: Discretization,
    u0,
    u_T,
    a0,
    a_plus: float,
    T: float,
) -> InversionReport:
    """Reconstruct the coefficient from one final-time snapshot.

    Starting from the harmonic extension of the boundary trace, each
    iteration takes the ground pair and F of the current iterate's pencil
    from _outer_step (a certified Krylov flow, or its K=1 fallback),
    solves the regularized transport system with the iterate as Tikhonov
    prior, and projects onto the admissible set.  The eigenvalue
    inserted into the right-hand side is refined within the step by the
    scalar closure phi(x) = l_1(candidate(x)) - x = 0 (see module
    docstring); the candidate belonging to the accepted scalar becomes the
    next iterate.  Converges when the L2 step drops below TOL_FP; otherwise
    stops when a step increases (keeping the pre-increase iterate) or after
    _MAX_ITER steps.  data_residual is that of the transport system which
    produced the returned iterate.  Only the boundary entries of a0 are
    read: they are the prescribed trace.
    """
    if check_u0_condition(disc, u0) <= 0:
        raise ValueError("initial state must satisfy int u0 * d_Omega > 0")
    mesh = disc.mesh
    a0 = np.asarray(a0, dtype=float)
    I, B = disc.interior, disc.boundary
    R = disc.unit_stiffness

    start = np.empty(mesh.n_nodes)
    start[B] = a0[B]
    unit = disc.unit_pair.pencil_factor(0.0)
    if unit is None:
        raise ValueError("unit stiffness matrix is not positive definite")
    start[I] = unit.solve(-(R[I][:, B] @ a0[B]))
    current, _ = admissible_projection(disc, start, a0, a_plus)

    # G, its scale and the factored normal matrix depend only on u_T, alpha
    # and a0, and so does the candidate's slope -d in the inserted eigenvalue.
    base = build_transport_system(mesh, disc.unit_pair, u_T, 0.0, np.zeros(mesh.n_nodes),
                                  _ALPHA, a0)
    d = _eigenvalue_direction(base, u_T)
    trace, lam1s = [], []
    converged = False
    capped_count = 0
    ground_solves = fallbacks = 0
    krylov_m = []
    for _ in range(_MAX_ITER):
        spec, F, m = _outer_step(disc.pair(current.values), u0, T)
        krylov_m.append(m)
        lam_raw = float(spec.hat_eigenvalues[0])
        raw0 = solve_transport_ls(dataclasses.replace(base, rhs=transport_rhs(disc, u_T, 0.0, F)),
                                  current)

        # Each ground solve is warm-started from the previous pencil's pair:
        # the step's own for the first evaluation.
        phi_tol = 1e-10 * max(1.0, abs(lam_raw))
        samples: list[tuple[float, float, CoefficientField, bool]] = []
        ground, x = spec, lam_raw
        while x is not None:
            field, capped = admissible_projection(disc, raw0 - x * d, a0, a_plus)
            ground, warm = solve_ground_pair(disc.pair(field.values), ground.eigenvectors[:, 0],
                                             float(ground.eigenvalues[0]))
            fallbacks += int(not warm)
            phi = float(ground.eigenvalues[0]) - x
            samples.append((x, phi, field, capped))
            done = abs(phi) <= phi_tol or len(samples) >= _CLOSURE_EVAL_CAP
            x = None if done else _next_closure_point([s[:2] for s in samples], lam_raw)
        ground_solves += len(samples)
        x_acc, phi_acc, projected, capped = min(samples, key=lambda t: abs(t[1]))
        capped_count += int(capped)
        step = l2_norm(projected.values - current.values, disc.mass)
        lam1s.append(x_acc + phi_acc)  # ground eigenvalue of the accepted iterate
        if trace and step > trace[-1]:
            trace.append(step)
            break  # keep `current`, the pre-increase iterate, and its system
        trace.append(step)
        # (eigenvalue, F) of current's transport system; set by every first
        # step, which has no previous step to grow over.
        current, accepted = projected, (x_acc, F)
        if step <= TOL_FP:
            converged = True
            break

    rhs = transport_rhs(disc, u_T, *accepted)
    return InversionReport(
        a_rec=current,
        iterations=len(trace),
        residual_trace=np.array(trace),
        data_residual=float(np.linalg.norm(base.G @ current.values - rhs)),
        converged=converged,
        lambda1_trace=np.array(lam1s),
        smoothing_capped=capped_count,
        closure_solves=ground_solves,
        closure_fallbacks=fallbacks,
        transport_solves=len(trace) + 1,
        krylov_m=np.array(krylov_m, dtype=int),
    )


@dataclass(frozen=True)
class StabilityTable:
    """Both halves of the stability estimate for one coefficient pair over a grid.

    rho(T) = ||a - a~|| / ||u(T) - u~(T)||_H2 is the inversion constant.
    bracket(T) = e^{l_1 T} ||u - u~||_L2 + e^{-(l_2 - l_1) T} ||a - a~||_L2
    is the envelope the reciprocal-eigenvalue gap is measured against;
    c_fit are the per-T quotients |1/l_1 - 1/l_1~| / bracket(T).
    F_ratio(T) = ||F(a) - F(a~)|| / ||a - a~|| is the Lipschitz quotient of
    the correction field; its fitted log-slope F_slope is compared against
    -beta2 = -min(l_2(a), l_2(a~)).
    """

    T: np.ndarray
    coeff_diff: float
    l2_udiff: np.ndarray
    h2_udiff: np.ndarray
    rho: np.ndarray
    bracket: np.ndarray
    c_fit: np.ndarray
    indistinguishable: np.ndarray
    recip_gap: float
    fitted_rate: float
    lambda1: float
    lambda1_tilde: float
    lambda1_unit: float
    a_plus: float
    F_diff: np.ndarray
    F_ratio: np.ndarray
    F_slope: float
    beta2: float

    @property
    def rate_low(self) -> float:
        return 0.8 * min(self.lambda1, self.lambda1_tilde)

    @property
    def rate_high(self) -> float:
        return 1.2 * self.a_plus * self.lambda1_unit


def stability_ratio_experiment(
    a: CoefficientField,
    a_tilde: CoefficientField,
    T_grid,
    flow: ModalFlow,
    flow_t: ModalFlow,
) -> StabilityTable:
    """Measure both halves of the stability estimate in one pass over T_grid.

    flow and flow_t expand one u0 in the spectra of a and a_tilde, on one
    Discretization, each spectrum with at least two strict eigenvalues;
    the spectra may differ in K (the stability-sweep mode cuts each with
    spectral.solve_flow_spectrum, whose inertia count certifies the
    truncation bound of every snapshot from min(T_grid) on).  Per T the
    pass evolves each flow once; the two snapshots give the stability
    ratio rho(T) and their correction fields the Lipschitz quotient of F.
    The unit pencil of the grid gives the H2 norms and, by the grid's
    memoized solve_generalized_eig(disc.unit_pair, 1), l_1(1).
    a and a_tilde are admissible, as every CoefficientField is
    (fem.make_field).
    A time T is flagged indistinguishable, and left out of the rate fit,
    when ||u - u~||_M <= _INDISTINGUISHABLE_RTOL max(||u||_M, ||u~||_M).
    Coinciding coefficients (||a - a~|| = 0) raise ValueError: every ratio
    divides by or into that distance.
    """
    spec, spec_t = flow.spec, flow_t.spec
    disc = spec.disc
    grid = np.asarray(T_grid, dtype=float)
    if grid.size < 2 or np.any(grid <= 0):
        raise ValueError("T_grid must hold at least two positive times")
    n_strict = (spec.hat_eigenvalues.size, spec_t.hat_eigenvalues.size)
    if min(n_strict) < 2:
        raise ValueError(f"the stability experiment needs two strict eigenvalues per spectrum "
                         f"(l_2 sets the decay rates), got {n_strict[0]} and {n_strict[1]}")
    cdiff = l2_norm(a.values - a_tilde.values, disc.mass)
    if cdiff == 0.0:
        raise ValueError("the perturbation coincides with the coefficient (||a - a~|| = 0); "
                         "the stability ratios are undefined")
    lam1, lam1t = float(spec.hat_eigenvalues[0]), float(spec_t.hat_eigenvalues[0])
    lam2 = float(spec.hat_eigenvalues[1])
    recip_gap = abs(1.0 / lam1 - 1.0 / lam1t)
    lam1_unit = float(solve_generalized_eig(disc.unit_pair, 1).eigenvalues[0])

    l2d = np.empty(grid.size)
    h2d = np.empty(grid.size)
    fdiff = np.empty(grid.size)
    scale = np.empty(grid.size)
    for i, t in enumerate(grid):
        snap, snap_t = evolve(flow, t), evolve(flow_t, t)
        norms = compute_norms(snap.u - snap_t.u, disc)
        l2d[i] = norms.l2
        h2d[i] = norms.h2_surrogate
        fdiff[i] = l2_norm(disc.restrict(snap.F - snap_t.F), disc.mass_int)
        scale[i] = max(l2_norm(snap.u, disc.mass), l2_norm(snap_t.u, disc.mass))
    flagged = l2d <= _INDISTINGUISHABLE_RTOL * scale
    with np.errstate(divide="ignore"):
        rho = np.where(h2d > 0, cdiff / np.where(h2d > 0, h2d, 1.0), np.inf)
    rho[flagged] = np.nan
    bracket = np.exp(lam1 * grid) * l2d + np.exp(-(lam2 - lam1) * grid) * cdiff
    c_fit = np.where(bracket > 0, recip_gap / np.where(bracket > 0, bracket, 1.0), np.nan)
    fitted = fit_log_slope(grid[~flagged], rho[~flagged])
    ratios = fdiff / cdiff
    return StabilityTable(
        T=grid, coeff_diff=cdiff, l2_udiff=l2d, h2_udiff=h2d, rho=rho, bracket=bracket,
        c_fit=c_fit, indistinguishable=flagged, recip_gap=recip_gap, fitted_rate=fitted,
        lambda1=lam1, lambda1_tilde=lam1t, lambda1_unit=lam1_unit, a_plus=a.a_plus,
        F_diff=fdiff, F_ratio=ratios, F_slope=fit_log_slope(grid, ratios),
        beta2=float(min(spec.hat_eigenvalues[1], spec_t.hat_eigenvalues[1])),
    )
