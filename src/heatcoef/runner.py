"""Scenario orchestration: run one experiment mode, then write its reports.

Each mode (MODES maps its name to its function) makes plot-ready CSV/grid
texts plus summary lines that start with PASS / FAIL / INFO / WARN, all
through one _Report, and run_scenario returns them in a RunArtifact,
touching no file.  write_reports is the one writer of a run's directory,
so a run that stops or is refused leaves none.  FAIL lines carry the
measured value and the bound it broke.  Three kinds of check share one
form each: a per-index check (_Report.per_index_check) FAILs at the first
violating index, counted from 1 in T_grid or the spectrum, naming index,
measured and bound; a fit (slope_check) ends with fit_points=N; a spread
(spread_check, max/min of the finite positive values) ends with
points=N.  All numeric output uses fixed %.17g formatting and fixed
iteration orders, so runs of one config (its seed included) are
byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import catalog, fem, inversion
from .fem import (
    CoefficientField,
    Discretization,
    OperatorPair,
    compute_norms,
    l2_norm,
)
from .heat import ModalFlow, evolve, fit_log_slope, krylov_flow
from .inversion import fixed_point_invert, stability_ratio_experiment
from .mesh import Mesh, grid_text
from .scenario import Scenario, scenario_hash
from .spectral import (
    EIGEN_SWEEP_ROWS,
    PROJECTION_SWEEP_ROWS,
    SpectralDecomposition,
    gap_report,
    perturbation_sweep,
    solve_flow_spectrum,
    solve_generalized_eig,
    verify_minmax_sandwich,
    weyl_ratios,
)

__all__ = ["RunArtifact", "RunnerError", "run_scenario", "write_reports"]

_DEFAULT_T_GRID = tuple(1.0 + 0.5 * i for i in range(9))
_TRANSPORT_TOL = 1e-10


class RunnerError(RuntimeError):
    """A scenario run failed; the message carries the scenario context."""


@dataclass
class RunArtifact:
    """Everything one run produced, in memory (files: name -> text, in the
    order the mode made them); write_reports writes it into out_dir."""

    scenario: Scenario
    mode: str
    out_dir: Path
    scenario_hash: str
    summary_lines: tuple[str, ...]
    files: dict[str, str]

    @property
    def n_pass(self) -> int:
        return sum(1 for line in self.summary_lines if line.startswith("PASS "))

    @property
    def n_fail(self) -> int:
        return sum(1 for line in self.summary_lines if line.startswith("FAIL "))

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0


# --- the run's report ------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


@dataclass
class _Report:
    """The summary lines of a run and the texts of its files, in order.

    Every file is made through csv() or grid(), so write_reports writes and
    lists each one in manifest.txt."""

    lines: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok, detail: str) -> None:
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    def info(self, name: str, detail: str) -> None:
        self.lines.append(f"INFO {name}: {detail}")

    def warn(self, name: str, detail: str) -> None:
        self.lines.append(f"WARN {name}: {detail}")

    def slope_check(self, name: str, ok, detail: str, fitted) -> None:
        """check of a fit_log_slope result over `fitted` (it keeps the positive
        values), naming how many points the fit used; under three adds a WARN."""
        n = int(np.count_nonzero(np.asarray(fitted) > 0))
        self.check(name, ok, f"{detail} fit_points={n}")
        if n < 3:
            self.warn("fit-points", f"{name} fitted from {n} point(s)")

    def per_index_check(self, name: str, bad, fail, detail: str) -> None:
        """check that fails at the first set entry i of the bool mask bad,
        with fail(i) as its detail, and passes with detail when none is set."""
        first = np.flatnonzero(bad)
        self.check(name, first.size == 0, fail(int(first[0])) if first.size else detail)

    def spread_check(self, name: str, values, bound: float, detail: str, none: str) -> None:
        """check of max/min <= bound over the finite positive values, naming
        how many there were; fewer than two give the INFO line none."""
        v = np.asarray(values, dtype=float)
        v = v[np.isfinite(v) & (v > 0)]
        if v.size < 2:
            self.info(name, none)
            return
        spread = float(v.max() / v.min())
        self.check(name, spread <= bound,
                   f"measured={spread:.6g} bound={bound:g} ({detail}) points={v.size}")

    def csv(self, name: str, header, rows) -> None:
        text = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
        self.files[name] = "\n".join(text) + "\n"

    def grid(self, name: str, mesh: Mesh, values) -> None:
        self.files[name] = grid_text(mesh, values)


# --- shared per-run state ---------------------------------------------------

@dataclass
class _Context:
    scenario: Scenario
    disc: Discretization
    coeff: CoefficientField
    pair: OperatorPair
    u0: np.ndarray | None  # None for u0 = first-eigenfunction; see initial_state

    @property
    def mesh(self) -> Mesh:
        return self.disc.mesh

    def initial_state(self, spec: SpectralDecomposition | None = None) -> np.ndarray:
        """u0 of the run.  first-eigenfunction reads the ground vector of spec,
        a spectrum of pair that the mode solves anyway, or else of one K=1 solve."""
        if self.u0 is not None:
            return self.u0
        ground = spec if spec is not None else solve_generalized_eig(self.pair, 1)
        return catalog.initial_state(self.mesh, "first-eigenfunction", spectral=ground)


def _time_grid(s: Scenario) -> np.ndarray:
    return np.asarray(s.T_grid if s.T_grid is not None else _DEFAULT_T_GRID, dtype=float)


def _flow_spectrum(pair: OperatorPair, t_min: float, modes: int,
                   rep: _Report) -> SpectralDecomposition:
    """solve_flow_spectrum capped at modes (and the pencil size), with its
    cutoff as an INFO line (WARN when uncertified)."""
    spec, cut = solve_flow_spectrum(pair, t_min, min(modes, pair.stiffness.shape[0]))
    (rep.info if cut.certified else rep.warn)("flow-spectrum", cut.describe())
    return spec


def _build_context(s: Scenario) -> _Context:
    """Grid, coefficient, pencil and u0 of a run; the grid is fem.grid's,
    shared by every run of its size.  Each mode solves the spectrum it
    reads, and u0 = first-eigenfunction waits for it (_Context.initial_state)."""
    disc = fem.grid(s.nx, s.ny)
    mesh = disc.mesh
    coeff = catalog.make_coefficient(mesh, s.coefficient.kind, s.coefficient.params_dict(), s.a_plus)
    u0 = None
    if s.u0.kind != "first-eigenfunction":
        u0 = catalog.initial_state(mesh, s.u0.kind, s.u0.params_dict())
    return _Context(scenario=s, disc=disc, coeff=coeff, pair=disc.pair(coeff.values), u0=u0)


def run_scenario(scenario: Scenario, mode: str, out_dir) -> RunArtifact:
    """Run one scenario in one mode; write_reports writes the result into out_dir.

    The scenario is the run's only source of settings.  verify-spectral
    solves K = scenario.modes eigenpairs.  forward and stability-sweep take
    modes as a cap: they solve only the eigenpairs their earliest time can
    see (spectral.solve_flow_spectrum).  invert solves no spectrum for its
    data (heat.krylov_flow) and ignores modes.
    """
    if mode not in MODES:
        raise RunnerError(f"unknown mode {mode!r}; expected one of {tuple(MODES)}")
    rep = _Report()
    try:
        MODES[mode](_build_context(scenario), rep)
    except RunnerError:
        raise
    except (ValueError, RuntimeError, KeyError, ArithmeticError, OSError) as exc:
        raise RunnerError(f"scenario {scenario.name!r}, mode {mode}: {exc}") from exc

    return RunArtifact(
        scenario=scenario, mode=mode, out_dir=Path(out_dir),
        scenario_hash=scenario_hash(scenario),
        summary_lines=tuple(rep.lines), files=rep.files,
    )


# --- forward ---------------------------------------------------------------

def _run_forward(ctx: _Context, rep: _Report) -> None:
    s = ctx.scenario
    grid = _time_grid(s)
    spec = _flow_spectrum(ctx.pair, float(min(s.T, *grid)), s.modes, rep)
    u0 = ctx.initial_state(spec)
    flow = ModalFlow(spec, u0)
    M = ctx.disc.mass
    lam_hat = spec.hat_eigenvalues
    lam1 = float(lam_hat[0])

    u_norms = np.empty(grid.size)
    F_norms = np.empty(grid.size)
    truncs = np.empty(grid.size)
    for i, t in enumerate(grid):
        snap = evolve(flow, float(t))
        u_norms[i] = l2_norm(snap.u, M)
        F_norms[i] = l2_norm(snap.F, M)
        truncs[i] = snap.truncation_bound
    rep.csv("decay.csv", ("T", "u_l2", "F_l2", "truncation_bound"),
            zip(grid, u_norms, F_norms, truncs))

    snap_T = evolve(flow, s.T)
    rep.grid("u_T.grid", ctx.mesh, snap_T.u)

    weight = flow.weight
    single_mode = s.u0.kind == "first-eigenfunction"
    slope_u = fit_log_slope(grid, u_norms)
    if weight > 0 or single_mode:
        tol = 1e-6 if single_mode else 0.02
        rep.slope_check("u-decay-slope", abs(slope_u + lam1) <= tol * lam1,
                        f"measured={slope_u:.10g} expected={-lam1:.10g} rel_tol={tol:g}", u_norms)
    else:
        rep.info("u-decay-slope", f"skipped: int u0 d_Omega = {weight:.6g} is not positive")

    # F is the k >= 2 tail of the mode expansion, so its decay rate is the
    # eigenvalue of the first tail cluster k* that u0 actually populates.
    # The clusters between hold rounding, which decays more slowly, so the
    # slope is fitted only at the grid times where k*'s content
    # (l_k* - l1) ||c_k*|| e^(-l_k* T) exceeds theirs summed.
    u0_l2 = l2_norm(u0, M)
    weights = flow.weights
    populated = np.flatnonzero(weights[1:] > 1e-10 * max(u0_l2, 1e-300))
    if populated.size == 0 or np.count_nonzero(F_norms > 0) < 2:
        rep.info("F-decay-slope", "correction term vanishes (single-mode data)")
    else:
        k_star = int(populated[0]) + 2
        lam_tail = lam_hat[1:k_star]
        content = ((lam_tail - lam1) * weights[1:k_star])[:, None] * np.exp(-np.outer(lam_tail, grid))
        fit = content[-1] > content[:-1].sum(axis=0)
        if np.count_nonzero(fit) < 2:
            rep.info("F-decay-slope",
                     f"skipped: the first populated tail cluster k={k_star} outweighs the summed "
                     f"content of clusters 2..{k_star - 1} at {np.count_nonzero(fit)} of {grid.size} "
                     f"grid times (a slope needs 2)")
        else:
            rate = float(lam_hat[k_star - 1])
            slope_F = fit_log_slope(grid[fit], F_norms[fit])
            rep.slope_check("F-decay-slope", abs(slope_F + rate) <= 0.05 * rate,
                            f"measured={slope_F:.10g} expected={-rate:.10g} rel_tol=0.05 "
                            f"(first populated tail cluster k={k_star})", F_norms[fit])

    envelope = u0_l2 * np.exp(-lam1 * grid) * (1.0 + 1e-9)
    worst = float((u_norms / envelope).max()) if grid.size else 0.0
    rep.per_index_check(
        "decay-envelope", u_norms > envelope,
        lambda i: f"index={i + 1} T={grid[i]:g} measured={u_norms[i]:.10g} "
                  f"bound={envelope[i]:.10g}",
        f"||u(T)|| <= ||u0|| e^(-l1 T) on all {grid.size} grid points (max quotient {worst:.6g})")

    # The snapshot/correction pair must satisfy the stationary identity
    # div(a grad u_T) = -l1 u_T + F on interior nodes, up to roundoff.
    I = ctx.disc.interior
    A_int, M_int = ctx.pair.stiffness, ctx.pair.mass
    r = A_int @ snap_T.u[I] - lam1 * (M_int @ snap_T.u[I]) + M_int @ snap_T.F[I]
    scale = max(np.linalg.norm(A_int @ snap_T.u[I]),
                lam1 * np.linalg.norm(M_int @ snap_T.u[I]),
                np.linalg.norm(M_int @ snap_T.F[I]), 1e-300)
    rel = float(np.linalg.norm(r) / scale)
    rep.check("transport-identity", rel <= _TRANSPORT_TOL,
              f"measured={rel:.6g} bound={_TRANSPORT_TOL:g} (relative residual at T={s.T:g})")

    if weight > 0:
        low = flow.report(s.T)
        rep.check("lower-bounds", low.all_positive,
                  f"T={s.T:g} measured=(u {low.u_ratio_min:.6g}, du/dt {low.dudt_ratio_min:.6g}, "
                  f"grad {low.grad_ratio_min:.6g}, band |grad phi1| {low.grad_phi1_band_min:.6g}, "
                  f"eig floor {low.eig_floor_min:.6g}) bound=0 (strict)")
        thr = flow.threshold(grid)
        rep.info("certified-threshold",
                 f"first grid time with all lower bounds positive: "
                 f"{'T=%g' % thr if thr is not None else 'none within T_grid'}")
    else:
        rep.info("lower-bounds", f"skipped: int u0 d_Omega = {weight:.6g} is not positive")

    rep.info("truncation",
             f"max tail bound over grid = {truncs.max() if grid.size else 0.0:.6g} (K={spec.K})")


# --- invert ------------------------------------------------------------------

def _run_invert(ctx: _Context, rep: _Report) -> None:
    s = ctx.scenario
    M = ctx.disc.mass
    u0 = ctx.initial_state()
    u_T = krylov_flow(ctx.pair, u0, s.T).u
    data_l2 = l2_norm(u_T, M)
    u0_l2 = l2_norm(u0, M)
    if data_l2 < 1e-10 * max(u0_l2, 1e-300):
        rep.warn("data-magnitude",
                 f"||u(T)|| = {data_l2:.6g} is below 1e-10 ||u0||; T={s.T:g} may be too large "
                 "for a well-conditioned reconstruction")

    if s.noise > 0:
        rng = np.random.default_rng(s.seed)
        g = ctx.disc.extend(rng.standard_normal(ctx.disc.interior.size))
        h2 = compute_norms(g, ctx.disc).h2_surrogate
        u_T = u_T + (s.noise / h2) * g
        rep.info("noise",
                 f"additive Gaussian data error, H2-surrogate level {s.noise:g}, seed={s.seed}")

    # the inversion is handed the trace alone: an interior read would meet
    # a NaN, which make_field refuses
    trace = np.where(ctx.mesh.boundary_node_flags, ctx.coeff.values, np.nan)
    report = fixed_point_invert(ctx.disc, u0, u_T, trace, s.a_plus, s.T)

    steps = report.residual_trace
    rep.csv("residuals.csv", ("iter", "step_l2", "lambda1", "krylov_m"),
            zip(range(1, steps.size + 1), steps, report.lambda1_trace, report.krylov_m))
    rep.grid("a_rec.grid", ctx.mesh, report.a_rec.values)

    final_step = float(steps[-1])
    if s.noise == 0:
        rep.check("fixed-point-converged", report.converged,
                  f"measured={final_step:.6g} bound={inversion.TOL_FP:g} "
                  f"after {report.iterations} iteration(s)")
    else:
        # Noisy data puts a floor under the step norm, so stalling there is
        # the expected terminal state, not a failure.
        rep.info("fixed-point-state",
                 f"converged={report.converged} step={final_step:.6g} "
                 f"after {report.iterations} iteration(s) at noise level {s.noise:g}")
    if not report.converged:
        rep.warn("fixed-point-stalled",
                 "step norm increased or the step cap was hit; kept the best iterate")
    a = ctx.coeff.values
    rel_error = l2_norm(report.a_rec.values - a, M) / l2_norm(a, M)
    source = "data simulated on the solver's own mesh"  # no discretization error in it
    if s.noise == 0:
        rep.check("reconstruction-error", rel_error <= 0.02,
                  f"measured={rel_error:.6g} bound=0.02 (noiseless L2-relative; {source})")
    else:
        rep.info("reconstruction-error",
                 f"rel_error={rel_error:.6g} at noise level {s.noise:g} ({source})")
    rep.info("data-residual",
             f"least-squares residual of the final transport system = {report.data_residual:.6g}")
    rep.info("closure-eigensolves",
             f"warm={report.closure_solves - report.closure_fallbacks} "
             f"fallback={report.closure_fallbacks}")
    rep.info("transport-solves", str(report.transport_solves))
    rep.info("outer-step-flow",
             f"krylov={report.iterations - report.outer_fallbacks} fallback={report.outer_fallbacks}")
    if report.smoothing_capped:
        rep.info("projection-smoothing",
                 f"gradient-bound smoothing hit its pass cap {report.smoothing_capped} time(s)")


# --- verify-spectral ---------------------------------------------------------

def _run_verify_spectral(ctx: _Context, rep: _Report) -> None:
    s = ctx.scenario
    K = min(s.modes, ctx.pair.stiffness.shape[0])
    spec = solve_generalized_eig(ctx.pair, K)
    lam_hat = spec.hat_eigenvalues

    rep.check("ground-eigenvalue-simple", int(spec.multiplicities[0]) == 1,
              f"measured multiplicity={int(spec.multiplicities[0])} bound=1 "
              f"(lambda1={lam_hat[0]:.10g})")
    phi1_min = float(spec.eigenvectors[:, 0].min())
    rep.check("ground-mode-positive", phi1_min > 0,
              f"measured={phi1_min:.6g} bound=0 (strict, min over interior nodes)")
    if lam_hat.size > 1:
        gap = float(lam_hat[1] - lam_hat[0])
        rep.check("spectral-gap-positive", gap > 0, f"measured={gap:.10g} bound=0 (strict)")
    else:
        rep.info("spectral-gap-positive", "only one strict eigenvalue computed")

    kmax = min(20, spec.K)
    # a unit coefficient's pencil is the unit pencil, bit for bit
    unit = np.all(ctx.coeff.values == 1.0)
    spec_unit = spec.leading(kmax) if unit else solve_generalized_eig(ctx.disc.unit_pair, kmax)
    sandwich = verify_minmax_sandwich(spec, spec_unit, s.a_plus)
    lam, lam_unit, lower_ok = sandwich.lambdas, sandwich.lambdas_unit, sandwich.lower_ok
    upper = s.a_plus * lam_unit
    rep.csv("minmax.csv", ("k", "lambda_unit", "lambda", "upper", "lower_ok", "upper_ok"),
            zip(range(1, lam.size + 1), lam_unit, lam, upper, lower_ok, sandwich.upper_ok))
    bound = np.where(lower_ok, upper, lam_unit)  # of the side that breaks first
    rep.per_index_check(
        "minmax-sandwich", ~(lower_ok & sandwich.upper_ok),
        lambda k: f"index={k + 1} side={'upper' if lower_ok[k] else 'lower'} "
                  f"measured={lam[k]:.10g} bound={bound[k]:.10g}",
        f"lambda_k^unit <= lambda_k <= a_plus lambda_k^unit for k <= {lam.size} "
        f"(a_plus={s.a_plus:g}, slack={sandwich.rel_slack:g})")

    if lam_hat.size < 2:
        rep.info("gap-property", "needs at least two strict eigenvalues; skipped")
    else:
        gap_rep = gap_report(lam_hat, s.gamma, s.delta)
        rep.csv("gap.csv", ("k", "hat_lambda", "next_gap", "required", "rho", "satisfied"),
                zip(range(1, lam_hat.size), lam_hat[:-1], gap_rep.gaps, gap_rep.bounds,
                    gap_rep.rho[:-1], gap_rep.satisfied))
        rep.per_index_check(
            "gap-property", ~gap_rep.satisfied,
            lambda k: f"index={k + 1} measured={gap_rep.gaps[k]:.10g} "
                      f"bound={gap_rep.bounds[k]:.10g} (gamma={s.gamma:g}, delta={s.delta:g})",
            f"holds at gamma={s.gamma:g}, delta={s.delta:g}; "
            f"largest admissible delta={gap_rep.delta_max:.10g}")

    if spec.K >= 10:
        ratios = weyl_ratios(spec, 10, spec.K)
        rep.info("weyl-ratio",
                 f"lambda_k/(4 pi k) in [{ratios.min():.6g}, {ratios.max():.6g}] "
                 f"for k=10..{spec.K}")

    if s.eta is not None:
        eta_vals = catalog.direction_values(ctx.mesh, s.eta.kind, s.eta.params_dict())
        etab, ptab = perturbation_sweep(spec, ctx.coeff, eta_vals, s.scales, gamma=s.gamma)
        rep.csv("eigen_perturbation.csv",
                ("k", "s", "lambda", "lambda_tilde", "diff", "l2_coeff_diff", "ratio"),
                zip(etab.k, etab.s, etab.lam, etab.lam_tilde, etab.diff,
                    etab.l2_coeff_diff, etab.ratio))
        rep.spread_check("eigen-perturbation-spread", etab.ratio, 50.0,
                         f"max/min normalized ratio, k <= {EIGEN_SWEEP_ROWS}",
                         "fewer than two finite ratios (direction is null)")

        rep.csv("projection_perturbation.csv",
                ("k", "s", "l2_coeff_diff", "gate_bound", "in_gate", "proj_norm", "normalized"),
                zip(ptab.k, ptab.s, ptab.l2_coeff_diff, ptab.gate_bound,
                    ptab.in_gate, ptab.proj_norm, ptab.normalized))
        n_gated = int(ptab.in_gate.sum())
        rep.spread_check("projection-perturbation-spread", ptab.normalized[ptab.in_gate], 10.0,
                         f"{n_gated} gated rows, k <= {PROJECTION_SWEEP_ROWS}",
                         f"not enough gated rows to form a spread ({n_gated} in gate)")
    else:
        rep.info("perturbation-sweeps", "skipped: no eta direction configured")


# --- stability-sweep ---------------------------------------------------------

def _run_stability_sweep(ctx: _Context, rep: _Report) -> None:
    s = ctx.scenario
    if s.perturbation is None:
        raise RunnerError(f"scenario {s.name!r}: stability-sweep needs a perturbation block")
    if s.T_grid is None or len(s.T_grid) < 4:
        raise RunnerError(f"scenario {s.name!r}: stability-sweep needs T_grid with >= 4 points")
    t_min = float(min(s.T_grid))
    spec = _flow_spectrum(ctx.pair, t_min, s.modes, rep)
    u0 = ctx.initial_state(spec)
    a_tilde = catalog.make_coefficient(ctx.mesh, s.perturbation.kind,
                                       s.perturbation.params_dict(), s.a_plus)
    spec_t = _flow_spectrum(ctx.disc.pair(a_tilde.values), t_min, s.modes, rep)

    flow = ModalFlow(spec, u0)
    tab = stability_ratio_experiment(ctx.coeff, a_tilde, s.T_grid, flow, ModalFlow(spec_t, u0))
    rep.csv("stability.csv",
            ("T", "l2_udiff", "h2_udiff", "rho", "bracket", "c_fit", "indistinguishable"),
            zip(tab.T, tab.l2_udiff, tab.h2_udiff, tab.rho, tab.bracket,
                tab.c_fit, tab.indistinguishable))
    rep.csv("f_lipschitz.csv", ("T", "diff_norm", "ratio"), zip(tab.T, tab.F_diff, tab.F_ratio))

    # The rate bracket, the ground comparison and the fitted gap constant all
    # presume a populated ground mode.
    if flow.weight > 0:
        rep.slope_check("stability-rate", tab.rate_low <= tab.fitted_rate <= tab.rate_high,
                        f"measured={tab.fitted_rate:.6g} "
                        f"bracket=[{tab.rate_low:.6g}, {tab.rate_high:.6g}] "
                        f"(0.8 min(l1, l1~) .. 1.2 a_plus l1^unit)", tab.rho[~tab.indistinguishable])
        if (thr := flow.threshold(s.T_grid)) is None:
            rep.info("rho-monotone", "no certified threshold inside T_grid; check skipped")
        else:
            idx = np.flatnonzero((tab.T >= thr) & np.isfinite(tab.rho))  # into T_grid
            rr = tab.rho[idx]
            rep.per_index_check(  # entry j compares grid point idx[j + 1] with idx[j]
                "rho-monotone", rr[1:] < rr[:-1] * (1.0 - 1e-9),
                lambda j: f"index={idx[j + 1] + 1} T={tab.T[idx[j + 1]]:g} "
                          f"measured={rr[j + 1]:.6g} bound={rr[j]:.6g} (previous value)",
                f"rho(T) non-decreasing on the {rr.size} grid points with T >= {thr:g}")
        rep.spread_check("gap-constant-spread", tab.c_fit, 10.0, "max/min fitted gap constant",
                         "fewer than two usable grid points")
    else:
        for name in ("stability-rate", "rho-monotone", "gap-constant-spread"):
            rep.info(name, f"skipped: int u0 d_Omega = {flow.weight:.6g} is not positive")

    rep.slope_check("F-lipschitz-slope", abs(tab.F_slope + tab.beta2) <= 0.05 * tab.beta2,
                    f"measured={tab.F_slope:.10g} expected={-tab.beta2:.10g} rel_tol=0.05",
                    tab.F_ratio)

    rep.info("reciprocal-gap",
             f"|1/l1 - 1/l1~| = {tab.recip_gap:.6g} at coefficient distance {tab.coeff_diff:.6g}")


MODES = {
    "forward": _run_forward,
    "invert": _run_invert,
    "verify-spectral": _run_verify_spectral,
    "stability-sweep": _run_stability_sweep,
}


# --- reports -----------------------------------------------------------------

def write_reports(artifact: RunArtifact) -> dict[str, str]:
    """Write the files, summary.txt and manifest.txt into out_dir; returns
    {filename: sha256}.  Every text is encoded and hashed before the first write."""
    out = artifact.out_dir
    summary = [f"scenario: {artifact.scenario.name}", f"mode: {artifact.mode}",
               f"config_sha256: {artifact.scenario_hash}",
               f"checks: {artifact.n_pass} passed, {artifact.n_fail} failed", "",
               *artifact.summary_lines]
    texts = {**artifact.files, "summary.txt": "\n".join(summary) + "\n"}
    try:
        data = {name: text.encode("ascii") for name, text in texts.items()}
        manifest = {name: hashlib.sha256(data[name]).hexdigest() for name in sorted(data)}
        out.mkdir(parents=True, exist_ok=True)
        for name, blob in data.items():
            (out / name).write_bytes(blob)
        (out / "manifest.txt").write_bytes(
            "".join(f"{sha}  {name}\n" for name, sha in manifest.items()).encode("ascii"))
    except (OSError, UnicodeEncodeError) as exc:
        raise RunnerError(f"cannot write reports into {out}: {exc}") from exc
    return manifest
