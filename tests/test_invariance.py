"""Truth-free checks: exact identities of the discrete model.

The alternating mesh has the square's full symmetry group on even grids
(mesh.build_structured_mesh), and A(c a) = c A(a).  So a symmetry of the
square permutes the spectrum's data, the flow and the inversion's answer
node for node, and scaling the coefficient by c is the same as running
the clock c times faster.  None of these checks reads a true coefficient.
All run at 16^2 on the bundled bump with u0 = d_Omega, which every
symmetry of the square fixes, and T = 0.15.

Tolerances:
- Spectra and flows: _ROUNDING.  The two sides solve the same discrete
  problem with its nodes in another order or its matrices scaled, so they
  differ by rounding only (measured at most 5.0e-15 for eigenvalues and
  flows, 2.0e-14 for F).
- Inversions: _INVERSION_TOL, a hundredth of TOL_FP.  Both runs take the
  same steps, and rounding enters each step's transport solve, whose
  normal block is conditioned near 6e5; they agree far below the step at
  which the inversion stops (measured 4.6e-13 to 9.8e-13, the same
  through configs and written a_rec.grid files).
"""

import numpy as np
import pytest

from heatcoef.catalog import make_coefficient
from heatcoef.fem import grid, make_field
from heatcoef.heat import krylov_flow
from heatcoef.inversion import TOL_FP, fixed_point_invert
from heatcoef.mesh import distance_to_boundary, read_grid
from heatcoef.runner import run_scenario, write_reports
from heatcoef.scenario import parse_config_text
from heatcoef.spectral import solve_generalized_eig

N, T, A_PLUS, SCALE, K = 16, 0.15, 2.0, 1.2, 20
_ROUNDING = 1000 * np.finfo(float).eps
_INVERSION_TOL = TOL_FP / 100

_I, _J = np.meshgrid(np.arange(N + 1), np.arange(N + 1))


def _node(i, j):
    return (j * (N + 1) + i).ravel()


# field[perm] is the field moved by the map: its value at node (i, j) is
# the original's at the node the map sends there
SYMMETRIES = {
    "transpose": _node(_J, _I),
    "x-reflection": _node(N - _I, _J),
    "rotation": _node(_J, N - _I),
}


def _rel(x, y):
    """max |x - y| relative to max |y|."""
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


def _trace(mesh, values):
    """The boundary trace, NaN inside: what the inversion may read."""
    return np.where(mesh.boundary_node_flags, values, np.nan)


@pytest.fixture(scope="module")
def base():
    disc = grid(N, N)
    a = make_coefficient(disc.mesh, "gaussian-bump", None, A_PLUS)
    d = distance_to_boundary(disc.mesh)
    return disc, a, d


def _solve(disc, values, d, a_plus=A_PLUS, t=T):
    """(K lowest eigenvalues, Krylov flow at t, inversion of its u) of one coefficient."""
    pair = disc.pair(values)
    flow = krylov_flow(pair, d, t)
    rep = fixed_point_invert(disc, d, flow.u, _trace(disc.mesh, values), a_plus, t)
    return solve_generalized_eig(pair, K).eigenvalues, flow, rep


@pytest.fixture(scope="module")
def reference(base):
    disc, a, d = base
    return _solve(disc, a.values, d)


def test_u0_and_mesh_are_fixed_by_every_symmetry(base):
    disc, _, d = base
    for perm in SYMMETRIES.values():
        assert np.array_equal(d[perm], d)
        assert np.array_equal(disc.mesh.boundary_node_flags[perm], disc.mesh.boundary_node_flags)


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_a_symmetry_of_the_square_permutes_spectrum_flow_and_inversion(base, reference, name):
    disc, a, d = base
    perm = SYMMETRIES[name]
    lam, flow, rep = reference
    moved = make_field(disc.mesh, a.values[perm], A_PLUS)
    lam_m, flow_m, rep_m = _solve(disc, moved.values, d)
    assert _rel(lam_m, lam) <= _ROUNDING  # measured <= 4.7e-15
    assert _rel(flow_m.u, flow.u[perm]) <= _ROUNDING  # measured <= 5.0e-15
    assert rep.converged and rep_m.converged
    assert rep_m.iterations == rep.iterations == 5
    assert _rel(rep_m.a_rec.values, rep.a_rec.values[perm]) <= _INVERSION_TOL  # measured <= 9.8e-13


def test_scaling_the_coefficient_runs_the_clock_faster(base, reference):
    # A(c a) = c A(a): l(c a) = c l(a), u(c a; T) = u(a; c T) and F scales by c
    disc, a, d = base
    lam, _, _ = reference
    pair_c = disc.pair(make_field(disc.mesh, SCALE * a.values, SCALE * A_PLUS).values)
    lam_c = solve_generalized_eig(pair_c, K).eigenvalues
    assert _rel(lam_c, SCALE * lam) <= _ROUNDING  # measured 2.3e-15
    flow_c, flow_t = krylov_flow(pair_c, d, T), krylov_flow(disc.pair(a.values), d, SCALE * T)
    assert _rel(flow_c.u, flow_t.u) <= _ROUNDING  # measured 6.8e-15
    assert _rel(flow_c.F, SCALE * flow_t.F) <= _ROUNDING  # measured 2.0e-14


def test_swapped_bump_centres_write_transposed_a_rec_grids(tmp_path):
    # end to end through configs: the bundled bump centred at (0.3, 0.4) and
    # at (0.4, 0.3) are transposed coefficients, u0 = d_Omega is fixed by
    # the transpose, so the written reconstructions are transposed grids
    recs = []
    for cx, cy in ((0.3, 0.4), (0.4, 0.3)):
        out = tmp_path / f"{cx}_{cy}"
        art = run_scenario(parse_config_text(
            f"name = bump\ncoefficient = gaussian-bump\ncoefficient.center_x = {cx}\n"
            f"coefficient.center_y = {cy}\nnx = {N}\nny = {N}\nT = {T}\n"), "invert", out)
        assert art.all_pass, art.summary_lines
        assert "after 5 iteration(s)" in next(line for line in art.summary_lines
                                             if "fixed-point-converged" in line)
        write_reports(art)
        recs.append(read_grid(out / "a_rec.grid")[2])
    assert _rel(recs[1], recs[0][SYMMETRIES["transpose"]]) <= _INVERSION_TOL  # measured 9.8e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the inversion's fixed point is not "
                                       "exact, and breaks the scale relation by 5.1e-3")
def test_scaling_the_coefficient_scales_the_inversion(base):
    disc, a, d = base
    c_a = make_field(disc.mesh, SCALE * a.values, SCALE * A_PLUS)
    _, _, rep_c = _solve(disc, c_a.values, d, a_plus=SCALE * A_PLUS)
    _, _, rep_t = _solve(disc, a.values, d, t=SCALE * T)
    assert rep_c.converged and rep_t.converged  # both hold today
    assert _rel(rep_c.a_rec.values, SCALE * rep_t.a_rec.values) <= _INVERSION_TOL
