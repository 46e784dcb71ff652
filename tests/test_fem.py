import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcoef import fem
from heatcoef.catalog import initial_state, make_coefficient
from heatcoef.fem import (
    AdmissibilityError,
    assemble_mass,
    assemble_stiffness,
    compute_norms,
    definite_factor,
    discretize,
    element_gradients,
    gradient_bound,
    l2_norm,
    make_field,
    nodal_gradients,
    symmetric_factor,
    validate_coefficient,
)
from heatcoef.heat import ModalFlow, evolve
from heatcoef.mesh import Mesh, build_structured_mesh, distance_to_boundary, grid_text
from heatcoef.spectral import solve_generalized_eig


def reference_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]])
    flags = np.array([True, True, True])
    return Mesh(nodes=nodes, elements=elements, boundary_node_flags=flags, h=np.sqrt(2.0))


def test_local_stiffness_on_reference_triangle():
    A = assemble_stiffness(reference_triangle(), 1.0).toarray()
    expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(A, expect, atol=1e-15)


def test_local_mass_on_reference_triangle():
    M = assemble_mass(reference_triangle()).toarray()
    expect = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(M, expect, atol=1e-16)


def test_five_point_star_center_entries():
    mesh = build_structured_mesh(2, 2)
    center = 1 * 3 + 1  # the single interior node
    A = assemble_stiffness(mesh, 1.0)
    M = assemble_mass(mesh)
    assert A[center, center] == pytest.approx(4.0, abs=1e-14)
    assert M[center, center] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_global_identities():
    mesh = build_structured_mesh(8, 5)
    A = assemble_stiffness(mesh, 1.0)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    assert np.max(np.abs(A @ ones)) < 1e-12       # constants in the kernel
    assert ones @ (M @ ones) == pytest.approx(1.0, abs=1e-14)  # total area


@given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20)
def test_stiffness_scales_linearly_in_the_coefficient(c, seed):
    mesh = build_structured_mesh(4, 4)
    a = 1.0 + np.random.default_rng(seed).random(mesh.n_nodes)
    A1 = assemble_stiffness(mesh, a)
    Ac = assemble_stiffness(mesh, c * a)
    assert np.allclose(Ac.toarray(), c * A1.toarray(), rtol=1e-13)


def test_discretize_pair_blocks(rng):
    mesh = build_structured_mesh(4, 4)
    a = 1.0 + mesh.nodes[:, 0] * mesh.nodes[:, 1]
    disc = discretize(mesh)
    pair = disc.pair(a)
    I = np.flatnonzero(mesh.interior_node_flags)
    assert np.array_equal(disc.interior, I)
    assert np.array_equal(disc.boundary, np.flatnonzero(mesh.boundary_node_flags))
    assert pair.stiffness.shape == ((4 - 1) ** 2,) * 2
    assert np.array_equal(pair.stiffness.toarray(), assemble_stiffness(mesh, a)[I][:, I].toarray())
    assert np.array_equal(pair.mass.toarray(), assemble_mass(mesh)[I][:, I].toarray())
    w = rng.normal(size=mesh.n_nodes)
    back = disc.extend(disc.restrict(w))
    assert np.all(back[disc.boundary] == 0.0)
    assert np.array_equal(back[I], w[I])


def test_unit_pair_is_the_sliced_unit_stiffness(monkeypatch):
    # pair(1.0), unit_pair and the interior block of unit_stiffness are one
    # product with one map, bit for bit, and none of them assembles again.
    mesh = build_structured_mesh(6, 6)
    disc = discretize(mesh)
    expected = disc.unit_stiffness[disc.interior][:, disc.interior].tocsr()
    monkeypatch.setattr(fem, "_stiffness_map", None)  # the map is built once, above
    unit = disc.unit_pair
    assert unit.disc is disc and unit.mass is disc.mass_int
    for pair in (unit, disc.pair(1.0)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(pair.stiffness, attr), getattr(expected, attr))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20)
def test_pair_is_additive_in_the_coefficient(seed):
    # A(a).data = S a, so the pencil of a + b is the sum of the pencils to rounding
    disc = discretize(build_structured_mesh(5, 4))
    rng = np.random.default_rng(seed)
    a, b = 1.0 + rng.random((2, disc.n_nodes))
    A, B, AB = (disc.pair(c).stiffness for c in (a, b, a + b))
    assert np.array_equal(AB.indices, A.indices) and np.array_equal(AB.indptr, A.indptr)
    assert np.allclose(AB.data, A.data + B.data, rtol=1e-14, atol=0.0)


def test_definite_factor_certifies_by_cholesky(unit_pair32):
    # the unit pencil shifted above lambda_1 is indefinite: no factor
    lam1 = solve_generalized_eig(unit_pair32, 1).eigenvalues[0]
    assert definite_factor(unit_pair32.stiffness - 1.1 * lam1 * unit_pair32.mass) is None


@pytest.mark.parametrize("nx", [32, 48])
def test_band_cholesky_solves_like_spsolve(nx):
    mesh = build_structured_mesh(nx, nx)
    disc = discretize(mesh)
    pair = disc.pair(make_coefficient(mesh, "gaussian-bump", {"base": 1.0, "amplitude": 0.5}, 2.0).values)
    lam1 = solve_generalized_eig(pair, 1).eigenvalues[0]
    b = np.random.default_rng(7).standard_normal(disc.interior.size)
    for C in (pair.stiffness, pair.stiffness - 0.9 * lam1 * pair.mass, disc.mass_int):
        ref = spla.spsolve(C.tocsc(), b)
        assert np.linalg.norm(definite_factor(C).solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_pencil_factor_scatters_the_band_of_the_sparse_difference(bump_pair32):
    # the band of A(a) - sigma M straight from the stiffness data is the band
    # definite_factor builds from the sparse difference, bit for bit.  At
    # sigma = 0 the reference is A itself: A - 0 M would drop the zeros A(a)
    # stores for the vertex pairs whose element entries vanish, and narrow the band.
    A, M = bump_pair32.stiffness, bump_pair32.mass
    lam1 = solve_generalized_eig(bump_pair32, 1).eigenvalues[0]
    for sigma, C in ((0.0, A), (0.9 * lam1, A - 0.9 * lam1 * M)):
        assert np.array_equal(bump_pair32.pencil_factor(sigma).band, definite_factor(C).band)
    assert bump_pair32.pencil_factor(1.1 * lam1) is None
    assert definite_factor(A - 1.1 * lam1 * M) is None
    # a pair built by hand off the Discretization's pattern is refused
    narrow = A.copy()
    narrow.eliminate_zeros()
    with pytest.raises(ValueError, match="not on the pattern"):
        fem.OperatorPair(narrow, bump_pair32.disc).pencil_factor(0.9 * lam1)
    # M_II's own factor is M_II's values scattered into the same band
    assert np.array_equal(bump_pair32.disc.mass_int_factor.band, definite_factor(M).band)


def test_band_cholesky_refuses_what_is_not_definite(disc32, two_well16):
    nan = disc32.mass_int.copy()
    diagonal = nan.diagonal()
    diagonal[diagonal.size // 2] = np.nan  # dpbtrf itself passes a NaN pivot
    nan.setdiag(diagonal)
    assert definite_factor(nan) is None
    assert definite_factor(0.0 * disc32.mass_int) is None
    # the two-well pencil shifted just above lambda_1: one negative eigenvalue
    pair, spec = two_well16
    assert definite_factor(pair.stiffness - (1.0 + 1e-6) * spec.eigenvalues[0] * pair.mass) is None
    assert definite_factor(pair.stiffness - (1.0 - 1e-6) * spec.eigenvalues[0] * pair.mass) is not None


def test_symmetric_factor_counts_the_eigenvalues_below_the_shift(bump_pair32):
    A, M = bump_pair32.stiffness, bump_pair32.mass
    lam = solve_generalized_eig(bump_pair32, 12).eigenvalues
    for sigma in (0.5 * lam[0], 0.5 * (lam[0] + lam[1]), 0.5 * (lam[4] + lam[5]),
                  0.5 * (lam[10] + lam[11])):
        count = symmetric_factor(A - sigma * M)
        assert count == np.count_nonzero(lam < sigma)
        assert (definite_factor(A - sigma * M) is not None) == (count == 0)
    assert symmetric_factor(A) == 0


def test_h2_surrogate_closed_form_on_eigenvector():
    # for an eigenvector, M z = -A w gives z = -lambda w, so the surrogate
    # norm is sqrt(1 + lambda + lambda^2) for an M-normalized vector
    mesh = build_structured_mesh(12, 12)
    pair = discretize(mesh).pair(1.0)
    spec = solve_generalized_eig(pair, 3)
    lam = spec.eigenvalues[0]
    w = spec.disc.extend(spec.eigenvectors[:, 0])
    norms = compute_norms(w, pair.disc)
    assert norms.l2 == pytest.approx(1.0, rel=1e-12)
    assert norms.h1 == pytest.approx(np.sqrt(1.0 + lam), rel=1e-10)
    assert norms.h2_surrogate == pytest.approx(np.sqrt(1.0 + lam + lam ** 2), rel=1e-10)


def test_norms_reject_nonzero_boundary():
    mesh = build_structured_mesh(6, 6)
    with pytest.raises(ValueError, match="boundary"):
        compute_norms(np.ones(mesh.n_nodes), discretize(mesh))


def _custom_u0(disc, w, tmp_path):
    (tmp_path / "u0.grid").write_text(grid_text(disc.mesh, w))
    initial_state(disc.mesh, "custom", {"path": str(tmp_path / "u0.grid")})


# Every field that must vanish on the boundary is checked by one rule,
# |w| <= 1e-12 max(1, max |w|) on boundary nodes, with its caller's message.
_BOUNDARY_CALLERS = {
    "transport": (lambda disc, w, _: disc.transport_operator(w),
                  "snapshot must vanish on boundary nodes"),
    "norms": (lambda disc, w, _: compute_norms(w, disc),
              "H2 surrogate undefined: field is nonzero on boundary nodes"),
    "evolve": (lambda disc, w, _: evolve(ModalFlow(solve_generalized_eig(disc.pair(1.0), 4), w), 0.1),
               "initial state must vanish on boundary nodes"),
    "custom-u0": (_custom_u0, "custom initial state must vanish on the boundary"),
}


@pytest.mark.parametrize("caller", sorted(_BOUNDARY_CALLERS))
def test_boundary_vanishing_rule(caller, tmp_path):
    disc = discretize(build_structured_mesh(8, 8))
    call, message = _BOUNDARY_CALLERS[caller]
    w = distance_to_boundary(disc.mesh)  # max 0.5, so the scale is 1
    w[disc.boundary[3]] = 1e-13
    call(disc, w, tmp_path)
    w[disc.boundary[3]] = 1e-9
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(disc, w, tmp_path)


def test_sine_product_initial_state():
    mesh = build_structured_mesh(8, 6)
    u0 = initial_state(mesh, "sine-product", {"m": 2, "n": 1})
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    inside = mesh.interior_node_flags
    assert np.array_equal(u0[inside], (np.sin(2 * np.pi * x) * np.sin(np.pi * y))[inside])
    assert np.all(u0[mesh.boundary_node_flags] == 0.0)


def test_l2_norm_matches_quadratic_form(rng):
    mesh = build_structured_mesh(5, 5)
    M = assemble_mass(mesh)
    w = rng.normal(size=mesh.n_nodes)
    assert l2_norm(w, M) == pytest.approx(np.sqrt(w @ M @ w))


def test_validate_coefficient_bounds_and_trace():
    mesh = build_structured_mesh(6, 6)
    good = make_field(mesh, np.full(mesh.n_nodes, 1.5), 2.0)
    validate_coefficient(mesh, good)

    low = np.full(mesh.n_nodes, 1.5)
    low[10] = 0.5
    with pytest.raises(AdmissibilityError, match="node 10"):
        make_field(mesh, low, 2.0)

    high = np.full(mesh.n_nodes, 1.5)
    high[3] = 2.5
    with pytest.raises(AdmissibilityError, match="> a_plus"):
        make_field(mesh, high, 2.0)

    # a NaN bound passed every comparison, and an infinite one lifted the cap
    for a_plus in (1.0, float("nan"), float("inf")):
        with pytest.raises(AdmissibilityError, match=f"^a_plus must exceed 1, got {a_plus}$"):
            make_field(mesh, np.full(mesh.n_nodes, 5.0), a_plus)


def test_validate_coefficient_rejects_non_finite_value():
    mesh = build_structured_mesh(6, 6)
    values = np.full(mesh.n_nodes, 1.5)
    values[10] = np.nan
    with pytest.raises(AdmissibilityError, match="not finite at node 10"):
        make_field(mesh, values, 2.0)


@given(
    b=st.floats(min_value=-2, max_value=2),
    gx=st.floats(min_value=-3, max_value=3),
    gy=st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=25)
def test_gradients_exact_for_affine_fields(b, gx, gy):
    mesh = build_structured_mesh(5, 7)
    w = b + gx * mesh.nodes[:, 0] + gy * mesh.nodes[:, 1]
    g = element_gradients(mesh, w)
    assert np.allclose(g, [gx, gy], atol=1e-12)
    gn = nodal_gradients(mesh, w)
    assert np.allclose(gn, [gx, gy], atol=1e-12)
    assert gradient_bound(mesh, w) == pytest.approx(np.hypot(gx, gy), abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_nodal_gradients_sum_like_the_scatter_by_local_vertex(n, rng):
    # reference: scatter each local vertex slot of every element in turn
    mesh = build_structured_mesh(n, n)
    _, _, area = mesh.element_geometry
    for _ in range(5):
        w = rng.standard_normal(mesh.n_nodes)
        g = element_gradients(mesh, w)
        acc, wsum = np.zeros((mesh.n_nodes, 2)), np.zeros(mesh.n_nodes)
        for local in range(3):
            np.add.at(acc, mesh.elements[:, local], g * area[:, None])
            np.add.at(wsum, mesh.elements[:, local], area)
        assert np.array_equal(nodal_gradients(mesh, w), acc / wsum[:, None])


@pytest.mark.parametrize("n", [8, 32])
def test_gradient_bound_reads_the_element_gradients(n, rng):
    # the mesh's operator against the einsum of element_gradients
    mesh = build_structured_mesh(n, n)
    for _ in range(5):
        w = rng.standard_normal(mesh.n_nodes)
        g = element_gradients(mesh, w)
        gx, gy = (mesh.gradient_operator @ w).reshape(2, -1)
        # the same terms summed in another order: equal up to the rounding
        # of the largest gradient
        assert np.max(np.abs(np.column_stack([gx, gy]) - g)) <= 1e-14 * np.max(np.abs(g))
        assert gradient_bound(mesh, w) == pytest.approx(np.max(np.hypot(g[:, 0], g[:, 1])),
                                                        rel=1e-14)


def test_grid_is_one_object_per_size_within_its_bound(cold_grids):
    g32 = fem.grid(32, 32)
    assert fem.grid(32, 32) is g32
    assert fem.grid(16, 32) is not g32
    assert (g32.mesh.nx, g32.mesh.ny) == (32, 32)
    for n in (8, 12, 16):
        fem.grid(n, n)
        assert fem.grid.cache_info().currsize <= fem._GRID_CACHE_SIZE


SHARED_ARRAYS = {
    "mesh.nodes": lambda d: d.mesh.nodes,
    "mesh.elements": lambda d: d.mesh.elements,
    "mesh.boundary_node_flags": lambda d: d.mesh.boundary_node_flags,
    "mesh.nodal_average": lambda d: d.mesh.nodal_average[0].data,
    "mesh.gradient_operator": lambda d: d.mesh.gradient_operator.data,
    "mass.data": lambda d: d.mass.data,
    "mass_int.indices": lambda d: d.mass_int.indices,
    "interior": lambda d: d.interior,
    "boundary": lambda d: d.boundary,
    "unit_stiffness.indptr": lambda d: d.unit_stiffness.indptr,
    "pencil band mass values": lambda d: d._pencil_band[2],
    "mass_int_factor.band": lambda d: d.mass_int_factor.band,
    "unit spectrum eigenvectors": lambda d: solve_generalized_eig(d.unit_pair, 2).eigenvectors,
    "memoized eigenvalues": lambda d: solve_generalized_eig(d.pair(1.5), 3).eigenvalues,
    "memoized multiplicities": lambda d: solve_generalized_eig(d.pair(1.5), 3).multiplicities,
}


@pytest.mark.parametrize("name", SHARED_ARRAYS)
def test_a_shared_grid_refuses_in_place_writes(name):
    with pytest.raises(ValueError, match="read-only"):
        SHARED_ARRAYS[name](fem.grid(8, 8))[0] += 1
