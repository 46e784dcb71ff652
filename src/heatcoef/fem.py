"""P1 finite elements: assembly, the per-mesh Discretization, norms.

The diffusion coefficient lives in the same P1 nodal space as the solution;
inside each element it is replaced by the average of its three vertex
values, which keeps assembly exact for piecewise-constant data and makes
A(a) linear in the nodal values: A(a).data = S a on a fixed CSR pattern.
_stiffness_map builds S; no other code knows the element rule.  make_field,
the one constructor of a CoefficientField, runs validate_coefficient, the
one admissibility check, so every field is admissible by construction.

Everything that does not depend on the coefficient -- the mass matrix,
the interior/boundary partition and S -- is built once per mesh by a
Discretization (discretize()).  Its pair(a) is one product with the
interior rows S_II of S, and its transport_operator(u), the weak
transport operator G(u) a = -(A(a) u)_I of the inversion module, is
-Rows diag(u_I[col]) S_II.

grid(nx, ny) builds the Discretization of a structured grid once per
process, and every run of that size shares it; the cache keeps
_GRID_CACHE_SIZE grids.  Shared data is read-only: an in-place write to
the mesh's arrays or to the Discretization's index arrays and sparse
data/indices/indptr raises ValueError instead of reaching the next run.

definite_factor is the banded Cholesky factor of a symmetric positive
definite matrix on the mesh's own node order, and Cholesky completes
only on a positive definite matrix, which it thereby proves.  Every SPD
solve of the package, and the halves L^-1 and L^-T of the ARPACK
operator L^-1 M L^-T, use that factor: the inversion's transport normal
matrix through definite_factor, the others through a band scattered from
cached positions.  A pencil's A(a) - sigma M (OperatorPair.pencil_factor)
skips the sparse subtraction: the Discretization keeps the band positions
of the pattern of A(a)_II and M_II's values there, so its band is one
scatter of the stiffness data, and Discretization.mass_int_factor one
scatter of those values.  Discretization.spectra is spectral's memo of the
grid's pencil solves (read-only arrays and a flow cut's inertia count per
pencil and K), so a pencil that several runs read, as the unit pencil
A(1)_II, M_II of the min-max sandwich and the sweep, is solved once per grid.
symmetric_factor returns the negative-pivot count of the package's only
sparse LU: the inertia of an indefinite A - sigma M, which
spectral.solve_flow_spectrum reads to count the eigenvalues below sigma.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .mesh import Mesh, build_structured_mesh

__all__ = [
    "CoefficientField",
    "Discretization",
    "OperatorPair",
    "AdmissibilityError",
    "BandCholesky",
    "Norms",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_pair",
    "apply_dirichlet",
    "discretize",
    "grid",
    "definite_factor",
    "symmetric_factor",
    "compute_norms",
    "require_zero_boundary",
    "l2_norm",
    "make_field",
    "validate_coefficient",
    "gradient_bound",
    "element_gradients",
    "nodal_gradients",
]


# Roundoff allowance of validate_coefficient on the bounds.
_ADMISSIBILITY_TOL = 1e-12

# Grids grid() keeps.  One holds about 1.2 / 3.0 / 5.8 MB at 32x32 / 48x48 /
# 64x64 once a run has built its map, band index and mass factor, plus its
# spectrum memo of spectral.SPECTRUM_MEMO_SIZE = 5 entries of 8 K n_interior
# bytes (0.3 / 1.3 MB at K=40 and 32x32 / 64x64, 0.2 MB at K=12 and 48x48).
# Every caller reads one size at a time; a second entry keeps that grid across
# a run at another size, as run_all.py's 64x64 scenario among its 32x32 ones.
_GRID_CACHE_SIZE = 2


class AdmissibilityError(ValueError):
    """A coefficient field violates the admissible-set constraints."""


@dataclass(frozen=True)
class CoefficientField:
    """Nodal diffusion coefficient, admissible by construction (make_field).

    values : nodal values on all mesh nodes, finite and in [1, a_plus];
        the entries at boundary nodes are the coefficient's boundary trace.
    a_plus : upper bound of the admissible set, finite and > 1.
    """

    values: np.ndarray
    a_plus: float


@dataclass(frozen=True)
class Discretization:
    """Coefficient-free P1 data of one mesh; build it with discretize(mesh).

    mass : full M over all nodes.
    interior / boundary : sorted node indices of the Dirichlet partition.
    mass_int : the interior block M_II.
    The interior rows S_II of S, unit_stiffness (the full A(1)), the band
    index of the pencils (_pencil_band), mass_int_factor (M_II's values
    scattered into that band, factored), mass_floor and the spectrum memo
    spectra are built on first use; none refers back to the Discretization
    (no cycle).
    """

    mesh: Mesh
    mass: sp.csr_matrix
    interior: np.ndarray
    boundary: np.ndarray
    mass_int: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @cached_property
    def _map(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """(A(1), S_II, pattern of A(a)_II): S_II holds the rows of S that the block's data number."""
        S, pattern = _stiffness_map(self.mesh)
        block = pattern[self.interior][:, self.interior]
        unit = _on_pattern(S @ np.ones(self.n_nodes), pattern)
        return _read_only(unit), _read_only(S[block.data]), _read_only(block)

    @cached_property
    def _pencil_band(self) -> tuple[sp.csr_matrix, _BandIndex, np.ndarray]:
        """(pattern of A(a)_II, its band index, M_II's values at the index's lower entries)."""
        block = self._map[2]
        index = _band_index(block)
        rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))[index.lower]
        mass_lower = np.asarray(self.mass_int[rows, block.indices[index.lower]]).ravel()
        for v in (index.lower, index.flat, mass_lower):
            _read_only(v)
        return block, index, mass_lower

    @property
    def unit_stiffness(self) -> sp.csr_matrix:
        """Full A(1) over all nodes."""
        return self._map[0]

    def pair(self, a) -> OperatorPair:
        """Dirichlet-reduced pencil (A(a)_II, M_II) of one coefficient."""
        _, S_II, block = self._map
        return OperatorPair(_on_pattern(S_II @ _coefficient_values(a, self.n_nodes), block), self)

    @cached_property
    def mass_int_factor(self) -> BandCholesky:
        _, index, mass_lower = self._pencil_band
        lu = _band_cholesky(mass_lower, index)
        if lu is None:
            raise ValueError("interior mass matrix is not positive definite")
        _read_only(lu.band)
        return lu

    @cached_property
    def mass_floor(self) -> float:
        """d_min, the least interior (1/12) sum_{K at i} |K|: a lower bound on
        lambda_min(M_II), since each element mass (|K|/12)(I + 11') is at least
        (|K|/12) I."""
        return float(self.mesh.nodal_average[1][self.interior].min()) / 12.0

    @cached_property
    def spectra(self) -> OrderedDict:
        """spectral's memo of the solves of this grid's pencils, least recently
        used first; its entries hold arrays only, since a decomposition points
        back at its Discretization."""
        return OrderedDict()

    @property
    def unit_pair(self) -> OperatorPair:
        """pair(1.0); not cached, since a pair stored on its own Discretization is a
        reference cycle that keeps the mesh's matrices alive until a cyclic collection."""
        return self.pair(1.0)

    def transport_operator(self, u) -> sp.csr_matrix:
        """G(u), (n_interior, n_nodes), with G a = -(A(a) u)_I for every nodal a.

        A snapshot u vanishes on the boundary, so (A(a) u)_I =
        Rows diag(u_I[col]) S_II a, where Rows sums each row of A(a)_II.
        """
        u_I = self.restrict(u)
        require_zero_boundary(u, self.boundary, "snapshot must vanish on boundary nodes")
        _, S_II, block = self._map
        rows = sp.csr_matrix((-u_I[block.indices], np.arange(block.nnz), block.indptr),
                             shape=(block.shape[0], block.nnz))
        return rows @ S_II

    def restrict(self, w: np.ndarray) -> np.ndarray:
        """Interior values of a full nodal field."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_nodes,):
            raise ValueError(f"field has shape {w.shape}, expected ({self.n_nodes},)")
        return w[self.interior]

    def extend(self, wi: np.ndarray) -> np.ndarray:
        """Full nodal field from interior values, zero on the boundary."""
        out = np.zeros(self.n_nodes)
        out[self.interior] = wi
        return out


@dataclass(frozen=True)
class OperatorPair:
    """Dirichlet-reduced stiffness/mass pencil of one coefficient.

    `stiffness` is the interior block A(a)_II; `mass` is the shared M_II of
    the Discretization `disc` the pair was built on.
    """

    stiffness: sp.csr_matrix
    disc: Discretization

    @property
    def mass(self) -> sp.csr_matrix:
        return self.disc.mass_int

    def pencil_factor(self, sigma: float) -> BandCholesky | None:
        """definite_factor(A - sigma M), its band scattered from the stiffness data.

        Raises ValueError for a stiffness off the Discretization's pattern.
        """
        block, index, mass_lower = self.disc._pencil_band
        A = self.stiffness
        if not (np.array_equal(A.indptr, block.indptr) and np.array_equal(A.indices, block.indices)):
            raise ValueError("stiffness is not on the pattern of its Discretization")
        return _band_cholesky(A.data[index.lower] - sigma * mass_lower, index)


class Norms(NamedTuple):
    l2: float
    h1: float
    h2_surrogate: float


def _coefficient_values(a, n_nodes: int) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim == 0:
        v = np.full(n_nodes, float(v))
    if v.shape != (n_nodes,):
        raise ValueError(f"coefficient has shape {v.shape}, expected ({n_nodes},)")
    return v


def _stiffness_map(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(S, pattern) of A(a)_ij = sum_K abar_K int_K grad(phi_i).grad(phi_j), abar_K the vertex mean.

    S = Q V: V sums the vertex values of each element, Q places its local
    entries (b_i b_j + c_i c_j) / (12 |K|) on the pattern of all node pairs
    sharing an element, whose data number them: entry k of A(a) is (S a)_k.
    """
    n, els = mesh.n_nodes, mesh.elements
    E = els.shape[0]
    b, c, area = mesh.element_geometry
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (12.0 * area)[:, None, None]
    keys = (np.repeat(els, 3, axis=1).astype(np.int64) * n + np.tile(els, (1, 3))).ravel()
    keys, entry = np.unique(keys, return_inverse=True)
    Q = sp.csc_matrix((local.ravel(), entry, np.arange(0, 9 * E + 1, 9)), shape=(keys.size, E))
    V = sp.csr_matrix((np.ones(3 * E), els.ravel(), np.arange(0, 3 * E + 1, 3)), shape=(E, n))
    pattern = sp.csr_matrix((np.arange(keys.size), keys % n, np.searchsorted(keys, np.arange(n + 1) * n)),
                            shape=(n, n))
    return Q.tocsr() @ V, pattern


def _read_only(x):
    """x, an array or a sparse matrix's data/indices/indptr, marked read-only."""
    for v in (x.data, x.indices, x.indptr) if sp.issparse(x) else (x,):
        v.flags.writeable = False
    return x


def _on_pattern(data: np.ndarray, pattern: sp.csr_matrix) -> sp.csr_matrix:
    """data on copies of the pattern's arrays (eliminate_zeros edits them in place)."""
    return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape)


def assemble_stiffness(mesh: Mesh, a) -> sp.csr_matrix:
    """A(a) from a fresh map of mesh; a may be a scalar or a nodal array."""
    S, pattern = _stiffness_map(mesh)
    return _on_pattern(S @ _coefficient_values(a, mesh.n_nodes), pattern)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the consistent P1 mass matrix, local block (|K|/12)[[2,1,1],[1,2,1],[1,1,2]]."""
    _, _, area = mesh.element_geometry
    template = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * template
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    return M.tocsr()


def discretize(mesh: Mesh) -> Discretization:
    """The coefficient-free data of a mesh: M and the Dirichlet partition (S on first use),
    all read-only."""
    interior = _read_only(np.flatnonzero(mesh.interior_node_flags))
    if interior.size == 0:
        raise ValueError("mesh has no interior nodes")
    M = _read_only(assemble_mass(mesh))
    return Discretization(mesh=mesh, mass=M, interior=interior,
                          boundary=_read_only(np.flatnonzero(mesh.boundary_node_flags)),
                          mass_int=_read_only(M[interior][:, interior].tocsr()))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def grid(nx: int, ny: int) -> Discretization:
    """discretize(build_structured_mesh(nx, ny)), built once per process for each size.

    Every run on an nx x ny grid reads the same object, so its lazily built
    map, band index and mass factor are paid once too.  Callers that hold a
    mesh of their own use discretize(mesh).
    """
    return discretize(build_structured_mesh(nx, ny))


def symmetric_factor(C: sp.spmatrix) -> int | None:
    """Count of negative pivots of a sparse LU factor of a symmetric C.

    The package's only sparse LU, used only for inertia (every definite
    solve uses definite_factor).  It is symmetric-mode, ordered by minimum
    degree on the pattern of C (George-Liu, SIAM Review 31, 1989) and
    without pivoting.  When rows and columns share one permutation P,
    P C P' = L D L' with D the diagonal of U, so by Sylvester's law of
    inertia the count is the number of negative eigenvalues of C; for
    C = A - sigma M it is the number of pencil eigenvalues below sigma.
    Returns None when the factor gives no inertia: SuperLU left the
    diagonal, found C singular, or a pivot is not finite.
    """
    try:
        lu = spla.splu(C.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(np.isfinite(pivots) & (pivots != 0))):
        return None
    return int(np.count_nonzero(pivots < 0))


@dataclass(frozen=True)
class BandCholesky:
    """C = L L' with L in LAPACK lower band storage: band[i - j, j] = L[i, j]."""

    band: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """C^-1 b by the two band triangular solves of dpbtrs."""
        return dpbtrs(self.band, b, lower=1)[0]

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b, the first half of solve, by dtbtrs."""
        return dtbtrs(self.band, b, uplo="L")[0]

    def solve_upper(self, b: np.ndarray) -> np.ndarray:
        """L'^-1 b, the second half of solve, by dtbtrs."""
        return dtbtrs(self.band, b, uplo="L", trans="T")[0]


class _BandIndex(NamedTuple):
    """Where the lower triangle of a CSR pattern lies in LAPACK lower band storage.

    lower : positions in the pattern's data of the entries with i >= j.
    flat : their places band[i - j, j] in the band flattened in Fortran order.
    shape : (half-width + 1, n), the half-width being max(i - j).
    """

    lower: np.ndarray
    flat: np.ndarray
    shape: tuple[int, int]


def _band_index(C: sp.csr_matrix) -> _BandIndex:
    n = C.shape[0]
    offset = np.repeat(np.arange(n), np.diff(C.indptr)) - C.indices
    lower = np.flatnonzero(offset >= 0)
    width = int(offset.max(initial=0)) + 1
    return _BandIndex(lower, offset[lower] + width * C.indices[lower], (width, n))


def _band_cholesky(values: np.ndarray, index: _BandIndex) -> BandCholesky | None:
    """dpbtrf of the band that holds values at index.flat and zeros elsewhere."""
    band = np.zeros(index.shape[0] * index.shape[1])
    band[index.flat] = values
    L, info = dpbtrf(band.reshape(index.shape, order="F"), lower=1, overwrite_ab=1)
    return BandCholesky(L) if info == 0 and np.all(np.isfinite(L[0])) else None


def definite_factor(C: sp.spmatrix) -> BandCholesky | None:
    """Banded Cholesky factor of a symmetric C, None unless C is positive definite.

    The lower triangle of C, in C's own order, goes into LAPACK lower band
    storage of half-width max(i - j) (the row length of a structured mesh)
    and is factored by dpbtrf (Anderson et al., LAPACK Users' Guide, 1999).
    Cholesky stops at the first pivot that is not positive, so a factor
    whose diagonal is finite proves C positive definite in floating point
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 10.1);
    for C = A - sigma M that puts every eigenvalue of the pencil above
    sigma.  dpbtrf passes a NaN pivot, hence the finite test.
    """
    C = sp.csr_matrix(C)
    if not C.has_canonical_format:
        C = C.copy()
        C.sum_duplicates()
    index = _band_index(C)
    return _band_cholesky(C.data[index.lower], index)


def assemble_pair(mesh: Mesh, a) -> OperatorPair:
    """Reduced pencil of a on a fresh Discretization; prefer discretize(mesh).pair(a)."""
    return discretize(mesh).pair(a)


def apply_dirichlet(pair: OperatorPair, mesh: Mesh) -> OperatorPair:
    """Return the already-reduced pair after checking it belongs to mesh."""
    if pair.disc.mesh is not mesh:
        raise ValueError("pair was built on a different mesh")
    return pair


def l2_norm(w: np.ndarray, mass: sp.spmatrix) -> float:
    """Mass-matrix L2 norm sqrt(w' M w)."""
    return float(np.sqrt(max(w @ (mass @ w), 0.0)))


def require_zero_boundary(w, boundary, message: str) -> None:
    """Raise ValueError(message) if |w| > 1e-12 max(1, max |w|) on a boundary node."""
    w = np.asarray(w, dtype=float)
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if np.any(np.abs(w[boundary]) > 1e-12 * scale):
        raise ValueError(message)


def compute_norms(w, disc: Discretization) -> Norms:
    """L2, H1 and H2-surrogate norms of a nodal field on disc's mesh.

    The H1 seminorm and the surrogate use the unit stiffness A(1), through
    one product A(1) w.  The H2 surrogate adds the L2 norm of the discrete
    Laplacian z solving M z = -A(1) w on interior nodes; it is only defined
    for fields vanishing on the boundary and raises otherwise.
    """
    w = np.asarray(w, dtype=float)
    disc.restrict(w)  # shape check
    require_zero_boundary(w, disc.boundary,
                          "H2 surrogate undefined: field is nonzero on boundary nodes")
    Aw = disc.unit_stiffness @ w
    l2sq = max(w @ (disc.mass @ w), 0.0)
    h1sq = l2sq + max(w @ Aw, 0.0)
    z = disc.mass_int_factor.solve(-Aw[disc.interior])
    h2sq = h1sq + max(z @ (disc.mass_int @ z), 0.0)
    return Norms(l2=float(np.sqrt(l2sq)), h1=float(np.sqrt(h1sq)), h2_surrogate=float(np.sqrt(h2sq)))


def make_field(mesh: Mesh, values, a_plus: float) -> CoefficientField:
    """A CoefficientField of a copy of the values, refused by validate_coefficient
    unless admissible: the package's one constructor of a field."""
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got shape {v.shape}")
    field = CoefficientField(values=v.copy(), a_plus=float(a_plus))
    validate_coefficient(mesh, field)
    return field


def validate_coefficient(mesh: Mesh, field: CoefficientField) -> None:
    """make_field's check: raise AdmissibilityError unless 1 < a_plus < inf and every
    value is finite and in [1, a_plus]; a value error names the worst node."""
    v = field.values
    tol = _ADMISSIBILITY_TOL
    if not 1.0 < field.a_plus < np.inf:
        raise AdmissibilityError(f"a_plus must exceed 1, got {field.a_plus}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        k = int(bad[0])
        x, y = mesh.nodes[k]
        raise AdmissibilityError(
            f"coefficient value {v[k]} is not finite at node {k} (x={x:.6g}, y={y:.6g})"
        )
    low = np.argmin(v)
    if v[low] < 1.0 - tol:
        x, y = mesh.nodes[low]
        raise AdmissibilityError(
            f"coefficient value {v[low]:.6g} < 1 at node {low} (x={x:.6g}, y={y:.6g})"
        )
    high = np.argmax(v)
    if v[high] > field.a_plus + tol:
        x, y = mesh.nodes[high]
        raise AdmissibilityError(
            f"coefficient value {v[high]:.6g} > a_plus={field.a_plus:.6g} at node {high} "
            f"(x={x:.6g}, y={y:.6g})"
        )


def element_gradients(mesh: Mesh, w) -> np.ndarray:
    """Constant gradient of the P1 interpolant on each element, shape (n_elements, 2)."""
    w = np.asarray(w, dtype=float)
    b, c, area = mesh.element_geometry
    we = w[mesh.elements]
    gx = np.einsum("ei,ei->e", we, b) / (2.0 * area)
    gy = np.einsum("ei,ei->e", we, c) / (2.0 * area)
    return np.column_stack([gx, gy])


def nodal_gradients(mesh: Mesh, w) -> np.ndarray:
    """Area-weighted average of the element gradients at each node (mesh.nodal_average)."""
    W, total = mesh.nodal_average
    return (W @ element_gradients(mesh, w)) / total[:, None]


def gradient_bound(mesh: Mesh, values) -> float:
    """Largest elementwise |grad a_h|, the discrete stand-in for the C1 seminorm.

    The element gradients come from one product with mesh.gradient_operator,
    built once per mesh; they equal element_gradients' up to rounding.
    """
    gx, gy = (mesh.gradient_operator @ np.asarray(values, dtype=float)).reshape(2, -1)
    return float(np.sqrt(np.max(gx * gx + gy * gy)))
