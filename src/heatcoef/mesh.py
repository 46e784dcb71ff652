"""Structured triangulations of the unit square and boundary geometry.

The mesh is a right-triangle split of an nx-by-ny cell grid whose cell
diagonals alternate with the checkerboard parity of the cell: cells with
even i + j are cut from lower-left to upper-right, odd cells from
lower-right to upper-left.  Either cut has its right angles at the cell
corners, so the stiffness stencil of the unit coefficient reduces to the
familiar five-point star.  Node index = j * (nx + 1) + i for grid position
(i, j), i.e. nodal fields reshape to (ny + 1, nx + 1) row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "build_structured_mesh",
    "distance_to_boundary",
    "boundary_band",
    "grid_text",
    "read_grid",
]


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of the closed unit square.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array of vertex coordinates.
    elements : (n_elements, 3) int array of counterclockwise vertex triples.
    boundary_node_flags : (n_nodes,) bool array, True on the four sides.
    h : nominal element diameter (length of the cell diagonal).
    nx, ny : generating cell counts; None for hand-built meshes, in which
        case the grid-dump helpers are unavailable.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_node_flags: np.ndarray
    h: float
    nx: int | None = None
    ny: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def interior_node_flags(self) -> np.ndarray:
        return ~self.boundary_node_flags

    @cached_property
    def element_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """P1 shape data per element, built once: (b, c, area) with
        grad(lambda_i) = (b_i, c_i) / (2 area), area > 0 iff counterclockwise."""
        p = self.nodes[self.elements]
        x, y = p[..., 0], p[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        area = 0.5 * np.einsum("ei,ei->e", x, b)
        for v in (b, c, area):
            v.flags.writeable = False
        return b, c, area

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """G, (2 n_elements, n_nodes), built once: G w stacks the x and then the y
        components of the constant gradient of the P1 interpolant of w on each
        element, G[e, elements[e, i]] = b_i / (2 area) and G[E + e, ...] = c_i / (2 area)."""
        E = self.n_elements
        b, c, area = self.element_geometry
        data = np.concatenate([b, c]) / np.tile(2.0 * area, 2)[:, None]
        G = sp.csr_matrix((data.ravel(), np.tile(self.elements, (2, 1)).ravel(),
                           np.arange(0, 6 * E + 1, 3)), shape=(2 * E, self.n_nodes))
        for v in (G.data, G.indices, G.indptr):
            v.flags.writeable = False
        return G

    @cached_property
    def nodal_average(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """(W, W 1), built once: W[i, e] = area of e for each element e at node i,
        so (W g) / (W 1) is the area-weighted average of element values g at
        each node.  A row lists its elements by local vertex slot, then by
        element (a stable sort of elements.T.ravel()), which fixes the order of
        every sum; a column-sorted W would sum the same terms in another order."""
        E = self.n_elements
        _, _, area = self.element_geometry
        slots = self.elements.T.ravel()
        element = np.argsort(slots, kind="stable") % E
        indptr = np.concatenate([[0], np.cumsum(np.bincount(slots, minlength=self.n_nodes))])
        W = sp.csr_matrix((area[element], element, indptr), shape=(self.n_nodes, E))
        total = W @ np.ones(E)
        for v in (W.data, W.indices, W.indptr, total):
            v.flags.writeable = False
        return W, total


def build_structured_mesh(nx: int, ny: int) -> Mesh:
    """Triangulate the unit square into 2*nx*ny right triangles.

    Cell diagonals alternate with the checkerboard parity of the cell, so
    the triangulation inherits the full symmetry group of the square on
    even grids.  That keeps genuinely symmetry-paired eigenvalues of the
    discrete pencil (modes (m,n) and (n,m)) exactly degenerate instead of
    split at O(h^2), which the spectral clustering downstream relies on.

    Rejects grids below 2x2 cells: a coarser grid has no interior node and
    every downstream Dirichlet-reduced operator would be empty.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must have at least 2 cells per side, got nx={nx}, ny={ny}")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii, jj = ii.ravel(), jj.ravel()
    n00 = jj * (nx + 1) + ii
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    even = (ii + jj) % 2 == 0
    # even cells: diagonal n00-n11; odd cells: diagonal n10-n01 (both CCW)
    first = np.where(even[:, None],
                     np.column_stack([n00, n10, n11]),
                     np.column_stack([n00, n10, n01]))
    second = np.where(even[:, None],
                      np.column_stack([n00, n11, n01]),
                      np.column_stack([n10, n11, n01]))
    elements = np.vstack([first, second])

    gi = np.tile(np.arange(nx + 1), ny + 1)
    gj = np.repeat(np.arange(ny + 1), nx + 1)
    flags = (gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)

    h = float(np.hypot(1.0 / nx, 1.0 / ny))
    for v in (nodes, elements, flags):  # fem.grid shares one mesh between runs
        v.flags.writeable = False
    return Mesh(nodes=nodes, elements=elements, boundary_node_flags=flags, h=h, nx=nx, ny=ny)


def distance_to_boundary(mesh: Mesh) -> np.ndarray:
    """Nodal distance to the boundary of the unit square, min(x, 1-x, y, 1-y)."""
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    return np.minimum.reduce([x, 1.0 - x, y, 1.0 - y])


def boundary_band(mesh: Mesh, epsilon: float) -> np.ndarray:
    """Bool mask of the nodes with distance-to-boundary strictly below epsilon.

    epsilon must lie in (0, 0.5): at 0.5 the band swallows the whole square
    and the complements used by the lower-bound checks become empty.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"band width must satisfy 0 < epsilon < 0.5, got {epsilon}")
    return distance_to_boundary(mesh) < epsilon


def grid_text(mesh: Mesh, values) -> str:
    """A nodal field in the plain-text grid format, the one read_grid reads.

    First line is "nx ny"; then ny+1 lines, one mesh row per line with the
    nx+1 node values in x order, full double precision.
    """
    if mesh.nx is None or mesh.ny is None:
        raise ValueError("grid dumps require a structured mesh with nx, ny set")
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got shape {v.shape}")
    row = " ".join(["%.17g"] * (mesh.nx + 1))
    rows = v.reshape(mesh.ny + 1, mesh.nx + 1).tolist()
    return "\n".join([f"{mesh.nx} {mesh.ny}", *(row % tuple(r) for r in rows)]) + "\n"


def read_grid(path) -> tuple[int, int, np.ndarray]:
    """Read a grid dump; returns (nx, ny, flat nodal values in node order).

    Errors name the file and, for a malformed entry, its line number.
    """
    raw = Path(path).read_text(encoding="ascii")
    text = raw.strip().splitlines()
    if not text:
        raise ValueError(f"empty grid file: {path}")
    first = raw[: len(raw) - len(raw.lstrip())].count("\n") + 1  # line number of the header
    head = text[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed grid header {text[0]!r} in {path}")
    try:
        nx, ny = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"grid header {text[0]!r} in {path}, line {first}: "
                         f"sizes must be integers") from None
    if nx < 1 or ny < 1:
        raise ValueError(f"grid header {text[0]!r} in {path}, line {first}: "
                         f"sizes must be >= 1")
    if len(text) != ny + 2:
        raise ValueError(f"grid file {path} has {len(text) - 1} rows, expected {ny + 1}")
    rows = []
    for lineno, line in enumerate(text[1:], start=first + 1):
        try:
            row = np.array([float(t) for t in line.split()])
        except ValueError:
            raise ValueError(f"grid value that is not a number in {path}, line {lineno}: "
                             f"{line!r}") from None
        if row.size != nx + 1:
            raise ValueError(f"grid row with {row.size} values, expected {nx + 1} in {path}")
        rows.append(row)
    return nx, ny, np.concatenate(rows)
