import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcoef.mesh import (
    boundary_band,
    build_structured_mesh,
    distance_to_boundary,
    read_grid,
    grid_text,
)


def test_counts_and_orientation():
    mesh = build_structured_mesh(5, 3)
    assert mesh.n_nodes == 6 * 4
    assert mesh.n_elements == 2 * 5 * 3
    areas = mesh.element_geometry[2]
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), 1.0)


def test_boundary_flags_count():
    mesh = build_structured_mesh(7, 4)
    # perimeter of an (nx+1) x (ny+1) node grid
    assert mesh.boundary_node_flags.sum() == 2 * (7 + 1) + 2 * (4 + 1) - 4


@pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1), (0, 3), (1, 1)])
def test_rejects_grids_without_interior(nx, ny):
    with pytest.raises(ValueError):
        build_structured_mesh(nx, ny)


def test_alternating_diagonals():
    # cells of both parities carry opposite diagonal orientations, otherwise
    # the triangulation breaks the square's mirror symmetry and splits the
    # analytically degenerate eigenvalue pairs
    mesh = build_structured_mesh(4, 4)

    def share_element(i, j):
        rows = mesh.elements
        return bool(np.any(np.any(rows == i, axis=1) & np.any(rows == j, axis=1)))

    # node id = j * (nx + 1) + i on the 5x5 node grid
    assert share_element(0, 6)       # cell (0,0): diagonal (0,0)-(h,h)
    assert not share_element(1, 7)   # cell (1,0): NOT (h,0)-(2h,h) ...
    assert share_element(2, 6)       # ... but (2h,0)-(h,h)


def test_distance_to_boundary_formula():
    mesh = build_structured_mesh(6, 6)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    expect = np.minimum.reduce([x, 1 - x, y, 1 - y])
    assert np.array_equal(distance_to_boundary(mesh), expect)
    assert np.all(distance_to_boundary(mesh)[mesh.boundary_node_flags] == 0.0)


def test_band_matches_definition_and_layer_count():
    mesh = build_structured_mesh(10, 10)
    band = boundary_band(mesh, 0.1)
    d = distance_to_boundary(mesh)
    assert np.array_equal(band, d < 0.1)
    # 0.15 sits safely between the first and second node layers, so the
    # band is exactly the boundary ring plus one interior ring (the strict
    # < at 0.1 itself is float-sensitive and not asserted)
    wide = boundary_band(mesh, 0.15)
    assert wide.sum() == 40 + 32


@pytest.mark.parametrize("eps", [0.0, -0.2, 0.5, 1.0])
def test_band_rejects_bad_width(eps):
    with pytest.raises(ValueError):
        boundary_band(build_structured_mesh(4, 4), eps)


@given(
    e1=st.floats(min_value=0.01, max_value=0.49),
    e2=st.floats(min_value=0.01, max_value=0.49),
)
@settings(max_examples=30)
def test_band_monotone_in_width(e1, e2):
    mesh = build_structured_mesh(9, 7)
    lo, hi = sorted([e1, e2])
    inner = boundary_band(mesh, lo)
    outer = boundary_band(mesh, hi)
    assert np.all(outer[inner])


@given(nx=st.integers(min_value=2, max_value=9), ny=st.integers(min_value=2, max_value=9),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25)
def test_grid_roundtrip_exact(nx, ny, seed):
    mesh = build_structured_mesh(nx, ny)
    values = np.random.default_rng(seed).normal(scale=1e3, size=mesh.n_nodes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.grid"
        path.write_text(grid_text(mesh, values))
        rnx, rny, back = read_grid(path)
    assert (rnx, rny) == (nx, ny)
    assert np.array_equal(back, values)  # %.17g round-trips doubles exactly


def test_grid_text_writes_each_value_as_17_significant_digits():
    mesh = build_structured_mesh(2, 2)
    values = [0.1, -0.0, 1e300, 5e-324, 1.0, 2.5, 1 / 3, 1e16, -123456789.0]
    assert grid_text(mesh, values) == (
        "2 2\n0.10000000000000001 -0 1.0000000000000001e+300\n"
        "4.9406564584124654e-324 1 2.5\n0.33333333333333331 10000000000000000 -123456789\n")


def test_grid_read_rejects_malformed(tmp_path):
    p = tmp_path / "bad.grid"
    p.write_text("2 2\n0 0 0\n0 0 0\n")  # missing a row
    with pytest.raises(ValueError):
        read_grid(p)
    p.write_text("2\n")
    with pytest.raises(ValueError):
        read_grid(p)
    p.write_text("2 2\n0 0\n0 0 0\n0 0 0\n")  # short row
    with pytest.raises(ValueError):
        read_grid(p)
    p.write_text("2 x\n0 0 0\n0 0 0\n0 0 0\n")  # header entry not an integer
    with pytest.raises(ValueError, match=rf"{re.escape(str(p))}, line 1: sizes must be integers"):
        read_grid(p)
    for header in ("3 -1", "0 2"):  # sizes below 1
        p.write_text(f"\n{header}\n0 0 0 0\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(p))}, line 2: sizes must be >= 1"):
            read_grid(p)
    p.write_text("\n\n2 2\n0 0 0\n0 abc 0\n0 0 0\n")  # value not a number, after blank lines
    with pytest.raises(ValueError, match=rf"not a number in {re.escape(str(p))}, line 5: '0 abc 0'"):
        read_grid(p)


def test_grid_write_needs_structured_mesh():
    mesh = build_structured_mesh(3, 3)
    with pytest.raises(ValueError):
        grid_text(mesh, np.zeros(5))  # wrong length
