"""Closed catalogs of coefficient fields, perturbation directions and
initial states used by scenario configs."""

from __future__ import annotations

import numpy as np

from .fem import CoefficientField, make_field, require_zero_boundary
from .mesh import Mesh, distance_to_boundary, read_grid

__all__ = [
    "COEFFICIENT_KINDS",
    "GROUPS",
    "group_defaults",
    "coefficient_values",
    "direction_values",
    "make_coefficient",
    "initial_state",
]

# Parameter tables double as the schema: a config may only set the keys
# listed for its kind, and unset keys take these defaults.
_COEFF_PARAMS: dict[str, dict[str, float]] = {
    "constant": {"value": 1.0},
    "affine": {"base": 1.0, "grad_x": 0.5, "grad_y": 0.25},
    "gaussian-bump": {
        "base": 1.0, "amplitude": 0.5, "center_x": 0.3, "center_y": 0.4, "width": 0.06,
    },
    "two-bump": {
        "base": 1.0,
        "amplitude": 0.4, "center_x": 0.25, "center_y": 0.3, "width": 0.06,
        "amplitude2": 0.3, "center2_x": 0.7, "center2_y": 0.65, "width2": 0.05,
    },
}

# Perturbation directions reuse the shapes with zero offset and small
# amplitudes so that a + s*eta stays admissible for the default sweeps.
_DIRECTION_PARAMS: dict[str, dict[str, float]] = {
    "constant": {"value": 1.0},
    "affine": {"base": 0.0, "grad_x": 0.5, "grad_y": 0.25},
    "gaussian-bump": {
        "base": 0.0, "amplitude": 0.05, "center_x": 0.6, "center_y": 0.35, "width": 0.05,
    },
    "two-bump": {
        "base": 0.0,
        "amplitude": 0.05, "center_x": 0.25, "center_y": 0.3, "width": 0.02,
        "amplitude2": 0.04, "center2_x": 0.7, "center2_y": 0.65, "width2": 0.03,
    },
}

# The type of each default is the type a config value is parsed as:
# int for the sine orders, str for the grid path, float otherwise.
_U0_PARAMS: dict[str, dict] = {
    "d_Omega": {},
    "first-eigenfunction": {},
    "sine-product": {"m": 1, "n": 1},
    "custom": {"path": ""},
}

# Config group -> (the name its kinds go by in errors, its parameter table).
_GROUPS: dict[str, tuple[str, dict[str, dict]]] = {
    "coefficient": ("coefficient", _COEFF_PARAMS),
    "u0": ("initial-state", _U0_PARAMS),
    "perturbation": ("coefficient", _COEFF_PARAMS),
    "eta": ("direction", _DIRECTION_PARAMS),
}

COEFFICIENT_KINDS = tuple(_COEFF_PARAMS)
GROUPS = {group: tuple(table) for group, (_, table) in _GROUPS.items()}  # group -> kinds


def group_defaults(group: str, kind: str) -> dict:
    """The parameters of `kind` in config group `group` with their defaults."""
    label, table = _GROUPS[group]
    if kind not in table:
        raise KeyError(f"unknown {label} kind {kind!r}; catalog: {sorted(table)}")
    return dict(table[kind])


def _field_values(mesh: Mesh, kind: str, p: dict[str, float]) -> np.ndarray:
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    if kind == "constant":
        return np.full(mesh.n_nodes, p["value"])
    if kind == "affine":
        return p["base"] + p["grad_x"] * x + p["grad_y"] * y
    if kind == "gaussian-bump":
        r2 = (x - p["center_x"]) ** 2 + (y - p["center_y"]) ** 2
        return p["base"] + p["amplitude"] * np.exp(-r2 / p["width"])
    if kind == "two-bump":
        r2a = (x - p["center_x"]) ** 2 + (y - p["center_y"]) ** 2
        r2b = (x - p["center2_x"]) ** 2 + (y - p["center2_y"]) ** 2
        return (p["base"] + p["amplitude"] * np.exp(-r2a / p["width"])
                + p["amplitude2"] * np.exp(-r2b / p["width2"]))
    raise KeyError(f"unknown field kind {kind!r}")


def coefficient_values(mesh: Mesh, kind: str, params: dict[str, float] | None = None) -> np.ndarray:
    p = group_defaults("coefficient", kind)
    p.update(params or {})
    return _field_values(mesh, kind, p)


def direction_values(mesh: Mesh, kind: str, params: dict[str, float] | None = None) -> np.ndarray:
    p = group_defaults("eta", kind)
    p.update(params or {})
    return _field_values(mesh, kind, p)


def make_coefficient(mesh: Mesh, kind: str, params: dict[str, float] | None, a_plus: float) -> CoefficientField:
    return make_field(mesh, coefficient_values(mesh, kind, params), a_plus)


def initial_state(mesh: Mesh, kind: str, params: dict | None = None, spectral=None) -> np.ndarray:
    """Nodal initial state from the catalog; zero on the boundary by construction.

    "first-eigenfunction" reads the ground vector of `spectral`, a K=1
    decomposition of the scenario pencil; "custom" reads a grid dump
    matching the mesh resolution.
    """
    p = group_defaults("u0", kind)
    p.update(params or {})
    if kind == "d_Omega":
        return distance_to_boundary(mesh)
    if kind == "first-eigenfunction":
        if spectral is None:
            raise ValueError("first-eigenfunction initial state needs a spectral decomposition")
        return spectral.disc.extend(spectral.eigenvectors[:, 0])
    if kind == "sine-product":
        m, n = int(p["m"]), int(p["n"])
        if m < 1 or n < 1:
            raise ValueError(f"sine-product orders must be >= 1, got m={m}, n={n}")
        x = mesh.nodes[:, 0]
        y = mesh.nodes[:, 1]
        v = np.sin(m * np.pi * x) * np.sin(n * np.pi * y)
        v[mesh.boundary_node_flags] = 0.0
        return v
    if kind == "custom":
        if not p["path"]:
            raise ValueError("custom initial state needs u0.path")
        nx, ny, v = read_grid(p["path"])
        if (nx, ny) != (mesh.nx, mesh.ny):
            raise ValueError(
                f"custom initial state is {nx}x{ny} but the mesh is {mesh.nx}x{mesh.ny}"
            )
        if not np.isfinite(v).all():
            k = int(np.argmin(np.isfinite(v)))
            x, y = mesh.nodes[k]
            raise ValueError(f"custom initial state value {v[k]} is not finite at node {k} "
                             f"(x={x:.6g}, y={y:.6g})")
        require_zero_boundary(v, mesh.boundary_node_flags,
                              "custom initial state must vanish on the boundary")
        v[mesh.boundary_node_flags] = 0.0
        return v
    raise KeyError(f"unknown initial-state kind {kind!r}")
