"""Seeded workloads of the heatcoef benchmark.

A workload turns (seed, case index) into scenario config text, the only
input the program receives, and knows the exact reference its outputs are
checked against.  Case draws come from ``numpy.random.default_rng((seed,
index))``, so the same seed always gives the same inputs.

Draws stay inside the admissible set: 1 <= a <= a_plus with the boundary
trace taken from the field (checked with ``validate_coefficient``) and
the elementwise gradient cap ``gradient_bound(a) <= a_plus``.  The parser
does not check the cap itself (see NOTES.md), so the generator must.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heatcoef import catalog
from heatcoef.fem import assemble_mass, gradient_bound, l2_norm, make_field, validate_coefficient
from heatcoef.mesh import build_structured_mesh, read_grid

A_PLUS = 2.0
# Bump draws for forward_sweep48: amplitude and centre ranges of the
# admissible Gaussian bumps (width fixed at the catalog default 0.06).
BUMP_AMPLITUDE = (0.3, 0.55)
BUMP_CENTRE = (0.25, 0.75)
# Centre range of the eta direction bump of verify_spectral32.  Centres
# closer than ETA_CENTRE_GAP to the middle of the square are redrawn: there
# the program's projection-perturbation-spread check fails (NOTES.md, known
# defect 3).
ETA_CENTRE = (0.2, 0.8)
ETA_CENTRE_GAP = 0.15
# Bound the runner itself puts on the noiseless reconstruction error.
REL_ERROR_BOUND = 0.02


@dataclass(frozen=True)
class Solve:
    mode: str
    config: str


@dataclass(frozen=True)
class Case:
    index: int
    solves: tuple[Solve, ...]
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bump_lines(amp: float, cx: float, cy: float) -> str:
    return (f"coefficient = gaussian-bump\ncoefficient.amplitude = {_fmt(amp)}\n"
            f"coefficient.center_x = {_fmt(cx)}\ncoefficient.center_y = {_fmt(cy)}\n")


def admissible(mesh, values: np.ndarray, a_plus: float = A_PLUS) -> bool:
    """Bounds and trace (validate_coefficient) plus the gradient cap."""
    try:
        validate_coefficient(mesh, make_field(mesh, values, a_plus))
    except ValueError:
        return False
    return gradient_bound(mesh, values) <= a_plus


def draw_bump(rng: np.random.Generator, mesh) -> tuple[float, float, float]:
    """Seeded admissible Gaussian bump (amplitude, centre_x, centre_y)."""
    while True:
        amp = round(float(rng.uniform(*BUMP_AMPLITUDE)), 4)
        cx, cy = (round(float(v), 4) for v in rng.uniform(*BUMP_CENTRE, size=2))
        values = catalog.coefficient_values(
            mesh, "gaussian-bump", {"amplitude": amp, "center_x": cx, "center_y": cy})
        if admissible(mesh, values):
            return amp, cx, cy


def unit_square_eigenvalues(count: int) -> np.ndarray:
    """The lowest ``count`` Dirichlet eigenvalues pi^2 (m^2 + n^2) of the unit square."""
    r = int(np.ceil(np.sqrt(count))) + 2
    lam = sorted(np.pi ** 2 * (m * m + n * n) for m in range(1, r + 1) for n in range(1, r + 1))
    return np.array(lam[:count])


class Workload:
    """One benchmark workload: seeded case generator plus output reference."""

    name = ""
    grid = 32
    K = 40
    # Largest accepted rel_error, or None when the error is only reported.
    rel_error_bound: float | None = None

    def make_case(self, seed: int, index: int) -> Case:
        raise NotImplementedError

    def rel_error(self, scenario, mode: str, out_dir: Path) -> float | None:
        """Relative error of one solve's outputs against the exact reference."""
        return None


class InvertBump32(Workload):
    name = "invert_bump32"
    rel_error_bound = REL_ERROR_BOUND

    def make_case(self, seed: int, index: int) -> Case:
        # The bundled bump_invert coefficient whatever the seed: the fixed
        # point stalls above tol_fp on a share of admissible bumps, and the
        # benchmark must not fail solves (NOTES.md, known defect 2).
        text = (f"name = {self.name}\n" + _bump_lines(0.5, 0.3, 0.4)
                + "nx = 32\nny = 32\nT = 0.15\nnoise = 0\n")
        return Case(index, (Solve("invert", text),),
                    {"amplitude": 0.5, "center_x": 0.3, "center_y": 0.4})

    def rel_error(self, scenario, mode, out_dir):
        nx, ny, rec = read_grid(out_dir / "a_rec.grid")
        mesh = build_structured_mesh(nx, ny)
        truth = catalog.coefficient_values(mesh, scenario.coefficient.kind,
                                           scenario.coefficient.params_dict())
        mass = assemble_mass(mesh)
        return l2_norm(rec - truth, mass) / l2_norm(truth, mass)


class VerifySpectral32(Workload):
    name = "verify_spectral32"

    def make_case(self, seed: int, index: int) -> Case:
        rng = np.random.default_rng((seed, index))
        while True:
            cx, cy = (round(float(v), 4) for v in rng.uniform(*ETA_CENTRE, size=2))
            if np.hypot(cx - 0.5, cy - 0.5) >= ETA_CENTRE_GAP:
                break
        text = (f"name = {self.name}\ncoefficient = constant\ncoefficient.value = 1.0\n"
                "nx = 32\nny = 32\nmodes = 40\ngamma = 0.0\ndelta = 1.0\n"
                f"eta = gaussian-bump\neta.amplitude = 0.04\neta.center_x = {_fmt(cx)}\n"
                f"eta.center_y = {_fmt(cy)}\nscales = 0.001,0.01,0.1\n")
        return Case(index, (Solve("verify-spectral", text),), {"eta_x": cx, "eta_y": cy})

    def rel_error(self, scenario, mode, out_dir):
        with open(out_dir / "minmax.csv", newline="") as fh:
            lam = np.array([float(row["lambda_unit"]) for row in csv.DictReader(fh)])
        exact = unit_square_eigenvalues(lam.size)
        return float(np.max(np.abs(lam - exact) / exact))


_BRACKET = re.compile(r"bracket=\[[^,]+, ([^\]]+)\]")


class ForwardSweep48(Workload):
    name = "forward_sweep48"
    grid = 48

    def __init__(self) -> None:
        self._mesh = build_structured_mesh(self.grid, self.grid)

    def make_case(self, seed: int, index: int) -> Case:
        rng = np.random.default_rng((seed, index))
        amp, cx, cy = draw_bump(rng, self._mesh)
        base = _bump_lines(amp, cx, cy) + "nx = 48\nny = 48\nu0 = d_Omega\n"
        forward = (f"name = {self.name}_forward\n" + base
                   + "T = 2.0\nT_grid = 1.0,1.5,2.0,2.5,3.0,3.5,4.0,4.5,5.0\n")
        sweep = (f"name = {self.name}_sweep\n" + base
                 + "perturbation = two-bump\nT = 0.5\nT_grid = 0.5,1.0,1.5,2.0,2.5,3.0\n")
        return Case(index, (Solve("forward", forward), Solve("stability-sweep", sweep)),
                    {"amplitude": amp, "center_x": cx, "center_y": cy})

    def rel_error(self, scenario, mode, out_dir):
        # The sweep's rate bracket prints 1.2 a_plus l1^unit: the unit-square
        # ground eigenvalue at this grid, whose exact value is 2 pi^2.
        if mode != "stability-sweep":
            return None
        text = (out_dir / "summary.txt").read_text()
        match = _BRACKET.search(text)
        if match is None:
            raise ValueError("stability-rate line with a bracket not found in summary.txt")
        lam1_unit = float(match.group(1)) / (1.2 * scenario.a_plus)
        return abs(lam1_unit - 2 * np.pi ** 2) / (2 * np.pi ** 2)


WORKLOADS = {w.name: w for w in (InvertBump32, VerifySpectral32, ForwardSweep48)}


def get(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]()
