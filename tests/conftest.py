"""Shared fixtures: the solves are cached per session because the
eigendecompositions dominate the suite's runtime."""

import numpy as np
import pytest

from heatcoef.catalog import initial_state, make_coefficient
from heatcoef.fem import discretize, grid
from heatcoef.mesh import build_structured_mesh
from heatcoef.spectral import solve_generalized_eig


@pytest.fixture(scope="session")
def mesh32():
    return build_structured_mesh(32, 32)


@pytest.fixture(scope="session")
def mesh16():
    return build_structured_mesh(16, 16)


@pytest.fixture(scope="session")
def disc32(mesh32):
    return discretize(mesh32)


@pytest.fixture(scope="session")
def unit_pair32(disc32):
    return disc32.pair(1.0)


@pytest.fixture(scope="session")
def unit_spec32(unit_pair32):
    """Unit-coefficient decomposition, K=10 (the analytic-oracle workhorse)."""
    return solve_generalized_eig(unit_pair32, 10)


@pytest.fixture(scope="session")
def bump32(mesh32):
    return make_coefficient(mesh32, "gaussian-bump", {"base": 1.0, "amplitude": 0.5}, 2.0)


@pytest.fixture(scope="session")
def bump_pair32(disc32, bump32):
    return disc32.pair(bump32.values)


@pytest.fixture(scope="session")
def bump_spec32(bump_pair32):
    return solve_generalized_eig(bump_pair32, 8)


@pytest.fixture(scope="session")
def spectrum():
    """spectrum(mesh, coeff, K): decomposition of the coefficient's pencil at cluster_tol 1e-6."""
    def solve(mesh, coeff, K):
        return solve_generalized_eig(discretize(mesh).pair(coeff.values), K)
    return solve


@pytest.fixture(scope="session")
def d_omega32(mesh32):
    return initial_state(mesh32, "d_Omega")


@pytest.fixture(scope="session")
def two_well16():
    """(pair, K=2 spectrum) of a = 1 in two discs and 30 elsewhere at 16^2.

    lambda_2 lies within 10% of lambda_1 (150.7 and 164.5).
    """
    disc = discretize(build_structured_mesh(16, 16))
    x, y = disc.mesh.nodes[:, 0], disc.mesh.nodes[:, 1]
    wells = (np.hypot(x - 0.25, y - 0.5) < 0.2) | (np.hypot(x - 0.75, y - 0.5) < 0.2)
    pair = disc.pair(np.where(wells, 1.0, 30.0))
    return pair, solve_generalized_eig(pair, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def cold_grids():
    """An empty fem.grid cache, so the next run builds its grid."""
    grid.cache_clear()
