"""Forward and inverse solvers for heat-equation diffusion coefficients.

The package discretizes u_t - div(a grad u) = 0 on the unit square with
homogeneous Dirichlet data, evolves initial states through the spectral
decomposition of the elliptic pencil, and reconstructs the coefficient
a(x) from a single final-time snapshot via a regularized stationary
transport solve wrapped in a fixed-point loop.

All numerical objects are plain immutable dataclasses over numpy arrays;
nothing mutates shared state, so independent scenario runs can be executed
concurrently from separate processes.
"""

from . import catalog, fem, heat, inversion, mesh, runner, scenario, spectral

__version__ = "0.1.0"
