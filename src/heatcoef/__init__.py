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

from .mesh import (
    Mesh,
    BoundaryBand,
    build_structured_mesh,
    distance_to_boundary,
    boundary_band,
    write_grid,
    read_grid,
)
from .fem import (
    CoefficientField,
    Discretization,
    OperatorPair,
    AdmissibilityError,
    assemble_stiffness,
    assemble_mass,
    assemble_pair,
    apply_dirichlet,
    discretize,
    compute_norms,
    Norms,
    l2_norm,
    make_field,
    validate_coefficient,
    gradient_bound,
    element_gradients,
    nodal_gradients,
)
from .spectral import (
    SpectralDecomposition,
    GapReport,
    EigensolverError,
    solve_generalized_eig,
    strictify_spectrum,
    gap_report,
    projection_difference_norm,
    verify_minmax_sandwich,
    perturbation_sweep,
)
from .heat import (
    HeatSnapshot,
    GroundComparison,
    evolve,
    KrylovFlow,
    krylov_flow,
    fit_log_slope,
    check_u0_condition,
)
from .inversion import (
    TransportSystem,
    InversionOptions,
    InversionReport,
    TransportSolveError,
    build_transport_system,
    transport_rhs,
    solve_transport_ls,
    admissible_projection,
    fixed_point_invert,
    stability_ratio_experiment,
)
from .scenario import Scenario, FieldSpec, ConfigError, parse_config, serialize_scenario, scenario_hash
from .runner import RunArtifact, RunnerError, run_scenario, write_reports

__version__ = "0.1.0"
