"""Fractional p-Laplacian operators and doubly nonlinear flows on finite graphs."""

from .errors import (
    BoundViolation,
    DomainError,
    ExponentOutOfRange,
    FracGraphError,
    InvalidGraph,
    LengthMismatch,
    NoConvergence,
    NonPositiveState,
    PicardNotConverged,
    PositivityViolation,
    QuadratureNotConverged,
    StepBudgetExceeded,
    StepSizeUnderflow,
)
from .graph import (
    Graph,
    Violation,
    graph_from_json,
    graph_to_json,
    integrate,
    laplacian_matrix,
    mu_inner,
    random_connected_graph,
    validate,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    fractional_power_quadrature,
    kernel_weights,
    kernel_weights_oracle,
    spectral_weight_matrix,
)
from .operators import (
    FractionalKernel,
    build_kernel,
    dirichlet_p_energy,
    frac_gradient_norms,
    frac_laplacian,
    frac_p_laplacian,
    ibp_residual,
    sobolev_norm,
)
from .flow import (
    FlowConfig,
    StepStats,
    Trajectory,
    evolve_direct,
    picard_solve,
    rhs_direct,
    steady_state,
    step,
)
from .diagnostics import (
    DiagnosticsReport,
    build_report,
    dissipation_check,
    energy_identity_residual,
    mass,
    max_principle_check,
    time_derivative_sup,
)

__version__ = "0.1.0"
