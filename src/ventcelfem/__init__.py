"""P1 finite elements for mixed wall / elastic-chain boundary problems.

The interior operator is the Laplacian; on designated boundary chains
the flux balances a second-order tangential operator with variable
coefficients, while the remaining boundary carries prescribed values.
The package provides exact curved geometry, structured meshing over
three reference domains, assembly and direct solution, and an
extensive verification suite (inequality oracles, coercivity and
continuity certificates, independent-quadrature residuals, and
manufactured-solution convergence studies).
"""

from .geometry import (
    CABLE_HALF_WIDTH,
    CableArc,
    Circle,
    Curve,
    Segment,
    boundary_field_sample,
    equivalence_residual,
)
from .domain import (
    DomainSpec,
    annulus_domain,
    cable_domain,
    make_domain,
    square_domain,
)
from .mesh import (
    Mesh,
    mesh_quality,
    triangulate,
    validate,
    write_mesh,
)
from .fields import (
    EXACT_SOLUTIONS,
    BoundaryFunction,
    Coefficient,
    ConstantCoefficient,
    CubicHarmonic,
    FieldCoefficient,
    InverseCurvature,
    LogRadial,
    NodalCoefficient,
    ProductField,
    QuadraticField,
    ZERO,
    parse_coefficient,
)
from .femcore import (
    CoefficientBounds,
    FeSpace,
    FeSystem,
    LoadData,
    assemble_bilinear,
    assemble_load,
    build_space,
    coefficient_bounds,
    mcshane_lift,
)
from .solver import (
    SingularSystemError,
    Solution,
    UniquenessReport,
    VentcelProblem,
    estimate_trace_lipschitz,
    manufactured_problem,
    solve_ventcel,
    uniqueness_diagnostic,
    write_solution_csv,
    write_trace_csv,
)
from .verify import (
    ConvergenceReport,
    InequalityReport,
    SuiteResult,
    coercivity_eigencheck,
    compatibility_check,
    continuity_check,
    curve_poincare_check,
    ibp_identity_check,
    ibp_identity_suite,
    interval_poincare_check,
    manufactured_convergence,
    poincare_counterexample,
    run_suite,
    solution_errors,
    trace_poincare_estimate,
    weak_residual_check,
)

__version__ = "0.1.0"
