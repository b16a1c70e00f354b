"""relgap: relative perturbation bounds for spectral subspaces.

Weak Sylvester equation solvers with a-priori bounds, sin-theta type
estimates for spectral projections of form-close operators, a Rayleigh-Ritz
a-posteriori subspace error estimator, the square-root perturbation rule,
and a quasi-periodic model-problem benchmark harness.
"""

__version__ = "0.1.0"

from .matcore import (  # noqa: F401
    ConvergenceError,
    HermitianMatrix,
    Projection,
    SpectralDecomposition,
    fractional_power,
    hs_norm,
    load_matrix,
    op_norm,
    save_matrix,
)
from .forms import (  # noqa: F401
    ClosenessReport,
    FormPair,
    eta_exact,
    s_operator,
)
from .sylvester import (  # noqa: F401
    SylvesterBounds,
    WeakSylvesterProblem,
    relative_gap,
    solve_weak_quadrature,
    solve_weak_spectral,
    sylvester_bounds,
    weak_residual,
)
from .subspace import (  # noqa: F401
    BoundReport,
    HsSubspaceBounds,
    ProjectionPairReport,
    hs_subspace_bounds,
    pair_analysis,
    subspace_bounds,
)
from .ritz import (  # noqa: F401
    RitzEstimate,
    dk_residual_bound,
    eta_routes,
    ritz_bounds,
)
from .sqroot import (  # noqa: F401
    SqrtIntegralResult,
    SqrtPerturbation,
    sqrt_integral_solution,
    sqrt_pair,
)
from .harness import (  # noqa: F401
    BenchmarkRow,
    MathieuModel,
    build_test_space,
    mathieu_model,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
    trial_functions,
)
