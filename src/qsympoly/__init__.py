"""qsympoly: symmetric q-orthogonal polynomials with four free parameters.

A characteristic vector (a, b, c, d) and a base q in (0, 1) select a
symmetric polynomial family through a second-order q-difference equation.
The package builds the monic polynomials three independent ways
(three-term recurrence, explicit double-product sum, terminating 2phi1
series), evaluates the Pearson weight that makes them orthogonal under
Jackson q-integration, carries the named families (generalized
q-ultraspherical, fifth/sixth-kind q-Chebyshev, generalized q-Hermite),
and verifies the whole structure numerically, including the q -> 1
classical limits.

Arithmetic is duck typed: floats give standard double precision, and
mpmath.mpf values run the same code at elevated precision.
"""

from .classical import (
    LimitReport,
    continuous_C_limit,
    continuous_lambda_limit,
    continuous_ode_residual,
    continuous_poly_coeffs,
    continuous_weight,
    limit_convergence_report,
)
from .errors import (
    AdmissibilityError,
    DivergenceError,
    IllDefinedSeriesError,
    InvalidBaseError,
    QSymPolyError,
    ResonanceError,
    TruncationError,
    ZeroDenominatorError,
)
from .families import (
    FamilyDescriptor,
    NormTriple,
    ReductionReport,
    favard_norm,
    hermite_p0_reduction_check,
    make_chebyshev5,
    make_chebyshev6,
    make_custom,
    make_hermite,
    make_ultraspherical,
    norm_square_hermite,
    norm_square_ultraspherical,
    norm_triple_report,
    orthogonality_matrix,
)
from .jackson import (
    JacksonConfig,
    QIntegralResult,
    q_integral,
    q_integral_real_line,
    q_integral_symmetric,
    q_integral_zero_to,
)
from .qcore import (
    QContext,
    basic_hypergeometric,
    q_binomial,
    q_derivative,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    sigma_parity,
)
from .sympoly import (
    CharVector,
    OrthogonalityClassification,
    SymPolynomial,
    build_monic,
    classify_orthogonality,
    delta,
    eigenvalue,
    eval_explicit,
    eval_explicit_monic,
    eval_hypergeometric,
    hypergeometric_parameters,
    monic_factor,
    monic_ladder,
    ode_residual_terms,
    recurrence_C,
    recurrence_C_even,
    recurrence_C_odd,
)
from .weights import (
    BoundaryReport,
    WeightGridReport,
    boundary_vanishing_check,
    pearson_ratio,
    weight_general,
    weight_grid_report,
    weight_star,
)

__version__ = "0.1.0"
