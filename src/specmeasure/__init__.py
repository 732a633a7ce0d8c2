"""Principal-eigenvalue analysis for nonlocal dispersal operators.

The package discretizes operators of the form

    L[phi](x) = integral K(x, y) phi(y) dy + a(x) phi(x)

on bounded domains, estimates the generalized principal eigenvalue, and
classifies whether the principal eigenfunction is a continuous function, an
L^1 density, or a measure with a singular part concentrated on the argmax
set of the coefficient a.
"""

from .errors import (
    ClassificationUnstableError,
    ConfigurationError,
    H1Violation,
    H2Violation,
    H3Violation,
    InconsistencyError,
    InvalidEigenpairError,
    IterationLimitError,
    NearSingularSystemError,
    NonFiniteResultError,
    NormalizationError,
    PositivityViolationError,
    SingularNodeError,
    SpecmeasureError,
    TooLargeError,
    UnsupportedMeasureError,
)
from .geometry import (
    Ball,
    Box,
    Cylinder,
    GradeSpec,
    Grid,
    Interval,
    Product,
    Segment,
    build_grid,
    distance_to_target,
    volume,
)
from .model import (
    ArgmaxComponent,
    ArgmaxSet,
    CoefficientField,
    IntegrabilityResult,
    Kernel,
    Problem,
    build_problem,
    check_recip_integrability,
    constant_coefficient,
    constant_kernel,
    coordinate_linear,
    custom_coefficient,
    custom_kernel,
    detect_argmax_set,
    gaussian_kernel,
    radial_power,
)
from .spectral import (
    LambdaPEstimate,
    PerronPair,
    RegimeReport,
    assemble_full,
    assemble_ktilde,
    classify_regime,
    estimate_lambda_p,
    perron,
)
from .measure import (
    DiscreteMeasure,
    build_singular_solution,
    cantor_approximant,
    density_at,
    kernel_moment,
    normalize,
    span_combination,
)
from .verify import (
    ResidualReport,
    default_test_functions,
    pointwise_residual,
    refinement_study,
    weak_residual,
)

__version__ = "0.1.0"
