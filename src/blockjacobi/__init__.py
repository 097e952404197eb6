"""Numerical analysis of block Jacobi matrices with d x d operator entries:
generalised eigenvector propagation, Turan-determinant and commutator
functionals, definiteness scans of their limit forms, asymptotic band
verification and complete-indeterminacy detection."""

__version__ = "0.1.0"

from .opcore import (  # noqa: F401
    Definiteness,
    DomainError,
    HypothesisViolatedError,
    NotConvergentError,
    NotHermitianError,
    SingularError,
    classify_definiteness,
    hermitian_extremes,
    invert,
    neg_part,
    op_norm,
    sym,
)
from .coeffs import (  # noqa: F401
    CoefficientFamily,
    carleman_diagnostic,
    constant_family,
    custom_family,
    scaled_periodic_family,
    series_verdict,
    tabulated_family,
    total_variation,
    validate_family,
)
from .recurrence import (  # noqa: F401
    Trajectory,
    formal_eigenvector_start,
    l2_tail_diagnostic,
    propagate,
    propagate_block,
    transfer,
    transfer_inv,
    transfer_stack,
    weighted_norm_trace,
    window_product,
)
from .turan import (  # noqa: F401
    LambdaSet,
    PeriodicLimitData,
    asymptotic_band,
    christoffel_limit,
    definiteness_scan,
    exact_asymptotics,
    extract_periodic_limits,
    indeterminacy_probe,
    lambda_scan,
    limit_form,
    make_periodic_limits,
    principal_minors,
    turan_convergence,
    turan_form,
    turan_value,
)
from .commutator import (  # noqa: F401
    ANWeights,
    CustomWeights,
    IdentityWeights,
    LogWeights,
    c_limit,
    check_growth_criterion,
    check_log_weight_criterion,
    commutator_form,
    commutator_value,
    weight_conditions,
)
from .config import ParseError, parse_config  # noqa: F401
from .runner import emit, run  # noqa: F401
