"""First-order methods and empirical rate verification for problems whose
curvature grows with the gradient: ||hess f|| <= l0 + l1 * ||grad f||."""

from .kernels import (
    SmoothnessParams,
    phi,
    phi_star,
    psi,
)
from .problems import (
    CertificateReport,
    Objective,
    affine_logistic,
    certify_smoothness,
    exp_phi,
    logistic_1d,
    power_norm,
    separable_pnorm,
)
from .first_order import (
    IterRecord,
    StepRule,
    Trace,
    best_iterate,
    gd_run,
    ngd_run,
    stepsize_clipped,
    stepsize_optimal,
    stepsize_polyak,
    stepsize_simplified,
)
from .agmsdr import (
    EstimateState,
    agmsdr_run,
    segment_line_search,
    two_stage_run,
)
from .verify import (
    CheckReport,
    check_convex_lower_bounds,
    check_smoothness_envelopes,
    conjugate_grid_consistency,
    fd_gradient_check,
    kernel_bound_checks,
    rate_monitor,
    serialize_reports,
)

__version__ = "0.1.0"

__all__ = [
    "SmoothnessParams",
    "phi",
    "phi_star",
    "psi",
    "Objective",
    "CertificateReport",
    "power_norm",
    "logistic_1d",
    "affine_logistic",
    "exp_phi",
    "separable_pnorm",
    "certify_smoothness",
    "StepRule",
    "IterRecord",
    "Trace",
    "gd_run",
    "ngd_run",
    "best_iterate",
    "stepsize_optimal",
    "stepsize_simplified",
    "stepsize_clipped",
    "stepsize_polyak",
    "EstimateState",
    "segment_line_search",
    "agmsdr_run",
    "two_stage_run",
    "CheckReport",
    "fd_gradient_check",
    "check_smoothness_envelopes",
    "check_convex_lower_bounds",
    "kernel_bound_checks",
    "conjugate_grid_consistency",
    "rate_monitor",
    "serialize_reports",
]
