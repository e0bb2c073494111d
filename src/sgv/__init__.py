"""Numerical certification toolkit for a sharp lower bound on the first
Laplace eigenvalue of closed rotationally symmetric manifolds under
integral curvature smallness.

The package computes, on exactly parameterized warped-product metrics:

  * spectra (`lambda1`, `schrodinger_ground`) via symmetric
    finite-difference pencils with Richardson extrapolation,
  * geometry (`kbar`, `diameter`, `volume`, `ricci_min`),
  * the closed-form comparison function and its inequality suite
    (`modelode`),
  * the explicit constant pipeline (`build_ledger`, `epsilon_max`,
    `gradient_constants`, `delta_for_alpha`),
  * end-to-end certification records and sweeps (`verify`).
"""

from .constants import (DELTA_CAP, DELTA_MAX, ConstantLedger,
                        EpsilonBreakdown, GradientConstants, LedgerInput,
                        build_ledger, delta_for_alpha, epsilon_max,
                        gallot_feasible, gradient_constants,
                        moser_constant, reference_bounds)
from .errors import (BadExponent, BadPoleClosure, ConfigError,
                     DegenerateRange, DeltaTooLarge, EmptySeries,
                     HypothesisViolation, NoConvergence,
                     NonPositiveGround, NonPositiveWarp, RatioOutOfRange,
                     SgvError, SignChange, Unreachable)
from .geometry import (DiameterBracket, Manifold, diameter, kbar,
                       make_manifold, rho_H_field, ricci_min, volume)
from .modelode import (check_model_inequalities, ode_residual,
                       sharpness_integral, z_deriv, z_second, z_sup,
                       z_value)
from .spectral import (EigenResult, GroundState, build_J, lambda1,
                       residual_J_equation, schrodinger_ground)
from .verify import (SigmaCheck, SweepRow, VerificationRecord,
                     check_J_bounds, check_gradient_estimate,
                     check_main_theorem, check_sigma_bound,
                     residual_order_study, sweep)

__version__ = "0.1.0"

__all__ = [
    "DELTA_CAP", "DELTA_MAX", "ConstantLedger", "EpsilonBreakdown",
    "GradientConstants", "LedgerInput", "build_ledger", "delta_for_alpha",
    "epsilon_max", "gallot_feasible", "gradient_constants",
    "moser_constant", "reference_bounds",
    "BadExponent", "BadPoleClosure", "ConfigError", "DegenerateRange",
    "DeltaTooLarge", "EmptySeries", "HypothesisViolation",
    "NoConvergence", "NonPositiveGround", "NonPositiveWarp",
    "RatioOutOfRange", "SgvError", "SignChange", "Unreachable",
    "DiameterBracket", "Manifold", "diameter", "kbar", "make_manifold",
    "rho_H_field", "ricci_min", "volume",
    "check_model_inequalities", "ode_residual", "sharpness_integral",
    "z_deriv", "z_second", "z_sup", "z_value",
    "EigenResult", "GroundState", "build_J", "lambda1",
    "residual_J_equation", "schrodinger_ground",
    "SigmaCheck", "SweepRow", "VerificationRecord", "check_J_bounds",
    "check_gradient_estimate", "check_main_theorem", "check_sigma_bound",
    "residual_order_study", "sweep",
    "__version__",
]
