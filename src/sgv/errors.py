"""Exception types shared across the toolkit, and the admissibility rules.

Every failure mode that a caller can reasonably branch on gets its own
class; plain ValueError is reserved for malformed arguments that indicate
a programming error rather than a geometric or numerical condition.
Three rules, `require_dimension`, `require_exponent` and `require_positive`,
say once what the theorem admits, in comparisons that NaN and +-inf fail.
"""

import math
import numbers


class SgvError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveWarp(SgvError):
    """The warp function is not strictly positive on the interior."""


class BadPoleClosure(SgvError):
    """A pole-closed profile fails the smooth-closure conditions
    f(0) = f(L) = 0, f'(0) = 1, f'(L) = -1."""


class BadExponent(SgvError):
    """An integrability exponent p outside the admissible range (n/2, inf)."""


class NoConvergence(SgvError):
    """A grid-refinement study failed to exhibit the expected behaviour
    (observed convergence order outside the accepted window)."""


class DegenerateRange(SgvError):
    """An eigenfunction was numerically constant, so the sup/inf
    normalization is undefined."""


class NonPositiveGround(SgvError):
    """A ground state that should be sign-definite has non-positive
    entries; the power transform is undefined."""


class SignChange(SgvError):
    """A vector expected to be sign-definite changes sign."""


class EndpointSecondDerivative(SgvError):
    """Second derivative of the model function requested at u = +-1,
    where it diverges."""


class RatioOutOfRange(SgvError):
    """The sharpness integrand ratio |q| reached 1; the integral is
    defined only for |q| < 1 (requires b >= eta)."""


class HypothesisViolation(SgvError):
    """Inputs lie outside the hypotheses of the inequality being checked
    (e.g. an upper comparison value above the admissible ceiling)."""


class DeltaTooLarge(SgvError):
    """The deviation parameter delta is at or beyond the value where the
    gradient-estimate denominators degenerate."""


class Unreachable(SgvError):
    """No admissible parameter achieves the requested target ratio."""

    def __init__(self, message: str, best_alpha: float = float("nan"),
                 best_delta: float = float("nan")):
        super().__init__(message)
        self.best_alpha = best_alpha
        self.best_delta = best_delta


class EmptySeries(SgvError):
    """A plot was requested for an empty record set."""


class ConfigError(SgvError):
    """Malformed run configuration (unknown keys, bad values, bad JSON)."""


def require_dimension(n, label: str) -> int:
    """n as an int; ValueError unless n is an integer >= 2 (no bool)."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not (math.isfinite(n) and n == int(n) and n >= 2)):
        raise ValueError(f"{label} = {n!r} must be an integer >= 2")
    return int(n)


def require_exponent(p: float, n: int) -> None:
    """BadExponent unless n/2 < p < inf."""
    if not (n / 2.0 < p < math.inf):
        raise BadExponent(f"p = {p} must be finite and exceed n/2 = {n / 2}")


def require_positive(name: str, value: float) -> None:
    """ValueError unless 0 < value < inf."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} = {value} must be positive and finite")
