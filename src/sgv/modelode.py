"""Closed-form model function for the one-dimensional comparison ODE.

The comparison argument replaces the manifold by a model on [-1, 1]
carrying the boundary-value problem

    (1 - u^2) Z''(u) + u Z'(u) = -eta * u,      Z(0) = 0,  Z(+-1) = 0,

whose unique odd solution is explicit:

    Z(u)  = (2 eta / pi) (arcsin u + u sqrt(1 - u^2)) - eta u
    Z'(u) = -eta + (4 eta / pi) sqrt(1 - u^2)
    Z''(u)= -(4 eta / pi) u / sqrt(1 - u^2)

Z is linear in eta and odd in u; both facts are exact here because the
implementation evaluates the unit-eta profile at |u| and restores sign
and scale afterwards.

Near u = +-1 the closed form for Z subtracts two O(1) quantities that
agree to O((1-|u|)), so a direct evaluation loses half the significant
digits exactly where downstream quantities divide by 1 - u^2.  With
psi = arccos|u| the combination has the series

    Z(|u|)/eta = psi^2/2 - (4/(3 pi)) psi^3 - psi^4/24 + ...

which this module uses below a small-psi threshold; every coefficient is
exact (alternating inverse factorials and scaled powers of two), so the
switch is seamless at the threshold to ~1e-15 relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from ._quadrature import adaptive_panels
from .errors import (EndpointSecondDerivative, HypothesisViolation,
                     RatioOutOfRange, require_dimension, require_positive)

_PSI_SWITCH = 0.25
# distance from u = +-1 of the inequality grid's end points, and its
# default number of points
ENDPOINT_GAP = 1e-9
U_GRID = 100_000

# series for (2/pi)(arcsin u + u sqrt(1-u^2)) - u at u = cos(psi):
# even powers from -cos psi, odd powers from (1/pi) sin 2psi
_EVEN = [(2, 0.5), (4, -1.0 / 24.0), (6, 1.0 / 720.0),
         (8, -1.0 / 40320.0), (10, 1.0 / 3628800.0),
         (12, -1.0 / 479001600.0), (14, 1.0 / 87178291200.0)]
_ODD = [(3, -4.0 / (3.0 * np.pi)), (5, 4.0 / (15.0 * np.pi)),
        (7, -8.0 / (315.0 * np.pi)), (9, 4.0 / (2835.0 * np.pi)),
        (11, -2048.0 / (39916800.0 * np.pi)),
        (13, 8192.0 / (6227020800.0 * np.pi))]


def _unit_profile_series(psi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(psi)
    for k, c in _EVEN + _ODD:
        out = out + c * psi ** k
    return out


def _unit_profile(u_abs: np.ndarray) -> np.ndarray:
    """Z(u)/eta for u in [0, 1], stable up to the endpoint."""
    psi = np.arccos(np.clip(u_abs, 0.0, 1.0))
    out = np.empty_like(u_abs)
    small = psi < _PSI_SWITCH
    if np.any(small):
        out[small] = _unit_profile_series(psi[small])
    big = ~small
    if np.any(big):
        ub = u_abs[big]
        out[big] = (2.0 / np.pi) * (np.arcsin(ub)
                                    + ub * np.sqrt((1.0 - ub) * (1.0 + ub))) - ub
    return out


def _check_domain(u: np.ndarray, eta: float) -> None:
    require_positive("eta", eta)
    if np.any(np.abs(u) > 1.0):
        raise ValueError("u outside [-1, 1]")


def _match_shape(u_in, out: np.ndarray):
    """Scalar in, scalar out; arrays pass through."""
    return float(out[0]) if np.ndim(u_in) == 0 else out


def z_value(u, eta: float):
    """Z(u; eta), defined on all of [-1, 1]."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_domain(arr, eta)
    return _match_shape(u, eta * np.sign(arr) * _unit_profile(np.abs(arr)))


def z_deriv(u, eta: float):
    """Z'(u; eta), defined on all of [-1, 1] (Z'(+-1) = -eta)."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_domain(arr, eta)
    root = np.sqrt((1.0 - np.abs(arr)) * (1.0 + np.abs(arr)))
    return _match_shape(u, eta * (-1.0 + (4.0 / np.pi) * root))


def z_second(u, eta: float):
    """Z''(u; eta); diverges at the endpoints, which raise."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_domain(arr, eta)
    if np.any(np.abs(arr) >= 1.0):
        raise EndpointSecondDerivative("Z'' diverges at |u| = 1")
    out = -(4.0 * eta / np.pi) * arr / np.sqrt((1.0 - arr) * (1.0 + arr))
    return _match_shape(u, out)


def _z_ratio(u, eta: float, power: int, limit: float):
    """Z(u) / (1 - u^2)^(power/2) through the stable profile, and
    sign(u) eta limit where 1 - u^2 = 0."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_domain(arr, eta)
    s = np.sin(np.arccos(np.abs(arr)))     # sqrt(1 - u^2)
    num = _unit_profile(np.abs(arr))
    out = np.full_like(arr, limit)
    nz = s > 0.0
    out[nz] = num[nz] / (s[nz] if power == 1 else s[nz] * s[nz])
    return _match_shape(u, eta * np.sign(arr) * out)


def z_ratio_sqrt(u, eta: float):
    """Z(u) / sqrt(1 - u^2), extended by its limit 0 at |u| = 1.

    Appears in products with Z'' where both factors alone degenerate at
    the endpoints; going through the stable profile keeps full accuracy.
    """
    return _z_ratio(u, eta, 1, 0.0)


def z_ratio_lin(u, eta: float):
    """Z(u) / (1 - u^2), extended by its limit sign(u)*eta/2 at |u| = 1."""
    return _z_ratio(u, eta, 2, 0.5)


def ode_residual(u, eta: float):
    """|(1 - u^2) Z'' + u Z' + eta u| evaluated from the closed forms.

    The first term is computed as (1 - u^2) * Z'' with the genuine
    divided form of Z'', so this is a real floating-point consistency
    check of the implemented derivatives, not an algebraic identity.
    """
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    zp = z_deriv(arr, eta)
    zpp = z_second(arr, eta)
    out = np.abs((1.0 - arr) * (1.0 + arr) * zpp + arr * zp + eta * arr)
    return _match_shape(u, out)


def z_sup(eta: float):
    """(argmax, max) of Z on [0, 1].

    Z' vanishes exactly where sqrt(1 - u^2) = pi/4, i.e. at
    u* = sqrt(1 - pi^2/16), the unique interior critical point.
    """
    require_positive("eta", eta)
    ustar = np.sqrt(1.0 - np.pi ** 2 / 16.0)
    return float(ustar), float(z_value(float(ustar), eta))


def check_model_inequalities(eta: float,
                             J_lo: float,
                             J_hi: float,
                             u_grid: int = U_GRID) -> dict:
    """Worst-case margins of the three pointwise comparison inequalities,
    and the largest `ode_residual` on their grid.

    Over u in [-1 + ENDPOINT_GAP, 1 - ENDPOINT_GAP] and J in
    [J_lo, J_hi] the quantities

       m1 = Z'^2/eta - 2 Z'' Z / J + Z'      (gradient-comparison form)
       m2 = 2 Z - u Z' + 1 - (1 - eta)       (oscillation lower bound)
       m3 = eta (1 - u^2) - 2 |Z|            (amplitude ceiling)

    are all provably >= 0 when 1 < eta and J <= eta; the returned margins
    are their minima over the u grid and, m1 being monotone in J even when
    rounded, over {J_lo, J_hi}.  m1 -> 0 and m3 -> 0 at the endpoints, so the
    product Z'' * Z is evaluated through the endpoint-stable ratio
    Z / sqrt(1 - u^2) to keep roundoff far below certification slack.

    Raises HypothesisViolation if J_hi > eta (the inequalities fail past
    that ceiling), and ValueError unless 1 < eta < inf and u_grid >= 2.
    """
    if not (1.0 < eta < math.inf):
        raise ValueError(f"eta = {eta} must be finite and exceed 1")
    if J_hi > eta:
        raise HypothesisViolation(f"J_hi = {J_hi} exceeds eta = {eta}")
    if not (0.0 < J_lo <= J_hi):
        raise ValueError("need 0 < J_lo <= J_hi")
    u_grid = require_dimension(u_grid, "u_grid")
    u = np.linspace(-1.0 + ENDPOINT_GAP, 1.0 - ENDPOINT_GAP, u_grid)
    zp = z_deriv(u, eta)
    # -2 Z'' Z = (8 eta / pi) * u * (Z / sqrt(1 - u^2)) without blowup
    prod = (8.0 * eta / np.pi) * u * z_ratio_sqrt(u, eta)
    base = zp * zp / eta + zp
    m1 = min(float(np.min(base + prod / J)) for J in (J_lo, J_hi))
    zv = z_value(u, eta)
    m2 = float(np.min(2.0 * zv - u * zp + eta))
    m3 = float(np.min(eta * (1.0 - u) * (1.0 + u) - 2.0 * np.abs(zv)))
    return {"gradient_form": m1, "oscillation": m2, "amplitude": m3,
            "min_margin": min(m1, m2, m3),
            "ode_residual_max": float(np.max(ode_residual(u, eta)))}


def sharpness_integral(a: float, b: float, eta: float) -> float:
    """Lower-bound integral of the final comparison step.

    I(a, b; eta) = int_0^1 (1 - x^2)^{-1/2}
                     [ (1 + q)^{-1/2} + (1 - q)^{-1/2} ] dx,
    q(x) = 2 a Z(x; eta) / (b (1 - x^2)).

    Substituting x = sin(phi) removes the endpoint weight; q extends
    continuously to phi = pi/2 with limit a * eta / b (via the stable
    ratio Z/(1-x^2)), so the integrand is smooth on [0, pi/2] whenever
    |q| stays below 1 -- guaranteed by the amplitude ceiling when
    b >= eta.  The integral is >= pi with equality only at a = 0; the
    AM bound (1+q)^{-1/2} + (1-q)^{-1/2} >= 2 holds pointwise.

    The AM baseline is split off analytically: the result is pi + E with
    E = int_0^{pi/2} [(1+q)^{-1/2} - 1 + (1-q)^{-1/2} - 1] dphi, and E is
    integrated from the cancellation-free excess
        q / (s_-(1 + s_-)) - q / (s_+(1 + s_+)),   s_+- = sqrt(1 +- q).
    Correctly rounded sqrt, products and quotients are monotone and the
    Gauss weights are positive, so the computed E is >= 0 for every q and
    exactly 0.0 when q == 0.  The result is therefore >= math.pi in
    floating point and == math.pi at a = 0, whatever the BLAS summation
    order.  The relative tolerance 1e-12 is measured against
    max(|E|, pi) <= I, so the quadrature error of E is at most 1e-12 I.

    Raises RatioOutOfRange when a sampled |q| reaches 1 (signals b < eta
    misuse, where the ceiling no longer protects the integrand).
    """
    if not (0.0 <= a < 1.0):
        raise ValueError(f"a = {a} must lie in [0, 1)")
    require_positive("b", b)
    require_positive("eta", eta)

    def q_of_phi(phi):
        x = np.sin(phi)
        return (2.0 * a / b) * z_ratio_lin(x, eta)

    grid = np.linspace(0.0, np.pi / 2.0, 4097)
    probe = q_of_phi(grid)
    if np.max(np.abs(probe)) >= 1.0:
        raise RatioOutOfRange(
            f"|q| reached {np.max(np.abs(probe)):.6g} >= 1; "
            "the integrand requires b >= eta")

    # pre-split where q crosses 0.9 so the near-singular panels start
    # resolved; only engages for a close to 1 with b close to eta
    breaks: list[float] = []
    hot = np.abs(probe) > 0.9
    if np.any(hot):
        flips = np.nonzero(hot[1:] != hot[:-1])[0]
        breaks = [float(grid[i]) for i in flips]

    def excess(phi):
        q = q_of_phi(phi)
        s_plus = np.sqrt(1.0 + q)
        s_minus = np.sqrt(1.0 - q)
        return q / (s_minus * (1.0 + s_minus)) - q / (s_plus * (1.0 + s_plus))

    return math.pi + adaptive_panels(excess, 0.0, np.pi / 2.0,
                                     breakpoints=breaks, rel_tol=1e-12,
                                     abs_floor=math.pi)
