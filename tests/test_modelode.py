"""Tests for the closed-form model solution Z and its inequalities.

Properties covered:
- the defining ODE (1-u^2) Z'' + u Z' + eta u = 0 holds to rounding
- Z is odd in u and exactly linear in eta
- series/arcsin branches of the profile agree with a 50-digit
  mpmath evaluation, including across the branch switch
- endpoint values, the interior critical point, and the sup
- the three comparison inequalities hold with certified margins
- the lower-bound integral: value pi exactly at a = 0, never below
  pi in floating point (including tiny a), scale invariance in
  (a, b), golden value, and failure modes
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgv import (
    check_model_inequalities,
    ode_residual,
    sharpness_integral,
    z_deriv,
    z_second,
    z_sup,
    z_value,
)
from sgv.errors import (
    EndpointSecondDerivative,
    HypothesisViolation,
    RatioOutOfRange,
)
from sgv.modelode import z_ratio_lin, z_ratio_sqrt

U_STAR = math.sqrt(1.0 - math.pi ** 2 / 16.0)


def z_reference(u, eta, dps=50):
    """Arbitrary-precision evaluation of the closed form."""
    with mp.workdps(dps):
        uu = mp.mpf(u)
        val = (2 * eta / mp.pi) * (mp.asin(uu) + uu * mp.sqrt(1 - uu ** 2)) \
            - eta * uu
        return float(val)


# ===================================================================
# closed form and its derivatives
# ===================================================================

def test_ode_residual_tiny_on_dense_grid():
    u = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 20_001)
    assert float(np.max(ode_residual(u, 1.1))) <= 1e-12


def test_matches_mpmath_across_branch_switch():
    # the implementation switches series near psi = arccos|u| = 0.25;
    # sample both sides densely plus generic points
    us = list(np.cos(np.linspace(0.05, 0.45, 41))) + \
        [0.0, 0.1, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.999, 1.0]
    for u in us:
        want = z_reference(u, 1.07)
        got = float(z_value(u, 1.07))
        assert got == pytest.approx(want, abs=3e-16, rel=3e-14), u


def test_endpoint_values_exact():
    assert z_value(1.0, 1.3) == 0.0
    assert z_value(-1.0, 1.3) == 0.0
    assert z_value(0.0, 1.3) == 0.0
    assert z_deriv(0.0, 2.0) == pytest.approx(2.0 * (4.0 / math.pi - 1.0),
                                              rel=1e-15)
    assert z_deriv(1.0, 2.0) == pytest.approx(-2.0, rel=1e-15)
    assert z_deriv(-1.0, 2.0) == pytest.approx(-2.0, rel=1e-15)


def test_second_derivative_closed_form():
    u = np.array([0.3, -0.7, 0.05])
    want = -(4.0 * 1.2 / math.pi) * u / np.sqrt(1.0 - u * u)
    assert np.allclose(z_second(u, 1.2), want, rtol=1e-14)


def test_second_derivative_endpoint_raises():
    with pytest.raises(EndpointSecondDerivative):
        z_second(1.0, 1.1)
    with pytest.raises(EndpointSecondDerivative):
        z_second(np.array([0.5, -1.0]), 1.1)


def test_domain_validated():
    with pytest.raises(ValueError):
        z_value(1.0000001, 1.1)
    with pytest.raises(ValueError):
        z_value(0.5, -1.0)


def test_scalar_in_scalar_out():
    assert isinstance(z_value(0.5, 1.1), float)
    arr = z_value(np.array([0.1, 0.2]), 1.1)
    assert arr.shape == (2,)


@settings(max_examples=80, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.01, 8.0))
def test_odd_in_u_and_linear_in_eta(u, eta):
    z1 = z_value(u, eta)
    assert z_value(-u, eta) == pytest.approx(-z1, abs=1e-300, rel=1e-15)
    assert z_value(u, 2.0 * eta) == pytest.approx(2.0 * z1, rel=1e-15,
                                                  abs=1e-300)


def test_stable_ratios_match_direct_quotients():
    u = np.linspace(-0.95, 0.95, 101)
    z = z_value(u, 1.1)
    assert np.allclose(z_ratio_sqrt(u, 1.1), z / np.sqrt(1.0 - u * u),
                       rtol=1e-12)
    assert np.allclose(z_ratio_lin(u, 1.1), z / (1.0 - u * u), rtol=1e-12)
    # continuous extension at the endpoint
    assert z_ratio_lin(1.0, 1.1) == pytest.approx(0.55, rel=1e-14)
    assert z_ratio_sqrt(1.0, 1.1) == 0.0


# ===================================================================
# critical point and sup
# ===================================================================

def test_sup_location_closed_form():
    at, val = z_sup(1.0)
    assert at == pytest.approx(U_STAR, rel=1e-15)
    assert val == pytest.approx(0.1154210147097583, rel=1e-13)
    assert z_deriv(at, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_sup_scales_with_eta():
    _, v1 = z_sup(1.0)
    _, v2 = z_sup(1.1)
    assert v2 == pytest.approx(1.1 * v1, rel=1e-14)
    assert v2 == pytest.approx(0.12696311618073414, rel=1e-13)


def test_sup_dominates_grid():
    u = np.linspace(0.0, 1.0, 100_001)
    _, val = z_sup(1.3)
    assert float(np.max(z_value(u, 1.3))) <= val + 1e-15


# ===================================================================
# comparison inequalities
# ===================================================================

def test_margins_nonnegative_reference_case():
    out = check_model_inequalities(1.1, 0.9, 1.1)
    assert out["min_margin"] >= -1e-10
    assert out["gradient_form"] >= -1e-10
    assert out["oscillation"] > 1e-5  # strictly interior margin
    assert out["amplitude"] >= -1e-12


def test_margin_keys_and_min():
    out = check_model_inequalities(1.05, 0.95, 1.05, u_grid=20_001)
    assert set(out) == {"gradient_form", "oscillation", "amplitude",
                        "min_margin"}
    assert out["min_margin"] == min(out["gradient_form"],
                                    out["oscillation"], out["amplitude"])


@pytest.mark.parametrize("eta, J_lo, J_hi", [
    (1.1, 0.9, 1.1), (1.0001, 0.5, 1.0), (1.3, 1.2, 1.25), (2.0, 0.1, 2.0),
])
def test_gradient_form_is_the_minimum_over_the_J_range(eta, J_lo, J_hi):
    # bit for bit: m1 is monotone in J at each u, also when rounded
    out = check_model_inequalities(eta, J_lo, J_hi, u_grid=2001)
    dense = min(
        check_model_inequalities(eta, J, J, u_grid=2001)["gradient_form"]
        for J in np.linspace(J_lo, J_hi, 1001))
    assert out["gradient_form"] == dense


def test_ceiling_enforced():
    with pytest.raises(HypothesisViolation):
        check_model_inequalities(1.1, 0.9, 1.1000001)


def test_eta_and_range_validated():
    with pytest.raises(ValueError):
        check_model_inequalities(1.0, 0.9, 1.0)
    with pytest.raises(ValueError):
        check_model_inequalities(1.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_model_inequalities(1.1, 1.05, 0.95)


# ===================================================================
# lower-bound integral
# ===================================================================

def test_integral_at_zero_coupling_is_pi():
    assert sharpness_integral(0.0, 2.0, 1.1) == math.pi


def test_integral_golden_value():
    got = sharpness_integral(0.99, 1.1, 1.1)
    assert got == pytest.approx(3.9885938033555313, rel=1e-12)


def test_integral_exceeds_pi_and_grows_with_a():
    vals = [sharpness_integral(a, 1.1, 1.1)
            for a in (0.0, 0.3, 0.6, 0.9, 0.99)]
    assert vals[0] == math.pi
    assert all(v >= math.pi for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("b, eta", [(1.1, 1.1), (10.0, 1.1), (3.0, 2.0)])
def test_integral_is_pi_at_zero_coupling_for_any_b_eta(b, eta):
    assert sharpness_integral(0.0, b, eta) == math.pi


@pytest.mark.parametrize("a", [1e-15, 1e-12, 1e-9, 1e-6])
def test_integral_never_below_pi_for_tiny_coupling(a):
    # the excess over pi is below pi's rounding unit here, so only a
    # nonnegative computed excess keeps the bound
    assert sharpness_integral(a, 1.1, 1.1) >= math.pi


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(1.0, 2.0, exclude_min=True),
       b_frac=st.floats(0.0, 1.0),
       a=st.one_of(st.floats(0.0, 0.99), st.floats(1e-300, 1e-6)))
def test_integral_lower_bound_property(eta, b_frac, a):
    b = eta + b_frac * (10.0 - eta)
    assert sharpness_integral(a, b, eta) >= math.pi


def test_integral_scale_invariance():
    # the integrand depends on (a, b) only through a/b
    i1 = sharpness_integral(0.3, 2.0, 1.1)
    i2 = sharpness_integral(0.6, 4.0, 1.1)
    assert i1 == pytest.approx(i2, rel=1e-13)


def test_integral_ratio_overflow_raises():
    # a/b large enough pushes |q| past 1 where the AM bound dies
    with pytest.raises(RatioOutOfRange):
        sharpness_integral(0.99, 1.0, 1.1)


def test_integral_inputs_validated():
    with pytest.raises(ValueError):
        sharpness_integral(1.0, 2.0, 1.1)
    with pytest.raises(ValueError):
        sharpness_integral(-0.1, 2.0, 1.1)
    with pytest.raises(ValueError):
        sharpness_integral(0.5, 0.0, 1.1)
