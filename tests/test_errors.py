"""Tests for the admissibility rules of sgv.errors.

The theorem needs an exponent p > n/2 and finite positive D, C_s,
Lambda_rough, delta, eta and b.  Every entry point that reads one of them must
reject NaN, +inf, -inf and 0.0 with the rule's own error: BadExponent
for p, ValueError otherwise.  A comparison of the form `x <= 0.0` lets
NaN through, so each case here fails if its rule is written that way.
The curvature level H may be any finite number, and the dimension n
any integer >= 2.
"""

import math

import pytest

from sgv.constants import (LedgerInput, build_ledger, epsilon_max,
                           gallot_feasible, gradient_constants,
                           moser_constant, reference_bounds)
from sgv.errors import BadExponent
from sgv.geometry import kbar, make_manifold
from sgv.modelode import (check_model_inequalities, sharpness_integral,
                          z_sup, z_value)

LEDGER = dict(n=2, p=2.0, D=3.5, C_s=2.0, Lambda_rough=0.5)
WAVY = make_manifold("cosine", L=2.0 * math.pi, c=1.0, beta=0.3)

# an admissible value of the quantities CASES set where 1.1 is not one
VALID = {"p": 2.0, "delta": 0.1}
# (entry point, quantity) -> a call with that quantity set to v
CASES = {
    "LedgerInput-p": lambda v: LedgerInput(**{**LEDGER, "p": v}),
    "LedgerInput-D": lambda v: LedgerInput(**{**LEDGER, "D": v}),
    "LedgerInput-C_s": lambda v: LedgerInput(**{**LEDGER, "C_s": v}),
    "LedgerInput-Lambda_rough":
        lambda v: LedgerInput(**{**LEDGER, "Lambda_rough": v}),
    "epsilon_max-delta": lambda v: epsilon_max(LedgerInput(**LEDGER), v),
    "gradient_constants-delta":
        lambda v: gradient_constants(LedgerInput(**LEDGER), v, 0.0),
    "build_ledger-delta": lambda v: build_ledger(LedgerInput(**LEDGER), v),
    "moser_constant-C_s": lambda v: moser_constant(v, 2.0, 2, 1.0),
    "moser_constant-p": lambda v: moser_constant(2.0, v, 2, 1.0),
    "moser_constant-psi_norm": lambda v: moser_constant(2.0, 2.0, 2, v),
    "gallot_feasible-p": lambda v: gallot_feasible(1e-4, 2, v, 3.5),
    "gallot_feasible-D": lambda v: gallot_feasible(1e-4, 2, 2.0, v),
    "reference_bounds-D": lambda v: reference_bounds(2, 0.0, v),
    "kbar-p": lambda v: kbar(WAVY, v, 0.0),
    "z_value-eta": lambda v: z_value(0.5, v),
    "z_sup-eta": lambda v: z_sup(v),
    "sharpness_integral-eta": lambda v: sharpness_integral(0.5, 2.0, v),
    "sharpness_integral-b": lambda v: sharpness_integral(0.5, v, 1.1),
    "check_model_inequalities-eta":
        lambda v: check_model_inequalities(v, 0.9, 1.0, u_grid=101),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0],
                         ids=["nan", "inf", "-inf", "zero"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_rejects_inadmissible_value(case, value):
    error = BadExponent if case.endswith("-p") else ValueError
    with pytest.raises(error, match="finite"):
        CASES[case](value)


# (entry point, quantity) -> a call with that quantity set to v, for the
# quantities that admit 0 and either sign
FINITE_CASES = {
    "kbar-H": lambda v: kbar(WAVY, 2.0, v),
    "reference_bounds-H": lambda v: reference_bounds(2, v, 3.0),
}
DIMENSION_CASES = {
    "moser_constant-n": lambda v: moser_constant(2.0, 2.0, v, 1.0),
    "gallot_feasible-n": lambda v: gallot_feasible(1e-4, v, 2.0, 3.5),
    "reference_bounds-n": lambda v: reference_bounds(v, -1.0, 3.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_entry_point_rejects_non_finite_value(case, value):
    with pytest.raises(ValueError, match=f"H = {value} must be finite"):
        FINITE_CASES[case](value)


@pytest.mark.parametrize("value", [1, 0, 2.5, math.nan, math.inf, True],
                         ids=["one", "zero", "2.5", "nan", "inf", "bool"])
@pytest.mark.parametrize("case", sorted(DIMENSION_CASES))
def test_entry_point_rejects_inadmissible_dimension(case, value):
    with pytest.raises(ValueError, match=r"n = .* must be an integer >= 2"):
        DIMENSION_CASES[case](value)


def test_sigma_nan_is_rejected():
    with pytest.raises(ValueError, match="sigma = nan must be >= 0"):
        gradient_constants(LedgerInput(**LEDGER), 0.1, math.nan)


def test_sigma_inf_is_rejected():
    # named as the cause, not as the alpha = 0 its C2 term would give
    with pytest.raises(ValueError,
                       match="sigma = inf must be >= 0 and finite"):
        gradient_constants(LedgerInput(**LEDGER), 0.1, math.inf)


def test_valid_inputs_pass_every_rule():
    for case, call in CASES.items():
        call(VALID.get(case.rsplit("-", 1)[1], 1.1))
    for call in FINITE_CASES.values():
        for H in (-1.0, 0.0, 1e-3):
            call(H)
    for call in DIMENSION_CASES.values():
        for n in (2, 3, 3.0):
            call(n)
