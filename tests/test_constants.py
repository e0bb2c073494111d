"""Tests for the explicit constant pipeline.

Everything here is closed-form arithmetic, so most checks are exact
algebra re-derived in the test plus a few frozen regression values:

- slope/offset constants from delta (tau, A, B, C1, C2, b, alpha)
- the certified upper bound on the iteration constant
- the four admissibility terms and their closed forms
- the feasibility boundary (term one sits exactly on it)
- the largest-delta search, including the unreachable branch: its
  top-down scan and regula falsi against a full-grid bisection
  reference, on fixed and on random inputs
- classical reference bounds
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgv import (
    LedgerInput,
    build_ledger,
    delta_for_alpha,
    epsilon_max,
    gallot_feasible,
    gradient_constants,
    moser_constant,
    reference_bounds,
    z_sup,
)
import sgv.constants
from sgv.constants import DELTA_CAP, DELTA_MAX, _b_exponent_constant
from sgv.errors import BadExponent, DeltaTooLarge, Unreachable


def make_inputs(n=2, p=2.0, D=math.pi, C_s=10.0, Lambda_rough=0.01):
    return LedgerInput(n=n, p=p, D=D, C_s=C_s, Lambda_rough=Lambda_rough)


# the inputs of the delta-search tests
SCAN_INPUTS = make_inputs(D=4.6, C_s=2.0, Lambda_rough=0.5)


# ===================================================================
# input validation
# ===================================================================

def test_exponent_gate():
    with pytest.raises(BadExponent):
        make_inputs(p=1.0)
    with pytest.raises(BadExponent):
        make_inputs(p=1.5, n=3)


def test_delta_cap():
    inp = make_inputs()
    for at_delta in (lambda d: gradient_constants(inp, d, 0.0),
                     lambda d: epsilon_max(inp, d)):
        at_delta(DELTA_CAP)  # boundary admissible
        with pytest.raises(DeltaTooLarge):
            at_delta(DELTA_CAP * 1.001)
        # not a bound violation: delta must be positive
        with pytest.raises(ValueError):
            at_delta(0.0)


def test_delta_max_is_the_B_root():
    # B(delta) = delta (5 + delta) / (1 - delta) reaches 1 exactly at
    # sqrt(10) - 3, the cap is one ppm inside
    assert DELTA_MAX == pytest.approx(math.sqrt(10.0) - 3.0, rel=1e-15)
    B = DELTA_MAX * (5.0 + DELTA_MAX) / (1.0 - DELTA_MAX)
    assert B == pytest.approx(1.0, rel=1e-12)
    assert DELTA_CAP == pytest.approx(DELTA_MAX - 1e-6, rel=1e-12)


def test_basic_positivity_checks():
    with pytest.raises(ValueError):
        make_inputs(D=0.0)
    with pytest.raises(ValueError):
        make_inputs(C_s=0.0)
    with pytest.raises(ValueError):
        make_inputs(Lambda_rough=-1.0)
    with pytest.raises(ValueError):
        gradient_constants(make_inputs(), 0.1, -0.5)
    with pytest.raises(ValueError):
        build_ledger(make_inputs(), 0.1, -0.5)
    with pytest.raises(ValueError):
        LedgerInput(n=1, p=2.0, D=1.0, C_s=1.0, Lambda_rough=1.0)


def test_dimension_must_be_an_integer():
    # each with its own message and n shown by repr, not int()'s error
    for n, shown in ((math.inf, "inf"), (math.nan, "nan"), ("3", "'3'"),
                     (True, "True"), (2.5, "2.5")):
        with pytest.raises(ValueError) as info:
            make_inputs(n=n, p=4.0)
        assert str(info.value) == f"n = {shown} must be an integer >= 2"


def test_integral_float_dimension_is_stored_as_int():
    n = make_inputs(n=3.0).n
    assert n == 3 and type(n) is int


# ===================================================================
# gradient-line constants
# ===================================================================

def test_tau_A_B_closed_forms():
    g = gradient_constants(make_inputs(), 0.1, 0.0)
    assert g.tau == 17.0
    assert g.A == pytest.approx(2.0 * 0.1 * 1.1, rel=1e-15)
    assert g.B == pytest.approx(0.1 * 5.1 / 0.9, rel=1e-15)


def test_slope_and_alpha_frozen():
    g = gradient_constants(
        LedgerInput(n=2, p=2.0, D=math.pi, C_s=2.0, Lambda_rough=0.5),
        0.01, 0.0)
    assert g.C1 == pytest.approx(1.4865343659421952, rel=1e-14)
    assert g.C2 == 0.0
    assert g.b == g.C1
    assert g.alpha == pytest.approx(0.6593187634641685, rel=1e-14)


def test_alpha_decreases_with_delta_at_zero_sigma():
    alphas = [gradient_constants(make_inputs(), d, 0.0).alpha
              for d in (0.005, 0.01, 0.05, 0.1)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert alphas[2] == pytest.approx(0.31819969349876487, rel=1e-13)


def test_offset_scales_linearly_in_sigma():
    g1 = gradient_constants(make_inputs(), 0.05, 0.2)
    g2 = gradient_constants(make_inputs(), 0.05, 0.4)
    assert g2.C2 == pytest.approx(2.0 * g1.C2, rel=1e-14)
    assert g1.C1 == g2.C1


def test_lambda_tilde_line():
    g = gradient_constants(make_inputs(), 0.1, 0.3)
    lam = 2.345
    assert g.lambda_tilde(lam) == pytest.approx(g.C1 * lam + g.C2,
                                                rel=1e-15)


def test_z_peak_is_z_sup_by_linearity():
    # Z is linear in eta and sign(u) is 1 at the maximiser, so scaling
    # the eta = 1 peak reproduces z_sup bit for bit
    for i in range(1, 2002):
        d = DELTA_CAP * i / 2001
        g = gradient_constants(make_inputs(), d, 0.0)
        assert g.z_peak == z_sup(1.0 + d)[1], d


# ===================================================================
# iteration constant
# ===================================================================

def test_moser_frozen_value():
    assert moser_constant(1.0, 2.0, 2, 1.0) == pytest.approx(
        6.0104467630231495, rel=1e-12)


def test_moser_upper_bounds_truncated_product():
    # recompute the first factors directly; the certified value must
    # dominate every truncation
    C_s, p, n, psi = 1.3, 2.0, 2, 1.7
    s = 2.0 * p / n
    r = (s + 1.0) / 2.0
    mu = r * n / (r * n - 2.0)
    gamma = s / (s - r)
    log_partial = 0.0
    l_prev = 2.0
    val = moser_constant(C_s, p, n, psi)
    for j in range(1, 60):
        l_j = 2.0 * mu ** j
        a = C_s * (l_prev) / (2.0 * math.sqrt(l_prev - 1.0)) \
            * math.sqrt(psi)
        log_partial += (2.0 / l_j) * math.log((2.0 * a) ** gamma + 2.0)
        assert math.exp(log_partial) <= val * (1.0 + 1e-12)
        l_prev = l_j
    # and the tail it adds is genuinely small
    assert val == pytest.approx(math.exp(log_partial), rel=1e-9)


def test_moser_monotone_in_inputs():
    base = moser_constant(1.0, 2.0, 2, 1.0)
    assert moser_constant(2.0, 2.0, 2, 1.0) > base
    assert moser_constant(1.0, 2.0, 2, 4.0) > base


def test_moser_validation():
    with pytest.raises(BadExponent):
        moser_constant(1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        moser_constant(1.0, 2.0, 2, 0.5)
    with pytest.raises(ValueError):
        moser_constant(0.0, 2.0, 2, 1.0)


# ===================================================================
# admissibility terms
# ===================================================================

def test_B_pn_closed_form_n2_p2():
    assert _b_exponent_constant(2.0, 2) == pytest.approx(
        math.sqrt(1.5), rel=1e-15)


def test_terms_frozen_reference():
    eb = epsilon_max(make_inputs(), 0.1)
    assert eb.terms[0] == pytest.approx(0.0009370752818219464, rel=1e-13)
    assert eb.terms[1] == pytest.approx(2.604166666666667e-05, rel=1e-13)
    assert eb.terms[2] == pytest.approx(2.2780350741570304e-11, rel=1e-12)
    assert eb.terms[3] == pytest.approx(4.730367483163645e-07, rel=1e-12)
    assert eb.eps_max == min(eb.terms)
    assert eb.A_moser == pytest.approx(576.7978258669267, rel=1e-12)
    assert eb.K1 == pytest.approx(138.5640646055102, rel=1e-13)
    assert eb.K2 == pytest.approx(135296.0424909676, rel=1e-12)
    assert eb.C3 == pytest.approx(1.2336996002382714, rel=1e-14)
    assert eb.psi_norm >= 1.0


def test_term_closed_forms():
    inp = make_inputs(C_s=3.0, D=2.5)
    eb = epsilon_max(inp, 0.08)
    d = 0.08
    B_pn = _b_exponent_constant(2.0, 2)
    at = math.log1p(2.0 ** -3.0) / (B_pn * 2.5)
    assert eb.alpha_tilde == pytest.approx(at, rel=1e-15)
    assert eb.terms[0] == pytest.approx(at * at, rel=1e-15)  # (n-1) = 1
    assert eb.terms[1] == pytest.approx(
        d / (12.0 * 9.0 * (3.0 + 2.0 * d)), rel=1e-15)
    assert eb.terms[2] == pytest.approx(
        ((math.sqrt(7.0) - 2.0) / eb.K2) ** 2, rel=1e-15)
    # the printed exponent (9+6d)/(3+2d) collapses to exactly 3
    assert eb.terms[3] == pytest.approx(
        1.0 / (8.0 * eb.K2 * (4.0 / (3.0 + 2.0 * d)) ** 3), rel=1e-15)
    assert eb.K1 == pytest.approx(
        math.sqrt(6.0 / inp.Lambda_rough * (2.0 + 3.0 / d)), rel=1e-15)


def test_term1_special_value_ln98():
    eb = epsilon_max(make_inputs(D=math.pi), 0.1)
    want = (math.log(9.0 / 8.0) / (math.sqrt(1.5) * math.pi)) ** 2
    assert eb.terms[0] == pytest.approx(want, rel=1e-12)


def test_gallot_boundary():
    eb = epsilon_max(make_inputs(), 0.1)
    ok, at = gallot_feasible(eb.terms[0], 2, 2.0, math.pi)
    assert ok
    assert at == pytest.approx(eb.alpha_tilde, rel=1e-15)
    ok2, _ = gallot_feasible(eb.terms[0] * 1.001, 2, 2.0, math.pi)
    assert not ok2
    with pytest.raises(BadExponent):
        gallot_feasible(1e-6, 2, 1.0, math.pi)


def test_eps_decreases_with_sobolev_constant():
    es = [epsilon_max(make_inputs(C_s=cs), 0.1).eps_max
          for cs in (1.0, 2.0, 5.0, 10.0)]
    assert all(a > b for a, b in zip(es, es[1:]))


# ===================================================================
# full ledger
# ===================================================================

def test_build_ledger_consistency():
    inp = make_inputs()
    led = build_ledger(inp, 0.1)
    eb = epsilon_max(inp, 0.1)
    assert led.sigma_used == pytest.approx(4.0 * eb.eps_max, rel=1e-15)
    assert led.eps == eb
    g = gradient_constants(inp, 0.1, led.sigma_used)
    assert led.grad == g


def test_ledger_dict_flattens_terms():
    d = build_ledger(make_inputs(), 0.1).to_dict()
    for key in ("term1", "term2", "term3", "term4", "alpha", "eps_max",
                "tau", "C1", "C2", "K1", "K2", "A_moser", "sigma_used"):
        assert key in d, key
    assert d["term1"] == pytest.approx(0.0009370752818219464, rel=1e-13)
    assert "eps_terms" not in d


def test_explicit_sigma_respected_in_ledger():
    led = build_ledger(make_inputs(), 0.1, 0.0)
    assert led.sigma_used == 0.0
    assert led.grad.C2 == 0.0


# ===================================================================
# delta search
# ===================================================================

def test_delta_for_alpha_roots():
    d5, a5 = delta_for_alpha(0.5, SCAN_INPUTS)
    d3, a3 = delta_for_alpha(0.3, SCAN_INPUTS)
    assert a5 >= 0.5
    assert a3 >= 0.3
    assert d5 == pytest.approx(0.023551808018397416, rel=1e-9)
    assert d3 == pytest.approx(0.0535416210400553, rel=1e-9)
    assert d5 < d3  # more alpha costs delta


def test_delta_for_alpha_unreachable():
    with pytest.raises(Unreachable) as exc:
        delta_for_alpha(0.99, SCAN_INPUTS)
    assert 0.0 < exc.value.best_alpha < 0.99
    assert 0.0 < exc.value.best_delta <= DELTA_CAP


def full_grid_delta_for_alpha(alpha_target, inp):
    """Every grid point evaluated, then the largest qualifying one
    bisected against its neighbor (reference).  Returns the grid index of
    that point and (delta, alpha), or None and the first maximum
    (best_alpha, best_delta) when no point qualifies."""
    def alpha_of(d):
        return build_ledger(inp, d).grad.alpha

    grid = sgv.constants._DELTA_GRID
    alphas = [alpha_of(d) for d in grid]
    qualifying = [i for i, a in enumerate(alphas) if a >= alpha_target]
    if not qualifying:
        i_best = max(range(len(grid)), key=lambda i: alphas[i])
        return None, (alphas[i_best], grid[i_best])
    i = max(qualifying)
    lo, a_lo = grid[i], alphas[i]
    if i + 1 >= len(grid):
        return i, (lo, a_lo)
    hi = grid[i + 1]
    while hi - lo > sgv.constants._DELTA_REFINE_REL * hi:
        mid = 0.5 * (lo + hi)
        a_mid = alpha_of(mid)
        if a_mid >= alpha_target:
            lo, a_lo = mid, a_mid
        else:
            hi = mid
    return i, (lo, a_lo)


def refinement_against_oracle(alpha_target, inp):
    """Run delta_for_alpha against the full-grid reference: the same grid
    points evaluated from the top down to the same bracket, the same
    refusal, and a delta that qualifies within two refinement widths of
    the reference's.  Returns the number of evaluations after the scan."""
    grid = sgv.constants._DELTA_GRID
    i, want = full_grid_delta_for_alpha(alpha_target, inp)
    deltas = []
    build = sgv.constants.build_ledger
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgv.constants, "build_ledger",
                   lambda inp, d: deltas.append(d) or build(inp, d))
        if i is None:
            with pytest.raises(Unreachable) as exc:
                delta_for_alpha(alpha_target, inp)
            assert (exc.value.best_alpha, exc.value.best_delta) == want
            assert tuple(deltas) == grid[::-1]
            return 0
        delta, alpha = delta_for_alpha(alpha_target, inp)
    scan = grid[i:][::-1]
    assert tuple(deltas[:len(scan)]) == scan
    refine = deltas[len(scan):]
    hi = grid[i + 1] if i + 1 < len(grid) else grid[i]
    assert all(grid[i] < d < hi for d in refine)
    assert alpha >= alpha_target
    assert alpha == build(inp, delta).grad.alpha
    rel = sgv.constants._DELTA_REFINE_REL
    assert abs(delta - want[0]) <= 2.0 * rel * want[0]
    return len(refine)


# 1e-6: the top grid point qualifies; 0.99: no point does
@pytest.mark.parametrize("alpha_target", [0.5, 0.3, 1e-6, 0.99])
def test_delta_for_alpha_scans_from_the_top(alpha_target):
    refine = refinement_against_oracle(alpha_target, SCAN_INPUTS)
    assert refine == 0 if alpha_target in (1e-6, 0.99) else 0 < refine < 37


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.floats(0.25, 3.0), st.floats(0.3, 60.0),
       st.floats(0.5, 5.0), st.floats(0.05, 5.0), st.floats(0.02, 0.97))
def test_delta_refinement_matches_the_bisection(n, p_excess, D, C_s,
                                                Lambda_rough, alpha_target):
    inp = LedgerInput(n=n, p=n / 2.0 + p_excess, D=D, C_s=C_s,
                      Lambda_rough=Lambda_rough)
    assert refinement_against_oracle(alpha_target, inp) <= 37


def test_delta_for_alpha_target_validated():
    with pytest.raises(ValueError):
        delta_for_alpha(1.0, SCAN_INPUTS)
    with pytest.raises(ValueError):
        delta_for_alpha(0.0, SCAN_INPUTS)


# ===================================================================
# reference bounds
# ===================================================================

def test_reference_bounds_closed_forms():
    out = reference_bounds(2, -1.0, 1.0)
    assert out["zhong_yang"] == pytest.approx(math.pi ** 2, rel=1e-15)
    assert out["lichnerowicz"] is None
    assert out["yang"] == pytest.approx(
        math.pi ** 2 * math.exp(-math.sqrt(2.0)), rel=1e-13)
    pos = reference_bounds(3, 2.0, 2.0)
    assert pos["lichnerowicz"] == pytest.approx(6.0, rel=1e-15)
    assert pos["yang"] is None
    s = 0.5
    assert pos["shi_zhang"] == pytest.approx(
        4.0 * (s - s * s) * math.pi ** 2 / 4.0 + s * 2.0 * 2.0, rel=1e-13)


def test_reference_bounds_validation():
    with pytest.raises(ValueError):
        reference_bounds(2, 1.0, 0.0)
