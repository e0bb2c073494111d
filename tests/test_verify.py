"""End-to-end verification layer tests.

- sigma certificates: exact zeros on flat tori and round spheres, the
  small-amplitude law sigma -> 2 beta / pi on cosine tori, and the
  a-priori window [0, 4 kbar]
- J bounds and the pointwise gradient certificate
- residual order study: second-order decay against the converged shift
- record assembly for the main theorem, sharpness ratios on flat tori,
  one kbar, one ground-state chain and one J in each record (a refused
  chain included), each pencil assembled once, and one Moser product per
  distinct argument set
- sweep: per-row error capture, one manifold built per row (its
  flatness read from the same build), determinism across worker
  counts, a worker process that dies, the out-of-hypothesis dumbbell
  rows, and a divergent kbar integral
"""

import gc
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from sgv import (
    LedgerInput,
    build_J,
    chain_pencils,
    check_gradient_estimate,
    check_main_theorem,
    check_sigma_bound,
    gradient_constants,
    kbar,
    lambda1,
    make_manifold,
    residual_order_study,
    schrodinger_ground,
    sweep,
)
import sgv._quadrature
import sgv.constants
import sgv.geometry
import sgv.spectral
import sgv.verify
from sgv.errors import Unreachable
from sgv.constants import tau_of
from sgv.spectral import DEFAULT_GRIDS
from sgv.verify import shift_potential

TWO_PI = 2.0 * math.pi


def make_cosine(beta, c=1.0):
    return make_manifold("cosine", L=TWO_PI, c=c, beta=beta)


def ground_pencils(m):
    """The pencils of lambda1's chains on the default grids, which a
    record hands to check_sigma_bound."""
    return chain_pencils(m, DEFAULT_GRIDS)


def finest_ground(m, delta):
    """The shift potential's ground state on the finest default grid,
    as check_sigma_bound solves it."""
    return schrodinger_ground(ground_pencils(m),
                              shift_potential(m, delta))[-1]


def finest_J(m, delta):
    """The transform of finest_ground, the J check_sigma_bound builds."""
    return build_J(finest_ground(m, delta), tau_of(delta))


def demo_specs():
    return [
        {"id": "flat-02", "kind": "constant", "L": TWO_PI, "c": 0.2},
        {"id": "flat-01", "kind": "constant", "L": TWO_PI, "c": 0.1},
        {"id": "wavy", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 1e-8},
        {"id": "dumbbell", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 0.5},
    ]


# ===================================================================
# shift potential and sigma certificates
# ===================================================================

def test_tau_of_reference_points():
    assert tau_of(0.1) == 17.0
    assert tau_of(0.5) == 5.0


def test_shift_potential_flat_zero():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    V = shift_potential(m, 0.1)
    assert np.all(V(np.linspace(0.0, TWO_PI, 64)) == 0.0)


def test_sigma_flat_torus_exact_zero():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert sc.sigma == 0.0
    assert sc.sigma_tilde == 0.0
    assert sc.margin == 0.0
    assert sc.kbar == 0.0
    assert sc.tau == 17.0


def test_sigma_sphere_exact_zero():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert sc.sigma == 0.0


def test_sigma_small_amplitude_law():
    # first-order perturbation theory: sigma -> 2 beta / pi for the
    # cosine family, independent of delta
    beta = 1e-8
    m = make_cosine(beta)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert sc.sigma == pytest.approx(2.0 * beta / math.pi, rel=2e-3)
    assert 0.0 <= sc.sigma <= 4.0 * sc.kbar
    assert sc.margin >= 0.0


def test_sigma_frozen_golden_moderate_amplitude():
    m = make_cosine(0.05)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert sc.sigma == pytest.approx(0.054082688600690314, rel=1e-10)
    assert sc.sigma_tilde == pytest.approx(0.865323017611045, rel=1e-10)
    assert sc.sigma == pytest.approx(sc.sigma_tilde / 16.0, rel=1e-15)
    assert len(sc.history) == 3


def test_sigma_reports_its_chain_order():
    # the ground chain's observed order is reported, not gated: second
    # order on a smooth cosine torus, far outside [1.5, 2.5] on the
    # pole-closed spline tabsph-k33-e0.2 at its record's delta, whose
    # last grid difference lies far above the floor
    m = make_cosine(0.05)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert 1.5 <= sc.order <= 2.5
    ts = [math.pi * i / 32 for i in range(33)]
    fs = [math.sin(t) * (1.0 + 0.2 * math.sin(t) ** 2) for t in ts]
    ts[-1], fs[0], fs[-1] = math.pi, 0.0, 0.0
    m = make_manifold("tabulated", L=math.pi, n=3, ts=ts, fs=fs,
                      boundary="pole-closed")
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    sc = check_sigma_bound(ground_pencils(m), rec.delta, kb=rec.kbar)
    assert rec.sigma_measured == sc.sigma
    assert not 1.5 <= sc.order <= 2.5


def test_sigma_within_apriori_window_on_family():
    for beta in (1e-8, 1e-7):
        m = make_cosine(beta)
        sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
        assert -1e-12 <= sc.sigma <= 4.0 * sc.kbar + 1e-12, beta


def test_sigma_below_the_noise_floor_keeps_the_finest_value():
    # on a near-flat torus the ground chain's grid differences (~1e-12)
    # lie below the finest pencil's noise floor (~2e-9): the Richardson
    # step would extrapolate rounding, so the finest value stands
    m = make_cosine(1e-8, c=0.2)
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    sc = check_sigma_bound(ground_pencils(m), rec.delta, kb=rec.kbar)
    assert sc.sigma_tilde == sc.history[-1][1]
    assert rec.sigma_measured == sc.sigma


# ===================================================================
# J bounds
# ===================================================================

def test_J_flat_torus_is_identically_one():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    assert np.max(np.abs(finest_J(m, 0.1) - 1.0)) == 0.0


def test_J_deviation_grows_with_amplitude_but_stays_in_window():
    d1 = np.max(np.abs(finest_J(make_cosine(1e-8), 0.1) - 1.0))
    d2 = np.max(np.abs(finest_J(make_cosine(1e-7), 0.1) - 1.0))
    assert 0.0 < d1 < d2 <= 0.1


def test_J_reuses_supplied_ground_state():
    # check_sigma_bound's J transforms the finest ground state of the
    # shift potential's chain, so a record's J agrees with a standalone
    # solve bit for bit
    m = make_cosine(1e-7)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert np.array_equal(sc.J, finest_J(m, 0.1))
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    assert rec.J_deviation == \
        np.max(np.abs(finest_J(m, rec.delta) - 1.0))


# ===================================================================
# gradient certificate
# ===================================================================

def test_gradient_margin_flat_torus_nonpositive():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    li = LedgerInput(n=2, p=2.0, D=4.0, C_s=2.0, Lambda_rough=0.5)
    g = gradient_constants(li, 0.1, 0.0)
    margin = check_gradient_estimate(0.1, g, lambda1(m), finest_J(m, 0.1))
    lam = 1.0
    assert margin <= 1e-6 * g.lambda_tilde(lam)


def test_gradient_margin_cosine_family():
    m = make_cosine(1e-8)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    li = LedgerInput(n=2, p=2.0, D=4.0, C_s=2.0, Lambda_rough=0.5)
    g = gradient_constants(li, 0.1, max(sc.sigma, 0.0))
    eig = lambda1(m)
    margin = check_gradient_estimate(0.1, g, eig, sc.J)
    assert margin <= 1e-6 * g.lambda_tilde(eig.lambda1)


def test_gradient_grid_mismatch_rejected():
    m = make_cosine(1e-8)
    li = LedgerInput(n=2, p=2.0, D=4.0, C_s=2.0, Lambda_rough=0.5)
    g = gradient_constants(li, 0.1, 0.0)
    eig = lambda1(m, grids=(256, 512, 1024))
    with pytest.raises(ValueError):
        check_gradient_estimate(0.1, g, eig, finest_J(m, 0.1))


def test_gradient_rejects_fiber_mode_above_one():
    # the mode-1 branches use the degree-1 harmonic's fiber factor 1; a
    # caller's eigenpair in a higher mode must not be checked with it
    m = make_manifold("constant", L=TWO_PI, c=3.0)
    li = LedgerInput(n=2, p=2.0, D=4.0, C_s=2.0, Lambda_rough=0.5)
    g = gradient_constants(li, 0.1, 0.0)
    eig = lambda1(m)
    assert eig.mode == 1
    with pytest.raises(ValueError):
        check_gradient_estimate(0.1, g, replace(eig, mode=2),
                                finest_J(m, 0.1))


@pytest.mark.parametrize("m", [
    make_manifold("constant", L=TWO_PI, c=0.1),
    make_cosine(1e-8, c=0.2),
], ids=["flat", "cosine"])
def test_gradient_gate_fails_below_lambda_tilde(m):
    # at alpha_target = 0.9 the line's slope C1 is within 10 % of 1, so
    # the record passes the gate and 0.9 of its line lies below lambda1:
    # a real violation, which must fail the same gate
    rec = check_main_theorem(m, 0.9, 2.0, 2.0, 0.5)
    assert rec.gradient_margin <= 1e-6 * rec.lambda_tilde
    li = LedgerInput(n=2, p=2.0, D=rec.diameter_hi, C_s=2.0,
                     Lambda_rough=0.5)
    g = gradient_constants(li, rec.delta,
                           max(rec.sigma_measured, 0.0))
    assert g.lambda_tilde(rec.lambda1) == rec.lambda_tilde
    low = replace(g, C1=0.9 * g.C1, C2=0.9 * g.C2)
    margin = check_gradient_estimate(rec.delta, low, lambda1(m),
                                     finest_J(m, rec.delta))
    assert margin > 1e-6 * low.lambda_tilde(rec.lambda1)


def test_gradient_certificate_on_circle_times_sphere():
    # S^1 x S^2 with a fat fiber: lambda1 = 2 / c^2 in fiber mode 1,
    # where the degree-1 harmonic's |grad Y|^2 = 1 - Y^2 gives the
    # circle's two branches in every dimension
    m = make_manifold("constant", L=TWO_PI, c=3.0, n=3)
    rec = check_main_theorem(m, 0.5, 4.0, 2.0, 0.5)
    assert rec.mode == 1
    assert rec.lambda1 == pytest.approx(2.0 / 9.0, rel=1e-9)
    assert rec.hypothesis_met
    assert rec.gradient_margin is not None
    assert math.isfinite(rec.gradient_margin)
    assert rec.gradient_margin <= 1e-6 * rec.lambda_tilde


# ===================================================================
# residual order study
# ===================================================================

@pytest.mark.parametrize("beta", [1e-8, 1e-7])
def test_residual_decays_at_second_order(beta):
    out = residual_order_study(make_cosine(beta), 0.1)
    assert out["grids"] == (16, 32, 64)
    assert len(out["residuals"]) == 3
    assert all(b < a for a, b in zip(out["residuals"],
                                     out["residuals"][1:]))
    for order in out["orders"]:
        assert 1.8 <= order <= 2.2
    assert out["sigma_ref"] > 0.0


# ===================================================================
# main-theorem records
# ===================================================================

def test_record_flat_torus_sharpness():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    rec = check_main_theorem(m, 0.5, 2.0, 2.0, 0.5, manifold_id="flat")
    assert rec.manifold_id == "flat"
    assert rec.hypothesis_met
    assert rec.kbar == 0.0
    assert rec.lambda1 == pytest.approx(1.0, rel=1e-10)
    assert rec.sharpness_ratio == pytest.approx(1.01, abs=1e-9)
    assert rec.alpha >= 0.5
    assert rec.bound == pytest.approx(
        rec.alpha * math.pi ** 2 / rec.diameter_hi ** 2, rel=1e-15)
    assert rec.theorem_margin == pytest.approx(
        rec.lambda1 - rec.bound, rel=1e-12)
    assert rec.theorem_margin > 0.0
    assert rec.sigma_measured == 0.0
    assert rec.J_deviation == 0.0
    assert rec.gradient_margin is not None
    assert rec.gradient_margin <= 1e-6 * rec.lambda_tilde
    assert rec.mode == 0
    assert not rec.degenerate
    assert rec.diameter_converged


def test_cosine_record_at_zero_amplitude_is_the_flat_record():
    # beta = 0 is a constant warp: its diameter takes the closed form
    # and it assembles the flat torus's pencils bit for bit, so every
    # field but the id is the flat one and passes the same gate
    flat = check_main_theorem(make_manifold("constant", L=TWO_PI, c=0.1),
                              0.5, 2.0, 2.0, 0.5).to_dict()
    cos = check_main_theorem(make_manifold("cosine", L=TWO_PI, c=0.1),
                             0.5, 2.0, 2.0, 0.5).to_dict()
    differ = {k for k in flat if flat[k] != cos[k]}
    assert differ == {"manifold_id"}
    assert cos["hypothesis_met"]
    assert cos["gradient_margin"] <= 1e-6 * cos["lambda_tilde"]


def test_record_computes_each_moser_product_once(monkeypatch):
    # the delta scan asks for a handful of argument sets about a hundred
    # times; each is computed once, and the cached value is the product
    cached = sgv.constants.moser_constant
    seen = []

    def moser_constant(*args):
        seen.append(args)
        return cached(*args)

    monkeypatch.setattr(sgv.constants, "moser_constant", moser_constant)
    cached.cache_clear()
    check_main_theorem(make_cosine(0.05), 0.3, 2.0, 2.0, 0.5)
    distinct = set(seen)
    assert cached.cache_info().misses <= len(distinct) < len(seen)
    for args in distinct:
        assert cached(*args) == cached.__wrapped__(*args)


def test_record_round_sphere():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    assert rec.lambda1 == pytest.approx(2.0, abs=1e-5)
    assert rec.hypothesis_met
    assert rec.degenerate
    assert rec.theorem_margin > 0.0
    assert rec.sigma_measured == 0.0


def test_record_dict_round_trip():
    m = make_manifold("constant", L=TWO_PI, c=0.2)
    rec = check_main_theorem(m, 0.4, 2.0, 2.0, 0.5, manifold_id="x")
    d = rec.to_dict()
    assert d["manifold_id"] == "x"
    assert d["lambda1"] == rec.lambda1
    assert d["hypothesis_met"] is True
    assert list(d)[0] == "manifold_id"


def test_record_unreachable_propagates():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    with pytest.raises(Unreachable):
        check_main_theorem(m, 0.99, 2.0, 2.0, 0.5)


def test_record_solves_kbar_once_and_reuses_finest_ground(monkeypatch):
    calls = {"kbar": 0, "schrodinger_ground": 0, "build_J": 0}

    def counted(name):
        inner = getattr(sgv.verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(sgv.verify, name, wrapper)

    counted("kbar")
    counted("schrodinger_ground")
    counted("build_J")
    m = make_cosine(1e-3, c=0.2)
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    assert calls == {"kbar": 1, "schrodinger_ground": 1, "build_J": 1}

    # the shared values equal independent computations, bit for bit
    monkeypatch.undo()
    sc = check_sigma_bound(ground_pencils(m), rec.delta, kb=kbar(m, 2.0, 0.0))
    assert rec.sigma_measured == sc.sigma
    assert rec.sigma_bound_margin == sc.margin
    assert rec.kbar == sc.kbar
    li = LedgerInput(n=2, p=2.0, D=rec.diameter_hi, C_s=2.0,
                     Lambda_rough=0.5)
    g = gradient_constants(li, rec.delta, max(sc.sigma, 0.0))
    eig = lambda1(m)
    assert rec.gradient_margin is not None
    assert rec.gradient_margin == check_gradient_estimate(
        rec.delta, g, eig, finest_J(m, rec.delta))


@pytest.mark.parametrize("c, mode", [(1.0, 1), (0.2, 0)],
                         ids=["cos-c1-b0.3", "cos-c0.2-b0.3"])
def test_record_assembles_each_pencil_once(monkeypatch, c, mode):
    # fiber mode 1 and the ground chain are potentials on lambda1's
    # pencils, so a record assembles each grid once, whether mode 1 is
    # solved and wins (c = 1) or its lower bound rules it out (c = 0.2):
    # 8 and 4 pencils when mode 1 assembled its own
    calls = []
    inner = sgv.spectral.assemble

    def counted(m, k, N):
        calls.append(N)
        return inner(m, k, N)

    monkeypatch.setattr(sgv.spectral, "assemble", counted)
    rec = check_main_theorem(make_cosine(0.3, c=c), 0.3, 2.0, 2.0, 0.5)
    assert rec.sigma_measured is not None
    assert rec.mode == mode
    assert sorted(calls) == [16, *DEFAULT_GRIDS]


@pytest.mark.parametrize("c, studies", [(1.0, 3), (0.2, 2)])
def test_record_studies_each_chain_once(monkeypatch, c, studies):
    # one Richardson study per chain: lambda1's mode 0, its mode 1 where
    # the potential's lower bound does not rule it out (c = 1, not
    # c = 0.2), and the ground chain
    calls = []
    inner = sgv.spectral._study

    def counted(steps):
        calls.append(inner(steps))
        return calls[-1]

    monkeypatch.setattr(sgv.spectral, "_study", counted)
    monkeypatch.setattr(sgv.verify, "_study", counted)
    rec = check_main_theorem(make_cosine(0.3, c=c), 0.3, 2.0, 2.0, 0.5)
    assert rec.sigma_measured is not None
    assert len(calls) == studies


def test_record_checks_its_ledger_inputs_once(monkeypatch):
    # the delta scan and the record's own ledger calls share one
    # LedgerInput; with delta among its fields, each scan point built
    # and checked its own (49 on this record)
    calls = []
    check = LedgerInput.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(LedgerInput, "__post_init__", counted)
    rec = check_main_theorem(make_cosine(0.3), 0.3, 2.0, 2.0, 0.5)
    assert rec.gradient_margin is not None
    assert len(calls) == 1


def test_record_leaves_no_reference_cycle():
    # the pencils a record assembles, lambda1's held by its EigenResult,
    # are freed when it returns; a cycle (a chain helper's closure that
    # calls itself) would hold them until the cyclic collector ran, and
    # peak memory grew record by record
    m = make_cosine(0.3)
    check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    gc.collect()
    gc.disable()
    try:
        check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_record_reads_no_z_sup_and_derives_sigma_once(monkeypatch):
    # z_peak comes from Z's linearity, and the a-priori sigma bound is
    # derived by build_ledger, never inside gradient_constants
    calls = {"z_sup": 0, "gradient_constants": 0, "eps_inside": 0}
    inside = []
    z_sup = sgv.constants.z_sup
    epsilon_max = sgv.constants.epsilon_max
    grad = sgv.constants.gradient_constants

    def counted_z_sup(*args):
        calls["z_sup"] += 1
        return z_sup(*args)

    def counted_eps(*args):
        calls["eps_inside"] += bool(inside)
        return epsilon_max(*args)

    def counted_grad(*args, **kwargs):
        calls["gradient_constants"] += 1
        inside.append(True)
        try:
            return grad(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(sgv.constants, "z_sup", counted_z_sup)
    monkeypatch.setattr(sgv.constants, "epsilon_max", counted_eps)
    monkeypatch.setattr(sgv.verify, "epsilon_max", counted_eps)
    monkeypatch.setattr(sgv.constants, "gradient_constants", counted_grad)
    monkeypatch.setattr(sgv.verify, "gradient_constants", counted_grad)
    rec = check_main_theorem(make_cosine(0.05), 0.3, 2.0, 2.0, 0.5)
    assert rec.gradient_margin is not None
    # the delta search's ledgers and the record's own
    assert calls["gradient_constants"] > 1
    assert calls["z_sup"] == 0
    assert calls["eps_inside"] == 0


# ===================================================================
# sweep
# ===================================================================

def test_sweep_empty():
    rows, summary = sweep([], 0.5, 2.0, 2.0, 0.5)
    assert rows == []
    assert summary["rows"] == 0
    assert summary["errors"] == 0


def test_sweep_demo_family():
    rows, summary = sweep(demo_specs(), 0.3, 2.0, 2.0, 0.5)
    assert [r.manifold_id for r in rows] == [s["id"] for s in demo_specs()]
    assert summary["errors"] == 0
    by_id = {r.manifold_id: r for r in rows}
    assert by_id["flat-02"].record.sharpness_ratio == pytest.approx(
        1.04, abs=1e-9)
    assert by_id["flat-01"].record.sharpness_ratio == pytest.approx(
        1.01, abs=1e-9)
    # the neck drives kbar far beyond the admissible threshold
    dumb = by_id["dumbbell"].record
    assert not dumb.hypothesis_met
    assert dumb.kbar > dumb.eps_max
    assert summary["hypothesis_met"] == 3
    assert summary["min_theorem_margin"] > 0.0
    assert summary["max_flat_sharpness_deviation"] == pytest.approx(
        0.04, abs=1e-8)


def test_sweep_reads_flatness_from_the_warp():
    # a beta = 0 cosine torus is a flat torus: its warp, not its kind,
    # puts it in the flat summary, as it gives `diameter` its closed form
    flat = {"id": "flat-cos", "kind": "cosine", "L": TWO_PI, "c": 0.1,
            "beta": 0.0}
    rows, summary = sweep([flat], 0.3, 2.0, 2.0, 0.5)
    ratio = rows[0].record.sharpness_ratio
    assert ratio == pytest.approx(1.01, abs=1e-9)
    assert summary["max_flat_sharpness_deviation"] == abs(ratio - 1.0)
    wavy = {**flat, "id": "wavy", "beta": 1e-8}
    sphere = {"id": "sphere", "kind": "sine-sphere", "L": math.pi}
    _, summary = sweep([wavy, sphere], 0.3, 2.0, 2.0, 0.5)
    assert summary["max_flat_sharpness_deviation"] is None


def test_serial_sweep_builds_each_manifold_once(monkeypatch):
    # the row that runs the record also reads its flatness
    built = []
    inner = sgv.verify.make_manifold

    def counted(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(sgv.verify, "make_manifold", counted)
    specs = demo_specs()[:2] + [
        {"id": "sphere", "kind": "sine-sphere", "L": math.pi},
        {"id": "bad", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 1.5}]
    rows, summary = sweep(specs, 0.3, 2.0, 2.0, 0.5)
    assert len(built) == len(specs)
    assert [r.flat for r in rows] == [True, True, False, False]
    assert summary["errors"] == 1
    assert summary["max_flat_sharpness_deviation"] == pytest.approx(
        0.04, abs=1e-8)


def test_sweep_captures_row_errors():
    specs = [
        {"id": "ok", "kind": "constant", "L": TWO_PI, "c": 0.1},
        {"id": "broken", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 1.5},
        {"id": "half-dim", "kind": "sine-sphere", "L": 3.0, "n": 2.5},
        {"id": "inf-dim", "kind": "sine-sphere", "L": 3.0,
         "n": math.inf},
    ]
    rows, summary = sweep(specs, 0.5, 2.0, 2.0, 0.5)
    assert summary["errors"] == 3
    assert rows[0].error is None
    assert rows[1].record is None
    assert "NonPositiveWarp" in rows[1].error
    assert rows[2].record is None
    assert rows[2].error == \
        "ValueError: dimension n = 2.5 must be an integer >= 2"
    assert rows[3].error == \
        "ValueError: dimension n = inf must be an integer >= 2"


def test_sweep_parallel_matches_serial():
    specs = demo_specs()[:3]
    rows1, sum1 = sweep(specs, 0.3, 2.0, 2.0, 0.5, jobs=1)
    rows2, sum2 = sweep(specs, 0.3, 2.0, 2.0, 0.5, jobs=2)
    assert sum1 == sum2
    for a, b in zip(rows1, rows2):
        assert a.record.to_dict() == b.record.to_dict()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched make_manifold reaches only forked "
                           "workers")
def test_sweep_survives_a_dead_worker(monkeypatch):
    # one row kills its worker process; the pool breaks, yet every row
    # comes back and the others hold the records of a serial sweep
    good = demo_specs()[:3]
    killer = {"id": "killer", "kind": "constant", "L": 4.321, "c": 0.3}
    specs = [good[0], killer, *good[1:]]
    serial, _ = sweep(good, 0.3, 2.0, 2.0, 0.5, jobs=1)
    inner = sgv.verify.make_manifold

    def make_manifold(kind, **params):
        if params["L"] == killer["L"]:
            os._exit(1)
        return inner(kind, **params)
    monkeypatch.setattr(sgv.verify, "make_manifold", make_manifold)

    rows, summary = sweep(specs, 0.3, 2.0, 2.0, 0.5, jobs=2)
    assert [r.manifold_id for r in rows] == [s["id"] for s in specs]
    assert summary["errors"] == 1
    assert rows[1].record is None
    assert rows[1].error.startswith("BrokenProcessPool: ")
    for a, b in zip(serial, rows[:1] + rows[2:]):
        assert b.error is None
        assert a.record.to_dict() == b.record.to_dict()


def test_dumbbell_certificates_fail_their_windows():
    # out of hypothesis the certificates are still computable at a
    # moderate delta, and they visibly blow their admissible windows:
    # sigma above 4 kbar, J deviation far beyond delta
    m = make_cosine(0.5)
    sc = check_sigma_bound(ground_pencils(m), 0.1, kb=kbar(m, 2.0, 0.0))
    assert sc.sigma > 4.0 * 0.1  # would need kbar tiny to admit this
    assert sc.margin < 0.0
    assert sc.J_deviation > 0.5


def pinched_spec():
    """A 65-knot periodic spline through 1 + 0.9 cos(t - 1)."""
    ts = np.linspace(0.0, TWO_PI, 65)
    fs = 1.0 + 0.9 * np.cos(ts - 1.0)
    fs[-1] = fs[0]
    return {"id": "pinched", "kind": "tabulated", "L": TWO_PI, "ts": ts,
            "fs": fs, "boundary": "periodic"}


def test_sweep_pinched_row_survives_certificate_failure():
    # alpha_target 0.95 selects delta = 1.9e-4, where the ground state's
    # far tail falls below the smallest double and the solver refuses
    # it.  The certificates come back as None but the row is still usable
    rows, summary = sweep([pinched_spec()], 0.95, 2.0, 2.0, 0.5)
    assert summary["errors"] == 0
    rec = rows[0].record
    assert not rec.hypothesis_met
    assert rec.sigma_measured is None
    assert rec.J_deviation is None
    assert rec.lambda1 > 0.0


def test_refused_ground_chain_is_solved_once(monkeypatch):
    # the pinched row's ground chain is refused on its 1024-cell grid,
    # and the record solves it once: lambda1's two fiber modes take a
    # dense start and three grids each, the ground chain a dense start,
    # 512 and 1024 cells.  J and the gradient are not attempted
    calls = {"schrodinger_ground": 0, "_pair": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(sgv.verify, "schrodinger_ground")
    counted(sgv.spectral, "_pair")
    params = {k: v for k, v in pinched_spec().items()
              if k not in ("id", "kind")}
    rec = check_main_theorem(make_manifold("tabulated", **params), 0.95,
                             2.0, 2.0, 0.5)
    assert calls == {"schrodinger_ground": 1, "_pair": 11}
    assert rec.sigma_measured is None
    assert rec.J_deviation is None
    assert rec.gradient_margin is None


@pytest.mark.parametrize("m, solves", [
    (make_manifold("sine-sphere", n=2, L=math.pi), 2),
    (make_manifold("constant", L=TWO_PI, c=0.1), 1),
], ids=["round-sphere", "flat-torus"])
def test_vanishing_shift_takes_no_dense_solve(monkeypatch, m, solves):
    # the shift potential vanishes on round spheres and flat tori, so the
    # ground chain's dense start returns the exact 0 like its grids: the
    # dense solves are lambda1's, two fiber modes on the sphere and the
    # base circle alone on the thin torus
    calls = []
    inner = np.linalg.eigh

    def eigh(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rec = check_main_theorem(m, 0.3, 2.0, 2.0, 0.5)
    assert rec.sigma_measured == 0.0
    assert len(calls) == solves


def test_sweep_divergent_kbar_row_is_an_error(monkeypatch):
    # at n = 2 a pole-closed spline with f''(0) > 0 has curvature ~ 1/t
    # at the pole, so the kbar integral diverges for p = 2 >= n; kbar
    # must name the pole without spending the quadrature's point budget,
    # and the row must carry the error
    points = [0]
    inner = sgv.geometry.adaptive_panels

    def adaptive_panels(func, *args, **kwargs):
        def counted(t):
            points[0] += t.size
            return func(t)
        return inner(counted, *args, **kwargs)
    monkeypatch.setattr(sgv.geometry, "adaptive_panels", adaptive_panels)

    ts = np.linspace(0.0, math.pi, 33)
    fs = np.sin(ts) * (1.0 + 0.2 * np.sin(ts) ** 2)
    fs[0] = fs[-1] = 0.0
    specs = [{"id": "pole-spline", "kind": "tabulated", "L": math.pi,
              "n": 2, "ts": ts, "fs": fs, "boundary": "pole-closed"}]
    rows, summary = sweep(specs, 0.3, 2.0, 2.0, 0.5)
    assert summary["errors"] == 1
    assert rows[0].record is None
    assert rows[0].error.startswith("NoConvergence: ")
    assert "pole t = 0: f'' = 0.000203 > 0" in rows[0].error
    assert "p = 2 >= n = 2" in rows[0].error
    assert points[0] <= sgv._quadrature.MAX_POINTS
