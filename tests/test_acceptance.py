"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

 1. flat-torus eigenvalue oracle, five aspects, under two seconds
 2. round-sphere oracle and mode degeneracy
 3. flat-torus sharpness ratios 1 + (fiber/base)^2
 4. model-inequality margins over the eta grid
 5. peak value of the model solution and its linear ceiling
 6. lower-bound integral >= pi across the coupling grid
 7. shift and transform certificates on the in-hypothesis family
 8. pointwise gradient certificate at two deltas
 9. constant-ledger closed forms
10. end-to-end theorem check over the demonstration sweep
11. byte-identical reruns

The PASS/FAIL lines land in the terminal summary (via conftest) so they
survive pytest's capture and appear once per criterion in the log.
"""

import math
import time

import pytest

from sgv import (
    check_model_inequalities,
    check_sigma_bound,
    check_gradient_estimate,
    diameter,
    epsilon_max,
    gallot_feasible,
    gradient_constants,
    kbar,
    lambda1,
    make_manifold,
    residual_order_study,
    sharpness_integral,
    sweep,
    z_sup,
    LedgerInput,
)
from sgv.report import records_to_csv, sweep_payload, to_json
from sgv.spectral import DEFAULT_GRIDS, _chain, _study, chain_pencils

import conftest

TWO_PI = 2.0 * math.pi

ETAS = (1.0001, 1.01, 1.05, 1.1, 1.16)
FAMILY_BETAS = (1e-8, 2.5e-8, 1e-7)
SWEEP_ARGS = dict(alpha_target=0.3, p=2.0, C_s=2.0, Lambda_rough=0.5)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.criterion_lines.append(line)


def make_family_manifold(beta):
    return make_manifold("cosine", L=TWO_PI, c=1.0, beta=beta)


@pytest.fixture(scope="module")
def family_eigs():
    return {beta: lambda1(make_family_manifold(beta))
            for beta in FAMILY_BETAS}


@pytest.fixture(scope="module")
def family_sigma(family_eigs):
    """sigma certificates for the cosine family at delta = 0.1, solved
    on lambda1's mode-0 pencils, as a record solves them."""
    out = {}
    for beta in FAMILY_BETAS:
        m = make_family_manifold(beta)
        out[beta] = check_sigma_bound(family_eigs[beta].pencils, 0.1,
                                      kb=kbar(m, 2.0, 0.0))
    return out


@pytest.fixture(scope="module")
def demo_sweep():
    specs = [
        {"id": "flat-020", "kind": "constant", "L": TWO_PI, "c": 0.2},
        {"id": "flat-010", "kind": "constant", "L": TWO_PI, "c": 0.1},
        {"id": "flat-005", "kind": "constant", "L": TWO_PI, "c": 0.05},
        {"id": "wavy", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 1e-8},
        {"id": "dumbbell", "kind": "cosine", "L": TWO_PI, "c": 1.0,
         "beta": 0.5},
    ]
    return specs, sweep(specs, **SWEEP_ARGS)


def test_criterion_01_flat_torus_oracle():
    aspects = ((TWO_PI, 0.05), (TWO_PI, 0.1), (TWO_PI, 0.2),
               (4.0, 0.1), (10.0, 0.3))
    t0 = time.perf_counter()
    worst = 0.0
    for L, c in aspects:
        e = lambda1(make_manifold("constant", L=L, c=c))
        exact = min((TWO_PI / L) ** 2, 1.0 / c ** 2)
        worst = max(worst, abs(e.lambda1 - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 2.0
    _report(1, ok, f"5 aspects, worst rel err {worst:.3e}, "
            f"{elapsed:.2f} s")
    assert worst <= 1e-8
    assert elapsed < 2.0


def test_criterion_02_round_sphere_oracle():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    e = lambda1(m)
    pencils = chain_pencils(m, DEFAULT_GRIDS)
    v0 = _study(_chain(pencils, 1)).value
    # fiber mode 1: the potential nu_1 / f^2 = 1 / f^2 on the same pencils
    v1 = _study(_chain(pencils, 0, lambda t: -1.0 / m.f(t) ** 2)).value
    err = abs(e.lambda1 - 2.0)
    split = abs(v0 - v1)
    ok = err <= 1e-5 and split <= 1e-5 and e.degenerate
    _report(2, ok, f"lambda1 err {err:.2e}, k0/k1 split {split:.2e}")
    assert err <= 1e-5
    assert split <= 1e-5


def test_criterion_03_flat_sharpness(demo_sweep):
    specs, (rows, _) = demo_sweep
    worst = 0.0
    for row in rows:
        if not row.manifold_id.startswith("flat-"):
            continue
        c = dict((s["id"], s) for s in specs)[row.manifold_id]["c"]
        want = 1.0 + c ** 2  # aspect = 2 pi c / L with L = 2 pi
        worst = max(worst, abs(row.record.sharpness_ratio - want))
    ok = worst <= 1e-6
    _report(3, ok, f"max |ratio - (1 + aspect^2)| = {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_04_model_inequality_margins():
    worst_margin = math.inf
    worst_resid = 0.0
    for eta in ETAS:
        out = check_model_inequalities(eta, 2.0 - eta, eta, u_grid=100_000)
        worst_margin = min(worst_margin, out["min_margin"])
        worst_resid = max(worst_resid, out["ode_residual_max"])
    ok = worst_margin >= -1e-10 and worst_resid <= 1e-12
    _report(4, ok, f"min margin {worst_margin:.3e}, "
            f"max residual {worst_resid:.3e}")
    assert worst_margin >= -1e-10
    assert worst_resid <= 1e-12


def test_criterion_05_peak_of_model_solution():
    _, peak1 = z_sup(1.0)
    err = abs(peak1 - 0.115352)
    ceiling_ok = all(z_sup(eta)[1] <= 0.116 * eta for eta in ETAS)
    ok = err <= 5e-4 and ceiling_ok
    _report(5, ok, f"z_sup(1) = {peak1:.6f} (err {err:.2e}), "
            f"ceiling 0.116 eta holds: {ceiling_ok}")
    assert err <= 5e-4
    assert ceiling_ok


def test_criterion_06_lower_bound_integral():
    eta = 1.1
    worst = math.inf
    for a in (0.0, 0.3, 0.6, 0.9, 0.99):
        for b in (eta, 2.0, 10.0):
            worst = min(worst, sharpness_integral(a, b, eta))
    ok = worst >= math.pi - 1e-9
    _report(6, ok, f"min integral {worst:.12f} >= pi - 1e-9")
    assert worst >= math.pi - 1e-9


def test_criterion_07_certificates_on_family(family_sigma):
    delta = 0.1
    fails = []
    for beta in FAMILY_BETAS:
        m = make_family_manifold(beta)
        sc = family_sigma[beta]
        kb = sc.kbar
        eps = epsilon_max(LedgerInput(
            n=2, p=2.0, D=diameter(m).hi, C_s=2.0,
            Lambda_rough=0.5), delta).eps_max
        if kb > eps:
            fails.append(f"beta={beta}: kbar {kb:.2e} > eps {eps:.2e}")
            continue
        if not (-1e-9 <= sc.sigma <= 4.0 * kb + 1e-9):
            fails.append(f"beta={beta}: sigma {sc.sigma:.3e} outside "
                         f"[0, {4 * kb:.3e}]")
        jdev = sc.J_deviation
        if jdev > delta + 1e-9:
            fails.append(f"beta={beta}: |J-1| = {jdev:.3e} > {delta}")
        study = residual_order_study(m, delta)
        for order in study["orders"]:
            if not (1.8 <= order <= 2.2):
                fails.append(f"beta={beta}: residual order {order:.3f}")
    ok = not fails
    _report(7, ok, "sigma in [0, 4 kbar], |J-1| <= 0.1, residual "
            "order 2 on all three amplitudes" if ok else "; ".join(fails))
    assert not fails, fails


def test_criterion_08_gradient_certificate(family_eigs):
    fails = []
    checked = 0
    for delta in (0.05, 0.1):
        for beta in FAMILY_BETAS:
            m = make_family_manifold(beta)
            D_hi = diameter(m).hi
            inp = LedgerInput(n=2, p=2.0, D=D_hi, C_s=2.0,
                              Lambda_rough=0.5)
            kb = kbar(m, 2.0, 0.0)
            if kb > epsilon_max(inp, delta).eps_max:
                continue  # out of hypothesis at this delta
            checked += 1
            eig = family_eigs[beta]
            sc = check_sigma_bound(eig.pencils, delta, kb=kb)
            g = gradient_constants(inp, delta, max(sc.sigma, 0.0))
            margin = check_gradient_estimate(delta, g, eig, sc.J)
            lt = g.lambda_tilde(eig.lambda1)
            if margin > 1e-6 * lt:
                fails.append(f"delta={delta} beta={beta}: "
                             f"max Q = {margin:.3e} > 1e-6 lt")
    ok = not fails and checked >= 5
    _report(8, ok, f"max Q <= 1e-6 lambda_tilde on {checked} "
            "in-hypothesis cases" if ok else "; ".join(fails))
    assert not fails, fails
    assert checked >= 5  # 2 betas at delta 0.05, all 3 at delta 0.1


def test_criterion_09_constant_ledger():
    eb = epsilon_max(LedgerInput(n=2, p=2.0, D=math.pi, C_s=2.0,
                                 Lambda_rough=0.5), 0.1)
    want1 = (math.log(9.0 / 8.0) / (math.sqrt(1.5) * math.pi)) ** 2
    rel1 = abs(eb.terms[0] - want1) / want1
    feas, _ = gallot_feasible(eb.terms[0], 2, 2.0, math.pi)
    positive = all(t > 0.0 for t in eb.terms)
    alpha = gradient_constants(
        LedgerInput(n=2, p=2.0, D=math.pi, C_s=2.0, Lambda_rough=0.5),
        0.01, 0.0).alpha
    alpha_err = abs(alpha - 0.65926)
    ok = (rel1 <= 1e-10 and feas and eb.A_moser > 1.0 and positive
          and alpha_err <= 1e-4)
    _report(9, ok, f"term1 rel err {rel1:.1e}, gallot {feas}, "
            f"A_moser {eb.A_moser:.3g} > 1, terms positive {positive}, "
            f"alpha(0.01, 0) err {alpha_err:.1e}")
    assert rel1 <= 1e-10
    assert feas
    assert eb.A_moser > 1.0
    assert positive
    assert alpha_err <= 1e-4


def test_criterion_10_main_theorem_sweep(demo_sweep):
    _, (rows, summary) = demo_sweep
    fails = []
    n_hyp = 0
    for row in rows:
        if row.error is not None:
            fails.append(f"{row.manifold_id}: {row.error}")
            continue
        rec = row.record
        if rec.hypothesis_met:
            n_hyp += 1
            if rec.theorem_margin < -1e-9 * rec.lambda1:
                fails.append(f"{row.manifold_id}: margin "
                             f"{rec.theorem_margin:.3e}")
    dumb = next(r for r in rows if r.manifold_id == "dumbbell")
    if dumb.record is None or dumb.record.hypothesis_met:
        fails.append("dumbbell row must be out of hypothesis")
    ok = not fails and n_hyp == 4
    _report(10, ok, f"{n_hyp} in-hypothesis rows all satisfy "
            "lambda1 >= alpha pi^2 / D^2; dumbbell excluded" if ok
            else "; ".join(fails))
    assert not fails, fails
    assert n_hyp == 4


def test_criterion_11_deterministic_outputs(demo_sweep):
    specs, (rows1, sum1) = demo_sweep
    rows2, sum2 = sweep(specs, **SWEEP_ARGS)
    payload1 = sweep_payload(rows1, sum1)
    payload2 = sweep_payload(rows2, sum2)
    json1, json2 = to_json(payload1), to_json(payload2)
    csv1 = records_to_csv([d for d in payload1["records"]
                           if "error" not in d])
    csv2 = records_to_csv([d for d in payload2["records"]
                           if "error" not in d])
    ok = json1.encode() == json2.encode() and \
        csv1.encode() == csv2.encode()
    _report(11, ok, f"rerun JSON identical: {json1 == json2}, "
            f"CSV identical: {csv1 == csv2}")
    assert json1 == json2
    assert csv1 == csv2
