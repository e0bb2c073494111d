"""End-to-end certification of the eigenvalue lower bound on concrete
manifolds.

Each check here corresponds to one estimate of the certified pipeline
and measures its actual margin on an exactly-parameterized manifold:

  * check_sigma_bound   -- the shift sigma lies in [0, 4 kbar(p, 0)], and
                           the transformed ground state J, built here once,
                           stays within delta of 1;
  * check_gradient_estimate -- the pointwise gradient bound
                           J |grad u|^2 <= lambda_tilde (1 - u^2)
                                           + 2 a lambda1 Z(u)
                           holds on the solver grid;
  * check_main_theorem  -- lambda1 >= alpha pi^2 / D^2 with alpha from
                           the constant ledger, assembled into a
                           VerificationRecord;
  * sweep               -- families of the above with per-row error
                           capture and a deterministic summary.

The checks measure the states they are given; only `check_sigma_bound`
solves: the shift potential's ground-state chain, on `lambda1`'s pencils.

Margins are signed so that >= 0 (up to stated slack) means the estimate
holds; failed hypotheses are recorded, never raised, because a manifold
outside the integral-curvature smallness regime is data, not an error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import (GradientConstants, LedgerInput, delta_for_alpha,
                        epsilon_max, gradient_constants, tau_of)
from .geometry import Manifold, diameter, kbar, make_manifold, rho_H_field
from .modelode import z_value
from .spectral import (EigenResult, _study, build_J, centered_gradient,
                       chain_pencils, lambda1, residual_J_equation,
                       schrodinger_ground)


def shift_potential(m: Manifold, delta: float) -> Callable:
    """The Schrodinger potential 2 (tau - 1) rho_0 driving the ground
    state whose power transform is J."""
    tm1 = tau_of(delta) - 1.0

    def V(t):
        return 2.0 * tm1 * rho_H_field(m, 0.0, t)

    return V


@dataclass(frozen=True)
class SigmaCheck:
    """Measured ground-state shift against its a-priori ceiling."""

    sigma: float
    margin: float            # 4 kbar - sigma, >= 0 in-hypothesis
    sigma_tilde: float
    order: float             # observed order of the sigma_tilde chain
    tau: float
    kbar: float
    J: np.ndarray            # transformed ground state, finest grid
    J_deviation: float       # max |J - 1|, <= delta in-hypothesis
    history: tuple           # (N, sigma_tilde raw) per grid


def check_sigma_bound(pencils: Sequence, delta: float, *,
                      kb: float) -> SigmaCheck:
    """Measure sigma = sigma_tilde / (tau - 1) and its ceiling margin.

    The ground state of the shift potential is solved once, as one
    chain on the pencils of m (a record passes lambda1's), and studied
    as lambda1's are (`_study`), with no order gate.  kb is
    kbar(m, p, 0).  J transforms the finest ground state, once for both
    its window and `check_gradient_estimate`.
    """
    tau = tau_of(delta)
    chain = schrodinger_ground(
        pencils, shift_potential(pencils[0].manifold, delta))
    study = _study((gs.sigma_tilde, gs.w, gs.dis) for gs in chain)
    J = build_J(chain[-1], tau)
    sigma = study.value / (tau - 1.0)
    return SigmaCheck(sigma=sigma, margin=4.0 * kb - sigma,
                      sigma_tilde=study.value, order=study.order, tau=tau,
                      kbar=kb, J=J, J_deviation=float(np.max(np.abs(J - 1.0))),
                      history=study.history)


def check_gradient_estimate(delta: float, constants: GradientConstants,
                            eig: EigenResult, J: np.ndarray) -> float:
    """Max over the grid of Q = J|grad u|^2 - lt (1-u^2) - 2 a l1 Z(u).

    lt = C1 * lambda1 + C2 with the constants as passed (build them with
    the measured sigma for the sharpest valid line).  lambda1 lies in
    fiber mode 0 or 1, because mode k's potential nu_k / f^2 rises with
    k.  In mode 1 the eigenfunction is profile(t) * Y(theta), with Y the
    degree-1 zonal harmonic of S^{n-1}, and |grad Y|^2 = 1 - Y^2 on
    every sphere (cos theta on the circle); Q is linear in Y^2, so its
    max over the fiber is attained at one of the two branch values
    Y^2 in {0, 1}, both checked.  Returns the signed margin max Q (must
    be <= ~1e-6 * lt when hypotheses hold).  eig is lambda1's result: its
    finest pencil gives the gradient its h and closure, and its pencils'
    manifold the mode-1 branch its f.  J is the transformed ground state
    of the shift potential on that grid (`check_sigma_bound`'s J).
    """
    if J.size != eig.t.size:
        raise ValueError("J and eigenfunction grids differ")
    lam = eig.lambda1
    lt = constants.lambda_tilde(lam)
    eta = 1.0 + delta
    u = eig.u
    grad, sl = centered_gradient(u, eig.pencils[-1])

    if eig.mode == 0:
        q = J * grad * grad - lt * (1.0 - u * u) \
            - 2.0 * eig.a * lam * z_value(np.clip(u, -1.0, 1.0), eta)
        return float(np.max(q[sl]))
    if eig.mode > 1:
        raise ValueError("lambda1 lies in fiber mode 0 or 1")
    f_mid = eig.pencils[0].manifold.f(eig.t)
    q0 = J * u * u / (f_mid * f_mid) - lt
    q1 = J * grad * grad - lt * (1.0 - u * u)
    return float(max(np.max(q0[sl]), np.max(q1[sl])))


def residual_order_study(m: Manifold, delta: float) -> dict:
    """Observed convergence order of the J-equation residual.

    The residual is measured on grids of 16, 32 and 64 cells, against
    the shift from one fine reference grid of 1024 cells: against its
    own grid's shift the leading error cancels algebraically (the
    discrete eigen-identity is exact and the power transform linearizes
    through the same stencil), leaving an h-independent quadratic
    remainder that would show order ~0.
    """
    tau = tau_of(delta)
    V = shift_potential(m, delta)
    gs_ref, = schrodinger_ground(chain_pencils(m, (1024,)), V)
    sigma_ref = gs_ref.sigma_tilde / (tau - 1.0)
    grids = (16, 32, 64)
    residuals = [residual_J_equation(gs.dis, build_J(gs, tau),
                                     rho_H_field(m, 0.0, gs.t), tau,
                                     sigma_ref)
                 for gs in schrodinger_ground(chain_pencils(m, grids), V)]
    orders = [float(np.log2(a / b)) for a, b in zip(residuals, residuals[1:])]
    return {"grids": grids, "residuals": residuals,
            "orders": orders, "sigma_ref": sigma_ref}


@dataclass(frozen=True)
class VerificationRecord:
    """One manifold's full certification outcome."""

    manifold_id: str
    n: int
    p: float
    delta: float
    kbar: float
    eps_max: float
    hypothesis_met: bool
    lambda1: float
    diameter_lo: float
    diameter_hi: float
    alpha: float
    bound: float             # alpha pi^2 / diameter_hi^2
    theorem_margin: float    # lambda1 - bound
    # The four certificate fields are None when the certificate's own
    # computation fails (possible far outside the smallness hypothesis,
    # e.g. a ground state too localized to resolve); a None here never
    # aborts a sweep row.
    sigma_measured: Optional[float]
    sigma_bound_margin: Optional[float]
    J_deviation: Optional[float]
    gradient_margin: Optional[float]
    lambda_tilde: Optional[float]   # gradient line C1*lambda1 + C2
    sharpness_ratio: float   # lambda1 diameter_hi^2 / pi^2
    mode: int
    degenerate: bool
    diameter_converged: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def check_main_theorem(m: Manifold, alpha_target: float, p: float,
                       C_s: float, Lambda_rough: float,
                       manifold_id: str = "") -> VerificationRecord:
    """Assemble the full certification record for one manifold.

    The certified alpha comes from the a-priori chain (delta selected
    for alpha_target at the measured diameter, shift bounded by
    4 eps_max); the measured shift then feeds the sharper gradient-line
    check.  Gate failures (kbar above eps_max) are recorded, not raised.
    """
    dia = diameter(m)
    inp = LedgerInput(n=m.n, p=p, D=dia.hi, C_s=C_s,
                      Lambda_rough=Lambda_rough)
    delta, alpha = delta_for_alpha(alpha_target, inp)
    eps = epsilon_max(inp, delta)
    kb = kbar(m, p, 0.0)
    hypothesis_met = bool(kb <= eps.eps_max)

    eig = lambda1(m)
    sigma = sigma_margin = j_dev = grad_margin = lam_tilde = None
    try:
        sc = check_sigma_bound(eig.pencils, delta, kb=kb)
        sigma, sigma_margin, j_dev = sc.sigma, sc.margin, sc.J_deviation
        grad_consts = gradient_constants(inp, delta, max(sigma, 0.0))
        lam_tilde = grad_consts.lambda_tilde(eig.lambda1)
        grad_margin = check_gradient_estimate(delta, grad_consts, eig, sc.J)
    except Exception:
        pass    # a certificate that cannot be computed stays None

    bound = alpha * math.pi ** 2 / dia.hi ** 2
    return VerificationRecord(
        manifold_id=manifold_id or m.kind,
        n=m.n, p=p, delta=delta, kbar=kb, eps_max=eps.eps_max,
        hypothesis_met=hypothesis_met, lambda1=eig.lambda1,
        diameter_lo=dia.lo, diameter_hi=dia.hi, alpha=alpha, bound=bound,
        theorem_margin=eig.lambda1 - bound, sigma_measured=sigma,
        sigma_bound_margin=sigma_margin, J_deviation=j_dev,
        gradient_margin=grad_margin, lambda_tilde=lam_tilde,
        sharpness_ratio=eig.lambda1 * dia.hi ** 2 / math.pi ** 2,
        mode=eig.mode, degenerate=eig.degenerate,
        diameter_converged=dia.converged)


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry: a record, or the error that replaced it, and
    whether its warp is constant (min f = max f: a flat torus)."""

    manifold_id: str
    record: Optional[VerificationRecord]
    error: Optional[str]
    flat: bool


def _error_row(spec: dict, exc: Exception) -> SweepRow:
    return SweepRow(manifold_id=spec.get("id", "row"), record=None,
                    error=f"{type(exc).__name__}: {exc}", flat=False)


def _run_sweep_row(args) -> SweepRow:
    spec, alpha_target, p, C_s, Lambda_rough = args
    row_id = spec.get("id", "row")
    try:
        params = {k: v for k, v in spec.items() if k != "id"}
        kind = params.pop("kind")
        m = make_manifold(kind, **params)
        rec = check_main_theorem(m, alpha_target, p, C_s, Lambda_rough,
                                 manifold_id=row_id)
        f_min, f_max = m.f_range()
        return SweepRow(manifold_id=row_id, record=rec, error=None,
                        flat=f_min == f_max)
    except Exception as exc:  # per-row capture: the sweep must continue
        return _error_row(spec, exc)


def _pool_rows(tasks: list, workers: int) -> list:
    """Each task's SweepRow from a pool of `workers` processes.

    A worker that dies breaks the pool, and every row not finished by
    then becomes a row with the BrokenProcessPool error.
    """
    # imported here, not at module load: only jobs > 1 pays its cold start
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)
    rows = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_sweep_row, task) for task in tasks]
        for task, future in zip(tasks, futures):
            try:
                rows.append(future.result())
            except BrokenProcessPool as exc:
                rows.append(_error_row(task[0], exc))
    return rows


def sweep(manifold_specs: Sequence[dict], alpha_target: float, p: float,
          C_s: float, Lambda_rough: float, jobs: int = 1):
    """Run check_main_theorem over a family; never aborts on row errors.

    Each spec dict holds an "id" plus make_manifold keyword arguments
    (including "kind").  Returns (rows, summary) where summary carries
    the minimum theorem margin among hypothesis-met rows and the largest
    deviation of the sharpness ratio from 1 among flat rows (periodic,
    constant warp), read off the rows, which build each manifold once.
    jobs > 1 runs the rows in a pool of at most jobs processes, and no
    more than there are rows or CPUs.  Row order follows input order
    regardless of jobs.  A row whose worker process dies carries a
    BrokenProcessPool error.
    """
    tasks = [(dict(s), alpha_target, p, C_s, Lambda_rough)
             for s in manifold_specs]
    if jobs > 1 and len(tasks) > 1:
        # fork starts every worker at once: no more than there are rows,
        # nor than there are CPUs to run them at once
        rows = _pool_rows(tasks, min(jobs, len(tasks), os.cpu_count() or 1))
        # A dead worker fails every row that had not finished.  Each of
        # them runs again in a pool of its own, so the error stays with
        # a row that kills its own worker and no row depends on timing.
        rows = [_pool_rows([task], 1)[0]
                if row.error and row.error.startswith("BrokenProcessPool")
                else row for task, row in zip(tasks, rows)]
    else:
        rows = [_run_sweep_row(t) for t in tasks]

    margins = [r.record.theorem_margin for r in rows
               if r.record is not None and r.record.hypothesis_met]
    flat_devs = [abs(r.record.sharpness_ratio - 1.0)
                 for r in rows if r.flat]
    summary = {
        "rows": len(rows),
        "errors": sum(1 for r in rows if r.error is not None),
        "hypothesis_met": sum(1 for r in rows
                              if r.record is not None
                              and r.record.hypothesis_met),
        "min_theorem_margin": min(margins) if margins else None,
        "max_flat_sharpness_deviation": max(flat_devs) if flat_devs
                                        else None,
    }
    return rows, summary
