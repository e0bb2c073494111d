"""Tests for the eigensolver stack: lambda1, ground states, J transform.

The finite-difference results are checked against two independent
oracles implemented right here:

- a dense Fourier-Galerkin discretization of the mode-k pencil
  (spectrally accurate for smooth periodic profiles), and
- a DOP853 shooting solve of the ground-state problem with Brent
  root finding on the Neumann mismatch at the half period.

plus the closed forms on flat tori and round spheres, and a dense
matrix oracle of the discrete pencil itself for the eigensolvers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from sgv import (
    build_J,
    lambda1,
    make_manifold,
    residual_J_equation,
    schrodinger_ground,
)
from sgv.errors import DegenerateRange, NonPositiveGround
from sgv.spectral import (
    DEFAULT_GRIDS,
    _eigenpair,
    _extrapolate,
    _mode_candidate,
    assemble,
    eigenfunction_u,
)
from sgv.constants import tau_of
from sgv.verify import shift_potential

TWO_PI = 2.0 * math.pi


# ===================================================================
# oracles
# ===================================================================

def galerkin_eigs(f, L, n, k, nmodes=40, quad=4096):
    """Dense Fourier-Galerkin eigenvalues of the mode-k pencil.

    Trapezoid quadrature on a periodic integrand is spectrally
    accurate, so with smooth f this is exact to rounding for the low
    end of the spectrum.
    """
    t = np.linspace(0.0, L, quad, endpoint=False)
    w = L / quad
    fv = f(t)
    om = TWO_PI / L
    cols = [np.ones_like(t)]
    dcols = [np.zeros_like(t)]
    for j in range(1, nmodes + 1):
        cols.append(np.cos(om * j * t))
        dcols.append(-om * j * np.sin(om * j * t))
        cols.append(np.sin(om * j * t))
        dcols.append(om * j * np.cos(om * j * t))
    P = np.stack(cols, axis=1)
    dP = np.stack(dcols, axis=1)
    wf = (fv ** (n - 1)) * w
    A = dP.T @ (dP * wf[:, None])
    M = P.T @ (P * wf[:, None])
    if k > 0:
        nu = k * (k + n - 2)
        A = A + nu * (P.T @ (P * ((fv ** (n - 3)) * w)[:, None]))
    return sla.eigh(A, M, eigvals_only=True)


def shoot_sigma_tilde(beta, delta, L=TWO_PI):
    """Ground-state shift of the cosine-family potential by shooting.

    The potential is even about t = 0 and t = pi, so the ground state
    satisfies w'(0) = w'(pi) = 0; integrate the radial equation
    w'' + (f'/f) w' + V w = sigma w on the half period and root-find
    the Neumann mismatch.
    """
    tau = (3.0 + 4.0 * delta) / (2.0 * delta)

    def V(t):
        rho = beta * math.cos(t) / (1.0 + beta * math.cos(t))
        return 2.0 * (tau - 1.0) * max(-rho, 0.0)

    def rhs(t, y, sig):
        w, wp = y
        f = 1.0 + beta * math.cos(t)
        fp = -beta * math.sin(t)
        return [wp, (sig - V(t)) * w - fp / f * wp]

    def mismatch(sig):
        sol = solve_ivp(rhs, (0.0, math.pi), [1.0, 0.0], args=(sig,),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        return sol.y[1, -1]

    hi = 2.0 * (tau - 1.0) * beta
    while mismatch(0.0) * mismatch(hi) > 0.0:
        hi *= 1.5
    return brentq(mismatch, 0.0, hi, xtol=1e-14, rtol=8.9e-16)


def make_asym_manifold(samples=513):
    ts = np.linspace(0.0, TWO_PI, samples)
    fs = 1.0 + 0.1 * np.cos(ts) + 0.07 * np.sin(2.0 * ts)
    return make_manifold("tabulated", L=TWO_PI, n=2, ts=ts, fs=fs,
                         boundary="periodic")


def dense_pencil(m, k, N):
    """Dense stiffness K and mass diagonal M of the flux-form mode-k
    pencil, written out from the profile entry by entry."""
    h = m.L / N
    f_edge = m.profile.f(np.arange(N + 1) * h)
    if m.boundary == "pole-closed":
        f_edge[0] = f_edge[-1] = 0.0
    else:
        f_edge[-1] = f_edge[0]
    ew = f_edge ** (m.n - 1) / h
    f_mid = m.profile.f((np.arange(N) + 0.5) * h)
    K = np.zeros((N, N))
    for i in range(N):
        j = (i + 1) % N
        if m.boundary == "periodic" or i + 1 < N:
            K[i, i] += ew[i + 1]
            K[j, j] += ew[i + 1]
            K[i, j] -= ew[i + 1]
            K[j, i] -= ew[i + 1]
        K[i, i] += k * (k + m.n - 2) * f_mid[i] ** (m.n - 3) * h
    return K, f_mid ** (m.n - 1) * h


# ===================================================================
# flat tori and spheres: closed forms
# ===================================================================

@pytest.mark.parametrize("L,c", [
    (TWO_PI, 0.05), (TWO_PI, 0.2), (4.0, 0.1), (10.0, 0.3), (1.0, 0.1),
])
def test_flat_torus_closed_form(L, c):
    m = make_manifold("constant", L=L, c=c)
    e = lambda1(m)
    want = min((TWO_PI / L) ** 2, 1.0 / c ** 2)
    assert e.lambda1 == pytest.approx(want, rel=1e-10)


def test_fat_flat_torus_fiber_mode_wins():
    m = make_manifold("constant", L=TWO_PI, c=2.0)
    e = lambda1(m)
    assert e.mode == 1
    # the mode is grid-exact, so accuracy is the solver noise floor,
    # not the Richardson remainder
    assert e.lambda1 == pytest.approx(0.25, abs=4e-9)
    assert not e.degenerate


def test_square_torus_is_degenerate():
    m = make_manifold("constant", L=TWO_PI, c=1.0)
    e = lambda1(m)
    assert e.degenerate
    assert e.lambda1 == pytest.approx(1.0, rel=1e-9)


def test_thin_torus_not_degenerate():
    e = lambda1(make_manifold("constant", L=TWO_PI, c=0.1))
    assert not e.degenerate


@pytest.mark.parametrize("n", [2, 3])
def test_round_sphere_eigenvalue_is_n(n):
    m = make_manifold("sine-sphere", n=n, L=math.pi)
    e = lambda1(m)
    assert e.lambda1 == pytest.approx(float(n), rel=1e-9)
    assert e.degenerate  # the first eigenspace has dimension n + 1


def test_constant_fiber_mode_exact_on_every_grid():
    # constant warp makes the k = 1 eigenvalue nu_1 / c^2 with no grid
    # dependence; the order gate must read that as converged, not fail
    m = make_manifold("constant", L=TWO_PI, c=2.0, n=3)
    e = lambda1(m)
    assert e.mode == 1
    assert e.lambda1 == pytest.approx(0.5, abs=4e-9)


# ===================================================================
# perturbed profiles vs the Galerkin oracle
# ===================================================================

def test_cosine_torus_vs_galerkin():
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.05)
    e = lambda1(m)
    v0 = galerkin_eigs(lambda t: 1.0 + 0.05 * np.cos(t), TWO_PI, 2, 0)
    v1 = galerkin_eigs(lambda t: 1.0 + 0.05 * np.cos(t), TWO_PI, 2, 1)
    want = min(v0[1], v1[0])
    assert e.lambda1 == pytest.approx(want, rel=1e-10)
    assert e.mode == 1  # the perturbation lowers the fiber mode first
    # frozen regression value
    assert e.lambda1 == pytest.approx(0.9962890506921853, rel=1e-12)


def test_asym_tabulated_vs_galerkin():
    m = make_asym_manifold()
    e = lambda1(m)

    def f(t):
        return 1.0 + 0.1 * np.cos(t) + 0.07 * np.sin(2.0 * t)

    v0 = galerkin_eigs(f, TWO_PI, 2, 0, nmodes=48)
    v1 = galerkin_eigs(f, TWO_PI, 2, 1, nmodes=48)
    # the tabulated profile is a spline through 513 samples of f, so
    # agreement is limited by the interpolation, not the solvers
    assert e.lambda1 == pytest.approx(min(v0[1], v1[0]), rel=5e-8)
    assert e.lambda1 == pytest.approx(0.9329939249834472, rel=1e-10)
    assert e.mode == 0
    assert 0.0 < e.a < 0.1  # asymmetric profile shifts the midrange


# ===================================================================
# the eigensolvers against a dense oracle of the discrete pencil
# ===================================================================

DENSE_CASES = {
    "cosine": lambda: make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.3),
    "spline": make_asym_manifold,
    "sphere2": lambda: make_manifold("sine-sphere", n=2, L=math.pi),
    "sphere3": lambda: make_manifold("sine-sphere", n=3, L=math.pi),
}


@pytest.mark.parametrize("case,k,index,schrodinger", [
    ("cosine", 0, 1, False), ("cosine", 1, 0, False),
    ("cosine", 0, 0, True),
    ("spline", 0, 1, False), ("spline", 1, 0, False),
    ("spline", 0, 0, True),
    ("sphere2", 0, 1, False), ("sphere2", 1, 0, False),
    ("sphere3", 0, 1, False),
])
def test_eigenpair_matches_dense_eigh(case, k, index, schrodinger):
    m = DENSE_CASES[case]()
    N = 64
    dis = assemble(m, k, N)
    K, M = dense_pencil(m, k, N)
    root_m = np.sqrt(M)
    B = K / np.outer(root_m, root_m)
    shift = 0.0
    if schrodinger:
        V = 0.4 * (1.0 + np.cos(dis.tm))
        B -= np.diag(V)
        dis = replace(dis, sym_d=dis.sym_d - V)
        shift = -float(np.max(V)) - 0.5 * (TWO_PI / m.L) ** 2
    vals, vecs = np.linalg.eigh(B)
    lam, phi = _eigenpair(dis, index, shift)
    eps_norm = np.finfo(float).eps * np.linalg.norm(B, 2)
    assert abs(lam - vals[index]) <= 16.0 * eps_norm
    # the wanted pair is simple, so its vector is determined up to sign
    assert np.min(np.diff(vals[:index + 2])) > 1e-3
    v = phi * root_m
    cos = abs(v @ vecs[:, index]) / np.linalg.norm(v)
    assert cos >= 1.0 - 1e-10
    if k == 0 and not schrodinger:
        # Delta = -M^{-1} K, to within the rounding of either product
        lap = dis.laplacian(phi)
        bound = 16.0 * np.finfo(float).eps * (np.abs(K) @ np.abs(phi)) / M
        assert np.all(np.abs(lap + (K @ phi) / M) <= bound)


def test_richardson_history_and_order():
    m = make_manifold("cosine", L=TWO_PI, c=0.5, beta=0.2)
    e = lambda1(m)
    assert len(e.history) == len(DEFAULT_GRIDS)
    assert [N for N, _ in e.history] == list(DEFAULT_GRIDS)
    assert 1.5 < e.order < 2.5


def test_lambda1_deterministic():
    m = make_asym_manifold()
    e1 = lambda1(m)
    e2 = lambda1(m)
    assert e1.lambda1 == e2.lambda1
    assert np.array_equal(e1.u, e2.u)


# ===================================================================
# eigenfunction normalization
# ===================================================================

def test_mode0_u_attains_both_extremes():
    e = lambda1(make_asym_manifold())
    assert float(np.max(e.u)) == pytest.approx(1.0, abs=1e-15)
    assert float(np.min(e.u)) == pytest.approx(-1.0, abs=1e-15)
    assert 0.0 <= e.a < 1.0


def test_mode1_u_plain_peak_normalization():
    e = lambda1(make_manifold("constant", L=TWO_PI, c=2.0))
    assert e.mode == 1
    assert float(np.max(np.abs(e.u))) == pytest.approx(1.0, abs=1e-15)
    assert e.a == 0.0


def test_eigenfunction_u_rejects_constants():
    with pytest.raises(DegenerateRange):
        eigenfunction_u(np.ones(32), mode=0)


def test_extrapolate_floor_reports_nominal_order():
    val, order, at_floor = _extrapolate([2.0, 2.0 + 1e-16, 2.0 - 1e-16])
    assert at_floor
    assert order == 2.0
    assert val == pytest.approx(2.0)


# ===================================================================
# ground states
# ===================================================================

def test_zero_potential_ground_state_is_exact():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs = schrodinger_ground(m, lambda t: np.zeros_like(t), N=256)
    assert gs.sigma_tilde == 0.0
    assert np.all(gs.w == 1.0)
    assert gs.w_bar == 1.0


def test_sphere_shift_potential_vanishes():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    V = shift_potential(m, 0.1)
    t = np.linspace(1e-3, math.pi - 1e-3, 101)
    assert np.max(np.abs(V(t))) < 1e-10


def test_ground_state_vs_shooting_oracle():
    beta, delta = 0.05, 0.1
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=beta)
    V = shift_potential(m, delta)
    sigs = [schrodinger_ground(m, V, N).sigma_tilde
            for N in (512, 1024, 2048)]
    extrap = sigs[-1] + (sigs[-1] - sigs[-2]) / 3.0
    want = shoot_sigma_tilde(beta, delta)
    assert extrap == pytest.approx(want, abs=5e-11)
    # second-order decay toward the oracle
    errs = [abs(s - want) for s in sigs]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_ground_state_normalization():
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.2)
    gs = schrodinger_ground(m, shift_potential(m, 0.1), N=512)
    assert gs.sigma_tilde > 0.0
    assert np.all(gs.w > 0.0)
    vol = float(np.sum(gs.dis.mass))
    qm = math.sqrt(float(np.sum(gs.w ** 2 * gs.dis.mass)) / vol)
    assert qm == pytest.approx(1.0, rel=1e-12)
    # Cauchy-Schwarz: the mean of a unit-quadratic-mean function is <= 1
    assert 0.0 < gs.w_bar <= 1.0


def test_localized_ground_state_rejected_cleanly():
    # beta = 0.9 buries the far side of the well below rounding; the
    # solver must refuse rather than return a signed mess
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.9)
    with pytest.raises(NonPositiveGround):
        schrodinger_ground(m, shift_potential(m, 0.1), N=1024)


def test_potential_length_checked():
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.1)
    with pytest.raises(ValueError):
        schrodinger_ground(m, np.zeros(100), N=128)


# ===================================================================
# J transform and its certificate equation
# ===================================================================

def test_build_J_flat_is_one():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs = schrodinger_ground(m, lambda t: np.zeros_like(t), N=256)
    J = build_J(gs, tau_of(0.1))
    assert np.all(J == 1.0)


def test_build_J_tau_validated():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs = schrodinger_ground(m, lambda t: np.zeros_like(t), N=64)
    with pytest.raises(ValueError):
        build_J(gs, 1.0)


def test_J_residual_flat_exactly_zero():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    N = 256
    gs = schrodinger_ground(m, lambda t: np.zeros_like(t), N)
    J = build_J(gs, 17.0)
    res = residual_J_equation(gs.dis, J, np.zeros(N), 17.0, 0.0)
    assert res == 0.0


def test_J_residual_cosine_small_against_converged_sigma():
    beta, delta = 0.05, 0.1
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=beta)
    tau = tau_of(delta)
    V = shift_potential(m, delta)
    sig_ref = shoot_sigma_tilde(beta, delta) / (tau - 1.0)
    gs = schrodinger_ground(m, V, N=1024)
    J = build_J(gs, tau)
    from sgv import rho_H_field
    rho0 = rho_H_field(m, 0.0, gs.t)
    res = residual_J_equation(gs.dis, J, rho0, tau, sig_ref)
    assert res < 5e-5  # O(h^2) at N = 1024 for this amplitude


def test_rayleigh_matches_assembled_eigenvalue():
    # the returned eigenvector's Rayleigh quotient against the assembled
    # pencil B = M^{-1/2} K M^{-1/2}, on a coarse chain and on the
    # default (production) grids for lambda1's winning mode
    wavy = make_manifold("cosine", L=TWO_PI, c=0.5, beta=0.2)
    cases = [(make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.05), 1,
              (256, 512, 1024)),
             (wavy, lambda1(wavy).mode, DEFAULT_GRIDS)]
    for m, k, grids in cases:
        lams, u_raw, dis = _mode_candidate(m, k, grids)
        v = u_raw * np.sqrt(dis.mass)
        quotient = float(v @ dis.apply_sym(v)) / float(v @ v)
        assert quotient == pytest.approx(lams[-1], rel=1e-10), grids


def test_assemble_shapes():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    dis = assemble(m, 0, 128)
    assert dis.tm.shape == (128,)
    assert dis.sym_d.shape == (128,)
    assert dis.sym_e.shape == (127,)
    assert not dis.periodic
    assert dis.sym_corner == 0.0
