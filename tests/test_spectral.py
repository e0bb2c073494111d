"""Tests for the eigensolver stack: lambda1, ground states, J transform.

The finite-difference results are checked against two independent
oracles implemented right here:

- a dense Fourier-Galerkin discretization of the mode-k pencil
  (spectrally accurate for smooth periodic profiles), and
- a DOP853 shooting solve of the ground-state problem with Brent
  root finding on the Neumann mismatch at the half period.

plus the closed forms on flat tori and round spheres, and a dense
matrix oracle of the discrete pencil itself for the eigensolvers.  A
patched chain drives the two refusals no real profile here reaches: a
ground state that changes sign, and an order outside lambda1's window.
"""

import importlib.util
import math
import pathlib

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from sgv import (
    _lapack,
    build_J,
    chain_pencils,
    check_main_theorem,
    lambda1,
    make_manifold,
    residual_J_equation,
    schrodinger_ground,
)
import sgv.spectral
from sgv.errors import (DegenerateRange, NoConvergence, NonPositiveGround,
                        SignChange)
from sgv.spectral import (
    DEFAULT_GRIDS,
    _chain,
    _extrapolate,
    _pair,
    _peak,
    assemble,
    eigenfunction_u,
)
from sgv.constants import tau_of
from sgv.verify import check_sigma_bound, shift_potential

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


def mp_lowest_vector(d, e, corner=0.0, lam=None, digits=40, sweeps=6):
    """Unit eigenvector of the lowest eigenvalue of the symmetric
    tridiagonal (d, e), plus `corner` at (0, -1) and (-1, 0), by inverse
    iteration in mpmath at `digits` digits.  The first sweep is shifted
    to lam (default: below the whole spectrum), each later one just
    below the last Rayleigh quotient.  The corner enters as the
    rank-one update u u^T of the cut-open tridiagonal, through the
    Sherman-Morrison formula.  The double entries are taken exactly."""
    with mpmath.workdps(digits):
        d = [mpmath.mpf(float(v)) for v in d]
        e = [mpmath.mpf(float(v)) for v in e] + [mpmath.mpf(0)]
        c = mpmath.mpf(float(corner))
        n = len(d)
        d_cut = list(d)
        d_cut[0] += c
        d_cut[-1] += c
        g = mpmath.sqrt(-c)
        u = [g] + [mpmath.mpf(0)] * (n - 2) + [-g]
        if lam is None:
            # Gershgorin: below the whole spectrum
            lam = min(d[i] - abs(e[i]) - (abs(e[i - 1]) if i else 0)
                      for i in range(n)) - abs(c)
        lam = mpmath.mpf(float(lam))

        def solve(rhs):
            # Thomas algorithm for (T - lam) y = rhs, T cut open
            cs, gs = [], []
            for i in range(n):
                piv = d_cut[i] - lam - (e[i - 1] * cs[-1] if i else 0)
                cs.append(e[i] / piv)
                gs.append((rhs[i] - (e[i - 1] * gs[-1] if i else 0)) / piv)
            y = [gs[-1]]
            for i in range(n - 2, -1, -1):
                y.append(gs[i] - cs[i] * y[-1])
            return y[::-1]

        x = [mpmath.mpf(1)] * n
        for _ in range(sweeps):
            y = solve(x)
            if c:
                w = solve(u)
                ratio = (g * (y[0] - y[-1])) / (1 + g * (w[0] - w[-1]))
                y = [a - ratio * b for a, b in zip(y, w)]
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in y))
            x = [v / norm for v in y]
            Tx = [d[i] * x[i] + (e[i - 1] * x[i - 1] if i else 0)
                  + (e[i] * x[i + 1] if i < n - 1 else 0) for i in range(n)]
            Tx[0] += c * x[-1]
            Tx[-1] += c * x[0]
            lam = (mpmath.fsum(a * b for a, b in zip(x, Tx))
                   - mpmath.mpf(10) ** (2 - digits))
        return np.array([float(v) for v in x])


def make_pinched_spline(knots=65, phase=1.0):
    """Periodic spline through samples of 1 + 0.9 cos(t - phase): the
    pinched torus, turned by phase.  Off phase 0 its mirror axis misses
    the grid's, and at phase 1 its ground state's tail lies next to the
    cut of the periodic pencil, where B = T + u u^T couples the ends."""
    ts = np.linspace(0.0, TWO_PI, knots)
    fs = 1.0 + 0.9 * np.cos(ts - phase)
    fs[-1] = fs[0]
    return make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                         boundary="periodic")


def make_asym_manifold(samples=513):
    ts = np.linspace(0.0, TWO_PI, samples)
    fs = 1.0 + 0.1 * np.cos(ts) + 0.07 * np.sin(2.0 * ts)
    return make_manifold("tabulated", L=TWO_PI, n=2, ts=ts, fs=fs,
                         boundary="periodic")


def dense_pencil(m, k, N):
    """Dense stiffness K and mass diagonal M of the flux-form mode-k
    pencil, written out from the profile entry by entry."""
    h = m.L / N
    f_edge = m.f(np.arange(N + 1) * h)
    if m.boundary == "pole-closed":
        f_edge[0] = f_edge[-1] = 0.0
    else:
        f_edge[-1] = f_edge[0]
    ew = f_edge ** (m.n - 1) / h
    f_mid = m.f((np.arange(N) + 0.5) * h)
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


def test_lambda1_solves_only_fiber_modes_0_and_1(monkeypatch):
    # a bulge of height 5 makes nu_k / max f^2 small, so no lower bound
    # rules out mode 1, 2 or 3; modes k >= 2 lie above mode 1 anyway
    ts = np.linspace(0.0, TWO_PI, 129)
    fs = 1.0 + 4.0 * np.exp(-((ts - math.pi) / 0.3) ** 2)
    fs[-1] = fs[0]
    m = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                      boundary="periodic")
    modes = []

    def counting(pencils, index, V=None):
        modes.append(pencils[0].k)
        return _chain(pencils, index, V)

    monkeypatch.setattr(sgv.spectral, "_chain", counting)
    e = lambda1(m)
    assert modes == [0, 1]
    assert e.mode == 1
    assert e.lambda1 == 0.5110954087100169  # as with modes 0-3 all solved
    assert not e.degenerate


def test_chain_pencils_reuse_the_start_pencil(monkeypatch):
    # a chain that begins on the start's 16 cells assembles them once,
    # and its first grid is the dense start solve itself
    calls = []
    inner = sgv.spectral.assemble

    def counted(m, k, N):
        calls.append(N)
        return inner(m, k, N)

    monkeypatch.setattr(sgv.spectral, "assemble", counted)
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.3)
    pencils = chain_pencils(m, 0, (16, 32, 64))
    assert calls == [16, 32, 64]
    assert pencils[1] is pencils[0]
    assert [dis.tm.size for dis in pencils] == [16, 16, 32, 64]
    starts = []

    def pair(dis, index, V, start=None):
        starts.append((dis.tm.size, start is None))
        return _pair(dis, index, V, start)

    monkeypatch.setattr(sgv.spectral, "_pair", pair)
    assert len(list(_chain(pencils, 1))) == 3
    assert starts == [(16, True), (32, False), (64, False)]


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
    assert e.lambda1 == pytest.approx(0.9962890506924706, rel=1e-12)


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


DENSE_PAIRS = [
    ("cosine", 0, 1, False), ("cosine", 1, 0, False),
    ("cosine", 0, 0, True),
    ("spline", 0, 1, False), ("spline", 1, 0, False),
    ("spline", 0, 0, True),
    ("sphere2", 0, 1, False), ("sphere2", 1, 0, False),
    ("sphere3", 0, 1, False),
]


@pytest.mark.parametrize("case,k,index,schrodinger", DENSE_PAIRS)
def test_eigenpair_matches_dense_eigh(case, k, index, schrodinger):
    check_against_dense(DENSE_CASES[case](), k, 64, index, schrodinger)


def check_against_dense(m, k, N, index, schrodinger, start=None):
    """Check `_pair` (continued from start, if given) against dense
    eigh of the written-out pencil; returns the start it gives the next
    grid."""
    dis = assemble(m, k, N)
    K, M = dense_pencil(m, k, N)
    root_m = np.sqrt(M)
    B = K / np.outer(root_m, root_m)
    V = None
    if schrodinger:
        def V(t):
            return 0.4 * (1.0 + np.cos(t))
        B -= np.diag(V(dis.tm))
    vals, vecs = np.linalg.eigh(B)
    lam, phi = _pair(dis, index, V, start)
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
    return lam, phi, dis.tm


def counting_fallbacks(monkeypatch):
    """A list that grows by one entry per fallback bisection: the
    certificate takes two Sturm counts per continued pair, the fallback
    about fifty more."""
    fallbacks, counts = [], []
    continued, count = sgv.spectral._continued_pair, _lapack.count

    def counted_pair(*args, **kwargs):
        before = len(counts)
        out = continued(*args, **kwargs)
        if len(counts) - before > 2:
            fallbacks.append(1)
        return out

    def counted_count(*args, **kwargs):
        counts.append(1)
        return count(*args, **kwargs)
    monkeypatch.setattr(sgv.spectral, "_continued_pair", counted_pair)
    monkeypatch.setattr(_lapack, "count", counted_count)
    return fallbacks


MIRROR_CASES = [(0, 0, False), (0, 1, False), (1, 0, False), (0, 0, True)]


@pytest.mark.parametrize("case,k,index,schrodinger", list(dict.fromkeys(
    DENSE_PAIRS + [("cosine", *case) for case in MIRROR_CASES])))
def test_continued_pair_matches_dense_eigh(monkeypatch, case, k, index,
                                           schrodinger):
    # the pair solved at N = 32 starts the Rayleigh-quotient iteration at
    # N = 64 on both closures, whose certificate then holds without the
    # fallback bisection
    m = DENSE_CASES[case]()
    start = check_against_dense(m, k, 32, index, schrodinger)
    fallbacks = counting_fallbacks(monkeypatch)
    check_against_dense(m, k, 64, index, schrodinger, start)
    assert fallbacks == []


@pytest.mark.parametrize("case", ["cosine", "spline", "sphere2"])
def test_continued_pair_from_the_wrong_pair(monkeypatch, case):
    # index 0's pair as the start of index 1: the iteration finds index
    # 0 again, its Sturm counts refuse it, and the fallback bisection
    # returns index 1 to within the noise floor of dense eigh
    m = DENSE_CASES[case]()
    start = check_against_dense(m, 0, 32, 0, False)
    fallbacks = counting_fallbacks(monkeypatch)
    check_against_dense(m, 0, 64, 1, False, start)
    assert fallbacks == [1]


TIED_TORI = pytest.mark.parametrize("m", [
    make_manifold("constant", L=TWO_PI, c=0.1),
    make_manifold("cosine", L=TWO_PI, c=0.1, beta=0.0),
    make_manifold("cosine", L=TWO_PI, c=0.5, beta=1e-8),
], ids=["flat", "cosine-b0", "cosine-b1e-8"])


@TIED_TORI
def test_tied_pair_continues_the_chain(monkeypatch, m):
    # the base circle's cos/sin pair is double at working precision on
    # flat and near-flat tori; the cluster-aware certificate accepts any
    # vector of its span, so the chain continues it without the fallback
    fallbacks = counting_fallbacks(monkeypatch)
    for k, index in ((0, 1), (0, 0), (1, 0)):
        coarse = assemble(m, k, 128)
        start = (*_pair(coarse, index, None), coarse.tm)
        dis = assemble(m, k, 256)
        lam, phi = _pair(dis, index, None, start)
        K, M = dense_pencil(m, k, 256)
        root_m = np.sqrt(M)
        vals = np.linalg.eigvalsh(K / np.outer(root_m, root_m))
        assert abs(lam - vals[index]) <= sgv.spectral._noise_floor(dis)
    assert fallbacks == []


@TIED_TORI
def test_tied_pair_passes_the_gradient_check(monkeypatch, m):
    # the chain returns a mixed member of the tied pair, whose peak sits
    # anywhere between midpoints; the gradient check, which reads the
    # continuous peak, passes it, and no grid of the theorem's solves
    # falls back to bisection
    fallbacks = counting_fallbacks(monkeypatch)
    rec = check_main_theorem(m, 0.5, 2.0, 2.0, 0.5)
    assert fallbacks == []
    assert rec.gradient_margin <= 1e-6 * rec.lambda_tilde


@pytest.mark.parametrize("solve", [
    lambda: lambda1(make_manifold("sine-sphere", n=2, L=math.pi)),
    lambda: lambda1(make_manifold("sine-sphere", n=3, L=math.pi)),
    lambda: check_sigma_bound(chain_pencils(make_manifold(
        "cosine", L=TWO_PI, c=1.0, beta=0.3), 0, DEFAULT_GRIDS), 0.1,
        kb=1.0),
    lambda: lambda1(make_manifold("constant", L=TWO_PI, c=0.1)),
], ids=["sphere2", "sphere3", "sigma-cos-c1-b0.3", "flat-tied"])
def test_chain_bisects_only_where_it_cannot_continue(monkeypatch, solve):
    # every grid of these chains continues the grid below, the flat
    # torus's tied base-circle pair included: no fallback bisection
    fallbacks = counting_fallbacks(monkeypatch)
    solve()
    assert fallbacks == []


@settings(max_examples=40, deadline=None)
@given(knots=st.integers(17, 65), N=st.integers(64, 256),
       k=st.integers(0, 1), index=st.integers(0, 1),
       log_amp=st.floats(-9.0, -0.7), potential=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chain_matches_dense_eigh_on_asymmetric_splines(
        knots, N, k, index, log_amp, potential, seed):
    # random mirror-asymmetric periodic splines, from wavy down to a
    # flat base plus 1e-9, whose base-circle pair is then near double,
    # with and without a random Schrodinger potential: a dense 16-cell
    # start, continued to N (the random samples interpolated onto the
    # start's cells), against dense eigh of the pencil on N
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, TWO_PI, knots)
    fs = 1.0 + 10.0 ** log_amp * rng.standard_normal(knots)
    fs[-1] = fs[0]
    m = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                      boundary="periodic")
    dis = assemble(m, k, N)
    coarse = assemble(m, k, 16)
    K, M = dense_pencil(m, k, N)
    root_m = np.sqrt(M)
    B = K / np.outer(root_m, root_m)
    V = None
    if potential:
        samples = potential * rng.random(N)
        B -= np.diag(samples)

        def V(t):
            return np.interp(t, dis.tm, samples, period=TWO_PI)
    start = (*_pair(coarse, index, V), coarse.tm)
    lam, phi = _pair(dis, index, V, start)
    floor = 16.0 * np.finfo(float).eps * np.linalg.norm(B, 2)
    assert abs(lam - np.linalg.eigvalsh(B)[index]) <= floor
    v = phi * root_m
    v /= np.linalg.norm(v)
    assert np.max(np.abs(B @ v - lam * v)) <= floor


def test_periodic_reference_rows_match_benchmark_reference():
    # the benchmark's stored lambda1 and mode of its 27 periodic catalog
    # rows (cosine tori and periodic splines), at the benchmark's own
    # tolerance, so a drifting periodic solver fails here first
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        pathlib.Path(__file__).resolve().parent.parent / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    rows = [r for r in workloads.reference_rows()
            if r.get("boundary", "periodic") == "periodic"]
    assert len(rows) == 27
    for row in rows:
        params = {key: v for key, v in row.items() if key not in ("id",
                                                                   "kind")}
        e = lambda1(make_manifold(row["kind"], **params))
        want = reference[row["id"]]
        assert e.mode == want["mode"], row["id"]
        assert e.lambda1 == pytest.approx(
            want["lambda1"], rel=workloads.REFERENCE_RTOL), row["id"]


def test_ground_state_matches_dense_eigh_at_2048():
    # the production grid: the chain's vector, continued from the dense
    # 16-cell start, lies within 1e-11 of dense eigh of the written-out
    # pencil
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.3)
    N = 2048
    dis = assemble(m, 0, N)
    V = shift_potential(m, 0.1)(dis.tm)
    K, M = dense_pencil(m, 0, N)
    root_m = np.sqrt(M)
    B = K / np.outer(root_m, root_m) - np.diag(V)
    vals, vecs = sla.eigh(B, subset_by_index=[0, 0])
    gs, = schrodinger_ground(chain_pencils(m, 0, (N,)),
                             shift_potential(m, 0.1))
    v = gs.w * root_m
    v /= np.linalg.norm(v)
    want = vecs[:, 0] * np.sign(vecs[:, 0] @ v)
    assert np.max(np.abs(v - want)) <= 1e-11
    floor = 16.0 * np.finfo(float).eps * np.abs(B).sum(axis=1).max()
    assert abs(-gs.sigma_tilde - vals[0]) <= floor


def test_richardson_history_and_order():
    m = make_manifold("cosine", L=TWO_PI, c=0.5, beta=0.2)
    e = lambda1(m)
    assert len(e.history) == len(DEFAULT_GRIDS)
    assert [N for N, _ in e.history] == list(DEFAULT_GRIDS)
    assert 1.5 < e.order < 2.5


@pytest.mark.parametrize("grids", [(512, 1024, 4096), (512, 1000, 2048)])
def test_lambda1_rejects_grids_that_do_not_double(grids):
    # the Richardson step assumes h halves between grids: on the round
    # sphere (512, 1024, 4096) extrapolated to 2 + 2.5e-7 with an
    # observed order of 1.68, inside the order window, and
    # (512, 1000, 2048) was off by 7.9e-9
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    with pytest.raises(ValueError, match="double"):
        lambda1(m, grids=grids)


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
    # the continuous function attains +-1; its samples, up to h/2 off
    # its extrema, stay within [-1, 1] by about h^2 lambda1 / 8
    e = lambda1(make_asym_manifold())
    assert _peak(e.u, True) == pytest.approx(1.0, abs=1e-15)
    assert -_peak(-e.u, True) == pytest.approx(-1.0, abs=1e-15)
    h = e.t[1] - e.t[0]
    for extreme in (np.max(e.u), -np.min(e.u)):
        assert 1.0 - h * h * e.lambda1 / 8.0 <= extreme <= 1.0
    assert 0.0 <= e.a < 1.0


def test_peak_reads_the_continuous_extremum():
    # samples of cos t at cell midpoints, both closures: the quadratic
    # through the three cells around the grid maximum recovers sup = 1
    # to O(h^4) (it lies up to h/2 off the grid), where the samples
    # fall short by O(h^2); a pole-closed end cell reflects across the
    # pole, and a periodic grid wraps
    for N, shift in ((64, 0.0), (64, 0.3), (257, 0.2)):
        h = TWO_PI / N
        t = (np.arange(N) + 0.5) * h
        y = np.cos(t - shift * h)
        assert 1.0 - np.max(y) > 1e-5
        assert abs(_peak(y, True) - 1.0) <= h ** 4
        assert abs(_peak(np.roll(y, N // 3), True) - 1.0) <= h ** 4
    h = math.pi / 64
    y = np.cos((np.arange(64) + 0.5) * h)
    assert abs(_peak(y, False) - 1.0) <= h ** 4
    assert abs(_peak(-y, False) - 1.0) <= h ** 4


def test_mode1_u_plain_peak_normalization():
    e = lambda1(make_manifold("constant", L=TWO_PI, c=2.0))
    assert e.mode == 1
    assert float(np.max(np.abs(e.u))) == pytest.approx(1.0, abs=1e-15)
    assert e.a == 0.0


def test_eigenfunction_u_rejects_constants():
    dis = assemble(make_manifold("constant", L=TWO_PI, c=0.1), 0, 32)
    with pytest.raises(DegenerateRange):
        eigenfunction_u(np.ones(32), dis)


def test_extrapolate_floor_reports_nominal_order():
    # the floor is the noise floor of the pencil passed, ~3e-13 here
    dis = assemble(make_manifold("constant", L=TWO_PI, c=0.1), 0, 32)
    val, order, at_floor = _extrapolate([2.0, 2.0 + 1e-16, 2.0 - 1e-16],
                                        dis)
    assert at_floor
    assert order == 2.0
    assert val == 2.0 - 1e-16
    # above the floor an order outside the window still takes the step
    step = 2.0 ** -36
    assert step > sgv.spectral._noise_floor(dis)
    val, order, at_floor = _extrapolate([2.0, 2.0 + step, 2.0], dis)
    assert not at_floor
    assert order == 0.0
    assert val == 2.0 - step / 3.0


# ===================================================================
# ground states
# ===================================================================

def test_zero_potential_ground_state_is_exact():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs, = schrodinger_ground(chain_pencils(m, 0, (256,)),
                             lambda t: np.zeros_like(t))
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
    pencils = chain_pencils(m, 0, (512, 1024, 2048))
    sigs = [gs.sigma_tilde for gs in schrodinger_ground(pencils, V)]
    extrap = sigs[-1] + (sigs[-1] - sigs[-2]) / 3.0
    want = shoot_sigma_tilde(beta, delta)
    assert extrap == pytest.approx(want, abs=5e-11)
    # second-order decay toward the oracle
    errs = [abs(s - want) for s in sigs]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_ground_state_normalization():
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.2)
    gs, = schrodinger_ground(chain_pencils(m, 0, (512,)),
                             shift_potential(m, 0.1))
    assert gs.sigma_tilde > 0.0
    assert np.all(gs.w > 0.0)
    vol = float(np.sum(gs.dis.mass))
    qm = math.sqrt(float(np.sum(gs.w ** 2 * gs.dis.mass)) / vol)
    assert qm == pytest.approx(1.0, rel=1e-12)
    # Cauchy-Schwarz: the mean of a unit-quadratic-mean function is <= 1
    assert 0.0 < gs.w_bar <= 1.0


def test_localized_ground_state_rejected_cleanly():
    # at delta = 1e-4 the turned pinched torus's ground state falls below
    # the smallest double on the far side of the well, so its entries
    # there cannot be represented and the solver must refuse rather than
    # return a signed mess
    for knots in (65, 129, 257):
        m = make_pinched_spline(knots)
        with pytest.raises(NonPositiveGround):
            schrodinger_ground(chain_pencils(m, 0, (1024,)),
                               shift_potential(m, 1e-4))


@pytest.mark.parametrize("k", [1, 2])
def test_ground_chain_outside_fiber_mode_0_rejected(k):
    # a mode-k chain's lowest pair is another operator's ground state: on
    # this torus at delta = 0.1 it would read sigma 0.544 (k = 1) or
    # 0.190 (k = 2) against the true 0.663, with a margin up to 15 times
    # too large, so the solver and the sigma check must refuse it
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.3)
    pencils = chain_pencils(m, k, DEFAULT_GRIDS)
    with pytest.raises(ValueError, match=f"fiber mode {k}, not 0"):
        schrodinger_ground(pencils, shift_potential(m, 0.1))
    with pytest.raises(ValueError, match=f"fiber mode {k}, not 0"):
        check_sigma_bound(pencils, 0.1, kb=1.0)


def test_ground_state_that_changes_sign_rejected(monkeypatch):
    # a chain whose lowest vector crosses zero well above rounding
    inner = sgv.spectral._chain

    def chain(pencils, index, V=None):
        for mu0, w, dis in inner(pencils, index, V):
            yield mu0, np.linspace(-1.0, 2.0, w.size), dis

    monkeypatch.setattr(sgv.spectral, "_chain", chain)
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.1)
    with pytest.raises(SignChange, match="ground state changes sign"):
        schrodinger_ground(chain_pencils(m, 0, (64,)), shift_potential(m, 0.1))


def test_order_outside_the_window_raises(monkeypatch):
    # raw values whose differences shrink 16-fold per grid, far above
    # the rounding floor: order 4, which lambda1 refuses to extrapolate
    inner = sgv.spectral._chain

    def chain(pencils, index, V=None):
        for lam, (_, phi, dis) in zip((1.0, 1.1, 1.1 + 0.1 / 16),
                                      inner(pencils, index, V)):
            yield lam, phi, dis

    monkeypatch.setattr(sgv.spectral, "_chain", chain)
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    with pytest.raises(NoConvergence,
                       match=r"observed convergence order 4\.000 outside"):
        lambda1(m, grids=(64, 128, 256))


@pytest.mark.parametrize("delta", [0.1, 0.03, 0.003])
def test_turned_pinched_ground_state_matches_mpmath_oracle(delta):
    # the continued route, from the dense 16-cell start, resolves the
    # turned pinched torus's ground state down to its tail (2e-20 at
    # delta = 0.1, 2e-36 at 0.03, 1.7e-113 at 0.003, all next to the
    # cut of the periodic pencil), to the relative accuracy of an
    # inverse iteration on the full periodic pencil at 40 and 140 digits
    # (1.6e-13, 3.9e-14 and 3.4e-14 measured; dense eigh leaves entries
    # of -1e-15)
    m = make_pinched_spline(65)
    N = 1024
    dis = assemble(m, 0, N)
    V = shift_potential(m, delta)(dis.tm)
    gs, = schrodinger_ground(chain_pencils(m, 0, (N,)),
                             shift_potential(m, delta))
    lam0 = -gs.sigma_tilde
    x = mp_lowest_vector(dis.sym_d - V, dis.sym_e, dis.sym_corner,
                         lam=lam0 - 1e-6 * abs(lam0),
                         digits=40 if delta > 0.01 else 140, sweeps=4)
    w = np.abs(x) / np.sqrt(dis.mass)
    w /= np.sqrt(np.sum(w * w * dis.mass) / np.sum(dis.mass))
    assert np.min(w) < 1e-19 * np.max(w)
    assert np.all(gs.w > 0.0)
    assert np.max(np.abs(gs.w - w) / w) <= 1e-12


def test_pinched_cosine_ground_state_matches_mpmath_oracle():
    # the continued route resolves the pinched cosine torus's ground
    # state, down to its 3e-20 tail, against a 40-digit inverse iteration
    # on the even half of its mirror-symmetric pencil (2.9e-13 measured,
    # within eps ||B|| / gap = 3.8e-13 of the whole pencil)
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=0.9)
    N = 1024
    dis = assemble(m, 0, N)
    V = shift_potential(m, 0.1)(dis.tm)
    gs, = schrodinger_ground(chain_pencils(m, 0, (N,)),
                             shift_potential(m, 0.1))
    half = N // 2
    d = dis.sym_d[:half] - V[:half]
    d[0] += dis.sym_corner
    d[-1] += dis.sym_e[half - 1]
    h = np.abs(mp_lowest_vector(d, dis.sym_e[:half - 1]))
    assert np.min(h) < 1e-19
    w = np.concatenate([h, h[::-1]]) / np.sqrt(dis.mass)
    w /= np.sqrt(np.sum(w * w * dis.mass) / np.sum(dis.mass))
    assert np.all(gs.w > 0.0)
    assert np.max(np.abs(gs.w - w) / w) <= 1e-12


# ===================================================================
# J transform and its certificate equation
# ===================================================================

def test_build_J_flat_is_one():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs, = schrodinger_ground(chain_pencils(m, 0, (256,)),
                             lambda t: np.zeros_like(t))
    J = build_J(gs, tau_of(0.1))
    assert np.all(J == 1.0)


def test_build_J_tau_validated():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    gs, = schrodinger_ground(chain_pencils(m, 0, (64,)),
                             lambda t: np.zeros_like(t))
    with pytest.raises(ValueError):
        build_J(gs, 1.0)


def test_J_residual_flat_exactly_zero():
    m = make_manifold("constant", L=TWO_PI, c=0.1)
    N = 256
    gs, = schrodinger_ground(chain_pencils(m, 0, (N,)),
                             lambda t: np.zeros_like(t))
    J = build_J(gs, 17.0)
    res = residual_J_equation(gs.dis, J, np.zeros(N), 17.0, 0.0)
    assert res == 0.0


def test_J_residual_cosine_small_against_converged_sigma():
    beta, delta = 0.05, 0.1
    m = make_manifold("cosine", L=TWO_PI, c=1.0, beta=beta)
    tau = tau_of(delta)
    V = shift_potential(m, delta)
    sig_ref = shoot_sigma_tilde(beta, delta) / (tau - 1.0)
    gs, = schrodinger_ground(chain_pencils(m, 0, (1024,)), V)
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
        *_, (lam, u_raw, dis) = _chain(chain_pencils(m, k, grids),
                                       0 if k else 1)
        v = u_raw * np.sqrt(dis.mass)
        quotient = float(v @ dis.apply_sym(v)) / float(v @ v)
        assert quotient == pytest.approx(lam, rel=1e-10), grids


def test_assemble_shapes():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    dis = assemble(m, 0, 128)
    assert dis.tm.shape == (128,)
    assert dis.sym_d.shape == (128,)
    assert dis.sym_e.shape == (127,)
    assert not dis.periodic
    assert dis.sym_corner == 0.0
