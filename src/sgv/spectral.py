"""Finite-difference spectra of warped-product Laplacians.

Separation of variables on g = dt^2 + f^2 g_fiber turns the
Laplace-Beltrami eigenproblem into a family of one-dimensional pencils
indexed by the fiber mode k:

    -(f^{n-1} phi')' + nu_k f^{n-3} phi = lambda f^{n-1} phi,

with nu_k = k (k + n - 2) the k-th fiber eigenvalue (k^2 on circle
fibers).  The discretization is a staggered flux form on N cells of
width h = L/N: unknowns live at cell midpoints, fluxes f^{n-1} phi' at
cell edges.  This keeps the stiffness matrix symmetric, makes row sums
vanish exactly for k = 0 (the discrete kernel is exactly the constant),
and handles the pole-closed case naturally because the edge weight
f^{n-1} vanishes at the poles -- no boundary condition is imposed beyond
what the geometry already encodes.

Two exact-arithmetic-shaped solvers cover the closure types:

  * pole-closed pencils are symmetric tridiagonal after the congruence
    B = M^{-1/2} K M^{-1/2}; LAPACK's bisection + inverse iteration
    (scipy.linalg.eigh_tridiagonal) returns selected lowest pairs
    deterministically.
  * periodic pencils add one corner entry.  B is tridiagonal plus the
    rank-one update u u^T with u supported on the first and last
    entries, so (B - s)^{-1} is two banded solves and a Sherman-Morrison
    correction.  A fixed-shift subspace iteration on a deterministic
    Fourier start block (no randomness anywhere) then converges the
    lowest cluster; for k = 0 the exactly known constant mode is
    projected out each sweep.

Eigenvalues converge at second order in h; `lambda1` runs a three-grid
Richardson study, checks the observed order, and returns the
extrapolated value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import (DegenerateRange, NoConvergence, NonPositiveGround,
                     SignChange)
from .geometry import Manifold

DEFAULT_GRIDS = (512, 1024, 2048)
_ORDER_WINDOW = (1.5, 2.5)


@dataclass(frozen=True)
class Discretization:
    """Flux-form pencil K phi = lambda M phi for one fiber mode."""

    manifold: Manifold
    k: int
    N: int
    h: float
    tm: np.ndarray          # cell midpoints, shape (N,)
    edge_w: np.ndarray      # f^{n-1} at cell edges, shape (N+1,)
    mass: np.ndarray        # M diagonal: f(tm)^{n-1} h
    pot: np.ndarray         # fiber term: nu_k f(tm)^{n-3} h
    sym_d: np.ndarray       # diag of B = M^{-1/2} K M^{-1/2}
    sym_e: np.ndarray       # first off-diagonal of B, shape (N-1,)
    sym_corner: float       # B[0, N-1] (periodic closures only, else 0)

    @property
    def periodic(self) -> bool:
        return self.manifold.boundary == "periodic"

    def nu(self) -> float:
        return float(self.k * (self.k + self.manifold.n - 2))

    def apply_sym(self, x: np.ndarray) -> np.ndarray:
        """B @ x for vectors or column blocks."""
        y = self.sym_d[:, None] * x if x.ndim == 2 else self.sym_d * x
        if x.ndim == 2:
            y[1:] += self.sym_e[:, None] * x[:-1]
            y[:-1] += self.sym_e[:, None] * x[1:]
            if self.sym_corner != 0.0:
                y[0] += self.sym_corner * x[-1]
                y[-1] += self.sym_corner * x[0]
        else:
            y[1:] += self.sym_e * x[:-1]
            y[:-1] += self.sym_e * x[1:]
            if self.sym_corner != 0.0:
                y[0] += self.sym_corner * x[-1]
                y[-1] += self.sym_corner * x[0]
        return y

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Flux-form Laplace-Beltrami of midpoint samples (k = 0 stencil).

        Pole-closed profiles return a full-length array whose two end
        entries use the one-sided flux that the vanishing edge weight
        produces; interior entries are the usual three-point form.
        """
        v = np.asarray(values, dtype=float)
        if self.periodic:
            vp = np.roll(v, -1)
            vm = np.roll(v, 1)
        else:
            vp = np.empty_like(v)
            vm = np.empty_like(v)
            vp[:-1] = v[1:]
            vp[-1] = v[-1]   # flux weight is 0 there; value irrelevant
            vm[1:] = v[:-1]
            vm[0] = v[0]
        up = self.edge_w[1:] * (vp - v)
        dn = self.edge_w[:-1] * (v - vm)
        return (up - dn) / (self.h * self.mass)


def assemble(m: Manifold, k: int, N: int) -> Discretization:
    """Build the mode-k pencil on N cells."""
    if k < 0:
        raise ValueError("fiber mode k must be >= 0")
    if N < 8:
        raise ValueError("need at least 8 cells")
    L = m.L
    h = L / N
    edges = np.arange(N + 1) * h
    tm = (np.arange(N) + 0.5) * h
    f_edge = m.profile.f(edges)
    if m.boundary == "pole-closed":
        f_edge = f_edge.copy()
        f_edge[0] = 0.0
        f_edge[-1] = 0.0
    else:
        # shared closing edge: use one value for both ends
        f_edge = f_edge.copy()
        f_edge[-1] = f_edge[0]
    edge_w = f_edge ** (m.n - 1)
    f_mid = m.profile.f(tm)
    mass = f_mid ** (m.n - 1) * h
    nu = float(k * (k + m.n - 2))
    pot = nu * f_mid ** (m.n - 3) * h

    k_diag = (edge_w[:-1] + edge_w[1:]) / h + pot
    k_off = -edge_w[1:-1] / h
    inv_sqrt_m = 1.0 / np.sqrt(mass)
    sym_d = k_diag * inv_sqrt_m * inv_sqrt_m
    sym_e = k_off * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    corner = 0.0
    if m.boundary == "periodic":
        corner = float(-edge_w[0] / h * inv_sqrt_m[0] * inv_sqrt_m[-1])
    return Discretization(manifold=m, k=k, N=N, h=h, tm=tm, edge_w=edge_w,
                          mass=mass, pot=pot, sym_d=sym_d, sym_e=sym_e,
                          sym_corner=corner)


# -- periodic (tridiagonal + corner) solver ----------------------------------

def _fourier_block(dis: Discretization, include_const: bool) -> np.ndarray:
    """Deterministic start block in symmetric coordinates."""
    t = dis.tm
    w = 2.0 * np.pi / dis.manifold.L
    cols = []
    if include_const:
        cols.append(np.ones_like(t))
    cols.extend([np.cos(w * t), np.sin(w * t)])
    if not include_const:
        cols.append(np.cos(2.0 * w * t))
    X = np.stack(cols, axis=1)
    return X * np.sqrt(dis.mass)[:, None]


def _corner_lowest(dis: Discretization, count: int, deflate: bool,
                   shift: float, max_iter: int = 160) -> tuple:
    """Lowest eigenpairs of tridiagonal-plus-corner B by shift-invert
    subspace iteration with Sherman-Morrison banded solves."""
    d = dis.sym_d
    e = dis.sym_e
    c = dis.sym_corner
    N = d.size
    if c >= 0.0:
        raise ValueError("periodic corner entry must be negative")
    gamma = np.sqrt(-c)
    u = np.zeros(N)
    u[0] = gamma
    u[-1] = -gamma
    d_t = d.copy()
    d_t[0] += c
    d_t[-1] += c

    kernel = None
    if deflate:
        kernel = np.sqrt(dis.mass)
        kernel = kernel / np.linalg.norm(kernel)

    X = _fourier_block(dis, include_const=not deflate)
    if deflate:
        X -= kernel[:, None] * (kernel @ X)[None, :]
    X, _ = np.linalg.qr(X)
    nb = X.shape[1]

    s = shift
    for attempt in range(6):
        ab = np.zeros((3, N))
        ab[0, 1:] = e
        ab[1, :] = d_t - s
        ab[2, :-1] = e
        try:
            w_vec = sla.solve_banded((1, 1), ab, u)
        except np.linalg.LinAlgError:
            s = s * 1.1 - 1e-8 * (1.0 + abs(s))
            continue
        denom = 1.0 + u @ w_vec
        if abs(denom) < 1e-12:
            s = s * 1.1 - 1e-8 * (1.0 + abs(s))
            continue
        break
    else:
        raise NoConvergence("could not factor the shifted periodic pencil")

    # Ritz values cannot settle below rounding noise of the matrix norm;
    # Gershgorin bounds that scale (~4/h^2 here, so the floor is far
    # below the h^2 discretization error the values carry anyway).
    gersh = float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)) + abs(c))
    eps = np.finfo(float).eps
    theta_prev = None
    stable = 0
    theta = None
    res_best = np.inf
    stalled = 0
    for _ in range(max_iter):
        Y = sla.solve_banded((1, 1), ab, X)
        Y -= np.outer(w_vec, (u @ Y) / denom)
        if deflate:
            Y -= kernel[:, None] * (kernel @ Y)[None, :]
        Q, _ = np.linalg.qr(Y)
        H = Q.T @ dis.apply_sym(Q)
        H = 0.5 * (H + H.T)
        theta, S = np.linalg.eigh(H)
        X = Q @ S
        if theta_prev is not None:
            tol = 1e-14 * (np.abs(theta[:count]) + abs(s)) + 8.0 * eps * gersh
            if np.all(np.abs(theta[:count] - theta_prev[:count]) <= tol):
                stable += 1
            else:
                stable = 0
        theta_prev = theta
        if stable < 2:
            continue
        # Values settled; now polish the vectors until the Ritz residual
        # reaches the rounding floor (value stagnation alone leaves the
        # vectors ~8 eps ||B|| short, which downstream residual studies
        # can see).  Accept on a hard floor or on three stalled sweeps.
        V = X[:, :count]
        R = dis.apply_sym(V) - V * theta[:count]
        res = float(np.max(np.abs(R)))
        if res <= 8.0 * eps * gersh:
            break
        if res >= 0.5 * res_best:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
        res_best = min(res_best, res)
    else:
        raise NoConvergence("periodic eigensolver did not settle")
    return theta[:count].copy(), X[:, :count].copy()


def _lowest_pairs(dis: Discretization, count: int) -> tuple:
    """(eigenvalues, vectors) of the symmetric pencil, ascending.

    Pole-closed: LAPACK tridiagonal bisection + inverse iteration.
    Periodic: deterministic Sherman-Morrison subspace iteration; for
    k = 0 the constant mode is deflated and *not* included in the
    returned values.
    """
    if not dis.periodic:
        w, v = sla.eigh_tridiagonal(dis.sym_d, dis.sym_e, select="i",
                                    select_range=(0, count - 1))
        return w, v
    deflate = dis.k == 0
    # Rayleigh quotient of the first Fourier mode sets the eigenvalue
    # scale; shifting half of it below zero puts the target cluster
    # closest to the shift with a healthy separation ratio.
    X = _fourier_block(dis, include_const=False)
    x0 = X[:, 0]
    lam_est = float(x0 @ dis.apply_sym(x0)) / float(x0 @ x0)
    if deflate:
        shift = -0.5 * abs(lam_est)
    else:
        shift = 0.0  # k >= 1 pencils are positive definite
    nb_needed = count
    theta, vecs = _corner_lowest(dis, max(nb_needed, 1), deflate, shift)
    return theta, vecs


def _to_midpoint_values(dis: Discretization, v: np.ndarray) -> np.ndarray:
    """Symmetric-coordinate eigenvector -> samples of phi at midpoints."""
    return v / np.sqrt(dis.mass)


def rayleigh(dis: Discretization, phi: np.ndarray) -> float:
    """Rayleigh quotient of midpoint samples against the pencil."""
    v = phi * np.sqrt(dis.mass)
    return float(v @ dis.apply_sym(v)) / float(v @ v)


# -- public spectral results --------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    """First nonzero eigenvalue with its certificate trail.

    lambda1 is the Richardson-extrapolated value (== extrapolated);
    history holds (N, raw eigenvalue) per grid for the winning fiber
    mode.  u is the normalized base profile of the eigenfunction: for
    mode 0 it is the full eigenfunction with sup 1 / inf -1 after the
    shift a; for modes k >= 1 the manifold eigenfunction is
    u(t) cos(k theta) and the stored profile has max |u| = 1 with a = 0.
    degenerate flags a runner-up mode within 1e-9 relative -- the
    eigenspace is then 2-dimensional or more and the eigenfunction
    returned is one deterministic member of it.
    """

    lambda1: float
    mode: int
    u: np.ndarray
    a: float
    t: np.ndarray
    history: tuple
    order: float
    extrapolated: float
    degenerate: bool
    rayleigh_raw: float


def _normalize_profile(phi: np.ndarray) -> tuple:
    """Scale/shift so sup = 1 and inf = -1; returns (u, a)."""
    hi = float(np.max(phi))
    lo = float(np.min(phi))
    spread = hi - lo
    if spread <= 1e-13 * max(abs(hi), abs(lo), 1.0):
        raise DegenerateRange("eigenfunction is numerically constant")
    s = 2.0 / spread
    scaled = s * phi
    a = float((np.max(scaled) + np.min(scaled)) / 2.0)
    if a < 0.0:
        scaled = -scaled
        a = -a
    return scaled - a, a


def eigenfunction_u(phi: np.ndarray, mode: int = 0) -> tuple:
    """Normalize a base-profile eigenfunction per the comparison setup.

    Mode 0: affine-normalize so the function has sup exactly 1 and inf
    exactly -1; the returned shift a lies in [0, 1).  Modes k >= 1: the
    fiber factor already attains +-1, so the profile is scaled to
    max |u| = 1 and a = 0.
    """
    phi = np.asarray(phi, dtype=float)
    if mode == 0:
        return _normalize_profile(phi)
    peak = float(np.max(np.abs(phi)))
    if peak <= 0.0:
        raise DegenerateRange("zero eigenfunction profile")
    u = phi / peak
    if abs(float(np.max(u))) < abs(float(np.min(u))):
        u = -u  # put the larger extremum on the positive side
    return u, 0.0


def _mode_candidate(m: Manifold, k: int, grids: Sequence[int]):
    """Raw eigenvalues of mode k across grids, plus finest eigenvector."""
    lams = []
    vec = None
    dis_fine = None
    for N in grids:
        dis = assemble(m, k, N)
        if k == 0:
            if dis.periodic:
                w, v = _lowest_pairs(dis, 1)
                lam, vcol = float(w[0]), v[:, 0]
            else:
                w, v = _lowest_pairs(dis, 2)
                lam, vcol = float(w[1]), v[:, 1]
        else:
            w, v = _lowest_pairs(dis, 1)
            lam, vcol = float(w[0]), v[:, 0]
        lams.append(lam)
        vec = vcol
        dis_fine = dis
    return lams, _to_midpoint_values(dis_fine, vec), dis_fine


def _noise_floor(dis: Discretization) -> float:
    """Eigenvalue resolution of the symmetric pencil on this grid.

    The solvers cannot place an eigenvalue more accurately than a few
    ulps of the Gershgorin scale of the normalized matrix, so grid
    differences below that are noise even when far above 1e-13 * lam
    (profiles with an exactly grid-independent mode hit this: constant
    warp puts the fiber eigenvalue at nu_k / c^2 on every grid).
    """
    scale = float(np.max(np.abs(dis.sym_d)))
    if dis.sym_e.size:
        scale += 2.0 * float(np.max(np.abs(dis.sym_e)))
    scale += 2.0 * abs(dis.sym_corner)
    return 16.0 * np.finfo(float).eps * scale


def _extrapolate(lams: Sequence[float], floor: float = 0.0):
    """Richardson step from the last pair, with observed order.

    Returns (value, order, at_floor).  at_floor means the grid-to-grid
    differences are at rounding level (relative to the eigenvalue or to
    the solver resolution `floor`), i.e. already converged, and the
    order is reported as the nominal 2.
    """
    l0, l1, l2 = lams[-3], lams[-2], lams[-1]
    d01 = l1 - l0
    d12 = l2 - l1
    scale = max(abs(l2), 1e-30)
    if abs(d12) <= max(1e-13 * scale, floor):
        return l2, 2.0, True
    order = float(np.log2(abs(d01 / d12))) if d01 != 0.0 else float("nan")
    return l2 + d12 / 3.0, order, False


def lambda1(m: Manifold, grids: Sequence[int] = DEFAULT_GRIDS,
            max_modes: int = 64) -> EigenResult:
    """First nonzero Laplace eigenvalue by fiber-mode sweep + Richardson.

    Solves every fiber mode whose lower bound nu_k / max(f)^2 does not
    already exceed the best candidate (the fiber term alone bounds the
    mode-k pencil from below), extrapolates each candidate from the last
    two grids, and returns the minimizer.  Raises NoConvergence when the
    winning mode's observed order leaves the expected second-order
    window [1.5, 2.5] while the differences are above rounding floor.
    """
    if len(grids) < 3:
        raise ValueError("need at least three grids for the order study")
    f_max = m.profile.f_range()[1]
    candidates = []  # (extrap, k, lams, u_raw, dis, order, floor)
    best = None
    k = 0
    while k <= max_modes:
        nu = float(k * (k + m.n - 2))
        if best is not None and k >= 1:
            if nu / f_max ** 2 > best[0] * (1.0 + 1e-9):
                break
        lams, u_raw, dis = _mode_candidate(m, k, grids)
        extrap, order, at_floor = _extrapolate(lams, floor=_noise_floor(dis))
        candidates.append((extrap, k, lams, u_raw, dis, order, at_floor))
        if best is None or extrap < best[0] * (1.0 - 1e-9):
            best = candidates[-1]
        k += 1
    else:
        raise NoConvergence("fiber-mode sweep exhausted max_modes")

    extrap, mode, lams, u_raw, dis, order, at_floor = best
    if not at_floor and not (_ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]):
        raise NoConvergence(
            f"observed convergence order {order:.3f} outside "
            f"{_ORDER_WINDOW} for mode {mode}")
    # Two modes extrapolating to the same value mean a multi-dimensional
    # eigenspace (extrapolated, not raw: raw values carry mode-dependent
    # h^2 errors far larger than a true splitting of interest).
    degenerate = any(
        c[1] != mode and abs(c[0] - extrap) <= 1e-6 * max(abs(extrap), 1e-30)
        for c in candidates)

    u, a = eigenfunction_u(u_raw, mode)
    rq = rayleigh(dis, u_raw)
    return EigenResult(lambda1=float(extrap), mode=mode, u=u, a=a,
                       t=dis.tm, history=tuple(zip(grids, lams)),
                       order=float(order), extrapolated=float(extrap),
                       degenerate=degenerate, rayleigh_raw=rq)


# -- Schrodinger ground state -------------------------------------------------

@dataclass(frozen=True)
class GroundState:
    """Top eigenpair of Delta + V (geometer sign convention).

    sigma_tilde is the largest sigma with (Delta + V) w = sigma w; the
    eigenfunction w is positive, normalized to unit quadratic mean, and
    sampled at the cell midpoints of the discretization dis.
    """

    sigma_tilde: float
    w: np.ndarray
    w_bar: float
    dis: Discretization

    @property
    def t(self) -> np.ndarray:
        return self.dis.tm


def schrodinger_ground(m: Manifold,
                       V: Union[Callable, np.ndarray],
                       N: int = 1024) -> GroundState:
    """Ground state of the fiber-symmetric Schrodinger pencil.

    V may be a callable of t or midpoint samples of length N.  The top
    of the spectrum of Delta + V equals -mu_0 where mu_0 is the lowest
    eigenvalue of the quadratic form pencil
    (K - M diag(V)) x = mu M x; V >= 0 makes sigma_tilde >= 0 because
    the constant test vector gives form value <= 0.
    """
    dis = assemble(m, 0, N)
    Varr = np.asarray(V(dis.tm) if callable(V) else V, dtype=float)
    if Varr.shape != (N,):
        raise ValueError("potential samples must match the grid")
    if not np.any(Varr):
        # V identically zero: the pencil is the plain Laplacian, whose
        # top eigenvalue is exactly 0 at the constants.  Return that
        # exactly instead of eigensolver rounding (~eps/h^2), which
        # would otherwise leak sign noise into sigma margins.
        return GroundState(sigma_tilde=0.0, w=np.ones(N), w_bar=1.0,
                           dis=dis)
    shifted = Discretization(
        manifold=dis.manifold, k=dis.k, N=dis.N, h=dis.h, tm=dis.tm,
        edge_w=dis.edge_w, mass=dis.mass, pot=dis.pot,
        sym_d=dis.sym_d - Varr, sym_e=dis.sym_e,
        sym_corner=dis.sym_corner)
    if dis.periodic:
        vmax = float(np.max(Varr)) if Varr.size else 0.0
        base = (2.0 * np.pi / m.L) ** 2
        shift = -max(vmax, 0.0) - 0.5 * base
        w_, v_ = _corner_lowest(shifted, 1, deflate=False, shift=shift)
        mu0, vec = float(w_[0]), v_[:, 0]
    else:
        w_, v_ = sla.eigh_tridiagonal(shifted.sym_d, shifted.sym_e,
                                      select="i", select_range=(0, 0))
        mu0, vec = float(w_[0]), v_[:, 0]
    w = vec / np.sqrt(dis.mass)
    vol = float(np.sum(dis.mass))
    mean = float(np.sum(w * dis.mass)) / vol
    if mean < 0.0:
        w = -w
        mean = -mean
    if np.min(w) <= 0.0:
        if np.min(w) < -1e-10 * np.max(np.abs(w)):
            raise SignChange("ground state changes sign")
        raise NonPositiveGround("ground state has non-positive entries")
    norm = np.sqrt(float(np.sum(w * w * dis.mass)) / vol)
    w = w / norm
    w_bar = float(np.sum(w * dis.mass)) / vol
    return GroundState(sigma_tilde=-mu0, w=w, w_bar=w_bar, dis=dis)


def build_J(gs: GroundState, tau: float) -> np.ndarray:
    """Power transform J = (w / w_bar)^(-1/(tau-1)) of the ground state."""
    if tau <= 1.0:
        raise ValueError("tau must exceed 1")
    if np.min(gs.w) <= 0.0:
        raise NonPositiveGround("transform needs a positive ground state")
    return (gs.w / gs.w_bar) ** (-1.0 / (tau - 1.0))


def residual_J_equation(dis: Discretization, J: np.ndarray,
                        rho0: np.ndarray, tau: float,
                        sigma: float) -> float:
    """Max interior residual of the transformed certificate equation

        Delta J - tau |grad J|^2 / J - 2 J rho0 + sigma J = 0.

    Delta is the same flux stencil the eigensolver uses; the gradient is
    the centered difference.  Pass the converged sigma (finest grid or
    extrapolated): measured against it, the residual decays at the
    discretization's second order, while the same-grid sigma would
    cancel the leading term and leave only the nonlinear remainder.
    """
    J = np.asarray(J, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    lap = dis.laplacian(J)
    if dis.periodic:
        grad = (np.roll(J, -1) - np.roll(J, 1)) / (2.0 * dis.h)
        sl = slice(None)
    else:
        grad = np.zeros_like(J)
        grad[1:-1] = (J[2:] - J[:-2]) / (2.0 * dis.h)
        sl = slice(1, -1)
    res = lap - tau * grad * grad / J - 2.0 * J * rho0 + sigma * J
    return float(np.max(np.abs(res[sl])))
