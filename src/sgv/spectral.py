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

One entry point, `_eigenpair(dis, index, shift)`, returns the lowest
(index 0) or second-lowest (index 1) pair of either closure type:

  * pole-closed pencils are symmetric tridiagonal after the congruence
    B = M^{-1/2} K M^{-1/2}; LAPACK's bisection + inverse iteration
    (scipy.linalg.eigh_tridiagonal) returns the selected pair
    deterministically.
  * periodic pencils add one corner entry.  B is tridiagonal plus the
    rank-one update u u^T with u supported on the first and last
    entries, so (B - s)^{-1} is two banded solves and a Sherman-Morrison
    correction.  A fixed-shift subspace iteration on a deterministic
    Fourier start block (no randomness anywhere) then converges the
    lowest pair; index 1 on a k = 0 pencil projects the exactly known
    constant mode out each sweep.
  * periodic pencils that commute with the reversal i -> N-1-i (a
    mirror-symmetric profile, f(L - t) = f(t), on an even grid) split
    into an even and an odd half: tridiagonal pencils on N/2 cells whose
    end diagonals carry +-corner and +-e[N/2-1].  The pole-closed solver
    solves both halves, the wanted vector is read off the merged
    spectrum without iteration, and its Rayleigh quotient against B is
    the value.  A value that ties across the halves goes back to the
    iteration above.

All three resolve eigenvalues only to a few ulps of the Gershgorin
scale of B (`_gershgorin`), which sets the iteration's stopping floor,
the Richardson study's noise floor and the mirror split's tolerance for
the rounding that keeps the assembled B from being exactly symmetric.

Eigenvalues converge at second order in h; `lambda1` runs a three-grid
Richardson study, checks the observed order, and returns the
extrapolated value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import (DegenerateRange, NoConvergence, NonPositiveGround,
                     SignChange)
from .geometry import Manifold

DEFAULT_GRIDS = (512, 1024, 2048)
_ORDER_WINDOW = (1.5, 2.5)
# fiber modes lambda1 may sweep before giving up
MAX_MODES = 64


@dataclass(frozen=True)
class Discretization:
    """Flux-form pencil K phi = lambda M phi for one fiber mode."""

    manifold: Manifold
    k: int
    N: int
    h: float
    tm: np.ndarray          # cell midpoints, shape (N,)
    mass: np.ndarray        # M diagonal: f(tm)^{n-1} h
    sym_d: np.ndarray       # diag of B = M^{-1/2} K M^{-1/2}
    sym_e: np.ndarray       # first off-diagonal of B, shape (N-1,)
    sym_corner: float       # B[0, N-1] (periodic closures only, else 0)

    @property
    def periodic(self) -> bool:
        return self.manifold.boundary == "periodic"

    def apply_sym(self, x: np.ndarray) -> np.ndarray:
        """B @ x for vectors or column blocks."""
        rows = (slice(None),) + (None,) * (x.ndim - 1)
        e = self.sym_e[rows]
        y = self.sym_d[rows] * x
        y[1:] += e * x[:-1]
        y[:-1] += e * x[1:]
        if self.sym_corner != 0.0:
            y[0] += self.sym_corner * x[-1]
            y[-1] += self.sym_corner * x[0]
        return y

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami -M^{-1} K of midpoint samples (k = 0 pencil).

        This is the assembled stencil the eigensolvers use, so pole-closed
        end cells carry the one-sided flux of the vanishing edge weight.
        """
        root_m = np.sqrt(self.mass)
        return -self.apply_sym(np.asarray(values, dtype=float) * root_m) \
            / root_m


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
    return Discretization(manifold=m, k=k, N=N, h=h, tm=tm, mass=mass,
                          sym_d=sym_d, sym_e=sym_e, sym_corner=corner)


# -- eigensolvers -------------------------------------------------------------

# subspace sweeps the periodic solver may take before giving up
_MAX_SWEEPS = 160


def _gershgorin(dis: Discretization) -> float:
    """Gershgorin bound on ||B||: the scale of the solvers' rounding.

    No solver here places an eigenvalue more accurately than a few ulps
    of it, so grid differences below that are noise even when far above
    1e-13 * lam (a constant warp puts the fiber eigenvalue at nu_k / c^2
    on every grid).  It is ~4/h^2 here, far below the h^2 error the
    values carry anyway.
    """
    return float(np.max(np.abs(dis.sym_d)) + 2.0 * np.max(np.abs(dis.sym_e))
                 + abs(dis.sym_corner))


def _corner_lowest(dis: Discretization, deflate: bool, shift: float) -> tuple:
    """Lowest eigenpair of tridiagonal-plus-corner B by shift-invert
    subspace iteration with Sherman-Morrison banded solves.

    deflate projects out the constant mode of a k = 0 pencil, so the
    pair returned is the lowest above it; the shift then moves down by
    half the first Fourier mode's Rayleigh quotient, which puts the
    target closest to the shift with a healthy separation ratio.
    """
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

    # deterministic Fourier start block in symmetric coordinates
    t = dis.tm
    w = 2.0 * np.pi / dis.manifold.L
    if deflate:
        cols = [np.cos(w * t), np.sin(w * t), np.cos(2.0 * w * t)]
    else:
        cols = [np.ones_like(t), np.cos(w * t), np.sin(w * t)]
    root_m = np.sqrt(dis.mass)
    X = np.stack(cols, axis=1) * root_m[:, None]
    kernel = root_m / np.linalg.norm(root_m)
    if deflate:
        x0 = X[:, 0]
        shift -= 0.5 * abs(float(x0 @ dis.apply_sym(x0)) / float(x0 @ x0))
        X -= kernel[:, None] * (kernel @ X)[None, :]
    X, _ = np.linalg.qr(X)

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

    floor = 8.0 * np.finfo(float).eps * _gershgorin(dis)
    theta_prev = None
    stable = 0
    res_best = np.inf
    stalled = 0
    for _ in range(_MAX_SWEEPS):
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
            tol = 1e-14 * (abs(theta[0]) + abs(s)) + floor
            stable = stable + 1 if abs(theta[0] - theta_prev) <= tol else 0
        theta_prev = theta[0]
        if stable < 2:
            continue
        # Value settled; now polish the vector until the Ritz residual
        # reaches the rounding floor (value stagnation alone leaves the
        # vector ~8 eps ||B|| short, which downstream residual studies
        # can see).  Accept on the floor or on three stalled sweeps.
        x = X[:, 0]
        res = float(np.max(np.abs(dis.apply_sym(x) - x * theta[0])))
        if res <= floor:
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
    return float(theta[0]), x


def _mirror_pair(dis: Discretization, index: int) -> Optional[tuple]:
    """The index-th lowest eigenpair of a periodic B that commutes with
    the reversal i -> N-1-i, or None where the split does not serve.

    With R the reversal of N/2 entries, such a B maps [x, +-R x] to
    [T_+- x, +-R T_+- x], where T_+- is the first half's tridiagonal
    block with +-corner added to its first diagonal entry (the wrap to
    the last cell) and +-e[N/2-1] to its last (the coupling across the
    middle).  The spectrum of B is the union of those of T_+ and T_-.

    The split applies when N is even and the assembled entries, a
    Schrodinger potential on the diagonal included, match their mirror
    images to within 16 eps of the Gershgorin scale, lambda1's noise
    floor: the halves solve B' = B's first half and its mirror image,
    so ||B' - B|| is at most that floor and so is every eigenvalue's
    move (Weyl).  A mirror-symmetric profile, f(L - t) = f(t), keeps
    the assembly rounding of a cosine torus or a flat torus that close.

    It returns None, and the caller iterates, when the wanted value lies
    within that floor of a value of the other half.  Such a pair is
    double at working precision, and the split would return its pure
    even or odd member, which on the base circle peaks h/2 off the
    midpoint grid; `verify.check_gradient_estimate` reads that offset
    as a gradient excess of about h^2/4 * lambda1.  Flat and near-flat
    tori meet this on their lowest nonconstant k = 0 pair.

    Bisection places the value only to about eps ||B||.  The returned
    value is the Rayleigh quotient of the vector against B itself,
    which is accurate to about eps ||B|| / sqrt(N) and takes up the
    rounding between B and B' to first order.
    """
    d, e, corner = dis.sym_d, dis.sym_e, dis.sym_corner
    floor = 16.0 * np.finfo(float).eps * _gershgorin(dis)
    if d.size % 2 or (np.max(np.abs(d - d[::-1]))
                      + 2.0 * np.max(np.abs(e - e[::-1]))) > floor:
        return None
    half = d.size // 2
    halves = []
    for sign in (1.0, -1.0):
        d_half = d[:half].copy()
        d_half[0] += sign * corner
        d_half[-1] += sign * e[half - 1]
        halves.append(sla.eigh_tridiagonal(d_half, e[:half - 1], select="i",
                                           select_range=(0, index)))
    ranked = sorted((float(w), side, j) for side, (ws, _) in enumerate(halves)
                    for j, w in enumerate(ws))
    lam, side, j = ranked[index]
    if np.min(np.abs(halves[1 - side][0] - lam)) <= floor:
        return None
    h = halves[side][1][:, j]
    vec = np.concatenate([h, (1.0 - 2.0 * side) * h[::-1]]) / np.sqrt(2.0)
    return float(vec @ dis.apply_sym(vec)) / float(vec @ vec), vec


def _eigenpair(dis: Discretization, index: int, shift: float = 0.0) -> tuple:
    """(eigenvalue, eigenfunction at the cell midpoints) of the pencil.

    index 0 is the lowest pair, index 1 the second lowest.  On a
    periodic pencil index 1 is the first pair above the constant mode,
    so it asks for an unshifted k = 0 pencil.  shift is where the
    periodic shift-invert iteration starts (the tridiagonal solvers
    need none).
    """
    if dis.periodic:
        pair = _mirror_pair(dis, index)
        if pair is None:
            pair = _corner_lowest(dis, deflate=index == 1, shift=shift)
        lam, vec = pair
    else:
        w, v = sla.eigh_tridiagonal(dis.sym_d, dis.sym_e, select="i",
                                    select_range=(0, index))
        lam, vec = float(w[index]), v[:, index]
    return lam, vec / np.sqrt(dis.mass)


# -- public spectral results --------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    """First nonzero eigenvalue with its certificate trail.

    lambda1 is the Richardson-extrapolated value;
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
    degenerate: bool


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
    """Raw eigenvalues of mode k across grids, plus the finest grid's
    eigenfunction and pencil."""
    lams = []
    for N in grids:
        dis = assemble(m, k, N)
        lam, phi = _eigenpair(dis, 1 if k == 0 else 0)
        lams.append(lam)
    return lams, phi, dis


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


def lambda1(m: Manifold, grids: Sequence[int] = DEFAULT_GRIDS) -> EigenResult:
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
    while k <= MAX_MODES:
        nu = float(k * (k + m.n - 2))
        if best is not None and k >= 1:
            if nu / f_max ** 2 > best[0] * (1.0 + 1e-9):
                break
        lams, u_raw, dis = _mode_candidate(m, k, grids)
        floor = 16.0 * np.finfo(float).eps * _gershgorin(dis)
        extrap, order, at_floor = _extrapolate(lams, floor=floor)
        candidates.append((extrap, k, lams, u_raw, dis, order, at_floor))
        if best is None or extrap < best[0] * (1.0 - 1e-9):
            best = candidates[-1]
        k += 1
    else:
        raise NoConvergence("fiber-mode sweep exhausted MAX_MODES")

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
    return EigenResult(lambda1=float(extrap), mode=mode, u=u, a=a,
                       t=dis.tm, history=tuple(zip(grids, lams)),
                       order=float(order), degenerate=degenerate)


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
    # periodic shift: below the whole spectrum of the shifted pencil,
    # by half the first Fourier mode's Laplace eigenvalue
    shift = -max(float(np.max(Varr)), 0.0) - 0.5 * (2.0 * np.pi / m.L) ** 2
    mu0, w = _eigenpair(replace(dis, sym_d=dis.sym_d - Varr), 0, shift)
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


def centered_gradient(values: np.ndarray, h: float, periodic: bool):
    """Centered first difference of midpoint samples, and the slice
    where it is valid: everywhere on a periodic grid, all but the two
    end cells on a pole-closed one (their entries are 0)."""
    if periodic:
        g = (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * h)
        return g, slice(None)
    g = np.zeros_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    return g, slice(1, -1)


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
    grad, sl = centered_gradient(J, dis.h, dis.periodic)
    res = lap - tau * grad * grad / J - 2.0 * J * rho0 + sigma * J
    return float(np.max(np.abs(res[sl])))
