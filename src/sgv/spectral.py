"""Finite-difference spectra of warped-product Laplacians.

Separation of variables on g = dt^2 + f^2 g_fiber turns the
Laplace-Beltrami eigenproblem into a family of one-dimensional pencils
indexed by the fiber mode k:

    -(f^{n-1} phi')' + nu_k f^{n-3} phi = lambda f^{n-1} phi,

with nu_k = k (k + n - 2) the k-th fiber eigenvalue (k^2 on circle
fibers).  Per unit of the weight f^{n-1}, mode k is mode 0 plus the
potential nu_k / f^2, so only mode 0 is assembled.  The discretization
is a staggered flux form on N cells of width h = L/N: unknowns live at
cell midpoints, fluxes f^{n-1} phi' at cell edges.  This keeps the
stiffness matrix symmetric, makes row sums vanish exactly (the discrete
kernel is exactly the constant), and handles the pole-closed case
naturally because the edge weight f^{n-1} vanishes at the poles -- no
boundary condition is imposed beyond what the geometry already
encodes.

One driver, `_chain(pencils, index, V)`, runs every chain on the
pencils `chain_pencils(m, grids)` assembles: the lowest (index 0) or
second-lowest (index 1) pair of each, less diag(V) where a potential is
given.  It starts from the first, the same pencil on 16 cells,
B = M^{-1/2} K M^{-1/2} written out with its cyclic corner and solved
densely (`_pair` without a start).  Each grid then continues the
pair of the grid before (`_continued_pair`): the pair, interpolated
onto the grid, starts Rayleigh-quotient iteration, one O(N) tridiagonal
solve per step (B = T + u u^T through Sherman-Morrison where it is
periodic), and Sturm counts at the Rayleigh quotient plus and minus the
residual certify that the index-th eigenvalue lies that close, a tied
pair (the base circle of a flat torus) included.  Where the certificate
fails, bisection on the same counts and inverse iteration replace it.
`lambda1` solves fiber mode 0 and fiber mode 1 (the potential
-(n - 1) / f^2) on one set of pencils, and `schrodinger_ground` the
ground state of a potential on the same pencils.

The value is always the Rayleigh quotient of the returned vector against
B, placed to about eps ||B|| / sqrt(N); every route resolves it to a few
ulps of the Gershgorin scale of B, and 16 eps of that (`_noise_floor`)
is the continued route's margin.  Eigenvalues converge at second order
in h on grids that each double the one before: `_study` alone reads a
chain's Richardson value, observed order and floor verdict against
those two levels, and `lambda1` gates the winning mode's order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _lapack
from .errors import (DegenerateRange, NoConvergence, NonPositiveGround,
                     SignChange)
from .geometry import Manifold

DEFAULT_GRIDS = (512, 1024, 2048)
_ORDER_WINDOW = (1.5, 2.5)


@dataclass(frozen=True)
class Discretization:
    """Flux-form pencil K phi = lambda M phi of fiber mode 0."""

    manifold: Manifold
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
        """B @ x for a vector x."""
        y = self.sym_d * x
        y[1:] += self.sym_e * x[:-1]
        y[:-1] += self.sym_e * x[1:]
        if self.sym_corner != 0.0:
            y[0] += self.sym_corner * x[-1]
            y[-1] += self.sym_corner * x[0]
        return y

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami -M^{-1} K of midpoint samples.

        This is the assembled stencil the eigensolvers use, so pole-closed
        end cells carry the one-sided flux of the vanishing edge weight.
        """
        root_m = np.sqrt(self.mass)
        return -self.apply_sym(np.asarray(values, dtype=float) * root_m) \
            / root_m


def assemble(m: Manifold, k: int, N: int) -> Discretization:
    """Build the fiber-mode-0 pencil on N cells.

    Mode k is this pencil less the potential -k (k + n - 2) / f^2, so k
    must be 0; it stays ahead of N for the benchmark's tracer, which
    reads N as the third positional argument."""
    if k != 0:
        raise ValueError(f"fiber mode k = {k}: only mode 0 is assembled")
    if N < 8:
        raise ValueError("need at least 8 cells")
    L = m.L
    h = L / N
    edges = np.arange(N + 1) * h
    tm = (np.arange(N) + 0.5) * h
    f_edge = m.f(edges)  # a new array, ours to write
    if m.boundary == "pole-closed":
        f_edge[[0, -1]] = 0.0
    else:
        # shared closing edge: use one value for both ends
        f_edge[-1] = f_edge[0]
    edge_w = f_edge ** (m.n - 1)
    f_mid = m.f(tm)
    mass = f_mid ** (m.n - 1) * h

    k_diag = (edge_w[:-1] + edge_w[1:]) / h
    k_off = -edge_w[1:-1] / h
    inv_sqrt_m = 1.0 / np.sqrt(mass)
    sym_d = k_diag * inv_sqrt_m * inv_sqrt_m
    sym_e = k_off * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    corner = 0.0
    if m.boundary == "periodic":
        corner = float(-edge_w[0] / h * inv_sqrt_m[0] * inv_sqrt_m[-1])
    return Discretization(manifold=m, h=h, tm=tm, mass=mass,
                          sym_d=sym_d, sym_e=sym_e, sym_corner=corner)


# -- eigensolvers -------------------------------------------------------------

# cells of the dense solve that starts every chain
_START_CELLS = 16

# steps a Rayleigh-quotient iteration may take before giving up
_MAX_STEPS = 64


def _noise_floor(dis: Discretization) -> float:
    """16 eps times the Gershgorin bound on ||B||: the solvers' rounding.

    No solve here places an eigenvalue more accurately than a few ulps of
    ||B||, so grid differences below that are noise at any eigenvalue
    (a constant warp puts the fiber eigenvalue at nu_k / c^2 on every
    grid).  It is every Richardson chain's floor, the continued route's
    margin and the width its fallback bisects to.  ||B|| is ~4/h^2 here,
    far below the h^2 error the values carry anyway.
    """
    return 16.0 * np.finfo(float).eps * float(
        np.max(np.abs(dis.sym_d)) + 2.0 * np.max(np.abs(dis.sym_e))
        + abs(dis.sym_corner))


def _solve(diag: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution x of (diag, e) x = rhs for the symmetric tridiagonal with
    diagonal diag and off-diagonal e: one O(N) LAPACK dgtsv."""
    return _lapack.solve(e, diag, e, rhs)


def _sherman_morrison(diag: np.ndarray, e: np.ndarray, u: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """(T + u u^T)^{-1} y times the scalar 1 + u^T T^{-1} u, for T the
    tridiagonal (diag, e): one solve with the two columns y and u."""
    t, w = _solve(diag, e, np.array([y, u]).T).T
    return (1.0 + u @ w) * t - (u @ t) * w


def _cut_open(dis: Discretization) -> tuple:
    """(diagonal of T, u) with B = T + u u^T: T is B cut open, its
    corner c < 0 moved onto both end diagonals, and
    u = sqrt(-c) (e_0 - e_{N-1})."""
    d, c = dis.sym_d, dis.sym_corner
    u = np.zeros(d.size)
    u[[0, -1]] = np.sqrt(-c), -np.sqrt(-c)
    return np.r_[d[0] + c, d[1:-1], d[-1] + c], u


def _continued_pair(dis: Discretization, index: int,
                    start: tuple) -> np.ndarray:
    """Unit eigenvector of the index-th lowest pair of B, continued from
    start = (value, midpoint samples, tm), the same pencil's pair on
    another grid.

    The samples, interpolated onto this grid, start inverse iteration
    shifted to the start's value, each later step shifted to the Rayleigh
    quotient of the last iterate: one O(N) tridiagonal solve per step, on
    B = T + u u^T through the Sherman-Morrison formula where B is
    periodic.  The iteration converges cubically (Parlett, The Symmetric
    Eigenvalue Problem, 1980, ch. 4); it stops once the residual is down
    to eps ||B||, the rounding of B x itself, or stops falling.  The
    vector is then accurate to about eps ||B|| / gap.  The lowest vector
    has no sign change (B's off-diagonal entries are <= 0: Perron-
    Frobenius), so it also iterates until no entry moves by more than
    2^-20 of itself: the tails of a localized ground state, far below
    eps of its peak, still carry the start's error once the residual is
    at rounding, and each step at a resolved shift cuts that error by
    |lam - sigma| / gap.  A shift at which a solve is singular steps
    off by the noise floor.

    Sturm counts certify it.  With sigma its Rayleigh quotient, r its
    residual norm ||B x - sigma x|| and rho = r plus the noise floor,
    the vector is accepted when r is at most the noise floor, at most
    index eigenvalues lie at or below sigma - rho and more than index at
    or below sigma + rho: the index-th eigenvalue then lies within rho
    of sigma (a wide rho would pass an unrefined vector).  A cluster that
    holds it, such as the tied cos/sin pair of a flat torus's base
    circle, passes with any vector of its span.  The periodic B counts
    as T plus the inertia of 1 + u^T (T - s)^{-1} u less one
    (Haynsworth 1968, Linear Algebra Appl. 1:73, on the pencil bordered
    by u).  Where the certificate fails, bisection on the same counts
    brackets the index-th eigenvalue to the noise floor, and inverse
    iteration at the bracket's midpoint from the interpolated samples
    returns its vector.
    """
    value, samples, tm = start
    x = np.interp(dis.tm, tm, samples,
                  period=dis.manifold.L if dis.periodic else None)
    x = x * np.sqrt(dis.mass)
    d, e, u = dis.sym_d, dis.sym_e, None
    if dis.periodic:
        d, u = _cut_open(dis)

    def below(s):
        """Eigenvalues of B at or below s."""
        n = _lapack.count(d, e, s)
        if u is not None:
            n += int(1.0 + u @ _solve(d - s, e, u) > 0.0) - 1
        return n

    def inverse(y, s):
        """(B - s)^{-1} y, up to a scalar."""
        return _solve(d - s, e, y) if u is None \
            else _sherman_morrison(d - s, e, u, y)

    def measured(y):
        """(unit y, its Rayleigh quotient, its residual norm)."""
        y = y / np.linalg.norm(y)
        by = dis.apply_sym(y)
        q = float(y @ by)
        return y, q, float(np.linalg.norm(by - q * y))

    floor = _noise_floor(dis)
    best, sigma, settled = measured(x), value, index > 0
    for _ in range(_MAX_STEPS):
        if best[2] <= floor / 16.0 and settled:
            break   # eps ||B||, the rounding of B x itself
        try:
            step = measured(inverse(best[0], sigma))
        except np.linalg.LinAlgError:
            sigma += floor   # an eigenvalue of T to the last bit
            continue
        if step[2] >= best[2] and (settled or step[2] > floor):
            break
        moved = step[0] - np.sign(step[0] @ best[0]) * best[0]
        settled = index > 0 or bool(np.all(np.abs(moved) <= 2.0 ** -20
                                           * np.abs(step[0])))
        best, sigma = step, step[1]
    y, sigma, r = best
    rho = r + floor
    if r <= floor and below(sigma - rho) <= index < below(sigma + rho):
        return y
    hi = floor / (16.0 * np.finfo(float).eps)   # Gershgorin: ||B|| <= hi
    lo = -hi
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) <= index else (lo, mid)
    for _ in range(3):
        x = measured(inverse(x, 0.5 * (lo + hi)))[0]
    return x


def _pair(dis: Discretization, index: int, V: Optional[Callable],
          start: Optional[tuple] = None) -> tuple:
    """(eigenvalue, eigenfunction at the cell midpoints) of the index-th
    pair of dis less diag(V(tm)).

    index 0 is the lowest pair, index 1 the second lowest (without
    potential, the first above the constants).  An index-0 pair whose V
    vanishes on the grid is the plain Laplacian's, which is exactly 0 at
    the constants: that pair is
    returned, with no solve, instead of eigensolver rounding (~eps/h^2),
    which would leak sign noise into sigma margins.  Without start, B is
    written out, cyclic corner included, and solved densely (numpy's
    eigh).  start = (value, eigenfunction, tm) is the same pencil's pair
    on another grid, and `_continued_pair` refines it.

    The value is the Rayleigh quotient of the vector against B, which
    places it to about eps ||B|| / sqrt(N).  A non-finite pencil raises
    ValueError, since eigh would return NaN without raising.
    """
    shift = 0.0 if V is None else np.asarray(V(dis.tm), dtype=float)
    if index == 0 and not np.any(shift):
        return 0.0, np.ones(dis.tm.size)
    if V is not None:
        dis = replace(dis, sym_d=dis.sym_d - shift)
    for a in (dis.sym_d, dis.sym_e, dis.sym_corner):
        np.asarray_chkfinite(a)
    if start is None:
        B = np.diag(dis.sym_d) + np.diag(dis.sym_e, 1) \
            + np.diag(dis.sym_e, -1)
        B[0, -1] += dis.sym_corner
        B[-1, 0] += dis.sym_corner
        vec = np.linalg.eigh(B)[1][:, index]
    else:
        vec = _continued_pair(dis, index, start)
    lam = float(vec @ dis.apply_sym(vec)) / float(vec @ vec)
    return lam, vec / np.sqrt(dis.mass)


def chain_pencils(m: Manifold, grids: Sequence[int]) -> tuple:
    """The pencils every chain of m runs on: the start pencil on
    _START_CELLS cells (a grid of that size reuses it), then one per
    grid."""
    start = assemble(m, 0, _START_CELLS)
    return (start, *(start if N == _START_CELLS else assemble(m, 0, int(N))
                     for N in grids))


def _chain(pencils: Sequence[Discretization], index: int,
           V: Optional[Callable] = None):
    """Yield (value, eigenfunction, pencil without V) of the index-th
    pair of each pencil after the start pencil pencils[0], whose dense
    solve starts the first grid that is not pencils[0] itself; each grid
    after it continues the one before."""
    first = pencils[0]
    start = None if pencils[1] is first \
        else (*_pair(first, index, V), first.tm)
    for dis in pencils[1:]:
        value, phi = _pair(dis, index, V, start)
        start = value, phi, dis.tm
        yield value, phi, dis


# -- public spectral results --------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    """First nonzero eigenvalue with its certificate trail.

    lambda1, history and order are the winning fiber mode's `_study`, u
    and a its eigenfunction's profile and shift (`eigenfunction_u`).
    degenerate flags a runner-up mode within 1e-6 relative: the
    eigenspace is then 2-dimensional or more and u one member of it.
    """

    lambda1: float
    mode: int
    u: np.ndarray
    a: float
    pencils: tuple          # chain_pencils(m, grids); t is the finest's tm
    history: tuple
    order: float
    degenerate: bool

    @property
    def t(self) -> np.ndarray:
        return self.pencils[-1].tm


def _peak(y: np.ndarray, periodic: bool) -> float:
    """Max of the quadratic through the grid maximum of y and its two
    neighbour cells: the continuous sup to second order in h, which can
    lie up to h/2 off the grid.  A periodic grid wraps its neighbours; a
    pole-closed end cell reflects across its pole, because the function
    is even in the distance to the pole."""
    i = int(np.argmax(y))
    if periodic:
        left, right = y[i - 1], y[(i + 1) % y.size]
    else:
        left, right = y[max(i - 1, 0)], y[min(i + 1, y.size - 1)]
    curv = left - 2.0 * y[i] + right
    return float(y[i] - (right - left) ** 2 / (8.0 * curv) if curv < 0.0
                 else y[i])


def eigenfunction_u(phi: np.ndarray, dis: Discretization,
                    mode: int) -> tuple:
    """Normalize a base-profile eigenfunction of fiber mode `mode`,
    sampled on the pencil dis, per the comparison setup, by the extrema
    of the continuous function (`_peak`), not of its samples.

    Mode 0: affine-normalize so the function has sup exactly 1 and inf
    exactly -1; the returned shift a lies in [0, 1).  Mode 1: the fiber
    factor already attains +-1, so the profile is scaled to sup |u| = 1,
    with the larger extremum positive, and a = 0.
    """
    phi = np.asarray(phi, dtype=float)
    hi = _peak(phi, dis.periodic)
    lo = -_peak(-phi, dis.periodic)
    if mode == 0:
        spread = hi - lo
        if spread <= 1e-13 * max(abs(hi), abs(lo), 1.0):
            raise DegenerateRange("eigenfunction is numerically constant")
        s = 2.0 / spread
        a = s * (hi + lo) / 2.0
        if a < 0.0:
            s, a = -s, -a
        return s * phi - a, a
    peak = max(hi, -lo)
    if peak <= 0.0:
        raise DegenerateRange("zero eigenfunction profile")
    return phi / (peak if hi >= -lo else -peak), 0.0


@dataclass(frozen=True)
class ChainStudy:
    """Richardson study of one chain, from `_study`."""

    history: tuple          # (N, raw value) per grid
    value: float            # Richardson value, the finest raw at_floor
    order: float
    at_floor: bool
    phi: np.ndarray         # the finest eigenfunction and its pencil
    dis: Discretization

    def check_order(self, mode: int) -> None:
        """NoConvergence where the order (2 at_floor) leaves the window."""
        if not _ORDER_WINDOW[0] <= self.order <= _ORDER_WINDOW[1]:
            raise NoConvergence(
                f"observed convergence order {self.order:.3f} outside "
                f"{_ORDER_WINDOW} for mode {mode}")


def _study(steps) -> ChainStudy:
    """Study the (value, eigenfunction, pencil) steps of one chain, as
    `_chain` yields them: Richardson step l2 + d12 / 3 and observed order
    log2 |d01 / d12| of its last three grids.  It is at_floor (finest
    value, nominal order 2) where |d12| is at most eps ||B|| / sqrt(N) of
    the finest pencil, a Rayleigh quotient's rounding, or at most
    `_noise_floor` with the order outside [1.5, 2.5]; inside the window
    such a difference is discretization error and takes the step."""
    steps = list(steps)
    (l0, _, _), (l1, _, _), (l2, phi, dis) = steps[-3:]
    d01, d12 = l1 - l0, l2 - l1
    floor = _noise_floor(dis)
    order = float(np.log2(abs(d01 / d12))) if d01 != 0.0 and d12 != 0.0 \
        else float("nan")
    at_floor = bool(abs(d12) <= floor / (16.0 * np.sqrt(dis.tm.size)) or (
        abs(d12) <= floor
        and not _ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]))
    return ChainStudy(history=tuple((d.tm.size, v) for v, _, d in steps),
                      value=l2 if at_floor else l2 + d12 / 3.0,
                      order=2.0 if at_floor else order, at_floor=at_floor,
                      phi=phi, dis=dis)


def lambda1(m: Manifold, grids: Sequence[int] = DEFAULT_GRIDS) -> EigenResult:
    """First nonzero Laplace eigenvalue from fiber modes 0 and 1.

    Mode k is the mode-0 pencil plus the potential nu_k / f^2, which for
    k >= 2 lies above nu_1 / f^2 at every point, so lambda1 lies in mode
    0 (its second pair) or mode 1 (the lowest pair less
    V = -(n - 1) / f^2), both solved on the same pencils.  Mode 1 is not
    solved when its lower bound nu_1 / max(f)^2 (the potential alone)
    already exceeds mode 0's value.  Each mode's chain is studied once
    (`_study`) and the smaller value wins; NoConvergence where its order
    leaves [1.5, 2.5] off the floor.  The Richardson step assumes h
    halves, so each grid must double the one before (ValueError).
    """
    if len(grids) < 3:
        raise ValueError("need at least three grids for the order study")
    if any(b != 2 * a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"each grid must double the one before: {grids}")

    pencils = chain_pencils(m, grids)
    zero = _study(_chain(pencils, 1))
    one, nu1 = None, m.n - 1
    if not nu1 / m.f_range()[1] ** 2 > zero.value * (1.0 + 1e-9):
        one = _study(_chain(pencils, 0, lambda t: -nu1 / m.f(t) ** 2))
    mode, best = 0, zero
    if one is not None and one.value < zero.value * (1.0 - 1e-9):
        mode, best = 1, one
    best.check_order(mode)
    # Two modes extrapolating to the same value mean a multi-dimensional
    # eigenspace (extrapolated, not raw: raw values carry mode-dependent
    # h^2 errors far larger than a true splitting of interest).
    degenerate = one is not None and \
        abs(one.value - zero.value) <= 1e-6 * max(abs(best.value), 1e-30)

    u, a = eigenfunction_u(best.phi, best.dis, mode)
    return EigenResult(lambda1=best.value, mode=mode, u=u, a=a,
                       pencils=pencils, history=best.history,
                       order=best.order, degenerate=degenerate)


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


def schrodinger_ground(pencils: Sequence[Discretization],
                       V: Callable) -> list:
    """Ground states of the fiber-symmetric Schrodinger pencil on each
    grid of `chain_pencils`, for the potential V, a callable of t.

    The top of the spectrum of Delta + V equals -mu_0 where mu_0 is the
    lowest eigenvalue of the quadratic form pencil
    (K - M diag(V)) x = mu M x; V >= 0 makes sigma_tilde >= 0 because
    the constant test vector gives form value <= 0.  Raises at the first
    grid whose ground state changes sign or is not positive.
    """
    states = []
    for mu0, w, dis in _chain(pencils, 0, V):
        vol = float(np.sum(dis.mass))
        if np.sum(w * dis.mass) < 0.0:
            w = -w
        if np.min(w) <= 0.0:
            if np.min(w) < -1e-10 * np.max(np.abs(w)):
                raise SignChange("ground state changes sign")
            raise NonPositiveGround("ground state has non-positive entries")
        w = w / np.sqrt(float(np.sum(w * w * dis.mass)) / vol)
        w_bar = float(np.sum(w * dis.mass)) / vol
        # 0.0 - mu0, not -mu0: the exact 0 of a vanishing V stays +0.0
        states.append(GroundState(sigma_tilde=0.0 - mu0, w=w, w_bar=w_bar,
                                  dis=dis))
    return states


def build_J(gs: GroundState, tau: float) -> np.ndarray:
    """Power transform J = (w / w_bar)^(-1/(tau-1)) of the ground state."""
    if tau <= 1.0:
        raise ValueError("tau must exceed 1")
    if np.min(gs.w) <= 0.0:
        raise NonPositiveGround("transform needs a positive ground state")
    return (gs.w / gs.w_bar) ** (-1.0 / (tau - 1.0))


def centered_gradient(values: np.ndarray, dis: Discretization):
    """Centered first difference of midpoint samples on dis's grid, and
    the slice where it is valid: everywhere on a periodic grid, all but
    the two end cells on a pole-closed one (their entries are 0)."""
    if dis.periodic:
        g = (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * dis.h)
        return g, slice(None)
    g = np.zeros_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * dis.h)
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
    grad, sl = centered_gradient(J, dis)
    res = lap - tau * grad * grad / J - 2.0 * J * rho0 + sigma * J
    return float(np.max(np.abs(res[sl])))
