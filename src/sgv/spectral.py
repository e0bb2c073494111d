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

One entry point, `_eigenpair(dis, index, start)`, returns the lowest
(index 0) or second-lowest (index 1) pair of either closure type, each
from one route without subspace iteration (at most a scalar root
solve).  Without start:

  * pole-closed pencils are symmetric tridiagonal after the congruence
    B = M^{-1/2} K M^{-1/2}; LAPACK's bisection + inverse iteration
    (scipy.linalg.eigh_tridiagonal) returns the selected vector
    deterministically.
  * periodic pencils that commute with the reversal i -> N-1-i (a
    mirror-symmetric profile, f(L - t) = f(t), on an even grid) split
    into an even and an odd half, tridiagonal pencils on N/2 cells
    (`_mirror_halves`, `_mirror_pair`).
  * every other periodic pencil is tridiagonal plus the rank-one corner
    update u u^T, so its pairs are roots of a secular equation between
    the interlacing eigenvalues of the cut-open tridiagonal
    (`_rank_one_pair`).

A Richardson chain solves the same pencil on grids N, 2N, 4N, and from
the second grid on `start` is the pair of the grid below.  Interpolated
onto the finer grid, it starts Rayleigh-quotient iteration, one O(N)
tridiagonal solve per step on the same route's pencil (the half of the
start's parity, or T + u u^T through Sherman-Morrison), and Sturm counts
at the Rayleigh quotient plus and minus the residual certify that the
vector is the index-th pair (`_continued_pair`).  Where the certificate
fails, or the split finds the pair tied across its halves (the base
circle of a flat torus), the route above runs instead.

The value is always the Rayleigh quotient of the returned vector against
B.  Every route resolves eigenvalues only to a few ulps of the
Gershgorin scale of B; 16 eps of it (`_noise_floor`) is the Richardson
study's noise floor, the rank-one solver's deflation floor, the mirror
split's tolerance for the rounding that keeps the assembled B from being
exactly symmetric, its tie threshold and the continued route's margin.

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


@dataclass(frozen=True)
class Discretization:
    """Flux-form pencil K phi = lambda M phi for one fiber mode."""

    manifold: Manifold
    k: int
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
        return _apply(self.sym_d, self.sym_e, x, self.sym_corner)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami -M^{-1} K of midpoint samples (k = 0 pencil).

        This is the assembled stencil the eigensolvers use, so pole-closed
        end cells carry the one-sided flux of the vanishing edge weight.
        """
        root_m = np.sqrt(self.mass)
        return -self.apply_sym(np.asarray(values, dtype=float) * root_m) \
            / root_m


def _apply(d: np.ndarray, e: np.ndarray, x: np.ndarray,
           corner: float = 0.0) -> np.ndarray:
    """(d, e) @ x for the symmetric tridiagonal with diagonal d and
    off-diagonal e, plus `corner` at (0, -1) and (-1, 0)."""
    y = d * x
    y[1:] += e * x[:-1]
    y[:-1] += e * x[1:]
    if corner != 0.0:
        y[0] += corner * x[-1]
        y[-1] += corner * x[0]
    return y


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
    f_edge = m.f(edges)
    if m.boundary == "pole-closed":
        f_edge = f_edge.copy()
        f_edge[0] = 0.0
        f_edge[-1] = 0.0
    else:
        # shared closing edge: use one value for both ends
        f_edge = f_edge.copy()
        f_edge[-1] = f_edge[0]
    edge_w = f_edge ** (m.n - 1)
    f_mid = m.f(tm)
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
    return Discretization(manifold=m, k=k, h=h, tm=tm, mass=mass,
                          sym_d=sym_d, sym_e=sym_e, sym_corner=corner)


# -- eigensolvers -------------------------------------------------------------

# steps the rank-one secular solve or a Rayleigh-quotient iteration may
# take before giving up
_MAX_STEPS = 64


def _noise_floor(dis: Discretization) -> float:
    """16 eps times the Gershgorin bound on ||B||: the solvers' rounding.

    No solver here places an eigenvalue more accurately than a few ulps
    of ||B||, so grid differences below that are noise even when far
    above 1e-13 * lam (a constant warp puts the fiber eigenvalue at
    nu_k / c^2 on every grid).  ||B|| is ~4/h^2 here, far below the h^2
    error the values carry anyway.
    """
    return 16.0 * np.finfo(float).eps * float(
        np.max(np.abs(dis.sym_d)) + 2.0 * np.max(np.abs(dis.sym_e))
        + abs(dis.sym_corner))


def _solve(diag: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution x of (diag, e) x = rhs for the symmetric tridiagonal with
    diagonal diag and off-diagonal e: one O(N) LAPACK dgtsv."""
    x, info = sla.lapack.dgtsv(e, diag, e, rhs)[3:]
    if info:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    return x


def _sherman_morrison(diag: np.ndarray, e: np.ndarray, u: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """(T + u u^T)^{-1} y times the scalar 1 + u^T T^{-1} u, for T the
    tridiagonal (diag, e): one solve with the two columns y and u."""
    t, w = _solve(diag, e, np.c_[y, u]).T
    return (1.0 + u @ w) * t - (u @ t) * w


def _below(d: np.ndarray, e: np.ndarray, s: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) at or
    below s: LAPACK dstebz on (-inf, s] with a tolerance as wide as the
    interval, so it takes its Sturm counts and does not bisect."""
    return int(sla.lapack.dstebz(d, e, 1, -np.inf, s, 0, 0, np.inf,
                                 b"E")[0])


def _cut_open(dis: Discretization) -> tuple:
    """(diagonal of T, u) with B = T + u u^T: T is B cut open, its
    corner c < 0 moved onto both end diagonals, and
    u = sqrt(-c) (e_0 - e_{N-1})."""
    d, c = dis.sym_d, dis.sym_corner
    u = np.zeros(d.size)
    u[[0, -1]] = np.sqrt(-c), -np.sqrt(-c)
    return np.r_[d[0] + c, d[1:-1], d[-1] + c], u


def _rank_one_pair(dis: Discretization, index: int) -> np.ndarray:
    """Unit eigenvector of the index-th lowest pair of a periodic B.

    B = T + u u^T, with T = B cut open (`_cut_open`).  The eigenvalues of
    B interlace those of T, so the wanted one is the root in
    [mu_index, mu_index+1] of f(lam) = 1 + u^T (T - lam)^{-1} u, which
    rises between the poles mu_j (Bunch, Nielsen & Sorensen 1978, Numer.
    Math. 31:31).  One eigh_tridiagonal call gives T's pairs 0..index+1
    and z = V^T u; their terms z_j^2 / (mu_j - lam) are summed apart
    from the smooth rest u'^T (T - lam)^{-1} u', u' = u - V z, one
    tridiagonal solve per step, kept a quarter floor off every mu_j (a
    first-order step covers the offset).  A pole with |z_j| ||u|| below
    the floor 16 eps ||B|| is deflated, and a deflated end of the bracket
    holds the root unless f changes sign just inside it.  Else the root
    is solved from the nearer pole, that pole's term exact and every
    other slope on the far pole (R.-C. Li 1993, LAPACK Working Note 89;
    LAPACK's dlaed4), safeguarded by bisection.  The vector,
    (T - lam)^{-1} u or a deflated v_j, is polished by inverse iteration
    on B through the Sherman-Morrison formula (`_sherman_morrison`).
    """
    e, c = dis.sym_e, dis.sym_corner
    d_t, u = _cut_open(dis)
    mu, V = sla.eigh_tridiagonal(d_t, e, select="i",
                                 select_range=(0, index + 1))
    z = V.T @ u
    u_rest = u - V @ z
    eps = np.finfo(float).eps
    floor = _noise_floor(dis)
    live = np.abs(z) * np.sqrt(-2.0 * c) > floor

    def band(o, tau):
        """Diagonal of T - (o + tau + off); off keeps the shift clear of
        mu."""
        g = (mu - o) - tau
        near = g[np.argmin(np.abs(g))]
        off = near - np.copysign(max(abs(near), 0.25 * floor), near)
        return (d_t - o) - (tau + off), off

    def secular(o, tau):
        """f, f', (T - lam)^{-1} u', the live gaps mu_j - lam and the
        rounding of f, at lam = o + tau."""
        diag, off = band(o, tau)
        x = _solve(diag, e, u_rest)
        x -= V @ (V.T @ x)
        xx = x @ x
        rest = u_rest @ x - off * xx
        if off != 0.0:
            y = _solve(diag, e, x)
            x = x - off * (y - V @ (V.T @ y))
        gaps = (mu[live] - o) - tau
        terms = z[live] ** 2 / gaps
        noise = 4.0 * eps * (1.0 + np.abs(terms).sum() + abs(rest)) \
            + floor / 16.0 * xx
        return (1.0 + terms.sum() + rest, (terms / gaps).sum() + xx, x,
                gaps, noise)

    def polish(o, tau, y, steps):
        """y after inverse-iteration steps on B at o + tau; whole banded
        solves, since projecting off V keeps V's rounded tails."""
        diag, _ = band(o, tau)
        for _ in range(steps):
            y = _sherman_morrison(diag, e, u, y)
            y /= np.linalg.norm(y)
        return y

    lo, hi = mu[index], mu[index + 1]
    inside = min(0.5 * floor, 0.25 * (hi - lo))
    for j, tau in ((index, inside), (index + 1, -inside)):
        # a deflated end holds the root unless f changes sign inside; v_j
        # lacks B's tail beyond the cut, so it takes two steps
        if not live[j] and secular(mu[j], tau)[0] * tau >= 0.0:
            return polish(mu[j], tau, V[:, j], 2)

    # origin: the live end nearer the root, which lies above the
    # midpoint where f < 0 there
    f, df, x, gaps, noise = secular(lo, 0.5 * (hi - lo))
    o = hi if live[index + 1] and (f < 0.0 or not live[index]) else lo
    j = index if o == lo else index + 1
    z_o2 = z[j] ** 2 if live[j] else 0.0
    tau = 0.5 * (lo + hi) - o
    t_lo, t_hi = (tau, hi - o) if f < 0.0 else (lo - o, tau)
    for _ in range(_MAX_STEPS):
        if abs(f) <= noise:
            break
        # model f ~ m + z_o^2 / (d_o - eta) + s_far / (d_far - eta): the
        # origin's pole term exact, every other slope on the far pole;
        # one root of the model lies between the poles, none other in
        # the bracket
        d_o, d_far = -tau, lo + hi - 2.0 * o - tau
        s_far = d_far * d_far * (df - z_o2 / (tau * tau))
        m = f - z_o2 / d_o - s_far / d_far
        b = m * (d_o + d_far) + z_o2 + s_far
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * m * f * d_o
                                               * d_far), b))
            steps = tau + np.array([q / m, f * d_o * d_far / q])
        step = next((t for t in steps if t_lo < t < t_hi),
                    0.5 * (t_lo + t_hi))
        if abs(step - tau) <= 2.0 * eps * abs(tau):
            break
        tau = step
        f, df, x, gaps, noise = secular(o, tau)
        t_lo, t_hi = (tau, t_hi) if f < 0.0 else (t_lo, tau)
    else:
        raise NoConvergence("secular equation did not settle")
    return polish(o, tau, V[:, live] @ (z[live] / gaps) + x, 1)


def _mirror_halves(dis: Discretization) -> Optional[tuple]:
    """The half pencils (d_+, e_half), (d_-, e_half) of a periodic B that
    commutes with the reversal i -> N-1-i, or None where the split does
    not serve.

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
    """
    d, e, corner = dis.sym_d, dis.sym_e, dis.sym_corner
    floor = _noise_floor(dis)
    if d.size % 2 or (np.max(np.abs(d - d[::-1]))
                      + 2.0 * np.max(np.abs(e - e[::-1]))) > floor:
        return None
    half = d.size // 2
    halves = []
    for sign in (1.0, -1.0):
        d_half = d[:half].copy()
        d_half[0] += sign * corner
        d_half[-1] += sign * e[half - 1]
        halves.append((d_half, e[:half - 1]))
    return tuple(halves)


def _unfold(h: np.ndarray, side: int) -> np.ndarray:
    """The unit vector of B whose first half is the unit vector h of the
    even (side 0) or odd (side 1) half pencil."""
    return np.concatenate([h, (1.0 - 2.0 * side) * h[::-1]]) / np.sqrt(2.0)


def _mirror_pair(dis: Discretization, index: int) -> Optional[tuple]:
    """(unit eigenvector of the index-th lowest pair, tied) of a periodic
    B that the mirror split serves (`_mirror_halves`), or None.

    The wanted vector is read off the merged spectra of the halves.  A
    pair that is double across the halves to within the noise floor (the
    base circle of a flat or near-flat torus) returns its pure even or
    odd member, flagged as tied.
    """
    halves = _mirror_halves(dis)
    if halves is None:
        return None
    solved = [sla.eigh_tridiagonal(d, e, select="i", select_range=(0, index))
              for d, e in halves]
    ranked = sorted((float(w), side, j) for side, (ws, _) in enumerate(solved)
                    for j, w in enumerate(ws))
    w, side, j = ranked.pop(index)
    tied = min(abs(v - w) for v, *_ in ranked) <= _noise_floor(dis)
    return _unfold(solved[side][1][:, j], side), tied


def _continued_pair(dis: Discretization, index: int,
                    start: tuple) -> Optional[np.ndarray]:
    """Unit eigenvector of the index-th lowest pair of B by Rayleigh-
    quotient iteration from start, or None where it is not certified.

    start = (value, midpoint samples, tm) is the same pencil's pair on
    another grid.  Its samples, interpolated onto this grid, start
    inverse iteration shifted to its value, each later step shifted to
    the Rayleigh quotient of the last iterate: one O(N) tridiagonal solve
    per step, the mirror split's half pencil of the start's parity, or
    B = T + u u^T through the Sherman-Morrison formula.  The iteration
    converges cubically (Parlett, The Symmetric Eigenvalue Problem,
    1980, ch. 4); it stops once the residual is down to eps ||B||, the
    rounding of B x itself, or stops falling.  The vector is then as
    accurate as bisection's: to about eps ||B|| / gap.

    The vector is accepted only when Sturm counts at sigma -+ rho find
    exactly index and index + 1 eigenvalues at or below, where sigma is
    its Rayleigh quotient and rho its residual norm ||B x - sigma x||
    plus the noise floor: the interval [sigma - rho, sigma + rho] holds
    an eigenvalue (Parlett ch. 4), so it holds exactly the index-th.
    The split counts over both halves at once, as one block-diagonal
    tridiagonal.  The periodic B counts as T plus the inertia of
    1 + u^T (T - s)^{-1} u less one (Haynsworth 1968, Linear Algebra
    Appl. 1:73, on the pencil bordered by u).
    """
    value, samples, tm = start
    x = np.interp(dis.tm, tm, samples,
                  period=dis.manifold.L if dis.periodic else None)
    x = x * np.sqrt(dis.mass)
    d, e, u = dis.sym_d, dis.sym_e, None
    apply, count_d, count_e, side = dis.apply_sym, d, e, None
    halves = _mirror_halves(dis) if dis.periodic else None
    if halves is not None:
        half = d.size // 2
        mirrored = x[half:][::-1]
        side = int(x[:half] @ mirrored < 0.0)
        (d_even, e), (d_odd, _) = halves
        d = (d_even, d_odd)[side]
        x = x[:half] + (1.0 - 2.0 * side) * mirrored
        count_d, count_e = np.r_[d_even, d_odd], np.r_[e, 0.0, e]

        def apply(v):
            return _apply(d, e, v)
    elif dis.periodic:
        d, u = _cut_open(dis)
        count_d = d

    def below(s):
        """Eigenvalues of B (or of both halves) at or below s."""
        n = _below(count_d, count_e, s)
        if u is not None:
            n += int(1.0 + u @ _solve(d - s, e, u) > 0.0) - 1
        return n

    def measured(y):
        """(unit y, its Rayleigh quotient, its residual norm)."""
        y = y / np.linalg.norm(y)
        by = apply(y)
        q = float(y @ by)
        return y, q, float(np.linalg.norm(by - q * y))

    floor = _noise_floor(dis)
    best, sigma = measured(x), value
    for _ in range(_MAX_STEPS):
        if best[2] <= floor / 16.0:
            break   # eps ||B||, the rounding of B x itself
        try:
            y = _solve(d - sigma, e, best[0]) if u is None \
                else _sherman_morrison(d - sigma, e, u, best[0])
        except np.linalg.LinAlgError:
            break   # sigma is an eigenvalue to the last bit
        step = measured(y)
        if step[2] >= best[2]:
            break
        best, sigma = step, step[1]
    x, sigma, r = best
    rho = r + floor
    if below(sigma - rho) != index or below(sigma + rho) != index + 1:
        return None
    return x if side is None else _unfold(x, side)


def _eigenpair(dis: Discretization, index: int,
               start: Optional[tuple] = None) -> tuple:
    """(eigenvalue, eigenfunction at the cell midpoints, next start) of
    the pencil.

    index 0 is the lowest pair, index 1 the second lowest (on a k = 0
    pencil without potential, the first above the constants).  start is
    the same pencil's pair on a coarser grid, as the last call returned
    it: where given, `_continued_pair` refines it, and the route below
    runs only where its certificate fails.  Without start the route
    follows the pencil: bisection (eigh_tridiagonal) on a pole-closed
    pencil, the mirror split or else the rank-one secular solve on a
    periodic one.  The next start is (value, eigenfunction, tm), or None
    where the pair is tied or its certificate failed, so a finer grid
    solves it afresh.

    The value is the Rayleigh quotient of the route's vector against B:
    bisection places a value only to about eps ||B||, the quotient to
    about eps ||B|| / sqrt(N), and it takes up the rounding between B
    and the split's mirrored halves to first order.
    """
    vec = None if start is None else _continued_pair(dis, index, start)
    ends_chain = start is not None and vec is None
    if vec is None and dis.periodic:
        split = _mirror_pair(dis, index)
        if split is None:
            vec = _rank_one_pair(dis, index)
        else:
            vec, tied = split
            ends_chain = ends_chain or tied
    elif vec is None:
        vec = sla.eigh_tridiagonal(dis.sym_d, dis.sym_e, select="i",
                                   select_range=(0, index))[1][:, index]
    lam = float(vec @ dis.apply_sym(vec)) / float(vec @ vec)
    phi = vec / np.sqrt(dis.mass)
    return lam, phi, None if ends_chain else (lam, phi, dis.tm)


# -- public spectral results --------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    """First nonzero eigenvalue with its certificate trail.

    lambda1 is the Richardson-extrapolated value;
    history holds (N, raw eigenvalue) per grid for the winning fiber
    mode.  u is the normalized base profile of the eigenfunction (see
    `eigenfunction_u`): for mode 0 it is the full eigenfunction with
    continuous sup 1 / inf -1 after the shift a; for modes k >= 1 the
    manifold eigenfunction is u(t) Y(theta) with Y a fiber harmonic and
    the stored profile has continuous sup |u| = 1 with a = 0.
    degenerate flags a runner-up mode within 1e-6 relative -- the
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


def eigenfunction_u(phi: np.ndarray, dis: Discretization) -> tuple:
    """Normalize a base-profile eigenfunction of the pencil dis per the
    comparison setup, by the extrema of the continuous function
    (`_peak`), not of its samples.

    Mode 0: affine-normalize so the function has sup exactly 1 and inf
    exactly -1; the returned shift a lies in [0, 1).  Modes k >= 1: the
    fiber factor already attains +-1, so the profile is scaled to
    sup |u| = 1, with the larger extremum positive, and a = 0.
    """
    phi = np.asarray(phi, dtype=float)
    hi = _peak(phi, dis.periodic)
    lo = -_peak(-phi, dis.periodic)
    if dis.k == 0:
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


def _mode_candidate(m: Manifold, k: int, grids: Sequence[int]):
    """Raw eigenvalues of mode k across grids, each grid's pair continued
    from the grid before, plus the finest grid's eigenfunction and
    pencil."""
    lams, start = [], None
    for N in grids:
        dis = assemble(m, k, N)
        lam, phi, start = _eigenpair(dis, 1 if k == 0 else 0, start)
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
    """First nonzero Laplace eigenvalue from fiber modes 0 and 1.

    The mode-k pencil for k >= 2 is the mode-1 pencil plus the positive
    diagonal (nu_k - nu_1) f^{n-3} h, so its lowest pair lies above
    mode 1's on every grid, and lambda1 lies in mode 0 (its second pair)
    or mode 1 (its lowest).  Mode 1 is not solved when its lower bound
    nu_1 / max(f)^2 (the fiber term alone) already exceeds mode 0's
    value.  Each candidate is extrapolated from the last two grids, and
    the smaller is returned.  Raises NoConvergence when the winning
    mode's observed order leaves the expected second-order window
    [1.5, 2.5] while the differences are above rounding floor.
    """
    if len(grids) < 3:
        raise ValueError("need at least three grids for the order study")

    def candidate(k):
        lams, u_raw, dis = _mode_candidate(m, k, grids)
        extrap, order, at_floor = _extrapolate(lams, floor=_noise_floor(dis))
        return extrap, k, lams, u_raw, dis, order, at_floor

    zero = candidate(0)
    one = None
    if not (m.n - 1) / m.f_range()[1] ** 2 > zero[0] * (1.0 + 1e-9):
        one = candidate(1)
    best = one if one and one[0] < zero[0] * (1.0 - 1e-9) else zero

    extrap, mode, lams, u_raw, dis, order, at_floor = best
    if not at_floor and not (_ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]):
        raise NoConvergence(
            f"observed convergence order {order:.3f} outside "
            f"{_ORDER_WINDOW} for mode {mode}")
    # Two modes extrapolating to the same value mean a multi-dimensional
    # eigenspace (extrapolated, not raw: raw values carry mode-dependent
    # h^2 errors far larger than a true splitting of interest).
    degenerate = one is not None and \
        abs(one[0] - zero[0]) <= 1e-6 * max(abs(extrap), 1e-30)

    u, a = eigenfunction_u(u_raw, dis)
    return EigenResult(lambda1=float(extrap), mode=mode, u=u, a=a,
                       t=dis.tm, history=tuple(zip(grids, lams)),
                       order=float(order), degenerate=degenerate)


# -- Schrodinger ground state -------------------------------------------------

@dataclass(frozen=True)
class GroundState:
    """Top eigenpair of Delta + V (geometer sign convention).

    sigma_tilde is the largest sigma with (Delta + V) w = sigma w; the
    eigenfunction w is positive, normalized to unit quadratic mean, and
    sampled at the cell midpoints of the discretization dis.  next_start
    is the pencil's pair that a finer grid's solve continues from (see
    `_eigenpair`), or None.
    """

    sigma_tilde: float
    w: np.ndarray
    w_bar: float
    dis: Discretization
    next_start: Optional[tuple] = None

    @property
    def t(self) -> np.ndarray:
        return self.dis.tm


def schrodinger_ground(m: Manifold,
                       V: Union[Callable, np.ndarray],
                       N: int,
                       start: Optional[GroundState] = None) -> GroundState:
    """Ground state of the fiber-symmetric Schrodinger pencil.

    V may be a callable of t or midpoint samples of length N.  start is
    the same potential's ground state on a coarser grid, whose pair this
    solve continues (`_eigenpair`).  The top
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
    mu0, w, next_start = _eigenpair(replace(dis, sym_d=dis.sym_d - Varr), 0,
                                    start.next_start if start else None)
    vol = float(np.sum(dis.mass))
    if np.sum(w * dis.mass) < 0.0:
        w = -w
    if np.min(w) <= 0.0:
        if np.min(w) < -1e-10 * np.max(np.abs(w)):
            raise SignChange("ground state changes sign")
        raise NonPositiveGround("ground state has non-positive entries")
    w = w / np.sqrt(float(np.sum(w * w * dis.mass)) / vol)
    w_bar = float(np.sum(w * dis.mass)) / vol
    return GroundState(sigma_tilde=-mu0, w=w, w_bar=w_bar, dis=dis,
                       next_start=next_start)


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
