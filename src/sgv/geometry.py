"""Exactly parameterized rotationally symmetric closed manifolds.

A manifold here is a warped product over a base interval [0, L]:

    g = dt^2 + f(t)^2 g_fiber,   t in [0, L],

where the fiber is the unit circle (n = 2) or the unit round sphere
S^{n-1} (n >= 3).  Two closure types are supported:

  * periodic     -- f(0) = f(L), f'(0) = f'(L); the base closes into a
                    circle and the manifold is a (possibly warped) torus
                    S^1 x fiber.
  * pole-closed  -- f(0) = f(L) = 0 with f'(0) = 1, f'(L) = -1; the
                    fiber collapses smoothly at both ends and the
                    manifold is a (possibly warped) sphere.

Everything downstream (curvature fields, integral curvature norms,
volumes, diameter brackets) is computed from the warp function and its
derivatives, which are available in closed form for the built-in profile
kinds and via a cubic spline for tabulated data.

Curvature conventions.  The smallest eigenvalue of the Ricci tensor at a
point t is

    n = 2:   rho(t) = -f''(t)/f(t)                      (Gauss curvature)
    n >= 3:  rho(t) = min( -(n-1) f''/f,
                           -f''/f + (n-2)(1 - f'^2)/f^2 )

with the radial direction giving the first entry and the fiber
directions the second.  At a pole of a pole-closed profile the fiber
expression is 0/0; its smooth limit equals the radial value
-(n-1) f'''/f' there, which is what `ricci_min` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from ._quadrature import adaptive_panels, sign_change_points
from .errors import (BadExponent, BadPoleClosure, NoConvergence,
                     NonPositiveWarp, PoleEvaluation)

_CLOSURE_TOL = 1e-10
_KINDS = ("constant", "cosine", "sine-sphere", "tabulated")


@dataclass(frozen=True)
class WarpProfile:
    """Warp function f on [0, L] with derivatives up to third order.

    kind: one of "constant", "cosine", "sine-sphere", "tabulated".
    boundary: "periodic" or "pole-closed".
    c, beta parameterize the closed-form kinds; ts/fs hold tabulated data.
    """

    kind: str
    L: float
    boundary: str
    c: float = 0.0
    beta: float = 0.0
    ts: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    _spline: Optional[CubicSpline] = field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "tabulated":
            bc = ("periodic" if self.boundary == "periodic"
                  else ((1, 1.0), (1, -1.0)))
            spline = CubicSpline(self.ts, self.fs, bc_type=bc)
            object.__setattr__(self, "_spline", spline)

    # -- evaluation -----------------------------------------------------

    def f(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.c)
        if self.kind == "cosine":
            return self.c * (1.0 + self.beta * np.cos(2.0 * np.pi * t / self.L))
        if self.kind == "sine-sphere":
            r = self.L / np.pi
            return r * np.sin(t / r)
        return self._spline(t)

    def df(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        if self.kind == "cosine":
            w = 2.0 * np.pi / self.L
            return -self.c * self.beta * w * np.sin(w * t)
        if self.kind == "sine-sphere":
            r = self.L / np.pi
            return np.cos(t / r)
        return self._spline(t, 1)

    def d2f(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        if self.kind == "cosine":
            w = 2.0 * np.pi / self.L
            return -self.c * self.beta * w * w * np.cos(w * t)
        if self.kind == "sine-sphere":
            r = self.L / np.pi
            return -np.sin(t / r) / r
        return self._spline(t, 2)

    def d3f(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        if self.kind == "cosine":
            w = 2.0 * np.pi / self.L
            return self.c * self.beta * w ** 3 * np.sin(w * t)
        if self.kind == "sine-sphere":
            r = self.L / np.pi
            return -np.cos(t / r) / r ** 2
        return self._spline(t, 3)


@dataclass(frozen=True)
class Manifold:
    """A closed warped-product manifold of dimension n."""

    profile: WarpProfile
    n: int

    @property
    def L(self) -> float:
        return self.profile.L

    @property
    def boundary(self) -> str:
        return self.profile.boundary

    @property
    def fiber_scale(self) -> float:
        """Circumference parameter of a constant-warp torus fiber (2*pi*c)."""
        return 2.0 * np.pi * self.profile.c

    def describe(self) -> dict:
        p = self.profile
        out = {"kind": p.kind, "boundary": p.boundary, "n": self.n,
               "L": p.L}
        if p.kind in ("constant", "cosine"):
            out["c"] = p.c
            out["fiber"] = 2.0 * np.pi * p.c
        if p.kind == "cosine":
            out["beta"] = p.beta
        if p.kind == "tabulated":
            out["samples"] = int(p.ts.size)
        return out


def _fiber_volume(n: int) -> float:
    """Volume of the unit fiber: 2*pi for a circle, |S^{n-1}| otherwise."""
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _validate(profile: WarpProfile, n: int) -> None:
    L = profile.L
    if not (L > 0.0) or not np.isfinite(L):
        raise ValueError("base length L must be positive and finite")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    interior = np.linspace(0.0, L, 4097)[1:-1]
    fv = profile.f(interior)
    if not np.all(np.isfinite(fv)):
        raise NonPositiveWarp("warp function is not finite on the interior")
    if np.min(fv) <= 0.0:
        raise NonPositiveWarp(
            f"warp function reaches {np.min(fv):.3g} <= 0 on the interior")
    scale = float(np.max(fv))
    f0 = float(profile.f(0.0))
    fL = float(profile.f(L))
    d0 = float(profile.df(0.0))
    dL = float(profile.df(L))
    if profile.boundary == "pole-closed":
        if abs(f0) > _CLOSURE_TOL * scale or abs(fL) > _CLOSURE_TOL * scale:
            raise BadPoleClosure(
                f"pole values f(0)={f0:.3g}, f(L)={fL:.3g} are not zero")
        if abs(d0 - 1.0) > _CLOSURE_TOL or abs(dL + 1.0) > _CLOSURE_TOL:
            raise BadPoleClosure(
                f"pole slopes f'(0)={d0:.6g}, f'(L)={dL:.6g} "
                "must be +1 and -1 for a smooth closure")
    elif profile.boundary == "periodic":
        if abs(f0 - fL) > _CLOSURE_TOL * scale or abs(d0 - dL) > _CLOSURE_TOL:
            raise ValueError(
                "periodic profile must match value and slope at t=0 and t=L")
    else:
        raise ValueError(f"unknown boundary {profile.boundary!r}")


def make_manifold(kind: str,
                  *,
                  L: float,
                  n: int = 2,
                  fiber: Optional[float] = None,
                  c: Optional[float] = None,
                  beta: float = 0.0,
                  ts: Optional[np.ndarray] = None,
                  fs: Optional[np.ndarray] = None,
                  boundary: Optional[str] = None) -> Manifold:
    """Build and validate a manifold.

    For torus kinds ("constant", "cosine") the fiber size is one degree
    of freedom, expressible either as the mean warp c or as the fiber
    circumference 2*pi*c; passing both requires them to be consistent.
    "sine-sphere" is the round sphere of diameter L.  "tabulated" takes
    node/value arrays and either boundary type.
    """
    if kind in ("constant", "cosine"):
        if c is None and fiber is None:
            raise ValueError(f"{kind} profile needs c or fiber")
        if c is None:
            c = fiber / (2.0 * np.pi)
        elif fiber is not None and abs(fiber - 2.0 * np.pi * c) > 1e-12 * abs(fiber):
            raise ValueError("fiber and c are inconsistent: fiber = 2*pi*c")
        if kind == "cosine" and abs(beta) >= 1.0:
            raise NonPositiveWarp(f"|beta| = {abs(beta)} >= 1 pinches the warp")
        profile = WarpProfile(kind=kind, L=float(L), boundary="periodic",
                              c=float(c), beta=float(beta))
    elif kind == "sine-sphere":
        profile = WarpProfile(kind=kind, L=float(L), boundary="pole-closed")
    elif kind == "tabulated":
        if ts is None or fs is None:
            raise ValueError("tabulated profile needs ts and fs arrays")
        if boundary not in ("periodic", "pole-closed"):
            raise ValueError("tabulated profile needs an explicit boundary")
        ts = np.asarray(ts, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if ts[0] != 0.0 or abs(ts[-1] - L) > 1e-12 * L:
            raise ValueError("tabulated nodes must span [0, L]")
        profile = WarpProfile(kind=kind, L=float(L), boundary=boundary,
                              ts=ts, fs=fs)
    else:
        raise ValueError(f"unknown manifold kind {kind!r}")
    _validate(profile, n)
    return Manifold(profile=profile, n=int(n))


# -- curvature --------------------------------------------------------------

def _fiber_ricci_direct(m: Manifold, t: np.ndarray) -> np.ndarray:
    """Fiber-direction Ricci eigenvalue; raises at poles where it is 0/0."""
    f = m.profile.f(t)
    if np.any(np.abs(f) < 1e-13):
        raise PoleEvaluation("fiber curvature formula evaluated at a pole")
    df = m.profile.df(t)
    d2f = m.profile.d2f(t)
    return -d2f / f + (m.n - 2) * (1.0 - df * df) / (f * f)


def ricci_min(m: Manifold, t) -> np.ndarray:
    """Smallest Ricci eigenvalue at base points t (vectorized).

    Near the poles of a pole-closed profile the fiber formula is replaced
    by its smooth limit -(n-1) f'''/f', which coincides with the radial
    value there.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    f = m.profile.f(t)
    d2f = m.profile.d2f(t)
    if m.n == 2:
        # single fiber direction; radial == fiber == -f''/f, but at a pole
        # the ratio needs the same limit treatment as the n > 2 case
        near = np.abs(f) < 1e-8 * max(1.0, m.L)
        out = np.empty_like(f)
        safe = ~near
        out[safe] = -d2f[safe] / f[safe]
        if np.any(near):
            df = m.profile.df(t[near])
            d3f = m.profile.d3f(t[near])
            out[near] = -d3f / df
        return out
    near = np.abs(f) < 1e-8 * max(1.0, m.L)
    safe = ~near
    out = np.empty_like(f)
    if np.any(safe):
        df = m.profile.df(t[safe])
        rad = -(m.n - 1) * d2f[safe] / f[safe]
        fib = -d2f[safe] / f[safe] + (m.n - 2) * (1.0 - df * df) / (f[safe] ** 2)
        out[safe] = np.minimum(rad, fib)
    if np.any(near):
        df = m.profile.df(t[near])
        d3f = m.profile.d3f(t[near])
        out[near] = -(m.n - 1) * d3f / df
    return out


def rho_H_field(m: Manifold, H: float, t=None):
    """Sampled curvature deficit rho_H = max((n-1)H - rho, 0).

    rho_H vanishes exactly where Ric >= (n-1)H and measures the pointwise
    failure of that lower bound elsewhere.  Returns (t, values); pass an
    explicit t array to control the sampling.
    """
    if t is None:
        t = np.linspace(0.0, m.L, 1025)
        if m.boundary == "periodic":
            t = t[:-1]
    t = np.asarray(t, dtype=float)
    rho = ricci_min(m, t)
    return t, np.maximum((m.n - 1) * H - rho, 0.0)


def _knots(prof: WarpProfile):
    """Interior knots of a tabulated profile, () for the closed forms.

    The cubic spline's f''' jumps at every knot, so each curvature field
    has a kink there: integration panels should start split at them.
    """
    return prof.ts[1:-1] if prof.kind == "tabulated" else ()


def _warp_integral(m: Manifold) -> float:
    """Integral of f^{n-1} over [0, L]: the volume over vol(unit fiber)."""
    prof = m.profile
    n = m.n
    return adaptive_panels(lambda t: prof.f(t) ** (n - 1), 0.0, m.L,
                           breakpoints=_knots(prof), rel_tol=1e-13)


def volume(m: Manifold) -> float:
    """Riemannian volume: vol(unit fiber) * integral of f^{n-1}."""
    return _fiber_volume(m.n) * _warp_integral(m)


def kbar(m: Manifold, p: float, H: float) -> float:
    """Normalized integral curvature norm
    (mean of rho_H^p against the volume measure)^(1/p).

    Requires p > n/2.  The integrand has kinks where (n-1)H - rho changes
    sign and at a tabulated profile's knots, so panels are pre-split
    there before the adaptive bisection; without the split the Gauss
    rule would stall at low order across the kink.

    Raises NoConvergence at once for a pole-closed profile with f'' > 0
    at a pole when p >= n: the deficit grows like (2n-3) f''/t there, so
    the integrand grows like t^(n-1-p) and the integral diverges.
    """
    if p <= m.n / 2.0:
        raise BadExponent(f"p = {p} must exceed n/2 = {m.n / 2.0}")
    prof = m.profile
    n = m.n
    if m.boundary == "pole-closed" and p >= n:
        for pole in (0.0, m.L):
            d2f = float(prof.d2f(pole))
            # a smooth closure has f'' = 0 at the pole; the closed forms
            # miss it by rounding only
            if d2f * m.L > _CLOSURE_TOL:
                raise NoConvergence(
                    f"kbar diverges at the pole t = {pole:g}: f'' = "
                    f"{d2f:.3g} > 0 makes rho_H^p f^(n-1) grow like "
                    f"t^(n-1-p), not integrable for p = {p:g} >= n = {n}")

    def deficit(t):
        return (n - 1) * H - ricci_min(m, t)

    scan_t = np.linspace(0.0, m.L, 8193)
    dvals = deficit(scan_t)
    if np.max(dvals) <= 0.0:
        return 0.0
    kinks = sign_change_points(deficit, 0.0, m.L)

    def integrand(t):
        return np.maximum(deficit(t), 0.0) ** p * prof.f(t) ** (n - 1)

    num = adaptive_panels(integrand, 0.0, m.L,
                          breakpoints=[*kinks, *_knots(prof)],
                          rel_tol=1e-11, abs_floor=1e-300)
    return float((num / _warp_integral(m)) ** (1.0 / p))


# -- diameter ---------------------------------------------------------------

DIAMETER_SLACK = 0.03  # worst-case stencil anisotropy of the 16-neighbor graph


@dataclass(frozen=True)
class DiameterBracket:
    """Certified bracket lo <= diam <= hi from a metric-graph sweep.

    hi is the exact diameter of an embedded graph whose edges are true
    curve lengths, hence an upper bound for the graph metric and -- after
    dividing by the stencil anisotropy factor -- a lower bound for the
    manifold.  converged reports whether successive grid doublings
    stabilized hi; use hi in any denominator that must be conservative.
    """

    lo: float
    hi: float
    converged: bool
    grid: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _segment_lengths(m: Manifold, t0, t1, dtheta: float) -> np.ndarray:
    """Length of coordinate segments (t0 -> t1, fixed angular advance).

    3-point Gauss along each segment; the metric restricted to the
    segment is sqrt(dt^2 + f(t)^2 dtheta^2).
    """
    x3, w3 = np.polynomial.legendre.leggauss(3)
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    total = np.zeros_like(mid)
    for xi, wi in zip(x3, w3):
        pts = mid + half * xi
        if m.boundary == "periodic":
            pts = np.mod(pts, m.L)  # t1 may be unwrapped past L
        f = m.profile.f(pts)
        total = total + wi * np.sqrt((t1 - t0) ** 2 + (f * dtheta) ** 2)
    return 0.5 * total


def _graph_diameter_once(m: Manifold, mt: int) -> float:
    """Max graph distance from one meridian of sources (exact by symmetry).

    For n = 2 the graph is searched folded by the reflection
    sigma: (i, j) -> (i, -j mod mth), on the columns j = 0 .. mth // 2.
    The fold is exact, to the last bit: sigma maps stencil edges to
    stencil edges of bitwise equal weight (`_segment_lengths` sees the
    angular step only through its square), and it fixes every source
    (i, 0) and both poles.  So every path of the folded graph lifts to a
    path of the full graph with the same sequence of weights and vice
    versa (a folded self-loop only lengthens a path), and Dijkstra's
    distances, hence their max, are the same floats on half the nodes.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    periodic = m.boundary == "periodic"
    L = m.L
    # fiber coordinate range: full circle for n=2, relative angle in
    # [0, pi] for sphere fibers (distances depend only on that angle)
    theta_range = 2.0 * np.pi if m.n == 2 else np.pi
    theta_wrap = m.n == 2

    if periodic:
        t_rows = np.arange(mt) * (L / mt)
        row_count = mt
    else:
        t_rows = np.arange(1, mt) * (L / mt)
        row_count = mt - 1  # poles handled as extra nodes

    f_mean = float(np.mean(m.profile.f(np.linspace(0, L, 513))))
    mth = max(8, int(round(theta_range * f_mean / (L / mt))))
    h_t = L / mt
    h_th = theta_range / mth
    # n = 2 keeps the columns 0 .. mth // 2 of the folded circle
    col_count = mth // 2 + 1 if theta_wrap else mth + 1

    def node(i, j):
        return i * col_count + j

    n_nodes = row_count * col_count + (0 if periodic else 2)
    pole0 = n_nodes - 2
    pole1 = n_nodes - 1

    rows, cols, wts = [], [], []
    offsets = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1),
               (2, -1)]
    ii = np.arange(row_count)
    jj = np.arange(col_count)
    I, J = np.meshgrid(ii, jj, indexing="ij")
    I = I.ravel()
    J = J.ravel()
    for di, dj in offsets:
        I2 = I + di
        J2 = J + dj
        if periodic:
            valid = np.ones_like(I2, dtype=bool)
            I2w = I2 % row_count
        else:
            valid = (I2 >= 0) & (I2 < row_count)
            I2w = np.clip(I2, 0, row_count - 1)
        if theta_wrap:
            # every edge orbit of sigma has a representative leaving a
            # kept column; its far end folds back into the kept range
            J2m = J2 % mth
            J2w = np.minimum(J2m, mth - J2m)
        else:
            ok = (J2 >= 0) & (J2 < col_count)
            valid &= ok
            J2w = np.clip(J2, 0, col_count - 1)
        if not np.any(valid):
            continue
        a = I[valid]
        b = I2w[valid]
        ja = J[valid]
        jb = J2w[valid]
        t0 = t_rows[a]
        t1 = t_rows[a] + di * h_t  # unwrapped endpoint for length purposes
        w = _segment_lengths(m, t0, t1, dj * h_th)
        rows.append(node(a, ja))
        cols.append(node(b, jb))
        wts.append(w)

    if not periodic:
        # meridian spokes from each pole to the two nearest rows
        for depth in (1, 2):
            tt = t_rows[depth - 1]
            for j in range(col_count):
                rows.append(np.array([pole0]))
                cols.append(np.array([node(depth - 1, j)]))
                wts.append(np.array([tt]))
                rows.append(np.array([pole1]))
                cols.append(np.array([node(row_count - depth, j)]))
                wts.append(np.array([L - t_rows[row_count - depth]]))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    wts = np.concatenate(wts)
    if theta_wrap:
        # the fold makes self-loops and repeated node pairs; coo_matrix
        # would sum repeats, so keep each unordered pair once at its
        # smallest weight
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        keep = lo != hi
        key = lo[keep] * n_nodes + hi[keep]
        wts = wts[keep]
        order = np.lexsort((wts, key))
        key, first = np.unique(key[order], return_index=True)
        rows, cols = np.divmod(key, n_nodes)
        wts = wts[order][first]
    graph = coo_matrix((wts, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

    sources = [node(i, 0) for i in range(row_count)]
    if not periodic:
        sources += [pole0, pole1]
    dist = dijkstra(graph, directed=False, indices=sources)
    return float(dist.max())


def diameter(m: Manifold, tol: Optional[float] = None,
             max_grid: int = 384) -> DiameterBracket:
    """Certified diameter bracket.

    Constant-warp tori have the closed form sqrt((L/2)^2 + (pi c)^2)
    (flat rectangle with opposite sides identified) and return a
    zero-width bracket.  Everything else runs the metric-graph sweep:
    the graph diameter hi over-estimates the true diameter by at most
    the stencil anisotropy factor, giving lo = hi / (1 + DIAMETER_SLACK).
    Grid doubling continues until hi stabilizes (or tol, if given, is
    met by the bracket width); a bracket that stops improving before
    that is returned with converged=False rather than raised, so sweeps
    over many manifolds degrade gracefully.

    At n = 2 each grid searches the graph folded across theta -> -theta,
    half the nodes; the reflection is a weight-preserving symmetry of the
    graph that fixes every source, so hi is the same float as on the
    full graph (see `_graph_diameter_once`).
    """
    if m.profile.kind == "constant":
        half_l = m.L / 2.0
        half_f = np.pi * m.profile.c  # half the fiber circumference
        d = math.hypot(half_l, half_f)
        return DiameterBracket(lo=d, hi=d, converged=True, grid=0)

    mt = 48
    prev = _graph_diameter_once(m, mt)
    best = prev
    converged = False
    while mt * 2 <= max_grid:
        mt *= 2
        cur = _graph_diameter_once(m, mt)
        best = cur
        stable = abs(cur - prev) <= 1.0e-3 * abs(cur)
        prev = cur
        if stable:
            converged = True
            if tol is None or best * DIAMETER_SLACK / (1 + DIAMETER_SLACK) <= tol:
                break
    lo = best / (1.0 + DIAMETER_SLACK)
    if tol is not None and best - lo > tol:
        converged = False
    return DiameterBracket(lo=lo, hi=best, converged=converged, grid=mt)


# -- bundled report ---------------------------------------------------------

@dataclass(frozen=True)
class GeometryReport:
    """Everything the curvature CLI emits for one manifold."""

    manifold: dict
    p: float
    H: float
    t: np.ndarray
    rho: np.ndarray
    rho_H: np.ndarray
    kbar: float
    volume: float
    diameter_lo: float
    diameter_hi: float
    diameter_converged: bool


def geometry_report(m: Manifold, p: float, H: float,
                    samples: int = 1024) -> GeometryReport:
    t = np.linspace(0.0, m.L, samples + 1)
    if m.boundary == "periodic":
        t = t[:-1]
    rho = ricci_min(m, t)
    _, rh = rho_H_field(m, H, t)
    bracket = diameter(m)
    return GeometryReport(manifold=m.describe(), p=p, H=H, t=t, rho=rho,
                          rho_H=rh, kbar=kbar(m, p, H), volume=volume(m),
                          diameter_lo=bracket.lo, diameter_hi=bracket.hi,
                          diameter_converged=bracket.converged)
