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

Diameters come from the rotational symmetry, not from a search over the
manifold: a pole-closed manifold has diameter exactly L, and on a torus
the farthest point from (t0, 0) lies on the antipodal meridian, so one
sweep over the fiber angle bounds every antipodal distance at once (see
`diameter` for the proofs).

Curvature conventions.  The smallest eigenvalue of the Ricci tensor at a
point t is

    rho(t) = min( -(n-1) f''/f,  -f''/f + (n-2)(1 - f'^2)/f^2 )

with the radial direction giving the first entry and the fiber
directions the second; at n = 2 both are the Gauss curvature -f''/f.
At a pole of a pole-closed profile the fiber expression is 0/0; its
smooth limit equals the radial value -(n-1) f'''/f' there, which is
what `ricci_min` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from ._quadrature import adaptive_panels, sign_change_points
from .errors import (BadExponent, BadPoleClosure, NoConvergence,
                     NonPositiveWarp)

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

    def f_range(self) -> tuple[float, float]:
        """The exact (min f, max f) over [0, L].

        Closed forms for the built-in kinds; for a spline, its values at
        the knots and at the roots of its derivative (NaN marks a piece
        where f is constant, which its knots already cover).
        """
        if self.kind == "constant":
            return self.c, self.c
        if self.kind == "cosine":
            return (self.c * (1.0 - abs(self.beta)),
                    self.c * (1.0 + abs(self.beta)))
        if self.kind == "sine-sphere":
            return 0.0, self.L / np.pi
        crit = self._spline.derivative().roots(extrapolate=False)
        vals = self._spline(np.concatenate([self.ts, crit[np.isfinite(crit)]]))
        return float(np.min(vals)), float(np.max(vals))


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

def ricci_min(m: Manifold, t) -> np.ndarray:
    """Smallest Ricci eigenvalue at base points t (vectorized).

    Near the poles of a pole-closed profile the fiber formula is replaced
    by its smooth limit -(n-1) f'''/f', which coincides with the radial
    value there.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    f = m.profile.f(t)
    d2f = m.profile.d2f(t)
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

# Lattice of the periodic sweep: rows per period, theta steps over
# [0, pi], and the largest row offset of one straight step.
SWEEP_ROWS = 128
SWEEP_STEPS = 16
SWEEP_BAND = 16


@dataclass(frozen=True)
class DiameterBracket:
    """Certified bracket lo <= diam <= hi.

    Both ends are proven bounds, so converged is True on every bracket;
    the field stays for the record schema.  grid is the number of
    lattice rows of the periodic sweep, 0 for a closed form.
    """

    lo: float
    hi: float
    converged: bool
    grid: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _meridian_relax(V: np.ndarray, h: float) -> np.ndarray:
    """min over i of V[i] + h * (circular |i - j|), for every row j.

    The exact meridian transform on a periodic lattice of spacing h, as
    two running minima over two copies of the rows: forward onto the
    second copy, backward onto the first, which between them reach every
    row both ways round the circle.
    """
    N = V.shape[0]
    pos = h * np.arange(2 * N)[:, None]
    X = np.concatenate([V, V])
    fwd = np.minimum.accumulate(X - pos)[N:] + pos[N:]
    bwd = np.minimum.accumulate((X + pos)[::-1])[::-1][:N] - pos[:N]
    return np.minimum(fwd, bwd)


def _step_lengths(m: Manifold, h: float, dtheta: float) -> np.ndarray:
    """Upper bounds W[B + d, j] on the straight coordinate segment from
    (t_{j+d}, theta) to (t_j, theta + dtheta), for |d| <= B.

    On each lattice cell f is at most the larger endpoint value plus
    max|f''| h^2 / 8 (f lies below its chord plus that bulge).  A segment
    over |d| cells spends 1/|d| of its parameter in each, so its length
    sqrt(dt^2 + f^2 dtheta^2) integrated is at most the mean of the cell
    values; at d = 0 it is f(t_j) dtheta exactly.
    """
    prof = m.profile
    N, B = SWEEP_ROWS, SWEEP_BAND
    f = prof.f(h * np.arange(N + 1))
    if prof.kind == "cosine":
        d2f_max = abs(prof.c * prof.beta) * (2.0 * np.pi / m.L) ** 2
    else:  # the spline's f'' is piecewise linear: extremes at knots
        d2f_max = float(np.max(np.abs(prof.d2f(prof.ts))))
    cell = np.maximum(f[:-1], f[1:]) + d2f_max * h * h / 8.0
    W = np.empty((2 * B + 1, N))
    W[B] = f[:-1] * dtheta
    for d in range(1, B + 1):
        s = np.sqrt((d * h) ** 2 + (cell * dtheta) ** 2)
        mean = sum(np.roll(s, -q) for q in range(d)) / d  # cells j..j+d-1
        W[B + d] = mean
        W[B - d] = np.roll(mean, d)
    return W


def _antipodal_bounds(m: Manifold) -> np.ndarray:
    """U[j, s] >= d((t_s, 0), (t_j, pi)) on the lattice t_i = i L / N.

    A min-plus sweep over theta = 0 .. pi in SWEEP_STEPS equal steps.
    The state V[j, s] is the length of a curve from (t_s, 0) to
    (t_j, theta); each step takes one straight coordinate segment over
    at most SWEEP_BAND rows, then the exact meridian transform.  Every
    entry is the length of an actual curve (up to rounding), hence an
    upper bound on the distance.
    """
    N, B = SWEEP_ROWS, SWEEP_BAND
    h = m.L / N
    W = _step_lengths(m, h, np.pi / SWEEP_STEPS)[:, :, None]
    i = np.arange(N)
    gap = np.abs(i[:, None] - i[None, :])
    V = h * np.minimum(gap, N - gap)
    for _ in range(SWEEP_STEPS):
        ext = np.concatenate([V[N - B:], V, V[:B]])
        step = ext[:N] + W[0]
        for k in range(1, 2 * B + 1):
            np.minimum(step, ext[k:k + N] + W[k], out=step)
        V = _meridian_relax(step, h)
    return V


def diameter(m: Manifold) -> DiameterBracket:
    """Certified diameter bracket of g = dt^2 + f^2 g_fiber.

    For n >= 3, d((t0, x0), (t1, x1)) is the distance on the surface
    dt^2 + f^2 dtheta^2 between (t0, 0) and (t1, theta), theta the angle
    between x0 and x1: a great-circle slice is totally geodesic, and
    (t, x) -> (t, angle(x0, x)) does not lengthen curves.  So every case
    below is a statement about that surface.

    Constant warp: the flat torus, D = hypot(L/2, pi c) exactly.

    Pole-closed, any f: D = L exactly.  A curve from x to the pole t = 0
    has t-variation at least t_x, and the meridian attains it, so
    d(x, pole) = t_x and likewise L - t_x to the other pole.  Hence
    d(x, y) <= min(t_x + t_y, 2L - t_x - t_y) <= L, and the poles are
    exactly L apart.

    Periodic: the farthest point from (t0, 0) lies on the antipodal
    meridian theta = pi, because d((t0, 0), (t1, theta)) is nondecreasing
    in theta on [0, pi].  Proof: for 0 <= theta1 < theta2 <= pi, a
    shortest curve to (t1, theta2) crosses the meridian plane at
    theta_m = (theta1 + theta2) / 2 (its start theta = 0 lies on one side,
    its end on the other); reflecting the tail after the last crossing
    across that plane, an isometry, gives a curve of the same length to
    (t1, theta1).  So D = max over (t0, t1) of g(t0, t1) =
    d((t0, 0), (t1, pi)).  `_antipodal_bounds` gives U >= g on the lattice
    of spacing h = L / N, and g is 1-Lipschitz in each endpoint along
    meridians, so hi = max U + h.  For lo, a curve from (t, 0) to
    (t + L/2, pi) has t-variation at least L/2 and integral of f |dtheta|
    at least pi min f, so its length is at least hypot(L/2, pi min f).
    """
    prof = m.profile
    if prof.kind == "constant":
        d = math.hypot(m.L / 2.0, np.pi * prof.c)
        return DiameterBracket(lo=d, hi=d, converged=True, grid=0)
    if m.boundary == "pole-closed":
        return DiameterBracket(lo=m.L, hi=m.L, converged=True, grid=0)
    hi = float(_antipodal_bounds(m).max()) + m.L / SWEEP_ROWS
    lo = math.hypot(m.L / 2.0, np.pi * prof.f_range()[0])
    return DiameterBracket(lo=lo, hi=hi, converged=True, grid=SWEEP_ROWS)


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
