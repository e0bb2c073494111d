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
kinds and via a C2 cubic spline for tabulated data.  The spline is built
here with numpy and one banded solve (see `_CubicSpline`): periodic, or
clamped to the pole slopes f'(0) = 1, f'(L) = -1; a periodic spline
wraps t to t mod L; and f''', constant on each piece, reads the piece to
the right at a knot.

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
from scipy.linalg import solve_banded

from ._quadrature import adaptive_panels, sign_change_points
from .errors import (BadExponent, BadPoleClosure, NoConvergence,
                     NonPositiveWarp)

_CLOSURE_TOL = 1e-10
_KINDS = ("constant", "cosine", "sine-sphere", "tabulated")


class _CubicSpline:
    """C2 cubic spline through (x, y) with one Horner piece per interval.

    Clamped to f'(x[0]) = 1 and f'(x[-1]) = -1, the slopes of a smooth
    pole closure, or periodic with period x[-1] - x[0].  The knot slopes
    solve one tridiagonal system (de Boor, *A Practical Guide to
    Splines*, 1978, ch. IV).  The periodic system's two cyclic corners
    are removed with its last unknown through a second right-hand side
    of the same banded solve.  This is the arithmetic of scipy's
    CubicSpline, so the coefficients agree with it bit for bit on four
    or more knots.

    Piece i serves x[i] <= t < x[i+1], the first piece also t < x[0]
    and the last also t >= x[-1]: at a knot every derivative reads the
    piece to its right.  A periodic spline first maps t to
    x[0] + (t - x[0]) mod period, so its f'''(x[-1]) reads the first
    piece.
    """

    def __init__(self, x, y, periodic: bool):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        least = 3 if periodic else 2
        if x.ndim != 1 or x.shape != y.shape or x.size < least:
            raise ValueError(
                "tabulated nodes and values must be 1-D arrays of one "
                f"length, at least {least} for this boundary")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("tabulated nodes and values must be finite")
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise ValueError("tabulated nodes must be strictly increasing")
        slope = np.diff(y) / h
        if periodic:
            if not np.isclose(y[0], y[-1], rtol=1e-15, atol=1e-15):
                raise ValueError(
                    "periodic tabulated values must end where they start")
            # unknowns s[0..m-1], s[m] = s[0], m = h.size; row i reads
            # h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] with
            # indices mod m.  In band storage the unused corners
            # ab[0, 0] = A[m-1, 0] and ab[2, -1] = A[0, m-1] hold the
            # two wrapped terms.
            hp = np.roll(h, 1)
            ab = np.array([np.roll(hp, 1), 2.0 * (hp + h), np.roll(h, -1)])
            rhs = 3.0 * (h * np.roll(slope, 1) + hp * slope)
            # The corners are a rank-one term of the system in its last
            # unknown.  Eliminate that unknown (the bordered form of the
            # Sherman-Morrison formula): the leading m - 1 rows, solved
            # for the right-hand side and for minus the last column, give
            # s = u + s[m-1] w, and the last row then fixes s[m-1].
            col = np.zeros(h.size - 1)
            col[0] -= ab[2, -1]
            col[-1] -= ab[0, -1]
            uw = solve_banded((1, 1), ab[:, :-1],
                              np.column_stack([rhs[:-1], col]))
            u, w = uw[:, 0], uw[:, 1]
            last = ((rhs[-1] - ab[0, 0] * u[0] - ab[2, -2] * u[-1])
                    / (ab[1, -1] + ab[0, 0] * w[0] + ab[2, -2] * w[-1]))
            s = u + last * w
            s = np.concatenate([s, [last, s[0]]])
        else:
            ab = np.zeros((3, x.size))
            ab[0, 2:] = h[:-1]
            ab[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
            ab[1, [0, -1]] = 1.0
            ab[2, :-2] = h[1:]
            rhs = np.empty_like(x)
            rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
            rhs[0], rhs[-1] = 1.0, -1.0
            s = solve_banded((1, 1), ab, rhs)
        bend = (s[:-1] + s[1:] - 2.0 * slope) / h
        self.x = x
        self._inner = x[1:-1]
        self.period = x[-1] - x[0] if periodic else None
        # contiguous arrays, one gather each: piece i is
        # ((c3[i] u + c2[i]) u + c1[i]) u + c0[i], u = t - x[i], and the
        # scaled copies serve its derivatives
        self.c0 = y[:-1]
        self.c1 = s[:-1]
        self.c2 = (slope - s[:-1]) / h - bend
        self.c3 = bend / h
        self._2c2 = 2.0 * self.c2
        self._3c3 = 3.0 * self.c3
        self._6c3 = 6.0 * self.c3

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        """The nu-th derivative, nu = 0..3, at points t."""
        t = np.asarray(t, dtype=float)
        if self.period is not None:
            # the wrap leaves t in [x[0], x[-1]) unchanged when x[0] = 0,
            # as on every profile, so only the points outside pay for it
            out = (t < self.x[0]) | (t >= self.x[-1])
            if np.any(out):
                t = np.where(out, self.x[0] + (t - self.x[0]) % self.period,
                             t)
        # the piece index with no clip: 0 below x[1], m - 1 from x[-2] on
        i = self._inner.searchsorted(t, "right")
        u = t - self.x[i]
        if nu == 0:
            return ((self.c3[i] * u + self.c2[i]) * u
                    + self.c1[i]) * u + self.c0[i]
        if nu == 1:
            return (self._3c3[i] * u + self._2c2[i]) * u + self.c1[i]
        if nu == 2:
            return self._6c3[i] * u + self._2c2[i]
        return self._6c3[i]

    def slope_roots(self) -> np.ndarray:
        """The roots of f' on each piece's closed interval.

        Each piece's f' is the quadratic a u^2 + b u + c, solved in the
        cancellation-free form q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2,
        with roots q/a and c/q.  Where f' is linear, c/q = -c/b is its
        root.  Where f' vanishes identically there is none: f is
        constant on that piece, and its knots hold its value.
        """
        a, b, c = self._3c3, self._2c2, self.c1
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            roots = np.concatenate([q / a, c / q])
        width = np.tile(np.diff(self.x), 2)
        keep = (roots >= 0.0) & (roots <= width)  # NaN fails both
        return np.tile(self.x[:-1], 2)[keep] + roots[keep]


@dataclass(frozen=True)
class WarpProfile:
    """Warp function f on [0, L] with derivatives up to third order.

    kind: one of "constant", "cosine", "sine-sphere", "tabulated".
    boundary: "periodic" or "pole-closed".
    c, beta parameterize the closed-form kinds; ts/fs hold tabulated data.

    A tabulated f is the C2 cubic spline through (ts, fs): periodic, or
    clamped to f'(0) = 1 and f'(L) = -1 when pole-closed.  A periodic
    spline reads t as t mod L, so f(L) = f(0).  Its f''' is constant on
    each piece and jumps at knots, where it reads the piece to the right;
    at t = L a periodic f''' reads the first piece, a pole-closed one the
    last.
    """

    kind: str
    L: float
    boundary: str
    c: float = 0.0
    beta: float = 0.0
    ts: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    _spline: Optional[_CubicSpline] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "tabulated":
            spline = _CubicSpline(self.ts, self.fs,
                                  self.boundary == "periodic")
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

    @property
    def mirror_symmetric(self) -> bool:
        """f(L - t) = f(t), known from the kind: constant and cosine
        profiles.  Spline data is not inspected, so a spline is never
        reported symmetric."""
        return self.kind in ("constant", "cosine")

    def f_range(self) -> tuple[float, float]:
        """The exact (min f, max f) over [0, L].

        Closed forms for the built-in kinds; for a spline, the extremes
        of its values at the knots and at the closed-form roots of each
        piece's quadratic f'.  A piece where f is constant has no such
        root, and its knots hold its value.
        """
        if self.kind == "constant":
            return self.c, self.c
        if self.kind == "cosine":
            return (self.c * (1.0 - abs(self.beta)),
                    self.c * (1.0 + abs(self.beta)))
        if self.kind == "sine-sphere":
            return 0.0, self.L / np.pi
        vals = self._spline(self._extremal_points())
        return float(np.min(vals)), float(np.max(vals))

    def _extremal_points(self) -> np.ndarray:
        """A spline's knots and the roots of its derivative: its extremes
        over any union of pieces lie among them."""
        return np.concatenate([self.ts, self._spline.slope_roots()])


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
    # exact extremes; a pole-closed profile is 0 at its ends, so its
    # minimum is taken over the open interval (0, L)
    f_min, scale = profile.f_range()
    if profile.kind == "sine-sphere":
        f_min = scale  # r sin(t / r) > 0 on (0, L)
    elif profile.kind == "tabulated" and profile.boundary == "pole-closed":
        pts = profile._extremal_points()
        f_min = float(np.min(profile.f(pts[(pts > 0.0) & (pts < L)])))
    if not (np.isfinite(f_min) and np.isfinite(scale)):
        raise NonPositiveWarp("warp function is not finite on the interior")
    if f_min <= 0.0:
        raise NonPositiveWarp(
            f"warp function reaches {f_min:.3g} <= 0 on the interior")
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
    beta is the cosine amplitude; a constant profile takes none.
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
        if kind == "constant" and beta != 0.0:
            raise ValueError("constant profile takes no beta; "
                             "use kind 'cosine'")
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


def rho_H_field(m: Manifold, H: float, t) -> np.ndarray:
    """Curvature deficit rho_H = max((n-1)H - rho, 0) at base points t.

    rho_H vanishes exactly where Ric >= (n-1)H and measures the pointwise
    failure of that lower bound elsewhere.
    """
    return np.maximum((m.n - 1) * H - ricci_min(m, t), 0.0)


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
    # every 8th node is the 1,025-point grid linspace(0, L, 1025) bit for
    # bit, so the kink search reuses the scan instead of evaluating again
    kinks = sign_change_points(deficit, scan_t[::8], dvals[::8])

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
    a running minimum over two copies of the rows onto the second copy,
    which reaches every row forward round the circle.  The backward
    direction is the same pass on the mirrored rows i -> -i, mirrored
    back, so the transform commutes with that mirror in rounding too.
    Positions are taken from the middle of the two copies, which keeps
    them, and so their rounding, at most L.
    """
    N = V.shape[0]
    pos = h * np.arange(-N, N)[:, None]

    def forward(X):
        return np.minimum.accumulate(np.concatenate([X, X]) - pos)[N:] \
            + pos[N:]

    i = np.arange(N)
    return np.minimum(forward(V), forward(V[-i])[-i])


def _step_lengths(m: Manifold, h: float, dtheta: float) -> np.ndarray:
    """Upper bounds W[B + d, j] on the straight coordinate segment from
    (t_{j+d}, theta) to (t_j, theta + dtheta), for |d| <= B.

    On each lattice cell f is at most the larger endpoint value plus
    max|f''| h^2 / 8 (f lies below its chord plus that bulge).  A segment
    over |d| cells spends 1/|d| of its parameter in each, so its length
    sqrt(dt^2 + f^2 dtheta^2) integrated is at most the mean of the cell
    values; at d = 0 it is f(t_j) dtheta exactly.

    Each mean adds its cells in pairs from both ends inwards, an order
    that reads the same on the mirrored segment, and a mirror-symmetric
    profile is sampled on rows 0..N/2 only, so the lengths of a segment
    and of its mirror image are equal in rounding too.
    """
    prof = m.profile
    N, B = SWEEP_ROWS, SWEEP_BAND
    rows = np.arange(N + 1)
    if prof.mirror_symmetric:
        rows = np.minimum(rows, N - rows)
    f = prof.f(h * rows)
    if prof.kind == "cosine":
        d2f_max = abs(prof.c * prof.beta) * (2.0 * np.pi / m.L) ** 2
    else:  # the spline's f'' is piecewise linear: extremes at knots
        d2f_max = float(np.max(np.abs(prof.d2f(prof.ts))))
    cell = np.maximum(f[:-1], f[1:]) + d2f_max * h * h / 8.0
    W = np.empty((2 * B + 1, N))
    W[B] = f[:-1] * dtheta
    for d in range(1, B + 1):
        s = np.sqrt((d * h) ** 2 + (cell * dtheta) ** 2)
        # cells j..j+d-1, paired first with last
        total = sum(np.roll(s, -q) + np.roll(s, q + 1 - d)
                    for q in range(d // 2))
        if d % 2:
            total = total + np.roll(s, -(d // 2))
        mean = total / d
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

    On a mirror-symmetric profile t -> L - t is an isometry that maps
    row i of the lattice to row N - i (mod N), so the sweep runs only
    the sources s = 0..N/2 and U[j, s] = U[(N - j) % N, N - s] fills
    the rest: the mirror image of a curve is a curve of the same length.
    Step lengths and the meridian transform are mirror-exact in
    rounding, so the filled U is the one the full sweep computes, bit
    for bit.
    """
    N = SWEEP_ROWS
    h = m.L / N
    W = _step_lengths(m, h, np.pi / SWEEP_STEPS)
    if not m.profile.mirror_symmetric:
        return _sweep(W, h, N)
    V = _sweep(W, h, N // 2 + 1)
    i = np.arange(N)
    return np.concatenate([V, V[-i][:, N // 2 - 1:0:-1]], axis=1)


def _sweep(W: np.ndarray, h: float, sources: int) -> np.ndarray:
    """The columns s = 0..sources-1 of `_antipodal_bounds`'s U, from the
    step lengths W of `_step_lengths`; each column is swept on its own."""
    N, B = SWEEP_ROWS, SWEEP_BAND
    W = W[:, :, None]
    i = np.arange(N)
    gap = np.abs(i[:, None] - i[None, :sources])
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
    meridians, so hi = max U + h.  A mirror-symmetric profile,
    f(L - t) = f(t), makes (t, theta) -> (L - t, theta) an isometry.  It
    maps the lattice onto itself and gives g(L - t0, L - t1) = g(t0, t1),
    so the sweep runs from half the sources and mirrors the rest.

    For lo, a curve from (t, 0) to (t + L/2, pi) has t-variation at least
    L/2 and integral of f |dtheta| at least pi min f, so its length is at
    least hypot(L/2, pi min f).
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
