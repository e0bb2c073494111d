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
kinds and via a C2 cubic spline for tabulated data.  One frozen type,
`Manifold`, holds the warp function, its closure and the dimension n,
and checks them on construction; a closure holds by construction, so
only a pole-closed spline's end values are checked.  It gives f through
two methods: `Manifold.f(t)` the values alone, which assembly,
quadrature and the diameter read, and `Manifold.jet(t)` the tuple
(f, f', f'', f''') at the same points, which the curvature reads; a
spline's jet costs one piece search.  The range of f is found once, on
construction.  The spline is built here with numpy and one tridiagonal
solve (see `_CubicSpline`): periodic, or clamped to the pole slopes
f'(0) = 1, f'(L) = -1; a periodic spline wraps t to t mod L; and f''',
constant on each piece, reads the piece to the right at a knot.

Diameters come from the rotational symmetry, not from a search over the
manifold: a pole-closed manifold has diameter exactly L, and on a torus
the farthest point from (t0, 0) lies on the antipodal meridian.  Every
curve to that meridian crosses the meridian theta = pi/2 on its way, and
the rotation theta -> theta + pi/2 is an isometry that carries the
meridian theta = 0 to theta = pi/2.  So one sweep over the fiber angle
from 0 to pi/2 bounds both halves of every such curve, and one min-plus
product over the crossing point joins them into a bound on every
antipodal distance.  The diameter reads only the largest of those
bounds, and the join forms only what that maximum needs: a coarse bound
from every 8th crossing row, then the full product at the few entries
the coarse bound cannot rule out (see `diameter` and `_antipodal_max`
for the proofs).  The route reads the values of f, not its kind: a
constant periodic f has D in closed form, and one whose samples are
their own mirror image about some lattice row, f(2 t_r - t) = f(t), is
swept from half its sources.

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

from . import _lapack
from ._quadrature import adaptive_panels, sign_change_points
from .errors import (BadPoleClosure, NoConvergence, NonPositiveWarp,
                     require_dimension, require_exponent, require_finite,
                     require_positive)

_CLOSURE_TOL = 1e-10
# the fields beyond L and n each kind reads, and its closure if it has one
_KINDS = {"constant": ("c",), "cosine": ("c", "beta"), "sine-sphere": (),
          "tabulated": ("ts", "fs")}
_CLOSURES = {"constant": "periodic", "cosine": "periodic",
             "sine-sphere": "pole-closed"}


class _CubicSpline:
    """C2 cubic spline through (x, y) with one Horner piece per interval.

    Clamped to f'(x[0]) = 1 and f'(x[-1]) = -1, the slopes of a smooth
    pole closure, or periodic with period x[-1] - x[0].  The knot slopes
    solve one tridiagonal system (de Boor, *A Practical Guide to
    Splines*, 1978, ch. IV), passed to LAPACK's dgtsv as its three
    diagonals.  The periodic system's two cyclic corners are removed
    with its last unknown through a second right-hand side of the same
    tridiagonal solve.  This is the arithmetic of scipy's
    CubicSpline, so the coefficients agree with it bit for bit on four
    or more knots.  A periodic spline needs four: on three, the system
    left after the elimination is 1 x 1, which dgtsv does not take.

    Piece i serves x[i] <= t < x[i+1], the first piece also t < x[0]
    and the last also t >= x[-1]: at a knot every derivative reads the
    piece to its right.  A periodic spline first maps t to
    x[0] + (t - x[0]) mod period, so its f'''(x[-1]) reads the first
    piece.  x and y are kept as read-only copies of the caller's data.
    """

    def __init__(self, x, y, periodic: bool):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        x.flags.writeable = y.flags.writeable = False
        least = 4 if periodic else 2
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
            # indices mod m, so rows 0 and m - 1 wrap to two corners
            hp = np.roll(h, 1)
            diag = 2.0 * (hp + h)
            rhs = 3.0 * (h * np.roll(slope, 1) + hp * slope)
            # The corners are a rank-one term of the system in its last
            # unknown.  Eliminate that unknown (the bordered form of the
            # Sherman-Morrison formula): the leading m - 1 rows, solved
            # for the right-hand side and for minus the last column, give
            # s = u + s[m-1] w, and the last row then fixes s[m-1].
            col = np.zeros(h.size - 1)
            col[0] -= h[0]
            col[-1] -= hp[-2]
            uw = _lapack.solve(h[1:-1], diag[:-1], hp[:-2],
                               np.column_stack([rhs[:-1], col]),
                               check_finite=True)
            u, w = uw[:, 0], uw[:, 1]
            last = ((rhs[-1] - hp[-1] * u[0] - h[-1] * u[-1])
                    / (diag[-1] + hp[-1] * w[0] + h[-1] * w[-1]))
            s = u + last * w
            s = np.concatenate([s, [last, s[0]]])
        else:
            # rows 0 and m fix s[0] = 1 and s[m] = -1; row i between
            # reads h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1]
            lower = np.append(h[1:], 0.0)
            diag = np.concatenate([[1.0], 2.0 * (h[:-1] + h[1:]), [1.0]])
            upper = np.append(0.0, h[:-1])
            rhs = np.empty_like(x)
            rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
            rhs[0], rhs[-1] = 1.0, -1.0
            s = _lapack.solve(lower, diag, upper, rhs, check_finite=True)
        bend = (s[:-1] + s[1:] - 2.0 * slope) / h
        self.x, self.y = x, y
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

    def _locate(self, t) -> tuple:
        """The piece index i of points t and their offsets u = t - x[i]."""
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
        return i, t - self.x[i]

    def __call__(self, t) -> np.ndarray:
        """The values at points t."""
        i, u = self._locate(t)
        return ((self.c3[i] * u + self.c2[i]) * u
                + self.c1[i]) * u + self.c0[i]

    def jet(self, t) -> tuple:
        """(f, f', f'', f''') at points t, from one piece search."""
        i, u = self._locate(t)
        return (((self.c3[i] * u + self.c2[i]) * u + self.c1[i]) * u
                + self.c0[i],
                (self._3c3[i] * u + self._2c2[i]) * u + self.c1[i],
                self._6c3[i] * u + self._2c2[i],
                self._6c3[i])

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
class Manifold:
    """The closed warped product g = dt^2 + f(t)^2 g_fiber of dimension n.

    kind: one of "constant", "cosine", "sine-sphere", "tabulated".
    boundary: "periodic" or "pole-closed"; a closed-form kind has one.
    c, beta parameterize the closed-form kinds; ts/fs hold tabulated data.
    Construction checks every field and rejects one its kind does not
    read, so every Manifold is valid; `make_manifold` is the front end.

    `f(t)` gives the values of the warp function f and `jet(t)` the
    tuple (f, f', f'', f''') at points t, whose first entry is `f(t)`
    bit for bit.  `f_range()` returns (min f, max f) over [0, L], found
    on construction by one rule for every kind: the extremes of f at its
    critical points.

    A tabulated f is the C2 cubic spline through (ts, fs): periodic, or
    clamped to f'(0) = 1 and f'(L) = -1 when pole-closed.  A periodic
    spline reads t as t mod L, so f(L) = f(0).  Its f''' is constant on
    each piece and jumps at knots, where it reads the piece to the right;
    at t = L a periodic f''' reads the first piece, a pole-closed one the
    last.  Every closure so holds by construction; of it only the data
    fs[0] = fs[-1] = 0 of a pole-closed spline are checked.  ts and fs
    are the spline's copies of the caller's data.
    """

    kind: str
    L: float
    boundary: str
    n: int
    c: float = 0.0
    beta: float = 0.0
    ts: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    _spline: Optional[_CubicSpline] = field(default=None, repr=False,
                                            compare=False)
    _range: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.boundary not in ("periodic", "pole-closed"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary != _CLOSURES.get(self.kind, self.boundary):
            raise ValueError(f"{self.kind} profile is "
                             f"{_CLOSURES[self.kind]}, not {self.boundary}")
        for name in ("c", "beta", "ts", "fs"):
            value = getattr(self, name)
            # c and beta read 0 when not given, ts and fs None
            if (name not in _KINDS[self.kind] and value is not None
                    and (np.ndim(value) or value != 0.0)):
                raise ValueError(f"{self.kind} profile takes no {name}")
        L = self.L
        require_positive("base length L", L)
        if self.kind == "tabulated":
            spline = _CubicSpline(self.ts, self.fs,
                                  self.boundary == "periodic")
            if spline.x[0] != 0.0 or abs(spline.x[-1] - L) > 1e-12 * L:
                raise ValueError("tabulated nodes must span [0, L]")
            object.__setattr__(self, "ts", spline.x)
            object.__setattr__(self, "fs", spline.y)
            object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "n",
                           require_dimension(self.n, "dimension n"))
        # f's extremes lie among its critical points: 0 and L/2 for the
        # closed forms, a spline's knots and slope roots.  L is left out:
        # f(L) = f(0), but a sphere's r sin(L / r) rounds to -3.7e-16 r.
        # A pole-closed profile is 0 at its ends, so its minimum is taken
        # over the open interval (0, L).
        if self.kind == "tabulated":
            pts = np.concatenate([self.ts, self._spline.slope_roots()])
        else:
            pts = np.array([0.0, L / 2.0])
        vals = self.f(pts)
        scale = float(np.max(vals))
        object.__setattr__(self, "_range", (float(np.min(vals)), scale))
        if self.boundary == "pole-closed":
            vals = vals[(pts > 0.0) & (pts < L)]
        f_min = float(np.min(vals))
        if not (np.isfinite(f_min) and np.isfinite(scale)):
            raise NonPositiveWarp(
                "warp function is not finite on the interior")
        if f_min <= 0.0:
            raise NonPositiveWarp(
                f"warp function reaches {f_min:.3g} <= 0 on the interior")
        # f(0) is fs[0] exactly, and f(L) is fs[-1] up to rounding
        if self.kind == "tabulated" and self.boundary == "pole-closed":
            f0, fL = float(self.fs[0]), float(self.fs[-1])
            if max(abs(f0), abs(fL)) > _CLOSURE_TOL * scale:
                raise BadPoleClosure(
                    f"pole values f(0)={f0:.3g}, f(L)={fL:.3g} are not zero")

    # -- evaluation -----------------------------------------------------

    def f(self, t):
        """The values of f at points t, in a new array."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.c)
        if self.kind == "cosine":
            return self.c * (1.0 + self.beta * np.cos(2.0 * np.pi * t / self.L))
        if self.kind == "sine-sphere":
            r = self.L / np.pi
            return r * np.sin(t / r)
        return self._spline(t)

    def jet(self, t) -> tuple:
        """(f, f', f'', f''') at points t: f as `f` gives it, each
        derivative in closed form or from the spline's one piece search."""
        t = np.asarray(t, dtype=float)
        if self.kind == "tabulated":
            return self._spline.jet(t)
        if self.kind == "constant":
            zero = np.zeros_like(t)
            return self.f(t), zero, zero, zero
        if self.kind == "cosine":
            w = 2.0 * np.pi / self.L
            sin, cos = np.sin(w * t), np.cos(w * t)
            return (self.f(t), -self.c * self.beta * w * sin,
                    -self.c * self.beta * w * w * cos,
                    self.c * self.beta * w ** 3 * sin)
        r = self.L / np.pi
        sin, cos = np.sin(t / r), np.cos(t / r)
        return r * sin, cos, -sin / r, -cos / r ** 2

    def f_range(self) -> tuple[float, float]:
        """The exact (min f, max f) over [0, L], found on construction."""
        return self._range

    def describe(self) -> dict:
        out = {"kind": self.kind, "boundary": self.boundary, "n": self.n,
               "L": self.L}
        if self.kind in ("constant", "cosine"):
            out["c"] = self.c
            out["fiber"] = 2.0 * np.pi * self.c
        if self.kind == "cosine":
            out["beta"] = self.beta
        if self.kind == "tabulated":
            out["samples"] = int(self.ts.size)
        return out


def _fiber_volume(n: int) -> float:
    """Volume of the unit fiber: 2*pi for a circle, |S^{n-1}| otherwise."""
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


def make_manifold(kind: str,
                  *,
                  L: float,
                  n: int = 2,
                  c: Optional[float] = None,
                  beta: float = 0.0,
                  ts: Optional[np.ndarray] = None,
                  fs: Optional[np.ndarray] = None,
                  boundary: Optional[str] = None) -> Manifold:
    """Build a manifold of one kind from keyword arguments; `Manifold`
    checks them.  A torus kind's fiber size is its mean warp c (the
    fiber circumference is 2*pi*c); beta is the cosine amplitude.
    "sine-sphere" is the round sphere of diameter L.  The boundary
    defaults to the kind's own; "tabulated" needs it given.
    """
    return Manifold(kind=kind, L=float(L), n=n,
                    boundary=boundary or _CLOSURES.get(kind),
                    c=0.0 if c is None else float(c), beta=float(beta),
                    ts=ts, fs=fs)


# -- curvature --------------------------------------------------------------

def ricci_min(m: Manifold, t) -> np.ndarray:
    """Smallest Ricci eigenvalue at base points t (vectorized).

    Near the poles of a pole-closed profile the fiber formula is replaced
    by its smooth limit -(n-1) f'''/f', which coincides with the radial
    value there.
    """
    return _ricci_and_warp(m, t)[0]


def _ricci_and_warp(m: Manifold, t) -> tuple:
    """(`ricci_min`, f) at base points t, both from one jet."""
    f, df, d2f, d3f = m.jet(np.atleast_1d(t))
    n = m.n
    # each branch is evaluated everywhere and kept where it applies
    with np.errstate(divide="ignore", invalid="ignore"):
        rad = -(n - 1) * d2f / f
        fib = -d2f / f + (n - 2) * (1.0 - df * df) / (f ** 2)
        pole = -(n - 1) * d3f / df
    near = np.abs(f) < 1e-8 * max(1.0, m.L)
    return np.where(near, pole, np.minimum(rad, fib)), f


def rho_H_field(m: Manifold, H: float, t) -> np.ndarray:
    """Curvature deficit rho_H = max((n-1)H - rho, 0) at base points t.

    rho_H vanishes exactly where Ric >= (n-1)H and measures the pointwise
    failure of that lower bound elsewhere.
    """
    return np.maximum((m.n - 1) * H - ricci_min(m, t), 0.0)


def _knots(m: Manifold):
    """Interior knots of a tabulated profile, () for the closed forms.

    The cubic spline's f''' jumps at every knot, so each curvature field
    has a kink there: integration panels should start split at them.
    """
    return m.ts[1:-1] if m.kind == "tabulated" else ()


def _warp_integral(m: Manifold) -> float:
    """Integral of f^{n-1} over [0, L]: the volume over vol(unit fiber)."""
    n = m.n
    return adaptive_panels(lambda t: m.f(t) ** (n - 1), 0.0, m.L,
                           breakpoints=_knots(m), rel_tol=1e-13)


def volume(m: Manifold) -> float:
    """Riemannian volume: vol(unit fiber) * integral of f^{n-1}."""
    return _fiber_volume(m.n) * _warp_integral(m)


def kbar(m: Manifold, p: float, H: float) -> float:
    """Normalized integral curvature norm
    (mean of rho_H^p against the volume measure)^(1/p).

    Requires p > n/2 and a finite H.  The integrand has kinks where
    (n-1)H - rho changes sign, read off the deficit's own scan, and at a
    tabulated profile's knots, so panels are pre-split there before the
    adaptive bisection; without the split the Gauss rule would stall
    across the kink.

    Raises NoConvergence at once for a pole-closed profile with f'' > 0
    at a pole when p >= n: the deficit grows like (2n-3) f''/t there, so
    the integrand grows like t^(n-1-p) and the integral diverges.
    """
    require_exponent(p, m.n)
    require_finite("H", H)
    n = m.n
    if m.boundary == "pole-closed" and p >= n:
        for pole in (0.0, m.L):
            d2f = float(m.jet(pole)[2])
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
    kinks = sign_change_points(deficit, scan_t, dvals)

    def integrand(t):
        rho, f = _ricci_and_warp(m, t)
        return np.maximum((n - 1) * H - rho, 0.0) ** p * f ** (n - 1)

    num = adaptive_panels(integrand, 0.0, m.L,
                          breakpoints=[*kinks, *_knots(m)],
                          rel_tol=1e-11, abs_floor=1e-300)
    return float((num / _warp_integral(m)) ** (1.0 / p))


# -- diameter ---------------------------------------------------------------

# Lattice of the periodic sweep: rows per period, theta steps over
# [0, pi] (the sweep runs the first half of them, to pi/2), and the
# largest row offset of one straight step.
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


def _meridian_relax(V: np.ndarray, h: float) -> np.ndarray:
    """min over i of V[i] + h * (circular |i - j|), for every row j.

    The exact meridian transform on a periodic lattice of spacing h.
    Forward round the circle, row j is reached from the rows i <= j over
    h (j - i), a running minimum, and from every row over the wrap
    h (N + j - i), whose least value is one column minimum that seeds
    the running minimum at row 0.  The backward direction is the same
    pass on the mirrored rows i -> -i, mirrored back, so the transform
    commutes with that mirror in rounding too.  The running minimum
    takes its positions from the middle of the rows, |pos| <= L/2, which
    keeps their rounding, and so the rounding of hi, small; the wrap
    takes those positions less L.
    """
    N = V.shape[0]
    pos = h * (np.arange(N) - N // 2)[:, None]
    wrap = h * (np.arange(N) - N // 2 - N)[:, None]

    def forward(X):
        Y = X - pos
        np.minimum(Y[0], np.min(X - wrap, axis=0), out=Y[0])
        return np.minimum.accumulate(Y, axis=0) + pos

    i = np.arange(N)
    return np.minimum(forward(V), forward(V[-i])[-i])


def _step_lengths(m: Manifold, f: np.ndarray, h: float,
                  dtheta: float) -> np.ndarray:
    """Upper bounds W[B + d, j] on the straight coordinate segment from
    (t_{j+d}, theta) to (t_j, theta + dtheta), for |d| <= B, from the
    samples f[i] = f(t_i) on the rows i = 0..N.

    On each lattice cell f is at most the larger endpoint value plus
    max|f''| h^2 / 8 (f lies below its chord plus that bulge).  A segment
    over |d| cells spends 1/|d| of its parameter in each, so its length
    sqrt(dt^2 + f^2 dtheta^2) integrated is at most the mean of the cell
    values; at d = 0 it is f(t_j) dtheta exactly.

    Each mean adds its cells in pairs from both ends inwards, an order
    that reads the same on the mirrored segment, so on samples that are
    their own mirror image, f[N - i] = f[i], the lengths of a segment and
    of its mirror image are equal in rounding too.
    """
    N, B = SWEEP_ROWS, SWEEP_BAND
    if m.kind == "cosine":
        d2f_max = abs(m.c * m.beta) * (2.0 * np.pi / m.L) ** 2
    else:  # the spline's f'' is piecewise linear: extremes at knots
        d2f_max = float(np.max(np.abs(m.jet(m.ts)[2])))
    cell = np.maximum(f[:-1], f[1:]) + d2f_max * h * h / 8.0
    W = np.empty((2 * B + 1, N))
    W[B] = f[:-1] * dtheta
    j = np.arange(N)
    for d in range(1, B + 1):
        s = np.sqrt((d * h) ** 2 + (cell * dtheta) ** 2)
        # cells j..j+d-1, the pair q = (j + q, j + d - 1 - q) in row q,
        # summed over q in order
        q = np.arange(d // 2)[:, None]
        total = np.add.reduce(s[(j + q) % N] + s[(j + d - 1 - q) % N],
                              axis=0)
        if d % 2:
            total = total + s[(j + d // 2) % N]
        mean = total / d
        W[B + d] = mean
        W[B - d] = np.roll(mean, d)
    return W


def _mirror_row(f: np.ndarray) -> Optional[int]:
    """The lattice row r about which the samples f on rows 0..N are their
    own mirror image, f[(r + i) % N] = f[(r - i) % N] to 16 eps max f (a
    few ulps of rounding, so that sweeping the mirrored first half of
    them moves U by rounding only), or None.

    The rows 0..N/2 - 1 are tried in order (the axes r and r + N/2 are
    one reflection, i -> 2r - i mod N), and f[N] reads as f[0], one point
    of the circle.  An axis between two rows reflects no row onto itself,
    and no row is returned for it.
    """
    N = f.size - 1
    tol = 16.0 * np.finfo(float).eps * np.max(f)
    i = np.arange(N)
    r = np.arange(N // 2)[:, None]
    gap = np.max(np.abs(f[(r + i) % N] - f[(r - i) % N]), axis=1)
    axes = np.flatnonzero(gap <= tol)
    return int(axes[0]) if axes.size else None


def _antipodal_max(m: Manifold) -> float:
    """max over (j, s) of U[j, s], where U[j, s] >= d((t_s, 0), (t_j, pi))
    on the lattice t_i = i L / N.

    A min-plus sweep over theta = 0 .. pi/2 in SWEEP_STEPS / 2 steps of
    pi / SWEEP_STEPS gives Q[i, s] >= d((t_s, 0), (t_i, pi/2)) (see
    `_sweep`).  The rotation (t, theta) -> (t, theta + pi/2) is an
    isometry, so a curve from (t_s, 0) to (t_i, pi/2) followed by the
    rotated image of one from (t_i, 0) to (t_j, pi/2) reaches (t_j, pi),
    and

        U[j, s] = min over i of Q[j, i] + Q[i, s],

    one min-plus product, bounds every antipodal distance.  Every entry
    is the length of a curve made of lattice segments and meridian arcs
    (up to rounding).  Nothing is lost by the join, since every curve to
    theta = pi crosses theta = pi/2: as min-plus matrices, with A a band
    step and M the meridian transform, Q = (MA)^(K/2) M for
    K = SWEEP_STEPS, and M is idempotent, so
    Q Q = (MA)^(K/2) (MA)^(K/2) M = (MA)^K M.  In exact arithmetic U is
    the bound of the full sweep of K steps over [0, pi], from the same
    lattice curves; only rounding differs.  Only max U is formed, and
    `_join_max` proves that it is max U exactly.

    f is sampled once, on the rows 0..N.  Where the samples are their own
    mirror image about a row r (`_mirror_row`), the translation
    t -> t - t_r is an isometry of the torus onto the one whose profile
    is f(t + t_r), and it maps lattice row r + i to row i, so the max
    over all lattice pairs is the same on both; the samples are rotated
    to f[(r + i) % N] and swept on that torus.  There t -> L - t maps the
    sampled profile onto itself and row i to row N - i (mod N), so the
    first half of the samples serves both halves: the sweep runs only
    the sources s = 0..N/2, and Q[j, s] = Q[(N - j) % N, N - s] fills the
    rest of Q before the join, which reads the columns s <= N/2 of U.
    U[j, s] = U[(N - j) % N, N - s] holds for the rest, as the mirror
    image of a curve is a curve of the same length, so those columns
    hold every value of U.  Step lengths and the meridian transform are
    mirror-exact in rounding, and the join adds the same pairs of
    entries, so at r = 0 max U is the one the all-sources route computes
    from the same samples, bit for bit.  At r > 0 the all-sources route
    on the unrotated samples rounds otherwise (its meridian transform
    centres positions on another row), and max U moves from it by a few
    ulps: 0 on the catalog's two splines with an axis at row 16, at most
    2 on random splines.
    """
    N = SWEEP_ROWS
    h = m.L / N
    rows = np.arange(N + 1)
    f = m.f(h * rows)
    r = _mirror_row(f)
    S = N if r is None else N // 2 + 1
    if S < N:
        f = f[(r + np.minimum(rows, N - rows)) % N]
    W = _step_lengths(m, f, h, np.pi / SWEEP_STEPS)
    Q = _sweep(W, h, S)
    if S < N:
        # X[j, s] = X[(N - j) % N, N - s] for the sources s > N/2
        i = np.arange(N)
        Q = np.concatenate([Q, Q[-i][:, N // 2 - 1:0:-1]], axis=1)
    return _join_max(Q, S)


def _coarse_join(Q: np.ndarray, sources: int) -> np.ndarray:
    """UB[j, s] = min over the rows k = 0, 8, 16, .. of Q[j, k] + Q[k, s],
    for the sources s < `sources`, built in place one k at a time.

    Each term is a sum the full join adds, rounded the same way, and UB
    takes its minimum over fewer of them, so UB >= U bit for bit.
    """
    UB = Q[:, :1] + Q[:1, :sources]
    pair = np.empty_like(UB)
    for k in range(8, Q.shape[0], 8):
        np.add(Q[:, k:k + 1], Q[k:k + 1, :sources], out=pair)
        np.minimum(UB, pair, out=UB)
    return UB


def _join_max(Q: np.ndarray, sources: int) -> float:
    """max over j and s < `sources` of U[j, s] = min over k of
    Q[j, k] + Q[k, s], without forming U.

    lb is the full minimum at the argmax of the coarse bound UB
    (`_coarse_join`), so lb is an entry of U and lb <= max U.  An entry
    with UB <= lb has U <= UB <= lb, and cannot exceed lb.  So max U is
    the largest of lb and the full minima at the entries with UB > lb,
    each of them the sums the full join adds: max U exactly.  Those
    entries are taken N at a time, which bounds the temporary to an
    N x N array.
    """
    N = Q.shape[0]
    UB = _coarse_join(Q, sources)
    j, s = np.unravel_index(np.argmax(UB), UB.shape)
    best = float(np.min(Q[j] + Q[:, s]))
    rest = np.flatnonzero(UB > best)
    for at in range(0, rest.size, N):
        j, s = np.divmod(rest[at:at + N], sources)
        best = max(best, float(np.max(np.min(Q[j] + Q[:, s].T, axis=1))))
    return best


def _sweep(W: np.ndarray, h: float, sources: int) -> np.ndarray:
    """Q[i, s] >= d((t_s, 0), (t_i, pi/2)) for the sources
    s = 0..sources-1, from the step lengths W of `_step_lengths`.

    The state V[j, s] is the length of a curve from (t_s, 0) to
    (t_j, theta); each of SWEEP_STEPS / 2 steps takes one straight
    coordinate segment over at most SWEEP_BAND rows, then the exact
    meridian transform.  Each column is swept on its own.
    """
    N, B = SWEEP_ROWS, SWEEP_BAND
    W = W[:, :, None]
    i = np.arange(N)
    gap = np.abs(i[:, None] - i[None, :sources])
    V = h * np.minimum(gap, N - gap)
    for _ in range(SWEEP_STEPS // 2):
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
    d((t0, 0), (t1, pi)).  `_antipodal_max` gives max U for a U >= g on
    the lattice of spacing h = L / N, and g is 1-Lipschitz in each
    endpoint along meridians, so hi = max U + h.  `_antipodal_max` sweeps
    theta only to pi/2 and joins the halves with one min-plus product,
    of which it forms only the entries its maximum needs, from half the
    sources where f on the lattice is its own mirror image about a row.

    For lo, a curve from (t, 0) to (t + L/2, pi) has t-variation at least
    L/2 and integral of f |dtheta| at least pi min f, so its length is at
    least hypot(L/2, pi min f).  Every antipodal pair is joined by a
    straight coordinate curve, t linear in theta over [0, pi] with
    |dt| <= L/2, of length int sqrt((dt/pi)^2 + f^2) dtheta <=
    hypot(L/2, pi max f) =: S.  The sweep's hi is never below lo + h: N
    is even, so (t, t + L/2) is a lattice pair and max U >= lo.  So
    where S <= lo + h, S is hi, no wider than the sweep's, and no sweep
    runs; a constant warp has S = lo, D exactly.  Neither end is rounded
    outward: lo is not, and U is a curve length up to rounding.
    """
    if m.boundary == "pole-closed":
        return DiameterBracket(lo=m.L, hi=m.L, converged=True, grid=0)
    f_min, f_max = m.f_range()
    lo = math.hypot(m.L / 2.0, np.pi * f_min)
    straight = math.hypot(m.L / 2.0, np.pi * f_max)
    h = m.L / SWEEP_ROWS
    if straight <= lo + h:
        return DiameterBracket(lo=lo, hi=straight, converged=True, grid=0)
    hi = _antipodal_max(m) + h
    return DiameterBracket(lo=lo, hi=hi, converged=True, grid=SWEEP_ROWS)
