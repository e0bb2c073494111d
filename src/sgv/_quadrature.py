"""Composite Gauss-Legendre quadrature with panel doubling.

All definite integrals in the toolkit go through `adaptive_panels`, which
integrates with a fixed-order Gauss rule on a panel decomposition and
doubles the number of panels until two successive composite values agree
to a requested relative tolerance.  Breakpoints let callers pre-split at
known kinks so every panel sees a smooth integrand and the Gauss rule
keeps its nominal order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NoConvergence

_NODES = 16
_X16, _W16 = np.polynomial.legendre.leggauss(_NODES)
# Integrand points one composite pass may evaluate.  A divergent integral
# never stabilizes, and each doubling doubles the pass's memory; this
# budget (about 64 MB per float array of points) stops it first.
MAX_PASS_POINTS = 1 << 23


def panel_values(func: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray) -> float:
    """One composite Gauss pass over consecutive [edges[i], edges[i+1]] panels."""
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # nodes shaped (panels, order), flattened for a single vectorized call
    pts = mid[:, None] + half[:, None] * _X16[None, :]
    vals = np.asarray(func(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(half * (vals @ _W16)))


def _refine(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def adaptive_panels(func: Callable[[np.ndarray], np.ndarray],
                    a: float,
                    b: float,
                    breakpoints: Iterable[float] = (),
                    rel_tol: float = 1e-12,
                    abs_floor: float = 0.0) -> float:
    """Integrate func over [a, b], doubling panels until stable.

    breakpoints inside (a, b) seed the initial panel edges.  abs_floor
    guards the convergence test for integrals that are legitimately ~0:
    agreement is measured against max(|I|, abs_floor).  Raises
    NoConvergence where the next doubling would evaluate more than
    MAX_PASS_POINTS integrand points in one pass.
    """
    interior = sorted(x for x in breakpoints if a < x < b)
    edges = np.array([a, *interior, b], dtype=float)
    prev = panel_values(func, edges)
    while 2 * (edges.size - 1) * _NODES <= MAX_PASS_POINTS:
        edges = _refine(edges)
        cur = panel_values(func, edges)
        if abs(cur - prev) <= rel_tol * max(abs(cur), abs_floor):
            return cur
        prev = cur
    raise NoConvergence(
        f"quadrature did not stabilize to rel_tol={rel_tol:g} "
        f"within {MAX_PASS_POINTS} integrand points per pass")


def sign_change_points(func: Callable[[np.ndarray], np.ndarray],
                       a: float,
                       b: float,
                       scan: int = 1024,
                       refine_iters: int = 80) -> list[float]:
    """Locate roots of a scalar function by scan + bisection.

    Used to split integration panels where an integrand has a kink
    (e.g. a positive-part operation crossing zero).  Returns refined
    crossing locations; tangential touches without sign change between
    scan nodes are not reported, which is harmless for panel seeding.
    """
    ts = np.linspace(a, b, scan + 1)
    vs = np.asarray(func(ts), dtype=float)
    roots: list[float] = []
    for i in range(scan):
        v0, v1 = vs[i], vs[i + 1]
        if v0 == 0.0:
            roots.append(float(ts[i]))
            continue
        if v0 * v1 < 0.0:
            lo, hi = float(ts[i]), float(ts[i + 1])
            flo = float(func(np.array([lo]))[0])
            for _ in range(refine_iters):
                mid = 0.5 * (lo + hi)
                fm = float(func(np.array([mid]))[0])
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if vs[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots
