"""Locally adaptive Gauss-Legendre quadrature.

All definite integrals in the toolkit go through `adaptive_panels`, which
integrates with a fixed-order Gauss rule and bisects only the panels that
are not yet resolved, as in QUADPACK's QAG (Piessens, de Doncker-Kapenga,
Ueberhuber & Kahaner, *QUADPACK*, Springer 1983).  A pole or a kink then
costs points near itself, not across the whole interval.  Breakpoints let
callers pre-split at known kinks so every panel sees a smooth integrand
and the Gauss rule keeps its nominal order.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import NoConvergence

_NODES = 16
_X16, _W16 = np.polynomial.legendre.leggauss(_NODES)
# Integrand points one call may evaluate.  A divergent integral never
# converges; this budget stops it.
MAX_POINTS = 1 << 23
# QUADPACK's roundoff test: a bisection stalls when it leaves the panel's
# value unchanged to _STEADY yet its halves' estimates sum to at least
# _STALL_RATIO of its own; _STALLS stalls in a row along one lineage mean
# the estimate is rounding noise that no bisection removes.  As in
# QUADPACK, where only the panel of largest error is bisected, a panel
# whose error is negligible against the budget does not count.
_STEADY = 1e-5
_STALL_RATIO = 0.99
_STALLS = 6


def _gauss(func: Callable[[np.ndarray], np.ndarray],
           lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss values of func on each panel [lo[i], hi[i]]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    # nodes shaped (panels, order), flattened for a single vectorized call
    pts = mid[:, None] + half[:, None] * _X16[None, :]
    vals = np.asarray(func(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals @ _W16)


def adaptive_panels(func: Callable[[np.ndarray], np.ndarray],
                    a: float,
                    b: float,
                    breakpoints: Iterable[float] = (),
                    rel_tol: float = 1e-12,
                    abs_floor: float = 0.0) -> float:
    """Integrate func over [a, b], bisecting only unresolved panels.

    breakpoints inside (a, b) seed the initial panel edges.  Each pass
    evaluates the two halves of every active panel in one vectorized
    call.  Twice the difference between a panel's Gauss value and its
    halves' sum is the error estimate of that sum; the factor 2 keeps the
    result within rel_tol at endpoint singularities as strong as
    t^(-1/2), where halving a panel gains only sqrt(2).  A panel is
    retired with its halves' sum once its estimate fits its share of the
    budget rel_tol * max(|I|, abs_floor): the budget the retired panels
    have not spent, split over the active panels in proportion to their
    width.  The other panels' halves form the next pass.  abs_floor
    guards integrals that are legitimately ~0.  Raises NoConvergence
    where the next pass would take the call past MAX_POINTS integrand
    points, where a panel's value is not finite (a pole of func that
    the bisection has reached), or where bisection has stopped reducing
    the error estimate (the integrand's rounding noise exceeds the
    budget; see _STALLS).
    """
    interior = sorted(x for x in breakpoints if a < x < b)
    edges = np.array([a, *interior, b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    whole = _gauss(func, lo, hi)
    points = _NODES * lo.size
    value = 0.0   # sum over retired panels
    spent = 0.0   # their error estimates
    # After the first pass the active panels are the left halves, then
    # the right halves, of the last pass's unresolved panels, so siblings
    # sit half the array apart.  lineage holds, per sibling pair, the
    # parent's estimate (inf unless the parent was watched) and the
    # stalls in a row along the pair's line of ancestors.
    lineage = None
    while lo.size:
        points += 2 * _NODES * lo.size
        if points > MAX_POINTS:
            raise NoConvergence(
                f"quadrature did not reach rel_tol={rel_tol:g} within "
                f"{MAX_POINTS} integrand points ({lo.size} panels in "
                f"[{lo.min():g}, {hi.max():g}] unresolved)")
        mid = 0.5 * (lo + hi)
        left, right = np.split(
            _gauss(func, np.concatenate([lo, mid]),
                   np.concatenate([mid, hi])), 2)
        split = left + right
        err = 2.0 * np.abs(whole - split)
        bad = ~np.isfinite(err)
        if bad.any():
            raise NoConvergence(
                f"integrand is not finite on [{lo[bad].min():g}, "
                f"{hi[bad].max():g}]")
        if lineage is None:
            run = np.zeros(lo.size, dtype=int)
        else:
            parent_err, run = lineage
            half = lo.size // 2
            stalled = err[:half] + err[half:] >= _STALL_RATIO * parent_err
            run = np.where(stalled, run + 1, 0)
            if run.max() >= _STALLS:
                raise NoConvergence(
                    f"quadrature reached the rounding floor of the "
                    f"integrand before rel_tol={rel_tol:g}: the error "
                    f"estimate stopped shrinking under bisection "
                    f"{_STALLS} times in a row ({lo.size} panels in "
                    f"[{lo.min():g}, {hi.max():g}] unresolved)")
            run = np.concatenate([run, run])
        unspent = rel_tol * max(abs(value + split.sum()), abs_floor) - spent
        done = err <= max(unspent, 0.0) * (hi - lo) / np.sum(hi - lo)
        value += split[done].sum()
        spent += err[done].sum()
        go = ~done
        # watched: value steady, and an error that would matter if every
        # active panel had it (an equal share of a positive budget)
        watch = ((err <= 2.0 * _STEADY * np.abs(split))
                 & (err * lo.size >= unspent) & (unspent > 0.0))
        lineage = np.where(watch, err, np.inf)[go], run[go]
        lo, hi = (np.concatenate([lo[go], mid[go]]),
                  np.concatenate([mid[go], hi[go]]))
        whole = np.concatenate([left[go], right[go]])
    return float(value)


def sign_change_points(func: Callable[[np.ndarray], np.ndarray],
                       ts: np.ndarray,
                       vs: np.ndarray,
                       refine_iters: int = 80) -> list[float]:
    """Locate roots of a scalar function from a scan + bisection.

    ts is an increasing scan grid and vs = func(ts), which the caller
    has usually computed already.  Used to split integration panels
    where an integrand has a kink (e.g. a positive-part operation
    crossing zero).  Every bracket of the scan is bisected at once, one
    vectorized func call per iteration.  Returns the crossing locations
    in increasing order; tangential touches without sign change between
    scan nodes are not reported, which is harmless for panel seeding.
    The bisection stops early once a step moves no bracket: from then on
    every step would repeat it, so the result is that of refine_iters
    steps.
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    zeros = ts[vs == 0.0]
    flip = np.nonzero(vs[:-1] * vs[1:] < 0.0)[0]
    lo, hi, flo = ts[flip], ts[flip + 1], vs[flip]
    if flip.size:
        for _ in range(refine_iters):
            mid = 0.5 * (lo + hi)
            fm = np.asarray(func(mid), dtype=float)
            left = flo * fm <= 0.0
            new_lo, new_hi = np.where(left, lo, mid), np.where(left, mid, hi)
            flo = np.where(left, flo, fm)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
    return sorted([*zeros.tolist(), *(0.5 * (lo + hi)).tolist()])
