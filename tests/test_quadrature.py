"""Tests for the locally adaptive quadrature and the kink finder.

- integrable singularities (an endpoint t^(-1/2), an interior
  |t - 1/3|^(3/2)) reach rel_tol against their closed forms, spending
  points near the singularity only
- a divergent integral raises NoConvergence within MAX_POINTS, and an
  integrand whose rounding noise exceeds the budget raises long before
- random polynomials on random breakpoints match their antiderivatives
- the kink finder's one chord step, from kbar's 8,193-point scan,
  agrees with scalar bisection on curvature deficits of a cosine torus
  and of periodic and pole-closed splines, with one func call
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgv._quadrature
from sgv import make_manifold, ricci_min
from sgv._quadrature import MAX_POINTS, adaptive_panels, sign_change_points
from sgv.errors import NoConvergence


def counted(func):
    """func, plus the number of points it has been evaluated at."""
    calls = {"points": 0, "calls": 0}

    def wrapped(t):
        calls["points"] += t.size
        calls["calls"] += 1
        return func(t)
    return wrapped, calls


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12, 1e-13])
def test_endpoint_singularity_reaches_rel_tol(rel_tol):
    func, calls = counted(lambda t: t ** -0.5)
    got = adaptive_panels(func, 0.0, 1.0, rel_tol=rel_tol)
    assert abs(got - 2.0) <= rel_tol * 2.0
    # bisection near t = 0 only: whole-interval doubling would need
    # 2^k * 16 points per pass and never resolves t^(-1/2) within 2^23
    assert calls["points"] < 6000


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12, 1e-13])
def test_interior_kink_reaches_rel_tol(rel_tol):
    # |t - 1/3|^(3/2): f'' is infinite at 1/3, which no breakpoint marks
    want = ((2.0 / 3.0) ** 2.5 + (1.0 / 3.0) ** 2.5) / 2.5
    func, calls = counted(lambda t: np.abs(t - 1.0 / 3.0) ** 1.5)
    got = adaptive_panels(func, 0.0, 1.0, rel_tol=rel_tol)
    assert abs(got - want) <= rel_tol * want
    # whole-interval doubling spent 32752 points at rel_tol = 1e-10
    assert calls["points"] < 1000


def test_divergent_integral_raises_within_budget():
    func, calls = counted(lambda t: 1.0 / t)
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(NoConvergence):
            adaptive_panels(func, 0.0, 1.0)
    assert calls["points"] <= MAX_POINTS


def test_point_budget_is_per_call(monkeypatch):
    # a slowly diverging integrand stays finite, so only the budget
    # stops it; every point counts against it, not only the largest pass
    monkeypatch.setattr(sgv._quadrature, "MAX_POINTS", 4096)
    func, calls = counted(lambda t: 1.0 / np.abs(t))
    with pytest.raises(NoConvergence, match="4096 integrand points"):
        adaptive_panels(func, -1e-3, 1.0, breakpoints=[0.0])
    assert calls["points"] <= 4096


def test_rounding_floor_raises_early():
    # T1 on [10, 10.001]: rounding t alone puts noise of about 4e-12 into
    # every value, above the budget rel_tol * abs_floor = 1e-16, so no
    # bisection converges; without the roundoff test this ran 6,613,616
    # points before the MAX_POINTS cap stopped it
    func, calls = counted(np.polynomial.Chebyshev([0, 1],
                                                  domain=[10, 10.001]))
    with pytest.raises(NoConvergence, match="rounding floor"):
        adaptive_panels(func, 10.0, 10.001, rel_tol=1e-13, abs_floor=1e-3)
    assert calls["points"] <= 65536


@settings(max_examples=60, deadline=None)
@given(coef=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=41),
       shift=st.floats(-1.0, 1.0),
       width=st.floats(1e-3, 20.0),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_polynomials_match_antiderivatives(coef, shift, width, cuts):
    # degree <= 40 in the Chebyshev basis of [a, b], so |p| <= sum |c|;
    # |a| <= width keeps the map onto [-1, 1] from amplifying the
    # rounding of t beyond what rel_tol can resolve
    a = shift * width
    b = a + width
    poly = np.polynomial.Chebyshev(coef, domain=[a, b])
    antider = poly.integ()
    want = antider(b) - antider(a)
    scale = sum(abs(c) for c in coef) * width
    got = adaptive_panels(poly, a, b, breakpoints=[a + u * width for u in cuts],
                          rel_tol=1e-13, abs_floor=scale)
    assert abs(got - want) <= 1e-12 * max(scale, 1e-300)


def scalar_sign_change_points(func, a, b, scan=1024, refine_iters=80):
    """Scan + bisection one bracket and one point at a time (reference)."""
    ts = np.linspace(a, b, scan + 1)
    vs = np.asarray(func(ts), dtype=float)
    roots = []
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


def _kink_manifolds():
    yield make_manifold("cosine", L=2.0 * math.pi, c=1.0, beta=0.3)
    ts = np.linspace(0.0, 2.0 * math.pi, 17)
    fs = 1.0 + 0.02 * np.cos(ts) + 0.02 * np.sin(2.0 * ts)
    fs[-1] = fs[0]
    yield make_manifold("tabulated", L=2.0 * math.pi, ts=ts, fs=fs,
                        boundary="periodic")
    ts = np.linspace(0.0, math.pi, 33)
    fs = np.sin(ts) * (1.0 + 0.2 * np.sin(ts) ** 2)
    fs[0] = fs[-1] = 0.0
    yield make_manifold("tabulated", L=math.pi, n=3, ts=ts, fs=fs,
                        boundary="pole-closed")


@pytest.mark.parametrize("m", list(_kink_manifolds()),
                         ids=["cosine", "periodic-spline", "pole-spline"])
def test_sign_change_points_match_scalar_bisection(m):
    # kbar's own 8,193-point scan; one chord step per bracket places the
    # kinks close enough to split panels (measured: 0, 1.5e-14 and
    # 1.4e-12 of L from the 80-step bisection)
    def deficit(t):
        return -ricci_min(m, t)

    want = scalar_sign_change_points(deficit, 0.0, m.L)
    ts = np.linspace(0.0, m.L, 8193)
    func, calls = counted(deficit)
    got = sign_change_points(func, ts, deficit(ts))
    assert len(want) >= 2
    assert len(got) == len(want)
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-11 * m.L
    # the scan comes with the call: every bracket's step in one call
    assert calls["calls"] == 1


def test_sign_change_points_keep_exact_zeros_in_order():
    # exact zeros on the scan nodes 0, 0.5 and 1, a crossing at 0.3
    def quartic(t):
        return t * (t - 0.5) * (t - 1.0) * (t - 0.3)

    ts = np.linspace(0.0, 1.0, 1025)
    func, calls = counted(quartic)
    got = sign_change_points(func, ts, quartic(ts))
    assert len(got) == 4
    assert got[0] == 0.0 and got[2] == 0.5 and got[3] == 1.0
    # a chord's root misses by about (f''/2f') e h for a bracket of
    # width h whose endpoint misses by e, so the step from the chord
    # root misses by about (f''/f')^2 h^3 / 16; twice that is allowed
    poly = np.polynomial.Polynomial.fromroots([0.0, 0.3, 0.5, 1.0])
    slope, bend = poly.deriv(1)(0.3), poly.deriv(2)(0.3)
    h = ts[1] - ts[0]
    assert abs(got[1] - 0.3) <= (bend / slope) ** 2 * h ** 3 / 8.0
    assert calls["calls"] == 1

