"""Tests for warped-product geometry: profiles, curvature, norms, diameter.

Covers:
- closed-form Ricci lower bounds for constant, cosine, and sphere profiles
- the exact mean |rho_0| = beta/pi identity of the cosine family
- integral curvature norms against an independent high-precision quadrature
- volume closed forms (torus area, 4*pi, 2*pi^2)
- diameter: exact bracket for flat tori, certified bracket for spheres,
  and the folded n = 2 graph search against the unfolded graph
- constructor validation and the p > n/2 exponent gate
"""

import math

import numpy as np
import pytest

from sgv import (
    diameter,
    geometry_report,
    kbar,
    make_manifold,
    rho_H_field,
    ricci_min,
    volume,
)
from sgv.errors import BadExponent, BadPoleClosure, NonPositiveWarp
from sgv.geometry import (DIAMETER_SLACK, _graph_diameter_once,
                          _segment_lengths)

TWO_PI = 2.0 * math.pi


def make_cosine(beta=0.05, c=1.0, L=TWO_PI, n=2):
    return make_manifold("cosine", L=L, c=c, beta=beta, n=n)


def make_flat(c=0.1, L=TWO_PI, n=2):
    return make_manifold("constant", L=L, c=c, n=n)


# ===================================================================
# construction and validation
# ===================================================================

def test_constant_profile_is_constant():
    m = make_flat(c=0.25)
    t = np.linspace(0.0, m.L, 64)
    assert np.all(m.profile.f(t) == 0.25)
    assert m.fiber_scale == pytest.approx(TWO_PI * 0.25)


def test_cosine_profile_values():
    m = make_cosine(beta=0.3, c=2.0)
    assert m.profile.f(np.array([0.0]))[0] == pytest.approx(2.0 * 1.3)
    assert m.profile.f(np.array([math.pi]))[0] == pytest.approx(2.0 * 0.7)


def test_fiber_keyword_matches_circumference():
    m = make_manifold("constant", L=1.0, fiber=0.1)
    assert m.fiber_scale == pytest.approx(0.1)


def test_conflicting_fiber_and_c_rejected():
    with pytest.raises(ValueError):
        make_manifold("constant", L=1.0, c=1.0, fiber=0.1)


def test_cosine_amplitude_one_rejected():
    with pytest.raises(NonPositiveWarp):
        make_cosine(beta=1.0)
    with pytest.raises(NonPositiveWarp):
        make_cosine(beta=-1.0)


def test_tabulated_requires_boundary():
    ts = np.linspace(0.0, 1.0, 65)
    fs = 1.0 + 0.1 * ts * (1.0 - ts)
    with pytest.raises(ValueError):
        make_manifold("tabulated", L=1.0, ts=ts, fs=fs)


def test_tabulated_pole_closure_checked():
    # pole-closed profile must vanish at the ends with |f'| = 1
    ts = np.linspace(0.0, math.pi, 129)
    fs = np.sin(ts) + 0.05
    with pytest.raises(BadPoleClosure):
        make_manifold("tabulated", L=math.pi, ts=ts, fs=fs,
                      boundary="pole-closed")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_manifold("moebius", L=1.0)


def test_describe_round_trip():
    d = make_cosine(beta=0.2, c=0.5).describe()
    assert d["kind"] == "cosine"
    assert d["beta"] == 0.2
    assert d["fiber"] == pytest.approx(math.pi)


# ===================================================================
# Ricci lower bound closed forms
# ===================================================================

def test_flat_torus_is_ricci_flat():
    m = make_flat()
    t = np.linspace(0.0, m.L, 257)
    assert np.all(ricci_min(m, t) == 0.0)


def test_cosine_surface_ricci_closed_form():
    # n = 2: the bound is the Gauss curvature -f''/f
    beta = 0.3
    m = make_cosine(beta=beta)
    t = np.linspace(0.0, TWO_PI, 513)
    want = beta * np.cos(t) / (1.0 + beta * np.cos(t))
    got = ricci_min(m, t)
    assert np.max(np.abs(got - want)) < 1e-12


def test_cosine_n3_takes_the_smaller_branch():
    beta, c, n = 0.2, 0.7, 3
    m = make_cosine(beta=beta, c=c, n=n)
    t = np.linspace(0.0, TWO_PI, 401)
    f = c * (1.0 + beta * np.cos(t))
    fpp = -c * beta * np.cos(t)
    fp = -c * beta * np.sin(t)
    radial = -(n - 1) * fpp / f
    fiber = -fpp / f + (n - 2) * (1.0 - fp * fp) / (f * f)
    got = ricci_min(m, t)
    assert np.max(np.abs(got - np.minimum(radial, fiber))) < 1e-10


def test_round_sphere_ricci_is_n_minus_one():
    for n in (2, 3, 4):
        m = make_manifold("sine-sphere", n=n, L=math.pi)
        t = np.linspace(0.0, math.pi, 257)
        got = ricci_min(m, t)
        assert np.max(np.abs(got - (n - 1.0))) < 1e-8, f"n={n}"


def test_sphere_pole_limit_finite():
    m = make_manifold("sine-sphere", n=3, L=math.pi)
    got = ricci_min(m, np.array([0.0, math.pi]))
    assert np.all(np.isfinite(got))
    assert got == pytest.approx([2.0, 2.0], abs=1e-8)


# ===================================================================
# curvature cut fields and integral norms
# ===================================================================

def test_rho_H_is_a_positive_part():
    m = make_cosine(beta=0.4)
    t = np.linspace(0.0, TWO_PI, 1001)
    _, rh = rho_H_field(m, 0.0, t)
    rho = ricci_min(m, t)
    assert np.all(rh >= 0.0)
    assert np.max(np.abs(rh - np.maximum(-rho, 0.0))) == 0.0


def test_rho_H_shifts_with_H():
    m = make_flat()
    t = np.linspace(0.0, m.L, 101)
    _, rh = rho_H_field(m, 1.0, t)
    # flat: rho = 0, so rho_H = (n-1) H = 1 everywhere
    assert np.all(rh == 1.0)


def test_kbar_flat_is_zero():
    assert kbar(make_flat(), 2.0, 0.0) == 0.0


def test_kbar_sphere_is_zero():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    assert kbar(m, 2.0, 0.0) == 0.0


def test_kbar_exponent_gate():
    m = make_cosine()
    with pytest.raises(BadExponent):
        kbar(m, 1.0, 0.0)
    with pytest.raises(BadExponent):
        kbar(make_manifold("sine-sphere", n=3, L=math.pi), 1.5, 0.0)


def test_kbar_cosine_frozen_values():
    # frozen against this implementation; re-derived independently below
    want = {
        0.05: 0.02554903738285498,
        0.3: 0.17412387179430328,
        0.9: 1.085502084829054,
    }
    for beta, val in want.items():
        m = make_cosine(beta=beta)
        assert kbar(m, 2.0, 0.0) == pytest.approx(val, rel=1e-13)


def test_kbar_against_direct_quadrature():
    # independent evaluation of (avg rho_0^2)^{1/2} with numpy only:
    # the volume weight is f dt, rho_0 = max(-beta cos/(1+beta cos), 0)
    beta = 0.3
    m = make_cosine(beta=beta)
    t = np.linspace(0.0, TWO_PI, 2_000_001)
    f = 1.0 + beta * np.cos(t)
    rho0 = np.maximum(-beta * np.cos(t) / f, 0.0)
    num = np.trapezoid(rho0 ** 2 * f, t)
    den = np.trapezoid(f, t)
    assert kbar(m, 2.0, 0.0) == pytest.approx(math.sqrt(num / den),
                                              rel=1e-10)


def test_mean_curvature_cut_is_beta_over_pi():
    # the f weight cancels against the 1/(1+beta cos) denominator, so
    # the volume average of rho_0 is exactly beta/pi for every beta
    for beta in (0.05, 0.3, 0.9):
        m = make_cosine(beta=beta)
        t = np.linspace(0.0, TWO_PI, 1_000_001)
        f = m.profile.f(t)
        _, rh = rho_H_field(m, 0.0, t)
        got = np.trapezoid(rh * f, t) / np.trapezoid(f, t)
        assert got == pytest.approx(beta / math.pi, rel=1e-9), beta


def test_kbar_monotone_in_H():
    m = make_cosine(beta=0.2)
    ks = [kbar(m, 2.0, H) for H in (-0.5, 0.0, 0.3, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(ks, ks[1:]))


# ===================================================================
# volume
# ===================================================================

def test_volume_closed_forms():
    assert volume(make_flat(c=0.1, L=1.0)) == pytest.approx(
        1.0 * TWO_PI * 0.1, rel=1e-13)
    # the cosine term integrates to zero over a full period
    assert volume(make_cosine(beta=0.3)) == pytest.approx(
        TWO_PI * TWO_PI, rel=1e-12)
    assert volume(make_manifold("sine-sphere", n=2, L=math.pi)) == \
        pytest.approx(4.0 * math.pi, rel=1e-12)
    assert volume(make_manifold("sine-sphere", n=3, L=math.pi)) == \
        pytest.approx(2.0 * math.pi ** 2, rel=1e-12)


# ===================================================================
# diameter
# ===================================================================

def test_flat_diameter_closed_form():
    m = make_flat(c=0.1, L=1.0)
    br = diameter(m)
    want = math.hypot(0.5, math.pi * 0.1)
    assert br.lo == br.hi == want
    assert br.converged


def test_sphere_diameter_bracket():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    br = diameter(m)
    assert br.lo <= math.pi <= br.hi * (1.0 + 1e-12)
    assert br.hi <= math.pi * (1.0 + 2.0e-3)
    assert br.hi / br.lo == pytest.approx(1.0 + DIAMETER_SLACK, rel=1e-12)
    assert br.converged


def test_cosine_diameter_contains_half_length():
    # any two fiber circles are joined by a meridian arc, and the far
    # side of the fiber adds at most pi * max f
    m = make_cosine(beta=0.5, c=0.3)
    br = diameter(m)
    assert br.hi >= math.pi  # half the meridian length
    assert br.hi <= math.pi + math.pi * 0.45 + 0.1
    assert br.converged


def test_unconverged_bracket_is_flagged_not_raised():
    m = make_cosine(beta=0.5, c=1.0)
    br = diameter(m, max_grid=96)
    assert isinstance(br.converged, bool)
    assert br.hi >= br.lo > 0.0


def _unfolded_graph_diameter(m, mt):
    """Reference n = 2 graph search on the whole circle of columns.

    The 16-neighbour graph of `_graph_diameter_once` as it was before
    the fold: every column j = 0 .. mth - 1, nothing merged.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    assert m.n == 2
    periodic = m.boundary == "periodic"
    L = m.L
    if periodic:
        t_rows = np.arange(mt) * (L / mt)
    else:
        t_rows = np.arange(1, mt) * (L / mt)
    row_count = t_rows.size
    f_mean = float(np.mean(m.profile.f(np.linspace(0, L, 513))))
    mth = max(8, int(round(TWO_PI * f_mean / (L / mt))))
    h_t = L / mt
    h_th = TWO_PI / mth
    n_nodes = row_count * mth + (0 if periodic else 2)
    pole0, pole1 = n_nodes - 2, n_nodes - 1
    I, J = (g.ravel() for g in np.meshgrid(np.arange(row_count),
                                            np.arange(mth), indexing="ij"))
    rows, cols, wts = [], [], []
    for di, dj in [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2),
                   (2, 1), (2, -1)]:
        I2 = I + di
        valid = np.ones_like(I2, dtype=bool) if periodic else I2 < row_count
        a, ja = I[valid], J[valid]
        b = I2[valid] % row_count
        jb = (J[valid] + dj) % mth
        rows.append(a * mth + ja)
        cols.append(b * mth + jb)
        wts.append(_segment_lengths(m, t_rows[a], t_rows[a] + di * h_t,
                                    dj * h_th))
    if not periodic:
        for depth in (1, 2):
            near = (depth - 1) * mth + np.arange(mth)
            far = (row_count - depth) * mth + np.arange(mth)
            rows += [np.full(mth, pole0), np.full(mth, pole1)]
            cols += [near, far]
            wts += [np.full(mth, t_rows[depth - 1]),
                    np.full(mth, L - t_rows[row_count - depth])]
    graph = coo_matrix((np.concatenate(wts),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n_nodes, n_nodes)).tocsr()
    sources = list(np.arange(row_count) * mth)
    if not periodic:
        sources += [pole0, pole1]
    return float(dijkstra(graph, directed=False, indices=sources).max())


def _periodic_spline():
    ts = np.linspace(0.0, TWO_PI, 17)
    fs = 1.0 + 0.1 * np.cos(ts) + 0.07 * np.sin(2.0 * ts)
    return make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                         boundary="periodic")


@pytest.mark.parametrize("build", [
    lambda: make_cosine(beta=1e-3, c=0.2),   # mth 10 (even), then 19 (odd)
    lambda: make_cosine(beta=0.5, c=1.0),
    lambda: make_manifold("sine-sphere", n=2, L=2.7),
    _periodic_spline,
], ids=["cosine-c0.2", "cosine-c1-b0.5", "sphere-L2.7", "periodic-spline"])
@pytest.mark.parametrize("mt", [48, 96])
def test_folded_graph_diameter_equals_unfolded(build, mt):
    # the fold across theta -> -theta is exact, so the floats are equal
    m = build()
    assert _graph_diameter_once(m, mt) == _unfolded_graph_diameter(m, mt)


# ===================================================================
# report assembly
# ===================================================================

def test_geometry_report_fields():
    m = make_cosine(beta=0.3)
    rep = geometry_report(m, 2.0, 0.0, samples=256)
    assert rep.t.size == 256  # periodic grid drops the duplicate end
    assert rep.rho.shape == rep.rho_H.shape == rep.t.shape
    assert rep.kbar == pytest.approx(0.17412387179430328, rel=1e-13)
    assert rep.volume == pytest.approx(TWO_PI ** 2, rel=1e-12)
    assert rep.diameter_lo <= rep.diameter_hi
    assert rep.manifold["kind"] == "cosine"
