"""Tests for warped-product geometry: profiles, curvature, norms, diameter.

Covers:
- closed-form Ricci lower bounds for constant, cosine, and sphere profiles
- the exact mean |rho_0| = beta/pi identity of the cosine family
- integral curvature norms against an independent high-precision quadrature
- volume closed forms (torus area, 4*pi, 2*pi^2)
- diameter: the exact bracket of every constant warp (flat tori, a
  beta = 0 cosine torus, a constant spline), D = L on pole-closed
  profiles, brackets holding the exact diameter of near-flat cosine
  tori, the closed-form hi on exactly the 13 periodic catalog rows
  where the straight curve fits under lo + h (the sweep's hi never
  below it there, and above the sweep's elsewhere), sweep bounds
  above the flat lower bound on near-flat tori and the periodic
  catalog splines, the half-source route read off the samples of f (on
  25 of the 27 periodic catalog rows, two of them about row 16), a
  mirror axis on any row of random splines and none halfway between
  rows, the mirrored route of cosine tori and of the mirror-symmetric
  spline against the all-sources route bit for bit, the join stopped
  at its maximum and its coarse bound against the full join kept here
  as an oracle, the half sweep joined by one min-plus product against
  the 16-step sweep over [0, pi] kept here as the oracle (in long
  double, and its step lengths bit for bit), and a count of the
  meridian transforms one diameter runs
- the in-house spline against scipy's CubicSpline: f..f''' and the
  roots of f' on both closures, and no roots on constant pieces
- the profile's jet: its f is `f` bit for bit on every kind, its
  closed-form derivatives are the expressions written out,
  `ricci_min` searches a spline's pieces once, and `kbar`'s integrand
  reads its weight f from the jet its curvature reads
- `kbar`'s kinks from one chord step against 80-step bisection: the
  same kbar to 1 ulp on all 32 catalog rows
- the n = 2 Ricci field against -f''/f, and the exact range of f
- metamorphic checks: scaling a cosine torus, shifting a periodic spline,
  reflecting a spline profile t -> L - t
- constructor validation (exact positivity of f, non-finite warps, an
  integer dimension, also against inf, nan, strings and bools, a field
  the kind does not read, a closure not the kind's, tabulated nodes
  that do not span [0, L], the spline's four data rules, the open
  poles of a pole-closed spline), the same errors from `Manifold`
  built directly as from `make_manifold`, steep cosine tori that close
  by construction, and the p > n/2 exponent gate
"""

import importlib.util
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import sgv.geometry
from sgv import (
    Manifold,
    diameter,
    kbar,
    lambda1,
    make_manifold,
    rho_H_field,
    ricci_min,
    volume,
)
from sgv.errors import BadExponent, BadPoleClosure, NonPositiveWarp
from sgv.geometry import (SWEEP_ROWS, SWEEP_STEPS, _antipodal_max,
                          _coarse_join, _CubicSpline, _meridian_relax,
                          _step_lengths)

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
    assert np.all(m.f(t) == 0.25)
    assert m.describe()["fiber"] == pytest.approx(TWO_PI * 0.25)


def test_cosine_profile_values():
    m = make_cosine(beta=0.3, c=2.0)
    assert m.f(np.array([0.0]))[0] == pytest.approx(2.0 * 1.3)
    assert m.f(np.array([math.pi]))[0] == pytest.approx(2.0 * 0.7)


def test_fiber_keyword_matches_circumference():
    m = make_manifold("constant", L=1.0, fiber=0.1)
    assert m.describe()["fiber"] == pytest.approx(0.1)


def test_conflicting_fiber_and_c_rejected():
    with pytest.raises(ValueError):
        make_manifold("constant", L=1.0, c=1.0, fiber=0.1)


def test_flat_torus_rejects_beta():
    with pytest.raises(ValueError, match="takes no beta"):
        make_manifold("constant", L=1.0, c=0.1, beta=0.3)
    flat = make_manifold("constant", L=1.0, c=0.1, beta=0.0)
    assert flat.beta == 0.0


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


def test_non_finite_warp_rejected():
    with pytest.raises(NonPositiveWarp):
        make_manifold("constant", L=1.0, c=math.inf)


def test_spline_dip_between_old_samples_rejected():
    # knot 4097 of 8193 lies between any two of 4097 equispaced samples
    ts = np.linspace(0.0, 1.0, 8193)
    fs = np.ones(8193)
    fs[4097] = -0.5
    with pytest.raises(NonPositiveWarp):
        make_manifold("tabulated", L=1.0, ts=ts, fs=fs, boundary="periodic")


def test_pole_closed_spline_dip_rejected():
    ts = np.linspace(0.0, math.pi, 8193)
    fs = np.sin(ts)
    fs[4097] = -0.5
    with pytest.raises(NonPositiveWarp):
        make_manifold("tabulated", L=math.pi, ts=ts, fs=fs,
                      boundary="pole-closed")


def test_manifold_keeps_read_only_copies_of_its_data():
    # a caller that changes its arrays afterwards changes no checked
    # manifold, and the manifold's own arrays cannot be written
    ts, fs = np.linspace(0.0, TWO_PI, 17), np.ones(17)
    m = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                      boundary="periodic")
    t4 = ts[4]
    ts[4] += 0.1
    fs[4] = 5.0
    assert m.ts[4] == t4 and m.fs[4] == 1.0
    assert m.f(t4) == 1.0
    for data in (m.ts, m.fs):
        with pytest.raises(ValueError, match="read-only"):
            data[4] = 5.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_manifold("moebius", L=1.0)


_POLE_TS = np.linspace(0.0, math.pi, 129)
_TORUS_TS = np.linspace(0.0, TWO_PI, 17)
_TORUS_FS = 1.0 + 0.3 * np.cos(_TORUS_TS)
# make_manifold's arguments, the fields of the same manifold built
# directly, and the start of the message: each is invalid in one field
INVALID = {
    "unknown-kind": (dict(kind="moebius", L=1.0),
                     dict(boundary="pole-closed"), "unknown manifold kind"),
    "zero-length": (dict(kind="sine-sphere", L=0.0),
                    dict(boundary="pole-closed"), "base length L"),
    "dimension-one": (dict(kind="sine-sphere", L=3.0, n=1),
                      dict(boundary="pole-closed"), "dimension n = 1"),
    "dimension-2.5": (dict(kind="sine-sphere", L=3.0, n=2.5),
                      dict(boundary="pole-closed"), "dimension n = 2.5"),
    "negative-warp": (dict(kind="constant", L=1.0, c=-0.1),
                      dict(boundary="periodic"), "warp function reaches"),
    "infinite-warp": (dict(kind="constant", L=1.0, c=math.inf),
                      dict(boundary="periodic"), "warp function is not"),
    "open-poles": (dict(kind="tabulated", L=math.pi, ts=_POLE_TS,
                        fs=np.sin(_POLE_TS) + 0.05,
                        boundary="pole-closed"), {}, "pole values"),
    # each kind takes only the fields it reads, on its own closure
    "sphere-with-c-and-beta": (dict(kind="sine-sphere", L=3.0, c=1.0,
                                    beta=0.5),
                               dict(boundary="pole-closed"),
                               "sine-sphere profile takes no c"),
    "pole-closed-cosine": (dict(kind="cosine", L=TWO_PI, c=1.0, beta=0.1,
                                boundary="pole-closed"), {},
                           "cosine profile is periodic, not pole-closed"),
    "cosine-with-samples": (dict(kind="cosine", L=TWO_PI, c=1.0,
                                 beta=0.1, ts=_TORUS_TS, fs=_TORUS_FS),
                            dict(boundary="periodic"),
                            "cosine profile takes no ts"),
    "tabulated-with-c": (dict(kind="tabulated", L=TWO_PI, c=1.0,
                              ts=_TORUS_TS, fs=_TORUS_FS,
                              boundary="periodic"), {},
                         "tabulated profile takes no c"),
    "constant-with-beta": (dict(kind="constant", L=1.0, c=0.1, beta=0.5),
                           dict(boundary="periodic"),
                           "constant profile takes no beta"),
    "nodes-short-of-L": (dict(kind="tabulated", L=2.0 * TWO_PI,
                              ts=_TORUS_TS, fs=_TORUS_FS,
                              boundary="periodic"), {},
                         "tabulated nodes must span [0, L]"),
    # the spline's own data rules
    "values-short-of-nodes": (dict(kind="tabulated", L=TWO_PI,
                                   ts=_TORUS_TS, fs=_TORUS_FS[:-1],
                                   boundary="periodic"), {},
                              "tabulated nodes and values must be 1-D"),
    "nan-value": (dict(kind="tabulated", L=TWO_PI, ts=_TORUS_TS,
                       fs=np.r_[_TORUS_FS[:3], math.nan, _TORUS_FS[4:]],
                       boundary="periodic"), {},
                  "tabulated nodes and values must be finite"),
    "repeated-node": (dict(kind="tabulated", L=TWO_PI,
                           ts=np.r_[_TORUS_TS[:3], _TORUS_TS[2],
                                    _TORUS_TS[4:]],
                           fs=_TORUS_FS, boundary="periodic"), {},
                      "tabulated nodes must be strictly increasing"),
    "periodic-ends-apart": (dict(kind="tabulated", L=TWO_PI, ts=_TORUS_TS,
                                 fs=np.r_[_TORUS_FS[:-1], 1.4],
                                 boundary="periodic"), {},
                            "periodic tabulated values must end where"),
}


@pytest.mark.parametrize("case", INVALID)
def test_manifold_validates_on_construction(case):
    kwargs, fields, message = INVALID[case]
    fields = {"n": 2, **kwargs, **fields}
    errors = []
    for build in (lambda: make_manifold(**kwargs),
                  lambda: Manifold(**fields)):
        with pytest.raises((ValueError, NonPositiveWarp,
                            BadPoleClosure)) as info:
            build()
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(message)


@pytest.mark.parametrize("L, c", [(TWO_PI, 1e6), (1e-6, 1.0)])
def test_steep_cosine_torus_constructs(L, c):
    # max |f'| = c beta 2 pi / L is 1.6e6 and 3.1e6 here, and the
    # rounding of sin(2 pi) in f'(L) scales with it: the closure holds
    # by construction and is not re-derived from the jet
    m = make_manifold("cosine", L=L, c=c, beta=0.5)
    assert m.f_range() == (c * 0.5, c * 1.5)


def test_non_integer_dimension_rejected():
    # each with its own message and n shown by repr, not int()'s error
    for n, shown in ((math.inf, "inf"), (math.nan, "nan"), ("3", "'3'"),
                     (True, "True"), (2.5, "2.5")):
        for build in (lambda: make_manifold("sine-sphere", L=3.0, n=n),
                      lambda: Manifold(kind="sine-sphere", L=3.0,
                                       boundary="pole-closed", n=n)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == \
                f"dimension n = {shown} must be an integer >= 2"


def test_integral_float_dimension_is_stored_as_int():
    n = make_manifold("sine-sphere", L=3.0, n=3.0).n
    assert n == 3 and type(n) is int


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
    rh = rho_H_field(m, 0.0, t)
    rho = ricci_min(m, t)
    assert np.all(rh >= 0.0)
    assert np.max(np.abs(rh - np.maximum(-rho, 0.0))) == 0.0


def test_rho_H_shifts_with_H():
    m = make_flat()
    t = np.linspace(0.0, m.L, 101)
    rh = rho_H_field(m, 1.0, t)
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


def test_kbar_scans_its_deficit_once(monkeypatch):
    # the kink search reads every 8th node of the 8,193-point scan
    # instead of evaluating the 1,025-point grid again
    sizes = []

    def recording(m, t):
        sizes.append(np.size(t))
        return ricci_min(m, t)

    monkeypatch.setattr(sgv.geometry, "ricci_min", recording)
    kbar(make_cosine(beta=0.3), 2.0, 0.0)
    assert sizes.count(8193) == 1
    assert 1025 not in sizes


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
        f = m.f(t)
        rh = rho_H_field(m, 0.0, t)
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


@pytest.mark.parametrize("build", [
    lambda: make_cosine(beta=0.0, c=1.0),
    lambda: make_cosine(beta=0.0, c=0.3, n=3),
    lambda: make_manifold("tabulated", L=TWO_PI, ts=_TORUS_TS,
                          fs=np.full(17, 1.0), boundary="periodic"),
], ids=["cosine-beta-0", "cosine-beta-0-n3", "constant-spline"])
def test_constant_warp_diameter_is_closed_form(build):
    # min f = max f: the closed form of the flat torus, whatever the kind
    # (the sweep gave hi = 4.4920 against D = 4.4429 on a beta = 0 cosine)
    m = build()
    br = diameter(m)
    want = math.hypot(m.L / 2.0, math.pi * m.f_range()[0])
    assert br.lo == br.hi == want
    assert br.grid == 0


def test_sphere_diameter_bracket():
    m = make_manifold("sine-sphere", n=2, L=math.pi)
    br = diameter(m)
    assert br.lo <= math.pi <= br.hi * (1.0 + 1e-12)
    assert br.hi <= math.pi * (1.0 + 2.0e-3)
    assert br.lo == br.hi == math.pi
    assert br.converged


def test_cosine_diameter_contains_half_length():
    # any two fiber circles are joined by a meridian arc, and the far
    # side of the fiber adds at most pi * max f
    m = make_cosine(beta=0.5, c=0.3)
    br = diameter(m)
    assert br.hi >= math.pi  # half the meridian length
    assert br.hi <= math.pi + math.pi * 0.45 + 0.1
    assert br.converged


def _sphere_spline(knots, eps, L=math.pi, n=3):
    """The sphere of diameter L, deformed: f = r sin(t/r) (1 + eps sin^2)."""
    r = L / math.pi
    ts = np.linspace(0.0, L, knots)
    fs = r * np.sin(ts / r) * (1.0 + eps * np.sin(ts / r) ** 2)
    fs[0] = fs[-1] = 0.0
    return make_manifold("tabulated", L=L, n=n, ts=ts, fs=fs,
                         boundary="pole-closed")


@pytest.mark.parametrize("build", [
    lambda: make_manifold("sine-sphere", n=2, L=2.7),
    lambda: make_manifold("sine-sphere", n=2, L=5.3),
    lambda: make_manifold("sine-sphere", n=3, L=math.pi),
    lambda: make_manifold("sine-sphere", n=3, L=4.1),
    lambda: _sphere_spline(33, 0.2),
    lambda: _sphere_spline(65, 0.3),
    lambda: _sphere_spline(129, 0.2, L=2.5),
])
def test_pole_closed_diameter_is_base_length(build):
    # every point is within t of one pole and L - t of the other, and
    # the poles are L apart, whatever f is
    m = build()
    br = diameter(m)
    assert br.lo == br.hi == m.L
    assert br.converged


NEAR_FLAT_C = [0.05, 0.2, 1.0, 3.0]


@pytest.mark.parametrize("c", NEAR_FLAT_C)
def test_near_flat_cosine_bracket_holds_exact_diameter(c):
    # at beta -> 0 the torus is flat and D = hypot(L/2, pi c); the graph
    # search sat 0.03-0.23 above it, and 2e-15 below it at c = 1; the
    # straight curve gives hi to 1e-7, with no sweep
    m = make_cosine(beta=1e-9, c=c)
    br = diameter(m)
    exact = math.hypot(math.pi, math.pi * c)
    assert br.lo <= exact <= br.hi <= 1.02 * exact
    assert br.grid == 0
    assert (br.hi - br.lo) <= 1e-7 * br.hi


def _catalog_manifolds(periodic_only=False):
    """The manifolds of the benchmark's catalog, perfbench/workloads.py's
    `reference_rows`: 22 cosine tori, 5 pole-closed and 5 periodic
    splines; the 27 periodic ones when periodic_only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        pathlib.Path(__file__).resolve().parent.parent / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    manifolds = [make_manifold(row["kind"], **{
        k: v for k, v in row.items() if k not in ("id", "kind")})
        for row in workloads.reference_rows()]
    return [m for m in manifolds
            if m.boundary == "periodic" or not periodic_only]


def test_closed_form_hi_exactly_where_the_sweep_cannot_beat_it():
    # the sweep's hi is max U + h with max U >= lo, so where the straight
    # curve fits under lo + h it is the bracket's hi, and elsewhere it
    # lies above the sweep's
    closed = 0
    for m in _catalog_manifolds(periodic_only=True):
        br = diameter(m)
        straight = math.hypot(m.L / 2.0, math.pi * m.f_range()[1])
        sweep_hi = float(_oracle_bounds(m).max()) + m.L / SWEEP_ROWS
        if straight <= br.lo + m.L / SWEEP_ROWS:
            closed += 1
            assert (br.grid, br.hi) == (0, straight), m.describe()
            assert sweep_hi >= straight, m.describe()
        else:
            assert (br.grid, br.hi) == (SWEEP_ROWS, sweep_hi), m.describe()
            assert straight > br.hi, m.describe()
    assert closed == 13


def _periodic_catalog_splines():
    return [m for m in _catalog_manifolds(periodic_only=True)
            if m.kind == "tabulated"]


# Two oracles.  The sweep this package ran before the meet-in-the-middle
# join: SWEEP_STEPS steps over [0, pi], step lengths summed with
# np.roll, and the meridian transform as a running minimum over two
# copies of the rows.  And the join it ran before it stopped at the
# maximum: every antipodal bound U[j, s], each the minimum of all N
# sums.

def _sweep_inputs(m):
    """The samples f that `_antipodal_max(m)` hands `_step_lengths`, the
    number of sources it sweeps, and the half sweep Q, filled to every
    source, that it joins."""
    seen = {}
    step_lengths, sweep = sgv.geometry._step_lengths, sgv.geometry._sweep
    join_max = sgv.geometry._join_max

    def spy_steps(m, f, h, dtheta):
        seen["f"] = f
        return step_lengths(m, f, h, dtheta)

    def spy_sweep(W, h, sources):
        seen["sources"] = sources
        return sweep(W, h, sources)

    def spy_join(Q, sources):
        seen["Q"] = Q
        return join_max(Q, sources)

    with mock.patch.object(sgv.geometry, "_step_lengths", spy_steps), \
            mock.patch.object(sgv.geometry, "_sweep", spy_sweep), \
            mock.patch.object(sgv.geometry, "_join_max", spy_join):
        _antipodal_max(m)
    return seen["f"], seen["sources"], seen["Q"]


def _full_join(Q, sources):
    """U[j, s] = min over every k of Q[j, k] + Q[k, s], s < sources."""
    U = Q[:, :1] + Q[:1, :sources]
    pair = np.empty_like(U)
    for k in range(1, Q.shape[0]):
        np.add(Q[:, k:k + 1], Q[k:k + 1, :sources], out=pair)
        np.minimum(U, pair, out=U)
    return U


def _oracle_bounds(m):
    """Every antipodal bound U[j, s] of the lattice `_antipodal_max(m)`
    sweeps, from the Q it joins; the columns s > N/2 of a half sweep
    filled by U[j, s] = U[(N - j) % N, N - s]."""
    _, sources, Q = _sweep_inputs(m)
    U = _full_join(Q, sources)
    if sources == SWEEP_ROWS:
        return U
    i = np.arange(SWEEP_ROWS)
    return np.concatenate([U, U[-i][:, SWEEP_ROWS // 2 - 1:0:-1]], axis=1)


def _all_sources_max(m):
    """max U from every source over the unmirrored samples of f, at
    their own rows: the route of a warp with no mirror axis."""
    h = m.L / SWEEP_ROWS
    W = _step_lengths(m, m.f(h * np.arange(SWEEP_ROWS + 1)), h,
                      math.pi / SWEEP_STEPS)
    return float(_full_join(sgv.geometry._sweep(W, h, SWEEP_ROWS),
                            SWEEP_ROWS).max())


def _roll_step_lengths(m, f, h, dtheta):
    N, B = SWEEP_ROWS, sgv.geometry.SWEEP_BAND
    if m.kind == "cosine":
        d2f_max = abs(m.c * m.beta) * (2.0 * np.pi / m.L) ** 2
    else:
        d2f_max = float(np.max(np.abs(m.jet(m.ts)[2])))
    cell = np.maximum(f[:-1], f[1:]) + d2f_max * h * h / 8.0
    W = np.empty((2 * B + 1, N))
    W[B] = f[:-1] * dtheta
    for d in range(1, B + 1):
        s = np.sqrt((d * h) ** 2 + (cell * dtheta) ** 2)
        total = sum(np.roll(s, -q) + np.roll(s, q + 1 - d)
                    for q in range(d // 2))
        if d % 2:
            total = total + np.roll(s, -(d // 2))
        mean = total / d
        W[B + d] = mean
        W[B - d] = np.roll(mean, d)
    return W


def _two_copy_meridian_relax(V, h):
    N = V.shape[0]
    pos = h * np.arange(-N, N)[:, None]

    def forward(X):
        return np.minimum.accumulate(np.concatenate([X, X]) - pos)[N:] \
            + pos[N:]

    i = np.arange(N)
    return np.minimum(forward(V), forward(V[-i])[-i])


def _full_sweep(W, h):
    """U[j, s] >= d((t_s, 0), (t_j, pi)) from every source, in the dtype
    of W and h."""
    N, B = SWEEP_ROWS, sgv.geometry.SWEEP_BAND
    W = W[:, :, None]
    i = np.arange(N)
    gap = np.abs(i[:, None] - i[None, :])
    V = h * np.minimum(gap, N - gap)
    for _ in range(SWEEP_STEPS):
        ext = np.concatenate([V[N - B:], V, V[:B]])
        step = ext[:N] + W[0]
        for k in range(1, 2 * B + 1):
            np.minimum(step, ext[k:k + N] + W[k], out=step)
        V = _two_copy_meridian_relax(step, h)
    return V


@pytest.mark.parametrize("case", [
    *NEAR_FLAT_C,
    *[pytest.param(k, id=f"periodic-spline-{k}") for k in range(5)],
])
def test_antipodal_bounds_dominate_distances(case):
    # a curve from (t_s, 0) to (t_j, pi) has t-variation at least the
    # circular dt and integral of f |dtheta| at least pi min f; the
    # near-flat cosine tori (c = case) and the periodic catalog splines
    if isinstance(case, float):
        m = make_cosine(beta=1e-9, c=case)
    else:
        m = _periodic_catalog_splines()[case]
    U = _oracle_bounds(m)
    i = np.arange(SWEEP_ROWS)
    gap = np.abs(i[:, None] - i[None, :])
    dt = m.L / SWEEP_ROWS * np.minimum(gap, SWEEP_ROWS - gap)
    assert np.all(U >= np.hypot(dt, math.pi * m.f_range()[0]) - 1e-12)
    assert _antipodal_max(m) == U.max()


# every (c, beta) of the benchmark's cosine catalog but the dumbbell
WAVY_ROWS = [(c, beta) for c in (0.2, 0.5, 1.0, 1.5)
             for beta in (1e-8, 1e-5, 1e-3, 0.03, 0.1, 0.3)
             if (c, beta) not in ((1.0, 1e-8), (1.0, 1e-5), (1.5, 0.1))]


@pytest.mark.parametrize("c,beta", WAVY_ROWS)
def test_mirrored_sweep_is_the_full_sweep(c, beta):
    # step lengths and the meridian transform are mirror-exact and the
    # join adds the same pairs, so the half sweep and its reflection
    # are the all-sources route over the same step lengths bit for bit
    m = make_cosine(beta, c=c)
    h = m.L / SWEEP_ROWS
    f, sources, Q = _sweep_inputs(m)
    assert sources == SWEEP_ROWS // 2 + 1
    W = _step_lengths(m, f, h, math.pi / SWEEP_STEPS)
    full = sgv.geometry._sweep(W, h, SWEEP_ROWS)
    assert np.array_equal(Q, full)
    U = _oracle_bounds(m)
    assert np.array_equal(U, _full_join(full, SWEEP_ROWS))
    i = np.arange(SWEEP_ROWS)
    assert np.array_equal(U, U[-i][:, -i])
    assert _antipodal_max(m) == U.max()


def test_mirrored_sweep_matches_unsymmetrized_sweep():
    # sampled at every row, f(t_i) and f(t_{N-i}) differ by rounding;
    # the full sweep over those samples moves max U by rounding only,
    # also on the rows where `diameter` takes the closed form
    for c, beta in WAVY_ROWS:
        m = make_cosine(beta, c=c)
        hi, full = _antipodal_max(m), _all_sources_max(m)
        assert abs(hi - full) <= 4 * np.spacing(full), (c, beta)


def test_sweep_route_agrees_with_the_mirror_split():
    # the sweep reads a mirror axis off its samples of f: every cosine
    # torus and the spline with a = 0.05, b = 0 are mirror images of
    # themselves about row 0, the two splines with a = 0, b = 0.05
    # (sin 2t) about row 16 (t = pi/4), and all of them take the half
    # route; the two with a cos t and a sin 2t term have no mirror axis
    # and keep every source
    # (the catalog lists its 22 cosine tori first, then the splines
    # (knots, a, b) = (17, .02, .02), (65, .02, .02), (33, .05, 0),
    # (17, 0, .05), (33, 0, .05))
    routes = [_sweep_inputs(m)[1] == SWEEP_ROWS // 2 + 1
              for m in _catalog_manifolds(periodic_only=True)]
    assert routes == [True] * 22 + [False, False, True, True, True]


def test_mirror_symmetric_spline_sweeps_half_the_sources():
    # its samples mirror to 1.1e-16 relative, and the half route gives
    # the all-sources hi bit for bit
    m = _periodic_catalog_splines()[2]
    assert m.ts.size == 33 and m.f_range()[1] == pytest.approx(1.05)
    f, sources, _ = _sweep_inputs(m)
    assert sources == SWEEP_ROWS // 2 + 1
    assert np.array_equal(f, f[::-1])
    assert diameter(m).hi == _all_sources_max(m) + m.L / SWEEP_ROWS


def test_stopped_join_is_the_full_join_on_the_catalog():
    # the join stops at its maximum: max U exactly, and the swept rows'
    # hi is max U + h bit for bit
    swept = 0
    for m in _catalog_manifolds(periodic_only=True):
        top = float(_oracle_bounds(m).max())
        assert _antipodal_max(m) == top, m.describe()
        br = diameter(m)
        if br.grid:
            swept += 1
            assert br.hi == top + m.L / SWEEP_ROWS, m.describe()
    assert swept == 14


def test_coarse_join_bounds_the_full_join():
    # every 8th crossing row: a minimum over fewer of the same sums
    for m in _catalog_manifolds(periodic_only=True):
        _, sources, Q = _sweep_inputs(m)
        assert np.all(_coarse_join(Q, sources) >= _full_join(Q, sources)), \
            m.describe()


def _symmetric_spline(knots, axis, a, b, half=False):
    """The periodic spline on L = 2 pi through values of
    1 + a cos x + b cos 2x, x the circular distance of each knot from a
    mirror axis: knot `axis`, or halfway from it to the next knot when
    half.  Its data are their own mirror image exactly."""
    K = knots - 1
    i = np.arange(K)
    gap = (2 * (i - axis) - half) % (2 * K)  # in half knot spacings
    x = np.minimum(gap, 2 * K - gap) * (math.pi / K)
    fs = 1.0 + a * np.cos(x) + b * np.cos(2.0 * x)
    return make_manifold("tabulated", L=TWO_PI, ts=np.linspace(
        0.0, TWO_PI, knots), fs=np.append(fs, fs[0]), boundary="periodic")


@settings(max_examples=6, deadline=None)
@given(knots=st.sampled_from([17, 33, 65]), axis=st.integers(1, 7),
       a=st.one_of(st.floats(-0.2, -0.02), st.floats(0.02, 0.2)),
       b=st.floats(-0.2, 0.2))
def test_rotated_mirror_axis_sweeps_half_the_sources(knots, axis, a, b):
    # a knot axis lies on row axis N / (knots - 1), strictly between
    # rows 0 and N/2; rotated to row 0, the warp takes the half route,
    # and hi moves from the all-sources route's by rounding only
    m = _symmetric_spline(knots, axis, a, b)
    assert _sweep_inputs(m)[1] == SWEEP_ROWS // 2 + 1
    full = _all_sources_max(m)
    assert abs(_antipodal_max(m) - full) <= 4 * np.spacing(full)


@settings(max_examples=3, deadline=None)
@given(axis=st.integers(0, 127), a=st.floats(0.02, 0.2),
       b=st.floats(-0.2, 0.2))
def test_half_row_mirror_axis_keeps_every_source(axis, a, b):
    # on 129 knots, one per row, an axis halfway between two knots
    # reflects no row onto itself
    m = _symmetric_spline(129, axis, a, b, half=True)
    assert _sweep_inputs(m)[1] == SWEEP_ROWS
    assert _antipodal_max(m) == _all_sources_max(m)


def test_step_lengths_match_the_roll_form():
    # one gather per offset and a reduction over the pairs in order add
    # what the np.roll sum adds, in the same order
    for m in _catalog_manifolds(periodic_only=True):
        h = m.L / SWEEP_ROWS
        f = _sweep_inputs(m)[0]
        assert np.array_equal(_step_lengths(m, f, h, math.pi / SWEEP_STEPS),
                              _roll_step_lengths(m, f, h,
                                                 math.pi / SWEEP_STEPS))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_sweep_hi_matches_extended_precision():
    # the full sweep over [0, pi] in long double: its max sits within 4
    # ulps of the max of the double half sweep joined by the min-plus
    # product (at most 3 on every periodic catalog row; with the
    # meridian transform's positions in [0, L) instead of centred, 5 at
    # (0.5, 1e-3))
    manifolds = _catalog_manifolds(periodic_only=True)
    assert len(manifolds) == 27
    for m in manifolds:
        h = m.L / SWEEP_ROWS
        W = _roll_step_lengths(m, _sweep_inputs(m)[0], h,
                               math.pi / SWEEP_STEPS)
        hi = _antipodal_max(m)
        wide = _full_sweep(W.astype(np.longdouble), np.longdouble(h))
        assert abs(hi - float(wide.max())) <= 4 * np.spacing(hi), \
            m.describe()


@pytest.mark.parametrize("build, transforms", [
    (lambda: make_cosine(beta=0.3, c=0.5), SWEEP_STEPS // 2),
    (lambda: _periodic_catalog_splines()[0], SWEEP_STEPS // 2),
    (lambda: make_flat(c=0.2), 0),
    (lambda: make_cosine(beta=1e-8, c=0.5), 0),
    (lambda: make_manifold("sine-sphere", n=3, L=math.pi), 0),
])
def test_diameter_runs_half_the_meridian_transforms(build, transforms,
                                                    monkeypatch):
    # one transform per step of the half sweep; a closed form runs none
    m = build()
    calls = []
    relax = sgv.geometry._meridian_relax

    def counting(V, h):
        calls.append(V.shape)
        return relax(V, h)

    monkeypatch.setattr(sgv.geometry, "_meridian_relax", counting)
    diameter(m)
    assert len(calls) == transforms


def test_meridian_relax_commutes_with_the_mirror():
    rng = np.random.default_rng(7)
    V = rng.uniform(0.0, 4.0, size=(SWEEP_ROWS, 5))
    h = 2.0 * math.pi / SWEEP_ROWS
    i = np.arange(SWEEP_ROWS)
    R = _meridian_relax(V, h)
    assert np.array_equal(_meridian_relax(V[-i], h), R[-i])
    # against the transform written out
    gap = np.abs(i[:, None] - i[None, :])
    D = h * np.minimum(gap, SWEEP_ROWS - gap)
    want = np.min(V[:, None, :] + D[:, :, None], axis=0)
    assert np.allclose(R, want, rtol=0.0, atol=4e-15)


# ===================================================================
# the tabulated profile's spline against scipy's CubicSpline
# ===================================================================

def _assert_spline_matches_scipy(x, y, periodic, t):
    """f..f''' at t, at every knot and piece midpoint, and at both ends
    within 1e-12 of each derivative's max there; the roots of f' equal
    as sets to 1e-12."""
    ours = _CubicSpline(x, y, periodic)
    ref = CubicSpline(x, y,
                      bc_type="periodic" if periodic else ((1, 1.0), (1, -1.0)))
    pts = np.concatenate([t, x, 0.5 * (x[:-1] + x[1:])])
    for nu, got in enumerate(ours.jet(pts)):
        want = ref(pts, nu)
        err = np.max(np.abs(got - want))
        assert err <= 1e-12 * np.max(np.abs(want)), nu
    want = ref.derivative().roots(extrapolate=False)
    got = ours.slope_roots()
    assert np.all(np.isfinite(want))
    tol = 1e-12 * max(1.0, x[-1])
    assert all(np.min(np.abs(got - r)) <= tol for r in want)
    assert all(np.min(np.abs(want - r)) <= tol for r in got)


@st.composite
def _spline_data(draw):
    n = draw(st.integers(5, 200))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                         max_size=n - 1))
    L = draw(st.floats(0.5, 10.0))
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    x *= L / x[-1]
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n)))
    periodic = draw(st.booleans())
    if periodic:
        y[-1] = y[0]
    # near-constant data has near-constant pieces, where scipy reports
    # NaN roots; test_spline_constant_pieces_have_no_slope_roots covers it
    assume(np.ptp(y) >= 1e-3)
    t = np.array(draw(st.lists(st.floats(0.0, L), min_size=1,
                               max_size=64)))
    return x, y, periodic, t


@settings(max_examples=60, deadline=None)
@given(data=_spline_data())
def test_spline_matches_scipy_cubic_spline(data):
    _assert_spline_matches_scipy(*data)


@pytest.mark.parametrize("periodic", [True, False])
def test_spline_matches_scipy_on_8193_knots(periodic):
    L = TWO_PI if periodic else math.pi
    x = np.linspace(0.0, L, 8193)
    if periodic:
        y = 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(3.0 * x)
        y[-1] = y[0]
    else:
        y = np.sin(x) * (1.0 + 0.2 * np.sin(x) ** 2)
        y[0] = y[-1] = 0.0
    t = np.random.default_rng(8193).uniform(0.0, L, 4096)
    _assert_spline_matches_scipy(x, y, periodic, t)


def test_spline_constant_pieces_have_no_slope_roots():
    # f' vanishes identically on every piece: scipy reports each piece's
    # start followed by NaN, the in-house spline reports nothing (the
    # exact f_range of this spline is in test_f_range_closed_forms)
    x = np.linspace(0.0, 1.0, 9)
    y = np.full(9, 0.7)
    assert np.isnan(CubicSpline(x, y, bc_type="periodic").derivative()
                    .roots(extrapolate=False)).any()
    assert _CubicSpline(x, y, True).slope_roots().size == 0


# ===================================================================
# the profile's jet: f and its derivatives from one evaluation
# ===================================================================

JET_PROFILES = {
    "constant": lambda: make_flat(c=0.25),
    "cosine": lambda: make_cosine(beta=0.3, c=2.0),
    "cosine-negative": lambda: make_cosine(beta=-0.7, c=0.4, L=3.3),
    "sphere-n2": lambda: make_manifold("sine-sphere", n=2, L=2.7),
    "sphere-n3": lambda: make_manifold("sine-sphere", n=3, L=5.3),
    "pole-spline": lambda: _sphere_spline(33, 0.2),
    "periodic-spline": lambda: make_manifold(
        "tabulated", L=TWO_PI, ts=np.linspace(0.0, TWO_PI, 17),
        fs=1.0 + 0.3 * np.cos(np.linspace(0.0, TWO_PI, 17)),
        boundary="periodic"),
}
SPLINES = ("pole-spline", "periodic-spline")


def _closed_form_derivatives(m, t):
    """f', f'', f''' of a closed-form profile, each written out as its
    own expression: the reference the jet must equal bit for bit."""
    if m.kind == "constant":
        return np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    if m.kind == "cosine":
        w = 2.0 * np.pi / m.L
        return (-m.c * m.beta * w * np.sin(w * t),
                -m.c * m.beta * w * w * np.cos(w * t),
                m.c * m.beta * w ** 3 * np.sin(w * t))
    r = m.L / np.pi
    return np.cos(t / r), -np.sin(t / r) / r, -np.cos(t / r) / r ** 2


@pytest.mark.parametrize("name", JET_PROFILES)
def test_jet_starts_with_f(name):
    m = JET_PROFILES[name]()
    t = np.concatenate([np.linspace(0.0, m.L, 1001), [-0.3, m.L + 0.7]])
    jet = m.jet(t)
    assert len(jet) == 4
    assert all(d.shape == t.shape for d in jet)
    assert np.array_equal(jet[0], m.f(t))
    # a scalar point gives the same values as 0-d arrays
    assert [float(d) for d in m.jet(1.1)] == [float(d[0])
                                              for d in m.jet([1.1])]


@pytest.mark.parametrize("name", [k for k in JET_PROFILES
                                  if k not in SPLINES])
def test_jet_matches_closed_form_derivatives(name):
    m = JET_PROFILES[name]()
    t = np.linspace(0.0, m.L, 1001)
    for got, want in zip(m.jet(t)[1:], _closed_form_derivatives(m, t)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", SPLINES)
def test_ricci_min_searches_spline_pieces_once(name, monkeypatch):
    m = JET_PROFILES[name]()
    searches = []
    locate = _CubicSpline._locate

    def counting(self, t):
        searches.append(np.size(t))
        return locate(self, t)

    monkeypatch.setattr(_CubicSpline, "_locate", counting)
    t = np.linspace(0.0, m.L, 513)
    ricci_min(m, t)
    assert searches == [t.size]


def test_kbar_reads_its_weight_from_the_curvature_jet(monkeypatch):
    # the benchmark's 10 catalog splines: kbar's integrand takes f from
    # the jet its curvature reads, so a second piece search of the same
    # points (the weight read through `f`) gives the same values and
    # costs 24,384 more located points
    manifolds = [m for m in _catalog_manifolds() if m.kind == "tabulated"]
    assert len(manifolds) == 10
    located = []
    locate = _CubicSpline._locate

    def counting(self, t):
        located.append(np.size(t))
        return locate(self, t)

    monkeypatch.setattr(_CubicSpline, "_locate", counting)
    values = [kbar(m, 2.0, 0.0) for m in manifolds]
    assert sum(located) == 129_382
    # the integrand alone takes the second search; the scan and the kink
    # search keep reading `ricci_min` from one jet
    one_jet = sgv.geometry._ricci_and_warp
    monkeypatch.setattr(sgv.geometry, "ricci_min",
                        lambda m, t: one_jet(m, t)[0])
    monkeypatch.setattr(sgv.geometry, "_ricci_and_warp",
                        lambda m, t: (one_jet(m, t)[0], m.f(t)))
    located.clear()
    assert [kbar(m, 2.0, 0.0) for m in manifolds] == values
    assert sum(located) == 153_766


def fixed_step_bisection(func, ts, vs, steps=80):
    """Every bracket of the scan bisected `steps` times (reference)."""
    flip = np.nonzero(vs[:-1] * vs[1:] < 0.0)[0]
    lo, hi, flo = ts[flip], ts[flip + 1], vs[flip]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        left = flo * fm <= 0.0
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        flo = np.where(left, flo, fm)
    return sorted([*ts[vs == 0.0].tolist(), *(0.5 * (lo + hi)).tolist()])


def test_kbar_kinks_need_no_bisection(monkeypatch):
    # a panel edge one chord step from the kink gives the Gauss sum of
    # one bisected to rounding: kbar on every catalog row within 1 ulp
    manifolds = _catalog_manifolds()
    assert len(manifolds) == 32
    shipped = [kbar(m, 2.0, 0.0) for m in manifolds]
    monkeypatch.setattr(sgv.geometry, "sign_change_points",
                        fixed_step_bisection)
    bisected = [kbar(m, 2.0, 0.0) for m in manifolds]
    assert all(abs(a - b) <= np.spacing(b)
               for a, b in zip(shipped, bisected))


# ===================================================================
# exact range of f, and ricci_min at n = 2
# ===================================================================

def test_f_range_closed_forms():
    assert make_cosine(beta=-0.3, c=2.0).f_range() == (
        2.0 * 0.7, 2.0 * 1.3)
    assert make_flat(c=0.25).f_range() == (0.25, 0.25)
    lo, hi = make_manifold("sine-sphere", n=2, L=5.0).f_range()
    assert lo == 0.0 and hi == 5.0 / math.pi
    # a constant spline's derivative vanishes identically on every piece
    ts = np.linspace(0.0, 1.0, 9)
    flat = make_manifold("tabulated", L=1.0, ts=ts, fs=np.full(9, 0.7),
                         boundary="periodic")
    assert flat.f_range() == (0.7, 0.7)


def test_f_range_finds_spline_peak_between_samples():
    # a sharp bump at an irrational position: 4097 samples miss the top
    ts = np.linspace(0.0, TWO_PI, 33)
    fs = 1.0 + 0.8 * np.exp(-((ts - 2.0 - math.sqrt(2.0) / 10) / 0.3) ** 2)
    fs[-1] = fs[0]
    m = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                      boundary="periodic")
    lo, hi = m.f_range()
    sampled = float(np.max(m.f(np.linspace(0.0, TWO_PI, 4097))))
    assert hi > sampled
    dense = m.f(np.linspace(0.0, TWO_PI, 1 << 20))
    assert hi >= dense.max() and hi - dense.max() < 1e-10
    assert lo <= dense.min() and dense.min() - lo < 1e-10


N2_PROFILES = st.one_of(
    st.builds(lambda c, b: make_cosine(beta=b, c=c),
              st.floats(0.1, 3.0), st.floats(-0.9, 0.9)),
    st.builds(lambda L: make_manifold("sine-sphere", n=2, L=L),
              st.floats(0.5, 8.0)),
    st.builds(lambda eps: _sphere_spline(33, eps, n=2),
              st.floats(-0.3, 0.5)),
)


@settings(max_examples=20, deadline=None)
@given(m=N2_PROFILES)
def test_ricci_min_n2_is_gauss_curvature(m):
    # the general formula's fiber term carries the factor n - 2 = 0
    t = np.linspace(0.0, m.L, 257)[1:-1]
    f, _, d2f, _ = m.jet(t)
    assert np.all(ricci_min(m, t) == -d2f / f)
    if m.boundary == "pole-closed":
        poles = np.array([0.0, m.L])
        _, df, _, d3f = m.jet(poles)
        assert np.all(ricci_min(m, poles) == -d3f / df)


# ===================================================================
# metamorphic checks
# ===================================================================

@settings(max_examples=4, deadline=None)
@given(c=st.floats(0.2, 1.5), beta=st.floats(0.01, 0.3),
       s=st.floats(0.5, 2.0))
def test_scaling_a_cosine_torus(c, beta, s):
    # (L, c) -> (sL, sc) is the metric scaled by s^2
    m = make_cosine(beta=beta, c=c)
    ms = make_cosine(beta=beta, c=s * c, L=s * TWO_PI)
    assert lambda1(ms).lambda1 == pytest.approx(
        lambda1(m).lambda1 / s ** 2, rel=1e-9)
    assert kbar(ms, 2.0, 0.0) == pytest.approx(
        kbar(m, 2.0, 0.0) / s ** 2, rel=1e-9)
    br, brs = diameter(m), diameter(ms)
    assert brs.lo == pytest.approx(s * br.lo, rel=1e-9)
    assert brs.hi == pytest.approx(s * br.hi, rel=1e-9)


@settings(max_examples=4, deadline=None)
@given(knots=st.sampled_from([17, 33, 65]), shift=st.integers(1, 15),
       a=st.floats(-0.2, 0.2), b=st.floats(-0.2, 0.2))
def test_shifting_a_periodic_spline_by_knots(knots, shift, a, b):
    # the knot spacing is a whole number of diameter lattice rows, so
    # the shifted spline is the same manifold on the same lattice
    ts = np.linspace(0.0, TWO_PI, knots)
    fs = 1.0 + a * np.cos(ts) + b * np.sin(2.0 * ts)
    fs[-1] = fs[0]
    k = shift % (knots - 1)
    shifted = np.append(np.roll(fs[:-1], -k), fs[k])
    m = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=fs,
                      boundary="periodic")
    ms = make_manifold("tabulated", L=TWO_PI, ts=ts, fs=shifted,
                       boundary="periodic")
    assert lambda1(ms).lambda1 == pytest.approx(lambda1(m).lambda1,
                                                rel=1e-10)
    assert kbar(ms, 2.0, 0.0) == pytest.approx(kbar(m, 2.0, 0.0),
                                               rel=1e-10)
    assert diameter(ms).hi == pytest.approx(diameter(m).hi, rel=1e-12)


def _asym_periodic_spline():
    L = 4.7
    ts = np.linspace(0.0, L, 49)
    w = TWO_PI / L
    fs = 0.5 * (1.0 + 0.15 * np.cos(w * ts) + 0.1 * np.sin(2.0 * w * ts))
    fs[-1] = fs[0]
    return dict(L=L, n=2, ts=ts, fs=fs, boundary="periodic")


def _asym_pole_spline():
    ts = np.linspace(0.0, math.pi, 65)
    fs = np.sin(ts) * (1.0 + 0.3 * np.sin(ts) * np.cos(ts))
    fs[0] = fs[-1] = 0.0
    return dict(L=math.pi, n=3, ts=ts, fs=fs, boundary="pole-closed")


@pytest.mark.parametrize("spec", [_asym_periodic_spline,
                                  _asym_pole_spline])
def test_reflecting_a_spline_profile(spec):
    # t -> L - t is an isometry onto the manifold with profile f(L - t),
    # whose spline through the reversed data is the reflected spline
    kw = spec()
    m = make_manifold("tabulated", **kw)
    mr = make_manifold("tabulated", **{**kw, "fs": kw["fs"][::-1].copy()})
    e, er = lambda1(m), lambda1(mr)
    assert er.lambda1 == pytest.approx(e.lambda1, rel=1e-9)
    assert er.mode == e.mode
    assert kbar(mr, 2.0, 0.0) == pytest.approx(kbar(m, 2.0, 0.0), rel=1e-12)
    br, brr = diameter(m), diameter(mr)
    assert brr.lo == pytest.approx(br.lo, rel=1e-12)
    assert brr.hi == pytest.approx(br.hi, rel=1e-12)
