"""Tests for `sgv._lapack`, the LAPACK binding that skips scipy.linalg.

Covers:
- each call against the public scipy function it replaces, bit for bit,
  on hypothesis-drawn tridiagonals of 8 to 2048 rows: the Sturm count
  against `scipy.linalg.lapack.dstebz`, one- and two-column solves
  against `scipy.linalg.solve_banded((1, 1), ...)`; a later scipy that
  renames `_flapack` or changes a signature fails here first
- the checks those functions made: a non-finite diagonal raises
  ValueError through the dense start of every eigen chain and the
  spline, a nonzero LAPACK info raises, a singular solve raises
  LinAlgError
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sgv import _lapack, make_manifold
from sgv.geometry import _CubicSpline
from sgv.spectral import _eigenpair, assemble


@st.composite
def tridiagonals(draw):
    """(d, e) of a symmetric tridiagonal with 8 to 2048 rows: random
    entries, a graded diagonal, or a discrete Laplacian whose lowest
    eigenvalues cluster as in sgv's pencils."""
    n = draw(st.integers(8, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "graded", "laplacian"]))
    if kind == "random":
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    elif kind == "graded":
        d = np.logspace(-6, 6, n) * rng.choice([-1.0, 1.0], n)
        e = rng.uniform(0.0, 1.0, n - 1)
    else:
        h = 1.0 / n
        w = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, n + 1)
        d, e = (w[:-1] + w[1:]) / h ** 2, -w[1:-1] / h ** 2
    return d, e


@settings(max_examples=60, deadline=None)
@given(tridiagonals(), st.floats(-0.1, 1.1))
def test_count_matches_dstebz(de, where):
    d, e = de
    # s across the Gershgorin interval, and on an eigenvalue exactly
    radius = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])
    lo, hi = np.min(d - radius), np.max(d + radius)
    for s in (lo + where * (hi - lo),
              float(sla.eigh_tridiagonal(d, e, eigvals_only=True,
                                         select="i",
                                         select_range=(0, 0))[0])):
        want = sla.lapack.dstebz(d, e, 1, -np.inf, s, 0, 0, np.inf, b"E")
        assert want[4] == 0
        assert _lapack.count(d, e, s) == want[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 2048), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(), (1,), (2,)]))
def test_solve_matches_solve_banded(n, seed, columns):
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((3, n))
    ab[1] += np.sign(ab[1]) * 2.0   # keep it clear of singular
    rhs = rng.standard_normal((n, *columns))
    got = _lapack.solve(ab[2, :-1], ab[1], ab[0, 1:], rhs, check_finite=True)
    assert np.array_equal(got, sla.solve_banded((1, 1), ab, rhs))


def test_non_finite_diagonal_raises_in_bisection():
    dis = assemble(make_manifold("sine-sphere", n=2, L=math.pi), 0, 64)
    d = dis.sym_d.copy()
    d[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _eigenpair(replace(dis, sym_d=d), 1)


@pytest.mark.parametrize("periodic", [False, True])
def test_non_finite_spline_system_raises(periodic):
    # finite knots whose gaps sum past the largest double: the slope
    # system's diagonal 2 (h[i-1] + h[i]) overflows
    x = np.array([0.0, 0.6e308, 1.2e308, 1.75e308])
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="infs or NaNs"):
        _CubicSpline(x, np.zeros(4), periodic)


def test_failed_count_raises():
    # dstebz reports info = 1 for a NaN end of its interval, where it
    # would count 0 eigenvalues below
    d, e = np.full(16, 2.0), np.full(15, -1.0)
    assert sla.lapack.dstebz(d, e, 1, -np.inf, np.nan, 0, 0, np.inf,
                             b"E")[4] == 1
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        _lapack.count(d, e, np.nan)


def test_singular_solve_raises():
    d, e = np.r_[1.0, 0.0, 1.0], np.zeros(2)
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.solve(e, d, e, np.ones(3))
