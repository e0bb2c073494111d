"""The two LAPACK routines sgv calls, bound without `scipy.linalg`.

sgv needs a tridiagonal solve (dgtsv) and a Sturm count (dstebz), both
in scipy's compiled f2py wrapper `scipy.linalg._flapack`.  Importing
them through `scipy.linalg` runs its package `__init__`, which in scipy
1.17 imports `scipy._lib._array_api`; its vendored
`array_api_compat.numpy` probes every name of numpy and so imports
`numpy.f2py` and `numpy.testing`: about 280 modules and a quarter second
of the CLI's cold start.  Here a plain `import scipy` (whose
`_distributor_init` loads the bundled BLAS) is followed by loading
`_flapack` alone from scipy's `linalg` directory.

Each call keeps the checks of the scipy function it replaces: a
ValueError on non-finite input where scipy's `check_finite` ran, and a
LinAlgError (or a ValueError for an illegal argument) on a nonzero
LAPACK `info`.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy

__all__ = ["solve", "count"]


def _load_flapack():
    """scipy's `linalg/_flapack` extension, loaded from its file.

    CPython enters the module in sys.modules as it loads it, so a later
    `import scipy.linalg` uses this same module."""
    where = [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    where)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled "
                          "LAPACK wrapper linalg/_flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


def _check_info(info: int, routine: str) -> None:
    """scipy's reading of a LAPACK info: an illegal argument below zero,
    a failure above."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")


def _require_finite(*arrays) -> None:
    for a in arrays:
        np.asarray_chkfinite(a)


def solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
          rhs: np.ndarray, check_finite: bool = False) -> np.ndarray:
    """x solving the tridiagonal system with sub-, main and
    super-diagonals lower, diag, upper for one right-hand side (shape
    (N,)) or a column each (shape (N, K)): LAPACK dgtsv, as
    `scipy.linalg.solve_banded((1, 1), ...)` calls it.  check_finite
    checks all four arrays first, as solve_banded does.  The spline fit
    sets it: its system comes from the caller's knots, and a subnormal
    knot gap makes an infinite slope of finite data.  The eigensolvers'
    inner loops, whose arrays are finite by assembly, skip it.  A
    singular system raises LinAlgError."""
    if check_finite:
        _require_finite(lower, diag, upper, rhs)
    x, info = _flapack.dgtsv(lower, diag, upper, rhs)[3:]
    _check_info(info, "dgtsv")
    return x


def count(d: np.ndarray, e: np.ndarray, s: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) at or
    below s: LAPACK dstebz on (-inf, s] with a tolerance as wide as the
    interval, so it takes its Sturm counts and does not bisect."""
    m, _, _, _, info = _flapack.dstebz(d, e, 1, -np.inf, s, 0, 0, np.inf,
                                       b"E")
    _check_info(info, "dstebz")
    return int(m)
