"""Dense linear algebra helpers: validated containers and LU with partial
pivoting.  The Schur complement and the finite-difference Jacobian, the
test-time ground truth for the analytic derivatives, are in `theory`.

Everything here works on plain float64 numpy arrays.  The wrappers add the
two guarantees the rest of the package relies on: inputs are finite, and
nonsingularity is an explicit verdict (SingularMatrix) instead of a warning
or a silently garbage solve.

The LU calls LAPACK dgetrf/dgetrs from scipy's compiled Fortran extension
`scipy.linalg._flapack`.  Importing it through `scipy.linalg.lapack` would
import all of `scipy.linalg`, most of a cold command's time, so the
extension file is loaded directly from scipy's install directory (or taken
from `sys.modules` when scipy has already loaded it).  These are the very
routines `scipy.linalg.lapack` exports, so the results are the same bits.
If the direct load fails for any reason, for instance a scipy release that
moves or renames the private extension, the routines come from
`scipy.linalg.lapack` after all.
"""

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

_FLAPACK = "scipy.linalg._flapack"


def _flapack_extension():
    """scipy's compiled LAPACK extension, loaded without importing scipy.

    Raises ImportError when scipy or the extension file cannot be found or
    loaded.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    # find_spec of a top-level name locates the package without importing it.
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    linalg_dir = Path(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg_dir / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no _flapack extension in {linalg_dir}")
    # Loaded under scipy's own module name: the interpreter records the
    # extension in sys.modules under it, so a later `import scipy.linalg`
    # reuses this module instead of loading the file a second time.
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
    )
    loader.exec_module(module)
    return module


def _load_getrf_getrs():
    """LAPACK dgetrf and dgetrs, directly from the extension if possible."""
    try:
        flapack = _flapack_extension()
        return flapack.dgetrf, flapack.dgetrs
    except (ImportError, OSError, AttributeError):
        from scipy.linalg.lapack import dgetrf, dgetrs

        return dgetrf, dgetrs


dgetrf, dgetrs = _load_getrf_getrs()

# A pivot is declared zero when it is at most this fraction of the largest
# input entry.  The reformulation assumes nonsingular T, A, D but gives no
# tolerance, so one fixed relative threshold is used everywhere.
PIVOT_RTOL = 1e-12


def as_vector(v, name="vector"):
    """Coerce to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name}: expected 1-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    return arr


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-d float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name}: expected 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    return arr


class LuFactors(NamedTuple):
    """Packed LU factorization P M = L U of a square matrix M.

    `lu` stores L below the diagonal (unit diagonal implied) and U on and
    above it; `piv` is the sequential row-swap vector from partial pivoting.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int


def lu_factor(m, name: str = "matrix") -> LuFactors:
    """LU-factor a square matrix with partial pivoting (LAPACK dgetrf).

    Raises ValueError on a non-finite entry and SingularMatrix when any
    pivot magnitude is at most PIVOT_RTOL times the largest entry of the
    input; `name` labels the matrix in both messages.  An exactly zero
    pivot, which dgetrf reports through its info code, fails the same test.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name}: expected 2-d, got shape {a.shape}")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    if n == 0:
        # dgetrf rejects an empty matrix; its factors are empty too.
        lu, piv = np.empty((0, 0)), np.empty(0, dtype=np.int32)
    else:
        # One pass serves the finite check (a NaN or inf reaches the max)
        # and the scale of the pivot threshold.
        scale = np.abs(a).max()
        if not math.isfinite(scale):
            raise ValueError(f"{name}: entries must be finite")
        lu, piv, _ = dgetrf(a)
        pivot = np.abs(lu.diagonal()).min()
        threshold = PIVOT_RTOL * scale
        if pivot <= threshold:
            raise SingularMatrix(
                f"{name} is singular to working precision "
                f"(pivot {pivot:.3e} <= {threshold:.3e})"
            )
    lu.setflags(write=False)
    piv.setflags(write=False)
    return LuFactors(lu, piv, n)


def lu_solve(f: LuFactors, b):
    """Solve M s = b given the factorization of M (LAPACK dgetrs)."""
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != f.n:
        raise DimensionMismatch(f"lu_solve: rhs has length {rhs.shape[0]}, expected {f.n}")
    if f.n == 0:
        # dgetrs rejects n = 0; the solution of an empty system is empty.
        return rhs.copy()
    x, _ = dgetrs(f.lu, f.piv, rhs)
    return x
