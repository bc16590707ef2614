"""Dense linear algebra helpers: validated containers and LU with partial
pivoting.  The Schur complement and the finite-difference Jacobian, the
test-time ground truth for the analytic derivatives, are in `theory`.

Everything here works on plain float64 numpy arrays.  The wrappers add the
two guarantees the rest of the package relies on: inputs are finite, and
nonsingularity is an explicit verdict (SingularMatrix) instead of a warning
or a silently garbage solve.  Both come from one core, LuFactors.factor
(finite check, dgetrf, pivot test), which lu_factor and the solvers'
Newton/LM step and support enumeration share.  An LuFactors holds one
order's buffers and prebuilt LAPACK arguments: lu_factor returns the one
it factored in, and a step that reuses one allocates nothing for the LU.

The LU is LAPACK dgetrf/dgetrs, called through ctypes on Fortran-ordered
buffers.  The routines come from the OpenBLAS library that scipy's wheel
ships in `scipy.libs` (its LP64 symbols scipy_dgetrf_/scipy_dgetrs_), the
very routines `scipy.linalg.lapack` wraps, so the results are the same
bits; the library is found without importing scipy, and neither
`scipy.linalg` nor its LAPACK extension is loaded.  Where that wheel
layout is absent, the routines' addresses come from the capsules that
`scipy.linalg.cython_lapack` exports.  LAPACK_SOURCE names the source
this process bound.
"""

import ctypes
import importlib.util
import math
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SingularMatrix


def _openblas_routines():
    """(source, dgetrf's address, dgetrs's address) in the OpenBLAS library
    of scipy's wheel, located without importing scipy.

    Raises ImportError or OSError when scipy, the library or its symbols
    cannot be found or loaded.
    """
    # find_spec of a top-level name locates the package without importing it.
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    libs = Path(spec.submodule_search_locations[0]).parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_dgetrf_") and hasattr(lib, "scipy_dgetrs_"):
            getrf = ctypes.cast(lib.scipy_dgetrf_, ctypes.c_void_p).value
            return f"scipy.libs/{path.name}", getrf, ctypes.cast(lib.scipy_dgetrs_, ctypes.c_void_p).value
    raise ImportError(f"no LP64 scipy_openblas library in {libs}")


def _capsule_routines():
    """(source, dgetrf's address, dgetrs's address) from the capsules of
    scipy.linalg.cython_lapack."""
    from scipy.linalg import cython_lapack

    # Fresh function objects: setting argtypes on the shared ctypes.pythonapi
    # attributes would change them for every other user.
    get_name, get_pointer = ctypes.pythonapi["PyCapsule_GetName"], ctypes.pythonapi["PyCapsule_GetPointer"]
    get_name.restype, get_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
    get_pointer.restype, get_pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]
    capsules = [cython_lapack.__pyx_capi__[name] for name in ("dgetrf", "dgetrs")]
    return ("scipy.linalg.cython_lapack", *(get_pointer(capsule, get_name(capsule)) for capsule in capsules))


def _bind(getrf: int, getrs: int):
    """Callables for the routines at these addresses.  They take no
    argtypes: each call passes on LuFactors' prebuilt references
    unconverted (declared argtypes cost 1-2 us more per call)."""
    return ctypes.CFUNCTYPE(None)(getrf), ctypes.CFUNCTYPE(None)(getrs)


def _lapack_routines():
    try:
        return _openblas_routines()
    except (ImportError, OSError):
        return _capsule_routines()


LAPACK_SOURCE, *_addresses = _lapack_routines()
_dgetrf, _dgetrs = _bind(*_addresses)
_TRANS_N = ctypes.byref(ctypes.c_char(b"N"))

# A pivot is declared zero when it is at most this fraction of the largest
# input entry.  The reformulation assumes nonsingular T, A, D but gives no
# tolerance, so one fixed relative threshold is used everywhere.
PIVOT_RTOL = 1e-12


def as_vector(v, name="vector"):
    """Coerce to a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name}: expected 1-d, got shape {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr), None):
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


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-d float64 array, bit for bit (its ravel and sqrt(x.dot(x))), as a float."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


class LuFactors:
    """Packed LU factorization P M = L U of a square matrix M of order n,
    held in its own buffers with prebuilt LAPACK arguments.

    `lu` (Fortran order) stores L below the diagonal (unit diagonal
    implied) and U on and above it; `piv` is the sequential row-swap vector
    from partial pivoting, 0-based as scipy's.  lu_factor returns one.  A
    step that factors many matrices of one order reuses one instead: write
    the matrix into `lu` and call factor, then the right-hand side into `b`
    (length n) and call solve, which allocates nothing.  A new object's
    pivots are the identity, so no solve swaps a row out of range.  The
    buffers are reused by every call, so an object serves one thread at a time.
    """

    __slots__ = ("lu", "b", "n", "_ints", "_getrf_args", "_getrs_args")

    def __init__(self, n: int):
        # Two buffers: lu then b (one float more, since ctypes cannot refer
        # into an empty buffer; n = 0 never reaches LAPACK), and n, b's
        # column count, LAPACK's info code and the 1-based pivots.  Every
        # LAPACK argument is a pointer, as Fortran passes them, here a byref
        # reference into a buffer; the sizes follow from n, so the routines
        # stay in bounds.  (A ctypes array type per size would cost more:
        # ctypes caches those types only while an instance lives.)
        floats = np.empty(n * (n + 1) + 1)
        ints = np.zeros(3 + n, dtype=np.intc)
        ints[0], ints[1], ints[3:] = n, 1, range(1, n + 1)
        self.lu = floats[: n * n].reshape((n, n), order="F")
        self.b = floats[n * n : n * (n + 1)]
        self.n, self._ints = n, ints
        float_ref, int_ref = ctypes.c_char.from_buffer(floats), ctypes.c_char.from_buffer(ints)
        n_p, cols_p, info_p, piv_p = [ctypes.byref(int_ref, i * ints.itemsize) for i in range(4)]
        a_p, b_p = ctypes.byref(float_ref), ctypes.byref(float_ref, n * n * floats.itemsize)
        self._getrf_args = (n_p, n_p, a_p, n_p, piv_p, info_p)
        self._getrs_args = (_TRANS_N, n_p, cols_p, a_p, n_p, piv_p, b_p, n_p, info_p)

    @property
    def piv(self) -> np.ndarray:
        return self._ints[3:] - 1

    def factor(self, name: str) -> None:
        """LU-factor `lu` in place, raising as lu_factor does; the
        reductions skip the ndarray methods' wrappers."""
        a = self.lu
        # One pass serves the finite check (a NaN or inf reaches the max) and
        # the scale of the pivot threshold.  It must precede dgetrf, which
        # overwrites a.
        scale = np.maximum.reduce(np.abs(a), None)
        if not math.isfinite(scale):
            raise ValueError(f"{name}: entries must be finite")
        _dgetrf(*self._getrf_args)
        pivot = np.minimum.reduce(np.abs(a.diagonal()))
        threshold = PIVOT_RTOL * scale
        if pivot <= threshold:
            raise SingularMatrix(
                f"{name} is singular to working precision "
                f"(pivot {pivot:.3e} <= {threshold:.3e})"
            )

    def solve(self) -> np.ndarray:
        """Overwrite `b` with the solution of the factored system and return it."""
        _dgetrs(*self._getrs_args)
        return self.b


def lu_factor(m, name: str = "matrix") -> LuFactors:
    """LU-factor a square matrix with partial pivoting (LAPACK dgetrf).

    Raises ValueError on a non-finite entry and SingularMatrix when any
    pivot magnitude is at most PIVOT_RTOL times the largest entry of the
    input; `name` labels the matrix in both messages.  An exactly zero
    pivot, which dgetrf reports through its info code, fails the same test.
    The factors are read-only.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name}: expected 2-d, got shape {a.shape}")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    f = LuFactors(n)
    if n:  # dgetrf rejects an empty matrix; its factors are empty too.
        f.lu[...] = a
        f.factor(name)
    f.lu.setflags(write=False)
    return f


def lu_solve(f: LuFactors, b):
    """Solve M s = b given the factorization of M (LAPACK dgetrs).

    b is a vector or a matrix of right-hand-side columns; one of the wrong
    shape raises DimensionMismatch.  The solution is a new array, and the
    factors are left as they are.
    """
    n = f.n
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionMismatch(f"lu_solve: rhs has shape {rhs.shape}, expected ({n},) or ({n}, cols)")
    sol = np.array(rhs, order="F")
    if sol.size == 0:
        # dgetrs rejects n = 0; the solution of an empty system is empty.
        return sol
    trans, n_p, _, a_p, _, piv_p, _, _, info_p = f._getrs_args
    cols_p = ctypes.byref(ctypes.c_int(1 if sol.ndim == 1 else sol.shape[1]))
    # The transpose of a Fortran-order array is C-contiguous, as ctypes needs.
    sol_p = ctypes.byref(ctypes.c_char.from_buffer(sol.T))
    _dgetrs(trans, n_p, cols_p, a_p, n_p, piv_p, sol_p, n_p, info_p)
    return sol
