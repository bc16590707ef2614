"""The extended second order cone, its dual, and complementarity certificates.

For dimensions k, l >= 1 the cone and its dual are

    L = {(x, u) in R^k x R^l : x_i >= ||u||  for every i}
    M = {(x, u) in R^k x R^l : e'x >= ||u||,  x >= 0}

A pair (z, w) is complementary when z in L, w in M and <z, w> = 0.  Every
complementary pair falls into one of three shapes: u = 0, v = 0, or the
general case where the two norm parts are antiparallel, v = -lambda*u with
lambda = e'y / ||u|| > 0.  classify_pair decides which, and for the general
case returns the multiplier together with the worst residual of the three
conditions that characterize it.

All membership tests take a relative tolerance: a condition lhs >= rhs is
accepted at lhs >= rhs - tol*(1 + scale).  Exact arithmetic corresponds to
tol = 0; the default is 1e-9.
"""

import numbers
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .linalg import _norm, as_vector
from .record import Record, ValueRecord

DEFAULT_TOL = 1e-9


class EsocDims(ValueRecord):
    """Problem dimensions: k orthant coordinates, l norm coordinates."""

    __slots__ = ("k", "l")

    def __init__(self, k: int, l: int):
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1 for n in (k, l)):
            # integers (a bool is not one): m sizes every array and draw; the
            # cone needs both parts, and the pure orthant case is served by
            # the reduced solver in `solvers`, not by l = 0
            raise ValueError(f"dims must satisfy k >= 1 and l >= 1, got k={k}, l={l}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @property
    def m(self) -> int:
        return self.k + self.l


class PointZ(Record):
    """A point z = (x, u) split into orthant part x and norm part u."""

    __slots__ = ("x", "u")

    def __init__(self, x: np.ndarray, u: np.ndarray):
        object.__setattr__(self, "x", as_vector(x, "x"))
        object.__setattr__(self, "u", as_vector(u, "u"))
        self.x.setflags(write=False)
        self.u.setflags(write=False)

    @property
    def dims(self) -> EsocDims:
        return EsocDims(self.x.size, self.u.size)

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.u])

    @staticmethod
    def from_array(dims: EsocDims, arr) -> "PointZ":
        vec = as_vector(arr, "point")
        if vec.size != dims.m:
            raise DimensionMismatch(f"point has length {vec.size}, expected {dims.m}")
        return PointZ(vec[: dims.k], vec[dims.k :])


class PairCase(str, Enum):
    U_ZERO = "U_ZERO"
    V_ZERO = "V_ZERO"
    GENERAL = "GENERAL"
    NOT_COMPLEMENTARY = "NOT_COMPLEMENTARY"


class CertificateIII(ValueRecord):
    """General-case certificate: the multiplier with v = -lambda*u and the
    largest residual among v + lambda*u = 0, e'y = ||v||, and
    (x - ||u||e, y) complementary on the orthant."""

    __slots__ = ("lambda_", "max_violation")

    def __init__(self, lambda_: float, max_violation: float):
        if not lambda_ > 0:
            raise ValueError(f"lambda must be positive, got {lambda_}")
        if max_violation < 0:
            raise ValueError("max_violation must be non-negative")
        object.__setattr__(self, "lambda_", lambda_)
        object.__setattr__(self, "max_violation", max_violation)


def _check_same_dims(z: PointZ, w: PointZ):
    if z.x.size != w.x.size or z.u.size != w.u.size:
        raise DimensionMismatch(
            f"mismatched pair: z is ({z.x.size},{z.u.size}), w is ({w.x.size},{w.u.size})"
        )


def in_esoc(z: PointZ, tol: float = DEFAULT_TOL) -> bool:
    """Membership in L: min_i x_i >= ||u|| - tol*(1 + ||u||)."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    nu = _norm(z.u)
    return bool(z.x.min() >= nu - tol * (1.0 + nu))


def in_esoc_dual(z: PointZ, tol: float = DEFAULT_TOL) -> bool:
    """Membership in M: e'x >= ||u|| - tol*(1 + ||u||) and min_i x_i >= -tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    nu = _norm(z.u)
    return bool(z.x.sum() >= nu - tol * (1.0 + nu) and z.x.min() >= -tol)


def _pair_norms(z: PointZ, w: PointZ, tol: float):
    """(||u||, ||v||, ||z||, ||w||, e'y) if the pair passes comp_pair_check at tol, else None."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    nu, nv = _norm(z.u), _norm(w.u)
    ety = w.x.sum()
    if not (z.x.min() >= nu - tol * (1.0 + nu) and ety >= nv - tol * (1.0 + nv) and w.x.min() >= -tol):
        return None
    za, wa = z.to_array(), w.to_array()
    nz, nw = _norm(za), _norm(wa)
    return (nu, nv, nz, nw, ety) if abs(za @ wa) <= tol * (1.0 + nz * nw) else None


def comp_pair_check(z: PointZ, w: PointZ, tol: float = DEFAULT_TOL) -> bool:
    """True iff z in L, w in M and |<z, w>| <= tol*(1 + ||z||*||w||)."""
    _check_same_dims(z, w)
    return _pair_norms(z, w, tol) is not None


def orthant_comp_violation(a, b) -> float:
    """Worst scaled violation of (a, b) being a complementary pair on the
    non-negative orthant: negativity of either vector and |a.b|, each
    relative to 1 + the operand scale."""
    av = as_vector(a, "a")
    bv = as_vector(b, "b")
    if av.size != bv.size:
        raise DimensionMismatch(f"length mismatch: {av.size} vs {bv.size}")
    neg_a = max(0.0, -av.min()) / (1.0 + np.abs(av).max(initial=0.0))
    neg_b = max(0.0, -bv.min()) / (1.0 + np.abs(bv).max(initial=0.0))
    cross = abs(av @ bv) / (1.0 + _norm(av) * _norm(bv))
    return float(max(neg_a, neg_b, cross))


def classify_pair(z: PointZ, w: PointZ, tol: float = DEFAULT_TOL):
    """Classify a candidate complementary pair.

    Returns (case, certificate); the certificate is present only for the
    GENERAL case.  NOT_COMPLEMENTARY exactly when comp_pair_check fails at
    the same tolerance: both run one test (_pair_norms), whose norms decide
    the shape.  When both norm parts vanish the pair is reported as U_ZERO.
    """
    _check_same_dims(z, w)
    norms = _pair_norms(z, w, tol)
    if norms is None:
        return PairCase.NOT_COMPLEMENTARY, None
    nu, nv, nz, nw, ety = norms
    if nu <= tol * (1.0 + nz):
        return PairCase.U_ZERO, None
    if nv <= tol * (1.0 + nw):
        return PairCase.V_ZERO, None
    y, v = w.x, w.u
    lam = float(ety / nu)
    violation = max(
        np.abs(v + lam * z.u).max() / (1.0 + nv),
        abs(ety - nv) / (1.0 + nv),
        orthant_comp_violation(z.x - nu, y),
    )
    return PairCase.GENERAL, CertificateIII(lambda_=lam, max_violation=float(violation))
