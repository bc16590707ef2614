"""Problem data and the augmented smooth reformulation of the cone LCP.

An instance is defined by a square matrix T of order k + l and a vector r,
partitioned against the cone's orthant block (size k) and norm block
(size l):

    T = [[A, B],     r = (p, q)
         [C, D]]

The complementarity problem asks for z = (x, u) in the cone, w = T z + r in
the dual cone, with <z, w> = 0.  When u != 0, writing t for ||u|| and
xhat = x - t e >= 0 turns the nonsmooth system into a polynomial one in the
augmented variable (xhat, u, t), which is what the solvers operate on.
This module holds the problem and point containers, the recovery of z from
an augmented point and the per-case checks; the reference augmented map,
its Jacobian blocks and the implicit form are in `theory`.
"""

from __future__ import annotations

import numpy as np

from .cones import EsocDims, PointZ, orthant_comp_violation
from .errors import DegenerateT, InfeasibleXhat
from .linalg import LuFactors, as_matrix, as_vector, lu_factor
from .record import Record


class LcpProblem(Record):
    """Immutable problem data (T, r) together with its block partition.

    By default T and its diagonal blocks A and D must be nonsingular; pass
    allow_singular=True to skip those checks (the solvers that need a
    factorization will still raise when they hit one).
    """

    __slots__ = ("dims", "T", "r", "allow_singular", "_lu_A")

    def __init__(self, dims: EsocDims, T: np.ndarray, r: np.ndarray, allow_singular: bool = False):
        m = dims.m
        T = as_matrix(T, "T")
        r = as_vector(r, "r")
        if T.shape != (m, m):
            raise ValueError(f"T must be {m}x{m} for dims {dims}, got {T.shape}")
        if r.shape != (m,):
            raise ValueError(f"r must have length {m}, got {r.shape}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "allow_singular", allow_singular)
        if not allow_singular:
            lu_factor(T, name="T")
            self.lu_A  # factors A once; the factors stay cached
            lu_factor(self.D, name="D")

    @property
    def A(self) -> np.ndarray:
        k = self.dims.k
        return self.T[:k, :k]

    @property
    def B(self) -> np.ndarray:
        k = self.dims.k
        return self.T[:k, k:]

    @property
    def C(self) -> np.ndarray:
        k = self.dims.k
        return self.T[k:, :k]

    @property
    def D(self) -> np.ndarray:
        k = self.dims.k
        return self.T[k:, k:]

    @property
    def p(self) -> np.ndarray:
        return self.r[: self.dims.k]

    @property
    def q(self) -> np.ndarray:
        return self.r[self.dims.k :]

    @property
    def lu_A(self) -> LuFactors:
        """Cached factorization of the orthant block A."""
        try:
            return self._lu_A
        except AttributeError:  # the slot is set on the first success
            object.__setattr__(self, "_lu_A", lu_factor(self.A, name="A"))
            return self._lu_A

    @classmethod
    def from_blocks(cls, A, B, C, D, p, q, allow_singular: bool = False) -> "LcpProblem":
        A = as_matrix(A, "A")
        B = as_matrix(B, "B")
        C = as_matrix(C, "C")
        D = as_matrix(D, "D")
        k = A.shape[0]
        l = D.shape[0]
        T = np.block([[A, B], [C, D]])
        r = np.concatenate([as_vector(p, "p"), as_vector(q, "q")])
        return cls(EsocDims(k, l), T, r, allow_singular=allow_singular)


class AugmentedPoint(Record):
    """Augmented variable w = (xhat, u, t) with t standing for ||u||."""

    __slots__ = ("xhat", "u", "t")

    def __init__(self, xhat: np.ndarray, u: np.ndarray, t: float):
        object.__setattr__(self, "xhat", as_vector(xhat, "xhat"))
        object.__setattr__(self, "u", as_vector(u, "u"))
        object.__setattr__(self, "t", float(t))
        if not np.isfinite(self.t):
            raise ValueError("t: must be finite")

    @property
    def dims(self) -> EsocDims:
        return EsocDims(self.xhat.shape[0], self.u.shape[0])

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.xhat, self.u, [self.t]])

    @classmethod
    def from_array(cls, dims: EsocDims, arr) -> "AugmentedPoint":
        arr = as_vector(arr, "arr")
        if arr.shape != (dims.m + 1,):
            raise ValueError(f"expected length {dims.m + 1}, got {arr.shape[0]}")
        point = object.__new__(cls)  # checked whole, so its parts skip __init__'s checks
        for name, value in zip(cls.__slots__, (arr[: dims.k], arr[dims.k : dims.m], float(arr[dims.m]))):
            object.__setattr__(point, name, value)
        return point


def affine_map(prob: LcpProblem, z: PointZ) -> PointZ:
    """Evaluate w = T z + r, returned in the same block split (y, v)."""
    w = prob.T @ z.to_array() + prob.r
    k = prob.dims.k
    return PointZ(w[:k], w[k:])


def recover_solution(w: AugmentedPoint, tol: float = 1e-6) -> PointZ:
    """Map a converged augmented point back to z = (xhat + t e, u).

    Requires t > tol (the reformulation is only valid off the u = 0 branch),
    t^2 consistent with ||u||^2, and xhat nonnegative up to tol.
    """
    if not w.t > tol:
        raise DegenerateT(f"t = {w.t} is not above tol = {tol}")
    nu2 = float(w.u @ w.u)
    if abs(w.t * w.t - nu2) > tol * (1.0 + w.t * w.t):
        raise ValueError(f"t^2 = {w.t * w.t} inconsistent with ||u||^2 = {nu2}")
    if w.xhat.min() < -tol:
        raise InfeasibleXhat(f"min xhat = {w.xhat.min()} below -tol = {-tol}")
    return PointZ(w.xhat + w.t, w.u)


def case_i_check(prob: LcpProblem, x, tol: float = 1e-6) -> bool:
    """Does (x, 0) solve the problem through the u = 0 branch?

    Needs (x, A x + p) complementary over the nonnegative orthant and
    e^T (A x + p) >= ||C x + q||, both up to tol relative to 1 + scale.
    """
    x = as_vector(x, "x")
    if x.shape != (prob.dims.k,):
        raise ValueError(f"x must have length {prob.dims.k}, got {x.shape[0]}")
    y = prob.A @ x + prob.p
    v = prob.C @ x + prob.q
    if orthant_comp_violation(x, y) > tol:
        return False
    ety = y.sum()
    nv = float(np.linalg.norm(v))
    return ety >= nv - tol * (1.0 + abs(ety) + nv)


def case_ii_check(prob: LcpProblem, z: PointZ, tol: float = 1e-6) -> bool:
    """Does z = (x, u) solve the problem with the norm block at zero?

    Needs C x + D u + q = 0, (x, A x + B u + p) complementary over the
    orthant, and min x >= ||u||, all up to tol relative to 1 + scale.
    """
    if z.dims != prob.dims:
        raise ValueError(f"point dims {z.dims} do not match problem dims {prob.dims}")
    x, u = z.x, z.u
    y = prob.A @ x + prob.B @ u + prob.p
    v = prob.C @ x + prob.D @ u + prob.q
    nu = float(np.linalg.norm(u))
    scale = 1.0 + float(np.linalg.norm(x)) + nu
    if np.abs(v).max() > tol * scale:
        return False
    if orthant_comp_violation(x, y) > tol:
        return False
    return x.min() >= nu - tol * (1.0 + nu)
