"""The paper's conditions for checking a solution, and its reference formulas.

Nothing a solve runs lives here, and neither the solve pipeline nor the
command line imports this module; `esoclcp` loads it on first access to one
of its names.  It holds the reference augmented map (f_comp, f_eq) and its
analytic Jacobian blocks, written term by term as the paper states them,
which FbKernel reproduces operation for operation; the implicit
mixed-complementarity form (micp_residual, icp_form); the merit function,
its gradient and the stationarity test; the active index sets and the
FB-regularity certificate; and the Schur complement and central-difference
Jacobian those conditions and the tests rest on.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import fbsystem
from .cones import PointZ, orthant_comp_violation
from .errors import DimensionMismatch, ShapeUnsupported, SingularMatrix, TooLarge, ZeroU
from .fbsystem import _check_dims, fb_jacobian, fb_residual
from .linalg import as_matrix, as_vector, lu_factor, lu_solve
from .record import Record, ValueRecord
from .reformulation import AugmentedPoint, LcpProblem, affine_map

# Default central-difference step; balances truncation against rounding for
# float64 at the O(1)..O(100) scales used here.
FD_STEP = 1e-6


def schur_complement(pi, top_left_dim: int, name: str = "leading block"):
    """Schur complement S - R P^-1 Q of the leading block of pi = [[P,Q],[R,S]].

    Raises SingularMatrix if the leading top_left_dim block P is singular;
    `name` labels that block in the error message.
    """
    a = as_matrix(pi, "schur_complement input")
    n, ncols = a.shape
    if n != ncols:
        raise DimensionMismatch(f"schur_complement: matrix must be square, got {a.shape}")
    d = int(top_left_dim)
    if not 0 < d < n:
        raise DimensionMismatch(f"schur_complement: top_left_dim {d} out of range for n={n}")
    P, Q = a[:d, :d], a[:d, d:]
    R, S = a[d:, :d], a[d:, d:]
    return S - R @ lu_solve(lu_factor(P, name=name), Q)


def fd_jacobian(f, at, h: float = FD_STEP):
    """Central-difference Jacobian of a vector-valued f at a point.

    Column j is (f(at + h e_j) - f(at - h e_j)) / (2h).  Used as the oracle
    that analytic Jacobians are tested against.
    """
    x0 = as_vector(at, "fd_jacobian point")
    if h <= 0:
        raise ValueError(f"fd_jacobian: step must be positive, got {h}")
    n = x0.size
    cols = []
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        fp = np.asarray(f(x0 + step), dtype=float)
        fm = np.asarray(f(x0 - step), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


class JacobianBlocks(NamedTuple):
    """Blocks of the derivative of (f_comp, f_eq) at an augmented point.

    comp_x is k x k, comp_ut is k x (l+1), eq_x is (l+1) x k and eq_ut is
    (l+1) x (l+1); columns are ordered (xhat, u, t) throughout.
    """

    comp_x: np.ndarray
    comp_ut: np.ndarray
    eq_x: np.ndarray
    eq_ut: np.ndarray


def _affine_at(prob: LcpProblem, w: AugmentedPoint):
    """(x, y, v) with x = xhat + t e and (y, v) the blocks of T(x,u) + r."""
    x = w.xhat + w.t
    img = affine_map(prob, PointZ(x, w.u))
    return x, img.x, img.u


def f_comp(prob: LcpProblem, w: AugmentedPoint) -> np.ndarray:
    """Orthant-block residual A(xhat + t e) + B u + p, paired with xhat."""
    _, y, _ = _affine_at(prob, w)
    return y


def f_eq(prob: LcpProblem, w: AugmentedPoint) -> np.ndarray:
    """Equality residual: the norm-block equations followed by t^2 - ||u||^2.

    The first l entries equal t v + (e^T y) u where (y, v) are the blocks of
    T(x, u) + r at x = xhat + t e; they vanish together with f_comp
    complementarity exactly when (x, u) solves the cone problem with
    t = ||u||.
    """
    _, y, v = _affine_at(prob, w)
    top = w.t * v + w.u * y.sum()
    return np.concatenate([top, [w.t * w.t - w.u @ w.u]])


def jacobian_blocks(prob: LcpProblem, w: AugmentedPoint) -> JacobianBlocks:
    """Analytic derivative blocks of (f_comp, f_eq) at w.

    Columns are grouped as (xhat, u, t).  f_comp is affine, so its blocks
    are constant: A and [B | A e].  The f_eq blocks collect the product
    rule terms of t v + (e^T y) u and of t^2 - ||u||^2.
    """
    k, l = prob.dims.k, prob.dims.l
    A, B, C, D, q = prob.A, prob.B, prob.C, prob.D, prob.q
    x, y, v = _affine_at(prob, w)
    u, t = w.u, w.t

    comp_x = A.copy()
    comp_ut = np.hstack([B, (A.sum(axis=1))[:, None]])

    eq_x = np.zeros((l + 1, k))
    eq_x[:l] = t * C + np.outer(u, A.sum(axis=0))

    eq_ut = np.zeros((l + 1, l + 1))
    eq_ut[:l, :l] = y.sum() * np.eye(l) + np.outer(u, B.sum(axis=0)) + t * D
    eq_ut[:l, l] = C @ x + t * C.sum(axis=1) + A.sum() * u + D @ u + q
    eq_ut[l, :l] = -2.0 * u
    eq_ut[l, l] = 2.0 * t
    return JacobianBlocks(comp_x, comp_ut, eq_x, eq_ut)


class MicpResidual(NamedTuple):
    """How far a candidate with u != 0 is from the implicit-form equations."""

    f2_norm: float
    comp_violation: float


def micp_residual(prob: LcpProblem, z: PointZ) -> MicpResidual:
    """Implicit-form residual at an unshifted point z = (x, u), u != 0.

    f2_norm is the sup-norm of (||u|| C + u e^T A) x + u e^T (B u + p)
    + ||u|| (D u + q); comp_violation measures orthant complementarity of
    (x - ||u|| e, A x + B u + p).
    """
    if z.dims != prob.dims:
        raise ValueError(f"point dims {z.dims} do not match problem dims {prob.dims}")
    x, u = z.x, z.u
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        raise ZeroU("residual undefined at u = 0")
    f2 = (nu * prob.C + np.outer(u, prob.A.sum(axis=0))) @ x
    f2 += u * (prob.B @ u + prob.p).sum() + nu * (prob.D @ u + prob.q)
    y = prob.A @ x + prob.B @ u + prob.p
    return MicpResidual(float(np.abs(f2).max()), orthant_comp_violation(x - nu, y))


def micp_residual_shifted(prob: LcpProblem, zhat: PointZ) -> MicpResidual:
    """Implicit-form residual at a shifted point zhat = (xhat, u), u != 0.

    Evaluates micp_residual at x = xhat + ||u|| e, so the comp_violation is
    taken against xhat itself.
    """
    nu = float(np.linalg.norm(zhat.u))
    if nu == 0.0:
        raise ZeroU("residual undefined at u = 0")
    return micp_residual(prob, PointZ(zhat.x + nu, zhat.u))


def icp_form(prob: LcpProblem, u) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate x from the implicit form, for square blocks (l = k) only.

    Returns (F1, F2) where F2 = -x solves
    (||u|| C + u e^T A) F2 = u e^T (B u + p) + ||u|| (D u + q) and
    F1 = A F2 + B u + p.  Raises ShapeUnsupported when l != k, ZeroU at
    u = 0 and SingularMatrix when the elimination matrix is singular.
    """
    k, l = prob.dims.k, prob.dims.l
    if l != k:
        raise ShapeUnsupported(f"elimination needs l = k, got k = {k}, l = {l}")
    u = as_vector(u, "u")
    if u.shape != (l,):
        raise ValueError(f"u must have length {l}, got {u.shape[0]}")
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        raise ZeroU("elimination undefined at u = 0")
    M = nu * prob.C + np.outer(u, prob.A.sum(axis=0))
    rhs = u * (prob.B @ u + prob.p).sum() + nu * (prob.D @ u + prob.q)
    F2 = lu_solve(lu_factor(M, name="||u|| C + u e^T A"), rhs)
    F1 = prob.A @ F2 + prob.B @ u + prob.p
    return F1, F2


def merit(prob: LcpProblem, w: AugmentedPoint) -> float:
    """Half the squared residual norm."""
    res = fb_residual(prob, w)
    return 0.5 * float(res @ res)


def grad_merit(prob: LcpProblem, w: AugmentedPoint) -> np.ndarray:
    """Gradient of merit: jacobian transposed times residual."""
    return fb_jacobian(prob, w).T @ fb_residual(prob, w)


def stationarity_check(prob: LcpProblem, w: AugmentedPoint, tol: float = 1e-3) -> bool:
    """Is grad_merit zero up to tol, relative to 1 + the residual norm?"""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    res = fb_residual(prob, w)
    return float(np.abs(grad_merit(prob, w)).max()) <= tol * (1.0 + float(np.linalg.norm(res)))


class IndexSets(ValueRecord):
    """Partition of the orthant indices by how the pair (xhat_i, f1_i) sits.

    comp holds the indices complementary within eps; res is its complement,
    split into pos (both entries above eps) and neg (the rest).  Indices
    are 0-based.
    """

    __slots__ = ("comp", "res", "pos", "neg")

    def __init__(self, comp: frozenset, res: frozenset, pos: frozenset, neg: frozenset):
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)


def index_sets(xhat, f1, eps: float = 1e-6) -> IndexSets:
    """Classify each orthant pair; see IndexSets for the rules."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    xhat = as_vector(xhat, "xhat")
    f1 = as_vector(f1, "f1")
    if xhat.shape != f1.shape:
        raise DimensionMismatch(f"xhat has length {xhat.shape[0]}, f1 has {f1.shape[0]}")
    is_comp = (xhat >= -eps) & (f1 >= -eps) & (np.abs(xhat * f1) <= eps)
    is_pos = ~is_comp & (xhat > eps) & (f1 > eps)
    idx = np.arange(xhat.shape[0])
    comp = frozenset(idx[is_comp].tolist())
    res = frozenset(idx[~is_comp].tolist())
    pos = frozenset(idx[is_pos].tolist())
    return IndexSets(comp, res, pos, res - pos)


class RegularityKind(str, Enum):
    REGULAR = "Regular"
    INDETERMINATE = "Indeterminate"
    IRREGULAR_WITNESS = "IrregularWitness"


class RegularityVerdict(Record):
    """Outcome of the FB-regularity test at a point.

    Regular is only issued in the decidable case: A nonsingular and no
    residual indices, where the sign-pattern condition quantifies over an
    empty set.  IrregularWitness carries a null vector of A.  Indeterminate
    carries the free-block Schur complement restricted to the residual
    indices plus an advisory S0 flag for it, leaving judgement to the
    caller.
    """

    __slots__ = ("kind", "reason", "index_sets", "witness", "schur_free", "s0_advisory")

    def __init__(self, kind: RegularityKind, reason: str, index_sets: IndexSets | None = None,
                 witness: np.ndarray | None = None, schur_free: np.ndarray | None = None,
                 s0_advisory: bool | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "index_sets", index_sets)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "schur_free", schur_free)
        object.__setattr__(self, "s0_advisory", s0_advisory)


def fb_regularity_check(prob: LcpProblem, w: AugmentedPoint, eps: float = 1e-6) -> RegularityVerdict:
    """Certify regularity of the merit function at w where that is decidable.

    eps drives the index-set classification.  Raises SingularMatrix if the
    equality-block Jacobian cannot be eliminated in the Indeterminate
    branch.
    """
    _check_dims(prob, w)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    try:
        prob.lu_A
    except SingularMatrix:
        # Unit null vector of A witnesses the failure.
        witness = np.linalg.svd(prob.A)[2][-1]
        return RegularityVerdict(
            RegularityKind.IRREGULAR_WITNESS,
            "orthant block A is singular",
            witness=witness,
        )

    sets = index_sets(w.xhat, f_comp(prob, w), eps)
    if not sets.res:
        return RegularityVerdict(
            RegularityKind.REGULAR,
            "no residual indices: the sign-pattern condition is vacuous",
            index_sets=sets,
        )

    blocks = jacobian_blocks(prob, w)
    stacked = np.block(
        [[blocks.eq_ut, blocks.eq_x], [blocks.comp_ut, blocks.comp_x]]
    )
    free = schur_complement(stacked, prob.dims.l + 1, name="eq_ut")
    idx = sorted(sets.res)
    restricted = free[np.ix_(idx, idx)]
    try:
        # Looked up in fbsystem at call time, where per-layer tracing
        # rebinds it.
        advisory = fbsystem.s0_check(restricted)
    except TooLarge:
        advisory = None
    return RegularityVerdict(
        RegularityKind.INDETERMINATE,
        "residual indices present: certificate undecided, see schur_free",
        index_sets=sets,
        schur_free=restricted,
        s0_advisory=advisory,
    )
