"""Newton and Levenberg-Marquardt iterations on the FB system, plus the
case-dispatch pipeline for the full cone problem.

All iterations share one engine: evaluate a point's residual and Jacobian
in one call (FbKernel.evaluate), stop when the residual's sup-norm is at
or below the tolerance, otherwise take a full step from
either the Newton system J d = -F or the damped normal equations
(J^T J + mu I) d = -J^T F.  No line search; a divergence guard aborts runs
whose residual grows a million-fold over the best seen, and a step matrix
that fails the pivot test ends the run as SingularJacobian under either
method.  A run that reaches the (t, u) -> 0 corner stops there as MaxIter:
the equality rows are singular at t = ||u|| = 0, and that limit is the u = 0
branch's, which the pipeline answers exactly.  A converged run's last
evaluation also checks and certifies it.

The pipeline is one loop over one stream of candidates: those of the
augmented smooth system (multi-start), then those of the two degenerate
branches.  Both branches are plain orthant LCPs in k variables: u = 0
leaves LCP(A, p), and v = 0, once u = -D^-1 (C x + q) is eliminated,
leaves LCP(A - B D^-1 C, p - B D^-1 q).  One path finds the roots of
either, exactly: it enumerates the complementary supports (lcp_roots).
It runs up to k = ENUM_MAX_K; above it the branches are not searched.
One rule accepts and labels every candidate, whichever its source: its
pair (z, T z + r) must be complementary (classify_pair), and the shape of
that pair gives its case label.  Only an enumerated root is evaluated anew.

newton_solve and lm_solve run the augmented system from opts.start alone
and accept through the same loop; a run that converged to a rejected
point is reported as Diverged.
"""

from __future__ import annotations

import itertools
import math
import numbers
from enum import Enum

import numpy as np

from .cones import PairCase, PointZ, classify_pair
from .errors import EsoclcpError, SingularMatrix
from .fbsystem import FbKernel
from .linalg import LuFactors, _norm, lu_factor, lu_solve
from .record import Record, ValueRecord
from .reformulation import AugmentedPoint, LcpProblem, affine_map, recover_solution

# Not called here, but kept bound in this namespace, where per-layer tracing
# (perfbench/tracer.py) looks up the package's layers.
from .cones import comp_pair_check  # noqa: F401
from .fbsystem import certify_solution, fb_jacobian, fb_residual, psi_fb  # noqa: F401
from .reformulation import case_i_check, case_ii_check  # noqa: F401

# Residual growth factor over the running minimum that aborts a run.
DIVERGENCE_FACTOR = 1e6

# A run whose |t| and max|u| both fall below this fraction of
# min(1, max|xhat|) ends there: the (t, u) -> 0 corner, where the equality
# rows are singular and whose limit the exact u = 0 branch answers.
CORNER_TOL = 1e-2

# Acceptance tolerance of a candidate's pair (classify_pair); recovery also
# needs t above it.
ACCEPT_TOL = 1e-6

# Largest k whose reduced branches are searched, each by enumerating all 2^k
# supports of its LCP; above it they are not searched.  The solve-rate set
# declared for large k (k 11-13) ends here.  The worst case is a problem
# with no accepted root, where both branches are enumerated in full: at
# k = 13 that took about 0.7 s, 5 times the augmented starts that run
# before them, and each k above doubles it (random instances, l 1-4).
ENUM_MAX_K = 13

# Sign tolerance of an enumerated root: x and M x + q may dip this far
# below zero, relative to 1 + their largest entry.
ENUM_RTOL = 1e-9


class SolveStatus(str, Enum):
    """How a run ended.  MaxIter means stopped unconverged: at the max_iter
    cap, or at the (t, u) -> 0 corner (CORNER_TOL)."""

    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    SINGULAR_JACOBIAN = "SingularJacobian"
    DIVERGED = "Diverged"


class CaseLabel(str, Enum):
    CASE_I = "CASE_I"
    CASE_II = "CASE_II"
    CASE_VI = "CASE_VI"


class SolverOptions(ValueRecord):
    """Knobs shared by every iteration in the package.

    start may be an AugmentedPoint or None, the default start: ones for
    xhat, u = e/sqrt(l) and t = 1, which keeps the first iterate away from
    the t = 0 surface where the equality block degenerates.  Random starts
    are drawn from [0,1]^k x [-1,1]^l x [0.5, 1.5] by esoclcp.rng.Pcg64,
    numpy's default_rng(rng_seed) stream.
    """

    __slots__ = ("method", "residual_tol", "mu", "max_iter", "start", "num_random_starts", "rng_seed")

    def __init__(self, method: str = "lm", residual_tol: float = 1e-7, mu: float = 0.005,
                 max_iter: int = 200, start: AugmentedPoint | None = None, num_random_starts: int = 8,
                 rng_seed: int = 0):
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "residual_tol", residual_tol)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "max_iter", max_iter)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "num_random_starts", num_random_starts)
        object.__setattr__(self, "rng_seed", rng_seed)
        # The only check of these knobs: the engine trusts them on every
        # iterate, and the report writes the counts as JSON integers (a bool
        # is not one).  Only start's dims wait for the problem (_resolve_start).
        if self.method not in ("newton", "lm"):
            raise ValueError(f"method must be 'newton' or 'lm', got {self.method!r}")
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        for name, least in (("max_iter", 1), ("num_random_starts", 0), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not (self.start is None or isinstance(self.start, AugmentedPoint)):
            raise ValueError(f"start must be None or an AugmentedPoint, got {self.start!r}")


class SolveReport(Record):
    """Outcome of one solve.

    point is the final iterate on success and the best-residual iterate
    otherwise.  residual_history holds the sup-norm after each accepted
    step, starting with the initial point, so its length is always
    iterations + 1.  recovered carries z = (x, u) in the original
    variables when the point maps back to a valid solution.
    """

    __slots__ = ("status", "point", "residual_norm", "iterations", "residual_history", "case_label",
                 "certified", "recovered")
    _hidden = ("residual_history",)

    def __init__(self, status: SolveStatus, point: AugmentedPoint, residual_norm: float, iterations: int,
                 residual_history: list[float], case_label: CaseLabel = CaseLabel.CASE_VI,
                 certified: bool = False, recovered: PointZ | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "residual_norm", residual_norm)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "residual_history", residual_history)
        object.__setattr__(self, "case_label", case_label)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "recovered", recovered)


class _RawSolve(Record):
    """One engine run; a converged one keeps its last evaluation (res, jac, img) at x."""

    __slots__ = ("status", "x", "norm", "iterations", "history", "last")

    def __init__(self, status: SolveStatus, x: np.ndarray, norm: float, iterations: int,
                 history: list[float], last: tuple | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "history", history)
        object.__setattr__(self, "last", last)


def _iterate(kernel: FbKernel, x0, opts: SolverOptions) -> _RawSolve:
    """Shared Newton/LM engine over a plain vector of unknowns.

    kernel.evaluate(x) returns the residual, the Jacobian and the image at
    x.  x is never changed in place, so the best iterate is kept by
    reference.  The running minimum of the residual norm is best_norm,
    which the divergence guard uses.

    A step writes J or J^T J + mu I, and its right-hand side, into the
    kernel's LuFactors and factors and solves there:
    lu_solve(lu_factor(...))'s bits without its per-call checks and
    allocations.  A NaN or inf in a residual (the initial one too) or step
    matrix ends the run Diverged, a failed pivot test SingularJacobian.  The caller
    ignores numpy's overflow and invalid-value warnings (_first_answer),
    whose cause the run's status already reports.

    After a step that did not converge, the run ends MaxIter, as at the cap,
    when |t| and max|u| are both below CORNER_TOL * min(1, max|xhat|); the
    start itself is never tested.
    """
    evaluate, work, k_x, m = kernel.evaluate, kernel.lu, kernel.k, kernel.m
    x = np.array(x0, dtype=float)
    res, jac, _ = last = evaluate(x)
    # One pass: a NaN or inf entry makes the max non-finite.
    norm = float(np.maximum.reduce(np.abs(res)))
    history = [norm]
    best_x, best_norm = x, norm
    if not math.isfinite(norm):
        return _RawSolve(SolveStatus.DIVERGED, x, norm, 0, history)
    k = 0
    newton = opts.method == "newton"
    damping = None if newton else opts.mu * np.eye(x.size)
    # J^T J + mu I is exactly symmetric (numpy forms J^T J by a symmetric
    # rank-k update), so written in C order it is already in Fortran order.
    normal = work.lu.T
    while True:
        if norm <= opts.residual_tol:
            return _RawSolve(SolveStatus.CONVERGED, x, norm, k, history, last)
        if k >= opts.max_iter:
            return _RawSolve(SolveStatus.MAX_ITER, best_x, best_norm, k, history)
        # The scalar test first: an iterate away from the corner pays one compare.
        if abs(x[m]) < CORNER_TOL and k:
            corner = CORNER_TOL * min(1.0, np.maximum.reduce(np.abs(x[:k_x])))
            if abs(x[m]) < corner and np.maximum.reduce(np.abs(x[k_x:m])) < corner:
                return _RawSolve(SolveStatus.MAX_ITER, best_x, best_norm, k, history)
        try:
            if newton:
                work.lu[...] = jac
                np.negative(res, out=work.b)
                work.factor("jacobian")
            else:
                np.matmul(jac.T, jac, out=normal)
                np.add(normal, damping, out=normal)
                np.matmul(jac.T, res, out=work.b)
                np.negative(work.b, out=work.b)
                work.factor("normal matrix")
        except SingularMatrix:
            return _RawSolve(SolveStatus.SINGULAR_JACOBIAN, best_x, best_norm, k, history)
        except ValueError:
            return _RawSolve(SolveStatus.DIVERGED, best_x, best_norm, k, history)
        x = x + work.solve()
        res, jac, _ = last = evaluate(x)
        norm = float(np.maximum.reduce(np.abs(res)))
        if not math.isfinite(norm):
            return _RawSolve(SolveStatus.DIVERGED, best_x, best_norm, k, history)
        k += 1
        history.append(norm)
        if norm < best_norm:
            best_x, best_norm = x, norm
        elif norm > DIVERGENCE_FACTOR * best_norm:
            return _RawSolve(SolveStatus.DIVERGED, best_x, best_norm, k, history)


def _resolve_start(opts: SolverOptions, prob: LcpProblem) -> np.ndarray:
    """opts.start as an (xhat, u, t) array."""
    if opts.start is None:
        k, l = prob.dims.k, prob.dims.l
        start = np.ones(k + l + 1)
        start[k : k + l] = 1.0 / math.sqrt(l)
        return start
    if opts.start.dims != prob.dims:
        raise ValueError(f"start dims {opts.start.dims} do not match problem {prob.dims}")
    return opts.start.to_array()


def newton_solve(prob: LcpProblem, opts: SolverOptions) -> SolveReport:
    """Pure Newton steps on the augmented FB system from opts.start."""
    if opts.method != "newton":
        raise ValueError(f"newton_solve needs method='newton', got {opts.method!r}")
    return _first_answer(prob, opts, [_resolve_start(opts, prob)])


def lm_solve(prob: LcpProblem, opts: SolverOptions) -> SolveReport:
    """Levenberg-Marquardt steps with fixed damping mu on the FB system."""
    if opts.method != "lm":
        raise ValueError(f"lm_solve needs method='lm', got {opts.method!r}")
    if not opts.mu > 0:
        raise ValueError(f"lm_solve needs mu > 0, got {opts.mu}")
    return _first_answer(prob, opts, [_resolve_start(opts, prob)])


def lcp_roots(M: np.ndarray, q: np.ndarray):
    """Yield every solution of LCP(M, q): x >= 0, M x + q >= 0, x'(M x + q) = 0.

    Exact support enumeration (Cottle, Pang and Stone, The Linear
    Complementarity Problem, 1992): for each support S, by size and then
    lexicographically, solve M_SS x_S = -q_S with x = 0 off S, and yield x
    when x and M x + q are finite and nonnegative up to ENUM_RTOL.  The
    supports of one size share one LuFactors.  A support whose principal
    block fails the pivot test is skipped, so a root reachable only through
    singular blocks is missed, and a degenerate root (some
    x_i = (M x + q)_i = 0) is yielded once per support that reaches it.
    """
    n = q.shape[0]
    for size in range(n + 1):
        work = LuFactors(size) if size else None
        for support in itertools.combinations(range(n), size):
            x = np.zeros(n)
            if size:
                s = list(support)
                work.lu[...] = M[s][:, s]
                try:
                    work.factor("principal block")
                except SingularMatrix:
                    continue
                np.negative(q[s], out=work.b)
                x[s] = work.solve()
            w = M @ x + q
            scale = np.maximum(np.abs(x).max(), np.abs(w).max())  # NaN stays NaN
            if scale < math.inf and min(x.min(), w.min()) >= -ENUM_RTOL * (1.0 + scale):
                yield x


# Case label of an answer, by the shape of its pair.
_PAIR_LABEL = {
    PairCase.U_ZERO: CaseLabel.CASE_I,
    PairCase.V_ZERO: CaseLabel.CASE_II,
    PairCase.GENERAL: CaseLabel.CASE_VI,
}


def _accept(kernel: FbKernel, raw, point, label, recovered) -> SolveReport:
    """Converged report at point: raw.x, whose last evaluation (raw.last) it
    certifies, or an enumerated root (raw is None), evaluated here; that took
    no iterations, so its history is its own residual norm."""
    if raw is None:
        arr = point.to_array()
        last = kernel.evaluate(arr)
        norm = float(np.abs(last[0]).max())
        raw = _RawSolve(SolveStatus.CONVERGED, arr, norm, 0, [norm], last)
    res, jac, img = raw.last
    return SolveReport(SolveStatus.CONVERGED, point, raw.norm, raw.iterations, raw.history, label,
                       kernel.certified(raw.x, res, jac, img[: kernel.k]), recovered)


def _unsolved(prob: LcpProblem, raw: _RawSolve) -> SolveReport:
    """Report of a run that gave no answer, at its best iterate; a run that
    converged to a rejected point is reported as Diverged."""
    status = SolveStatus.DIVERGED if raw.status is SolveStatus.CONVERGED else raw.status
    point = AugmentedPoint.from_array(prob.dims, raw.x)
    return SolveReport(status, point, raw.norm, raw.iterations, raw.history)


def _starts(first: np.ndarray, opts: SolverOptions, dims):
    """first, then num_random_starts seeded starts, drawn lazily from
    [0,1]^k x [-1,1]^l x [0.5, 1.5] by a generator seeded with rng_seed."""
    yield first
    from .rng import Pcg64  # loaded only when a first start fails

    rng = Pcg64(opts.rng_seed)
    for _ in range(opts.num_random_starts):
        yield np.concatenate([rng.uniform(0.0, 1.0, dims.k), rng.uniform(-1.0, 1.0, dims.l), rng.uniform(0.5, 1.5, 1)])


def _augmented_candidates(prob: LcpProblem, opts: SolverOptions, kernel: FbKernel, starts, runs: list):
    """Yield (raw, point, z) for each converged run from starts whose point
    recover_solution maps to z; every run is appended to runs."""
    for start in starts:
        raw = _iterate(kernel, start, opts)
        runs.append(raw)
        if raw.status is not SolveStatus.CONVERGED:
            continue
        point = AugmentedPoint.from_array(prob.dims, raw.x)
        try:
            z = recover_solution(point, ACCEPT_TOL)
        except (EsoclcpError, ValueError):
            continue
        yield raw, point, z


def _reduced_candidates(prob: LcpProblem):
    """Yield (None, point, z) for each root of the u = 0 branch, then of the
    v = 0 branch; nothing when k > ENUM_MAX_K.

    The branches solve LCP(A, p), and LCP(A - B D^-1 C, p - B D^-1 q) with
    u = -D^-1 (C x + q), through lcp_roots.  D is factored once, when the
    v = 0 branch starts; a singular D or overflowed reduced data ends it.
    """
    if prob.dims.k > ENUM_MAX_K:
        return
    u0 = np.zeros(prob.dims.l)
    A, B, C, D, p, q = prob.A, prob.B, prob.C, prob.D, prob.p, prob.q
    for x in lcp_roots(A, p):
        yield None, AugmentedPoint(x, u0, 0.0), PointZ(x, u0)
    try:
        lu_D = lu_factor(D, name="D")
    except SingularMatrix:
        return
    M, r = A - B @ lu_solve(lu_D, C), p - B @ lu_solve(lu_D, q)
    if not (np.isfinite(M).all() and np.isfinite(r).all()):
        return
    for x in lcp_roots(M, r):
        u = -lu_solve(lu_D, C @ x + q)
        t = _norm(u)
        if t < math.inf:  # else u overflowed
            yield None, AugmentedPoint(x - t, u, t), PointZ(x, u)


def _first_answer(prob: LcpProblem, opts: SolverOptions, starts, reduced=()) -> SolveReport:
    """The first candidate, of the augmented runs from starts and then of
    reduced, that passes the one acceptance rule; failing that, the report
    of the best augmented run.  The rule: the pair (z, T z + r) is finite
    and complementary, its shape is the case label, and the augmented
    residual passes the tolerance.  An augmented candidate's T z + r is its
    run's last img (its z is xhat + t, as there).

    The whole solve ignores numpy's overflow and invalid-value warnings:
    data near the float range overflows the kernel's constants, the runs,
    the candidate checks or the certificate, and what overflowed shows as
    a run's status, a rejected candidate or an uncertified answer."""
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = FbKernel(prob)
        runs: list[_RawSolve] = []
        augmented = _augmented_candidates(prob, opts, kernel, starts, runs)
        for raw, point, z in itertools.chain(augmented, reduced):
            try:
                w = affine_map(prob, z) if raw is None else PointZ.from_array(prob.dims, raw.last[2])
            except ValueError:  # T z + r overflowed
                continue
            case, _ = classify_pair(z, w, ACCEPT_TOL)
            if case is PairCase.NOT_COMPLEMENTARY:
                continue
            report = _accept(kernel, raw, point, _PAIR_LABEL[case], z)
            if report.residual_norm <= opts.residual_tol:
                return report
        return _unsolved(prob, min(runs, key=lambda raw: raw.norm))


def solve_esoclcp(prob: LcpProblem, opts: SolverOptions | None = None) -> SolveReport:
    """Full pipeline over the solution cases, first verified answer wins.

    One loop takes the candidates of the augmented smooth system, from the
    default start and num_random_starts seeded extra starts, then those of
    the u = 0 and v = 0 branches (_reduced_candidates), and returns the
    first that _first_answer accepts.  The reduced roots are exact, so
    their answers report 0 iterations; above k = ENUM_MAX_K the branches
    are not searched.  Every answer is labelled by the shape of its pair
    (classify_pair), so an augmented answer whose image has a zero norm
    block is CASE_II.  When nothing is accepted, the report describes the
    best augmented run; a run that converged to an invalid point (t <= 0
    or failed verification) is reported as Diverged.
    """
    if opts is None:
        opts = SolverOptions()
    starts = _starts(_resolve_start(opts, prob), opts, prob.dims)
    return _first_answer(prob, opts, starts, _reduced_candidates(prob))
