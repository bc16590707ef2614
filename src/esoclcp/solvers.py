"""Newton and Levenberg-Marquardt iterations on the FB system, plus the
case-dispatch pipeline for the full cone problem.

All iterations share one engine: evaluate the residual, stop when its
sup-norm is at or below the tolerance, otherwise take a full step from
either the Newton system J d = -F or the damped normal equations
(J^T J + mu I) d = -J^T F.  No line search; a divergence guard aborts runs
whose residual grows a million-fold over the best seen, and a step matrix
that fails the pivot test ends the run as SingularJacobian under either
method.

The pipeline is one loop over one stream of candidates: those of the
augmented smooth system (multi-start), then those of the two degenerate
branches.  Both branches are plain orthant LCPs in k variables: u = 0
leaves LCP(A, p), and v = 0, once u = -D^-1 (C x + q) is eliminated,
leaves LCP(A - B D^-1 C, p - B D^-1 q).  One path finds the roots of
either: up to k = ENUM_MAX_K it enumerates the complementary supports
(lcp_roots); above it, it runs the Newton/LM multistart on the orthant FB
system.  Every candidate is accepted only after the independent
complementarity checks pass.

newton_solve and lm_solve run the augmented system from opts.start alone
and accept through the same loop: an answer is labelled by the shape of
its pair, and a run that converged to a rejected point is reported as
Diverged.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cones import PairCase, PointZ, classify_pair, comp_pair_check
from .errors import EsoclcpError, SingularMatrix
from .fbsystem import FbKernel, diagonal_terms, fb_pair

# Not called here, but kept bound in this namespace, where per-layer tracing
# (perfbench/tracer.py) looks up the package's layers.
from .fbsystem import certify_solution, fb_jacobian, fb_residual, psi_fb  # noqa: F401
from .linalg import lu_factor, lu_solve
from .reformulation import (
    AugmentedPoint,
    LcpProblem,
    affine_map,
    case_i_check,
    case_ii_check,
    recover_solution,
)

# Residual growth factor over the running minimum that aborts a run.
DIVERGENCE_FACTOR = 1e6

# Acceptance tolerance for recovered solutions and case checks; recovery
# also needs t above it.
ACCEPT_TOL = 1e-6

# Largest k whose reduced branches enumerate all 2^k supports; above it they
# keep the Newton/LM multistart.  Enumerating both branches in full took 0.6
# times as long as the 9 x 200 augmented iterations that run before them at
# k = 10 and as long at k = 11 (random instances, l = 1 and 5).
ENUM_MAX_K = 10

# Sign tolerance of an enumerated root: x and M x + q may dip this far
# below zero, relative to 1 + their largest entry.
ENUM_RTOL = 1e-9


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    SINGULAR_JACOBIAN = "SingularJacobian"
    DIVERGED = "Diverged"


class CaseLabel(str, Enum):
    CASE_I = "CASE_I"
    CASE_II = "CASE_II"
    CASE_VI = "CASE_VI"


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by every iteration in the package.

    start may be an AugmentedPoint or None, the default start: ones for
    xhat, u = e/sqrt(l) and t = 1, which keeps the first iterate away from
    the t = 0 surface where the equality block degenerates.  Random starts
    are drawn from [0,1]^k x [-1,1]^l x [0.5, 1.5] with numpy's seeded
    generator.
    """

    method: str = "lm"
    residual_tol: float = 1e-7
    mu: float = 0.005
    max_iter: int = 200
    start: AugmentedPoint | None = None
    num_random_starts: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        # The only check of these knobs: the engine trusts them on every
        # iterate, and the report writes the counts as JSON integers.  Only
        # start's dims wait for the problem (_resolve_start).
        if self.method not in ("newton", "lm"):
            raise ValueError(f"method must be 'newton' or 'lm', got {self.method!r}")
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        for name, least in (("max_iter", 1), ("num_random_starts", 0), ("rng_seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not (self.start is None or isinstance(self.start, AugmentedPoint)):
            raise ValueError(f"start must be None or an AugmentedPoint, got {self.start!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solve.

    point is the final iterate on success and the best-residual iterate
    otherwise.  residual_history holds the sup-norm after each accepted
    step, starting with the initial point, so its length is always
    iterations + 1.  recovered carries z = (x, u) in the original
    variables when the point maps back to a valid solution.
    """

    status: SolveStatus
    point: AugmentedPoint
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(repr=False)
    case_label: CaseLabel = CaseLabel.CASE_VI
    certified: bool = False
    recovered: PointZ | None = None


@dataclass
class _RawSolve:
    status: SolveStatus
    x: np.ndarray
    norm: float
    iterations: int
    history: list[float]


def _iterate(res_fn, jac_fn, x0, opts: SolverOptions) -> _RawSolve:
    """Shared Newton/LM engine over a plain vector of unknowns.

    res_fn(x) returns the residual and the intermediates that jac_fn(x, aux)
    takes to build the Jacobian at the same point.  x is never changed in
    place, so the best iterate is kept by reference.  The running minimum
    of the residual norm is best_norm, which the divergence guard uses.
    """
    x = np.array(x0, dtype=float)
    res, aux = res_fn(x)
    norm = float(np.abs(res).max())
    history = [norm]
    best_x, best_norm = x, norm
    k = 0
    newton = opts.method == "newton"
    damping = None if newton else opts.mu * np.eye(x.size)
    while True:
        if norm <= opts.residual_tol:
            return _RawSolve(SolveStatus.CONVERGED, x, norm, k, history)
        if k >= opts.max_iter:
            return _RawSolve(SolveStatus.MAX_ITER, best_x, best_norm, k, history)
        jac = jac_fn(x, aux)
        try:
            if newton:
                d = lu_solve(lu_factor(jac, name="jacobian"), -res)
            else:
                normal = jac.T @ jac + damping
                d = lu_solve(lu_factor(normal, name="normal matrix"), -(jac.T @ res))
        except SingularMatrix:
            return _RawSolve(SolveStatus.SINGULAR_JACOBIAN, best_x, best_norm, k, history)
        x = x + d
        res, aux = res_fn(x)
        # One pass: a NaN or inf entry makes the max non-finite.
        norm = float(np.abs(res).max())
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
        return np.concatenate([np.ones(k), np.ones(l) / np.sqrt(l), [1.0]])
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


def _orthant_system(A: np.ndarray, p: np.ndarray):
    k = A.shape[0]
    diag, diag_d_a = diagonal_terms(k, k, k)

    def res_fn(x):
        psi, d_a, d_b = fb_pair(x, A @ x + p)
        return psi, (d_a, d_b)

    def jac_fn(x, aux):
        d_a, d_b = aux
        jac = d_b[:, None] * A
        diag_d_a[:] = d_a
        jac += diag
        return jac

    return res_fn, jac_fn


def lcp_roots(M: np.ndarray, q: np.ndarray):
    """Yield every solution of LCP(M, q): x >= 0, M x + q >= 0, x'(M x + q) = 0.

    Exact support enumeration (Cottle, Pang and Stone, The Linear
    Complementarity Problem, 1992): for each support S, by size and then
    lexicographically, solve M_SS x_S = -q_S with x = 0 off S, and yield x
    when x and M x + q are nonnegative up to ENUM_RTOL.  A support whose
    principal block fails the pivot test is skipped, so a root reachable
    only through singular blocks is missed, and a degenerate root (some
    x_i = (M x + q)_i = 0) is yielded once per support that reaches it.
    """
    n = q.shape[0]
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            x = np.zeros(n)
            if size:
                s = list(support)
                try:
                    x[s] = lu_solve(lu_factor(M[s][:, s], name="principal block"), -q[s])
                except SingularMatrix:
                    continue
            w = M @ x + q
            if min(x.min(), w.min()) >= -ENUM_RTOL * (1.0 + max(np.abs(x).max(), np.abs(w).max())):
                yield x


def _orthant_roots(M: np.ndarray, r: np.ndarray, opts: SolverOptions):
    """Yield (x, raw) for the roots of LCP(M, r) that a reduced branch tries.

    Up to k = ENUM_MAX_K these are every root lcp_roots finds, with raw
    None.  Above it they are the distinct converged roots of the FB
    multistart from the all-ones start, each with its run as raw.  The
    branches can have several roots of which only some extend to cone
    solutions, so every distinct one is worth case-checking.
    """
    k = r.shape[0]
    if k <= ENUM_MAX_K:
        for x in lcp_roots(M, r):
            yield x, None
        return
    res_fn, jac_fn = _orthant_system(M, r)
    found: list[np.ndarray] = []
    for start in _starts(np.ones(k), opts, [(0.0, 1.0, k)]):
        raw = _iterate(res_fn, jac_fn, start, opts)
        if raw.status is not SolveStatus.CONVERGED:
            continue
        if any(np.abs(raw.x - x).max() <= 1e-8 * (1.0 + np.abs(x).max()) for x in found):
            continue
        found.append(raw.x)
        yield raw.x, raw


# Case label of an augmented-branch answer, by the shape of its pair.
_PAIR_LABEL = {
    PairCase.U_ZERO: CaseLabel.CASE_I,
    PairCase.V_ZERO: CaseLabel.CASE_II,
    PairCase.GENERAL: CaseLabel.CASE_VI,
}


def _verified(prob: LcpProblem, z: PointZ) -> bool:
    return comp_pair_check(z, affine_map(prob, z), ACCEPT_TOL)


def _accept(kernel: FbKernel, raw, point, label, recovered) -> SolveReport:
    """Converged report at point; raw is None for an enumerated root, which
    took no iterations, so its history is its own residual norm."""
    arr = point.to_array()
    res, aux = kernel.residual(arr)
    norm = float(np.abs(res).max())
    return SolveReport(
        status=SolveStatus.CONVERGED,
        point=point,
        residual_norm=norm,
        iterations=0 if raw is None else raw.iterations,
        residual_history=[norm] if raw is None else raw.history,
        case_label=label,
        certified=kernel.certified(arr, res, aux),
        recovered=recovered,
    )


def _unsolved(prob: LcpProblem, raw: _RawSolve) -> SolveReport:
    """Report of a run that gave no answer, at its best iterate; a run that
    converged to a rejected point is reported as Diverged."""
    status = SolveStatus.DIVERGED if raw.status is SolveStatus.CONVERGED else raw.status
    point = AugmentedPoint.from_array(prob.dims, raw.x)
    return SolveReport(status, point, raw.norm, raw.iterations, raw.history)


def _starts(first: np.ndarray, opts: SolverOptions, bounds):
    """first, then num_random_starts seeded starts, drawn lazily.

    Each seeded start joins one uniform draw per (low, high, size) of
    bounds, in order; every branch restarts the generator at rng_seed.
    """
    yield first
    rng = np.random.default_rng(opts.rng_seed)
    for _ in range(opts.num_random_starts):
        yield np.concatenate([rng.uniform(low, high, size) for low, high, size in bounds])


def _augmented_candidates(prob: LcpProblem, opts: SolverOptions, kernel: FbKernel, starts, runs: list):
    """Yield (raw, point, label, z) for each augmented run from starts whose
    point recovers (t above ACCEPT_TOL) to a complementary pair, labelled by
    the shape of that pair; every run is appended to runs."""
    for start in starts:
        raw = _iterate(kernel.residual, kernel.jacobian, start, opts)
        runs.append(raw)
        if raw.status is not SolveStatus.CONVERGED:
            continue
        point = AugmentedPoint.from_array(prob.dims, raw.x)
        try:
            z = recover_solution(point, ACCEPT_TOL)
        except (EsoclcpError, ValueError):
            continue
        case, _ = classify_pair(z, affine_map(prob, z), ACCEPT_TOL)
        if case is not PairCase.NOT_COMPLEMENTARY:
            yield raw, point, _PAIR_LABEL[case], z


def _reduced_candidates(prob: LcpProblem, opts: SolverOptions):
    """Yield (raw, point, label, z) for each root of the u = 0 branch
    (CASE_I), then of the v = 0 branch (CASE_II), that passes its case
    check and the pair check.

    The branches solve LCP(A, p), and LCP(A - B D^-1 C, p - B D^-1 q) with
    u = -D^-1 (C x + q), through _orthant_roots.  D is factored once, when
    the v = 0 branch starts; a singular D ends it.
    """
    l = prob.dims.l
    A, B, C, D, p, q = prob.A, prob.B, prob.C, prob.D, prob.p, prob.q
    for x, raw in _orthant_roots(A, p, opts):
        z = PointZ(x, np.zeros(l))
        if case_i_check(prob, x, ACCEPT_TOL) and _verified(prob, z):
            yield raw, AugmentedPoint(x, z.u, 0.0), CaseLabel.CASE_I, z
    try:
        lu_D = lu_factor(D, name="D")
    except SingularMatrix:
        return
    for x, raw in _orthant_roots(A - B @ lu_solve(lu_D, C), p - B @ lu_solve(lu_D, q), opts):
        z = PointZ(x, -lu_solve(lu_D, C @ x + q))
        if case_ii_check(prob, z, ACCEPT_TOL) and _verified(prob, z):
            t = float(np.linalg.norm(z.u))
            yield raw, AugmentedPoint(x - t, z.u, t), CaseLabel.CASE_II, z


def _first_answer(prob: LcpProblem, opts: SolverOptions, starts, reduced=()) -> SolveReport:
    """The first candidate, of the augmented runs from starts and then of
    reduced, whose augmented residual passes the tolerance; failing that,
    the report of the best augmented run."""
    kernel = FbKernel(prob)
    runs: list[_RawSolve] = []
    augmented = _augmented_candidates(prob, opts, kernel, starts, runs)
    for raw, point, label, z in itertools.chain(augmented, reduced):
        report = _accept(kernel, raw, point, label, z)
        if report.residual_norm <= opts.residual_tol:
            return report
    return _unsolved(prob, min(runs, key=lambda raw: raw.norm))


def solve_esoclcp(prob: LcpProblem, opts: SolverOptions | None = None) -> SolveReport:
    """Full pipeline over the solution cases, first verified answer wins.

    One loop takes the candidates of the augmented smooth system, from the
    default start and num_random_starts seeded extra starts, then those of
    the u = 0 and v = 0 branches (_reduced_candidates), and returns the
    first whose augmented residual passes the tolerance.  Up to
    k = ENUM_MAX_K the reduced roots are exact and their answers report 0
    iterations.  An augmented answer is labelled by the shape of its pair
    (classify_pair), so one whose image has a zero norm block is CASE_II.
    When nothing is accepted, the report describes the best augmented run;
    a run that converged to an invalid point (t <= 0 or failed
    verification) is reported as Diverged.
    """
    if opts is None:
        opts = SolverOptions()
    k, l = prob.dims.k, prob.dims.l
    starts = _starts(_resolve_start(opts, prob), opts, [(0.0, 1.0, k), (-1.0, 1.0, l), (0.5, 1.5, 1)])
    return _first_answer(prob, opts, starts, _reduced_candidates(prob, opts))
