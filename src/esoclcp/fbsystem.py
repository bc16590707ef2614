"""Fischer-Burmeister equation system for the augmented problem.

The complementarity conditions between xhat and the orthant residual are
folded into the smooth-away-from-zero function psi(a, b) = sqrt(a^2 + b^2)
- (a + b), which vanishes exactly on the complementary pairs.  Stacking
psi over the k orthant pairs followed by the equality residual gives a
square system of size m + 1 whose zeros are the augmented solutions.
FbKernel evaluates that system on raw arrays for the solvers' inner loop;
fb_residual and fb_jacobian are its validating entry points, and
certify_solution is the regularity certificate an answer must pass.
fb_pair also serves the solvers' one other FB system, that of the orthant
LCP both reduced branches solve above ENUM_MAX_K.  The merit and the full
regularity test, which asks s0_check for its advisory, are in `theory`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, TooLarge
from .linalg import as_matrix
from .reformulation import AugmentedPoint, LcpProblem

# Subgradient element selected at exactly degenerate pairs (a, b) = (0, 0).
DEGENERATE_SLOPE = 1.0 / np.sqrt(2.0) - 1.0


def _check_dims(prob: LcpProblem, w: AugmentedPoint):
    if w.dims != prob.dims:
        raise DimensionMismatch(f"point dims {w.dims} do not match problem dims {prob.dims}")


def psi_fb(a, b):
    """sqrt(a^2 + b^2) - (a + b), elementwise; zero iff a, b >= 0 and ab = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.hypot(a, b) - (a + b)
    return float(out) if out.ndim == 0 else out


def fb_pair(a, b, out=None):
    """psi(a, b) over arrays of pairs, with its slopes d_a and d_b.

    The slopes are d_a = a/rad - 1 and d_b = b/rad - 1 with
    rad = sqrt(a^2 + b^2); at an exactly degenerate pair both are fixed to
    DEGENERATE_SLOPE so runs stay reproducible.  Every FB system evaluates
    its psi rows here, into out when given, and hands the slopes on to its
    Jacobian.
    """
    rad = np.hypot(a, b)
    psi = np.subtract(rad, a + b, out=out)
    degenerate = rad == 0.0
    safe = np.where(degenerate, 1.0, rad)
    d_a = a / safe
    d_a -= 1.0
    d_b = b / safe
    d_b -= 1.0
    d_a[degenerate] = DEGENERATE_SLOPE
    d_b[degenerate] = DEGENERATE_SLOPE
    return psi, d_a, d_b


def diagonal_terms(rows: int, cols: int, n: int):
    """A rows x cols buffer for np.diag(d) terms, and its writable diagonal.

    Writing d into the diagonal and adding the buffer to a contiguous block
    of Jacobian rows is the arithmetic of adding np.diag(d) to the block's
    leading n x n part: that part holds +0.0 off the diagonal, as np.diag
    gives, and the rest holds -0.0, which leaves every x unchanged (x + -0.0
    is x, -0.0 included).  One contiguous add replaces a strided one.
    """
    buf = np.full((rows, cols), -0.0)
    buf[:n, :n] = 0.0
    return buf, buf.reshape(-1)[: n * (cols + 1) : cols + 1]


class FbKernel:
    """The augmented FB system of one problem, evaluated on raw arrays.

    Built once per problem, it holds the blocks of T and r and the constant
    pieces of the Jacobian: the psi rows' [A | B | A e], the equality rows'
    [e'A | e'B | 0] and [C | D | 0], C e and e'Ae.  A point is the array
    (xhat, u, t) of length m + 1; nothing is validated here.  residual
    returns the stacked residual with the intermediates (x, y, e'y, d_a,
    d_b) that jacobian takes at the same point, so T z + r is evaluated
    once per point.  The arithmetic is that of the reference formulas
    theory.f_comp, theory.f_eq and theory.jacobian_blocks, operation for
    operation.  jacobian rewrites the kernel's diagonal-terms buffer on
    every call, so a kernel serves one thread at a time.
    """

    def __init__(self, prob: LcpProblem):
        k, l = prob.dims.k, prob.dims.l
        m = k + l
        A, B = prob.A, prob.B
        self.prob = prob
        self.k, self.m = k, m
        self.T, self.r = prob.T, prob.r
        self.C, self.D, self.q = prob.C, prob.D, prob.q
        self.top = np.hstack([A, B, A.sum(axis=1)[:, None]])
        self.eAB = np.concatenate([A.sum(axis=0), B.sum(axis=0), [0.0]])
        self.CD = np.hstack([prob.T[k:], np.zeros((l, 1))])
        self.Ce = self.C.sum(axis=1)
        self.eAe = A.sum()
        self.eye_l = np.eye(l)
        # diag(d_a) in the psi rows and (e'y) I in the equality rows' D block.
        self.diag, self.d_a = diagonal_terms(m, m + 1, k)
        self.ety_eye = self.diag[k:, k:m]

    def residual(self, w: np.ndarray):
        """(psi(xhat, y), t v + (e'y) u, t^2 - ||u||^2) and the intermediates."""
        k, m = self.k, self.m
        xhat, u, t = w[:k], w[k:m], w[m]
        z = np.concatenate([xhat + t, u])
        img = self.T @ z + self.r
        y, v = img[:k], img[k:]
        ety = y.sum()
        res = np.empty(m + 1)
        _, d_a, d_b = fb_pair(xhat, y, out=res[:k])
        res[k:m] = t * v + u * ety
        res[m] = t * t - u @ u
        return res, (z[:k], y, ety, d_a, d_b)

    def jacobian(self, w: np.ndarray, aux) -> np.ndarray:
        """Jacobian at w, given the intermediates residual returned for w.

        Rows are filled whole, so every pass is contiguous.  The equality
        rows are u [e'A | e'B] + [0 | (e'y) I] + t [C | D], the terms of
        theory.jacobian_blocks in the same order, each sum with its operands
        swapped; their last column is then overwritten with the t column.
        """
        k, m = self.k, self.m
        u, t = w[k:m], w[m]
        x, _, ety, d_a, d_b = aux
        jac = np.empty((m + 1, m + 1))
        np.multiply(d_b[:, None], self.top, out=jac[:k])
        np.multiply(u[:, None], self.eAB, out=jac[k:m])
        self.d_a[:] = d_a
        np.multiply(ety, self.eye_l, out=self.ety_eye)
        rows = jac[:m]
        rows += self.diag
        eq = jac[k:m]
        eq += t * self.CD
        jac[k:m, m] = self.C @ x + t * self.Ce + self.eAe * u + self.D @ u + self.q
        jac[m, :k] = 0.0
        jac[m, k:m] = -2.0 * u
        jac[m, m] = 2.0 * t
        return jac

    def certified(self, w: np.ndarray, res: np.ndarray, aux, eps: float = 1e-6, tol: float = 1e-3) -> bool:
        """certify_solution at w, given residual(w); nothing is validated.

        w is stationary for the merit (J'F zero to tol, relative to
        1 + ||F||), A is nonsingular and every orthant pair is
        complementary within eps, which is theory.index_sets with no
        residual index.
        """
        grad = self.jacobian(w, aux).T @ res
        if not float(np.abs(grad).max()) <= tol * (1.0 + float(np.linalg.norm(res))):
            return False
        try:
            self.prob.lu_A
        except SingularMatrix:
            return False
        xhat, y = w[: self.k], aux[1]
        return bool(((xhat >= -eps) & (y >= -eps) & (np.abs(xhat * y) <= eps)).all())


def fb_residual(prob: LcpProblem, w: AugmentedPoint) -> np.ndarray:
    """Stacked residual: psi over the (xhat_i, f_comp_i) pairs, then f_eq."""
    _check_dims(prob, w)
    return FbKernel(prob).residual(w.to_array())[0]


def fb_jacobian(prob: LcpProblem, w: AugmentedPoint) -> np.ndarray:
    """Jacobian of fb_residual, row i holding the differential of entry i.

    The psi rows carry the diagonal scalings d_a and d_b of fb_pair, so an
    exactly degenerate pair gets the fixed slope DEGENERATE_SLOPE.
    """
    _check_dims(prob, w)
    kernel = FbKernel(prob)
    arr = w.to_array()
    return kernel.jacobian(arr, kernel.residual(arr)[1])


def s0_check(m) -> bool:
    """Is there x >= 0, x != 0 with m x >= 0?  Decided by linear feasibility.

    The homogeneous cone is normalized by e^T x = 1, so the test is a small
    linear program with no objective.  Matrices above order 20 are refused.
    """
    m = as_matrix(m, "m")
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError(f"m must be square, got {m.shape}")
    if n > 20:
        raise TooLarge(f"s0_check handles order <= 20, got {n}")
    # scipy.optimize costs more to import than the rest of the package; only
    # the Indeterminate verdict reaches this test.
    from scipy.optimize import linprog

    result = linprog(
        c=np.zeros(n),
        A_ub=-m,
        b_ub=np.zeros(n),
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    return bool(result.status == 0)


def certify_solution(
    prob: LcpProblem, w: AugmentedPoint, eps: float = 1e-6, tol: float = 1e-3
) -> bool:
    """True iff w is stationary for the merit and certified Regular.

    That is the decidable branch of theory.fb_regularity_check: A nonsingular and
    no residual indices at eps.  Never raises on a singular block: such a
    point is simply not certified.
    """
    _check_dims(prob, w)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    kernel = FbKernel(prob)
    arr = w.to_array()
    return kernel.certified(arr, *kernel.residual(arr), eps, tol)
