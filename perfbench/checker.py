"""Independent check of solve reports, written with numpy alone.

It shares no code with the package under test: the cone tests, the
affine map and the augmented Fischer-Burmeister residual are recomputed
here from the problem data (T, r) and the serialized report.

For dimensions k, l the cone and its dual are

    L = {(x, u): x_i >= ||u|| for every i}
    M = {(y, v): e'y >= ||v||, y >= 0}

and a report is accepted when its recovered z = (x, u) lies in L,
w = T z + r lies in M, <z, w> vanishes, the residual of the augmented
system at the reported point (xhat, u, t) is below the report's own
tolerance, and the case label fits the pair.  Every comparison lhs >= rhs
is made as lhs >= rhs - tol * (1 + scale).

``check_report`` sorts what it finds into three verdicts: ``OK``;
``FAILED`` with a reason, for a known fault of the program (the instance
was not solved, or a v = 0 answer was labelled CASE_VI); and ``WRONG``
with a reason, for anything else, which is a wrong answer.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

PAIR_TOL = 1e-6
# v + lambda u amplifies the error in u by lambda = e'y / ||u||, which
# reaches the hundreds on small-u answers, so the CASE_VI direction test
# is looser than the pair test.
LABEL_TOL = 1e-4

OK = "ok"
FAILED = "failed"
WRONG = "wrong"

# The built-in example's exact solution, as rationals.
EXAMPLE_X = (Fraction(1271, 3582), Fraction(1072, 1051), Fraction(1271, 3582))
EXAMPLE_U = (Fraction(341, 1480), Fraction(724, 2683))
EXAMPLE_TOL = 1e-6


def _blocks(T, r, k):
    T = np.asarray(T, dtype=float)
    r = np.asarray(r, dtype=float)
    return T[:k, :k], T[:k, k:], T[k:, :k], T[k:, k:], r[:k], r[k:]


def pair_violations(T, r, k, x, u) -> dict:
    """Scaled violations of z in L, w in M and <z, w> = 0 for z = (x, u)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    z = np.concatenate([x, u])
    w = np.asarray(T, dtype=float) @ z + np.asarray(r, dtype=float)
    y, v = w[:k], w[k:]
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    return {
        "z_in_L": max(0.0, nu - x.min()) / (1.0 + nu),
        "w_in_M_norm": max(0.0, nv - y.sum()) / (1.0 + nv),
        "w_in_M_sign": max(0.0, -y.min()) / (1.0 + float(np.abs(y).max())),
        "inner": abs(float(z @ w)) / (1.0 + float(np.linalg.norm(z) * np.linalg.norm(w))),
    }


def label_fits(label: str, T, r, k, x, u, tol: float = PAIR_TOL) -> bool:
    """Does the case label describe the pair z = (x, u), w = T z + r?

    CASE_I needs u = 0, CASE_II needs v = 0, and CASE_VI needs v + lambda u
    = 0 with lambda = e'y / ||u|| > 0.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    z = np.concatenate([x, u])
    w = np.asarray(T, dtype=float) @ z + np.asarray(r, dtype=float)
    y, v = w[:k], w[k:]
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if label == "CASE_I":
        return nu <= tol * (1.0 + float(np.linalg.norm(z)))
    if label == "CASE_II":
        return nv <= tol * (1.0 + float(np.linalg.norm(w)))
    if label == "CASE_VI":
        if nu <= tol * (1.0 + float(np.linalg.norm(z))):
            return False
        lam = float(y.sum()) / nu
        return lam > tol and float(np.abs(v + lam * u).max()) <= LABEL_TOL * (1.0 + nv)
    return False


def fb_residual(T, r, k, xhat, u, t) -> np.ndarray:
    """Augmented residual: psi(xhat, y), t v + (e'y) u, and t^2 - ||u||^2."""
    A, B, C, D, p, q = _blocks(T, r, k)
    xhat = np.asarray(xhat, dtype=float)
    u = np.asarray(u, dtype=float)
    x = xhat + t
    y = A @ x + B @ u + p
    v = C @ x + D @ u + q
    psi = np.sqrt(xhat * xhat + y * y) - (xhat + y)
    return np.concatenate([psi, t * v + y.sum() * u, [t * t - u @ u]])


def example_error(x, u) -> float:
    """Largest relative distance of (x, u) from the example's exact solution."""
    exact = np.array([float(c) for c in EXAMPLE_X + EXAMPLE_U])
    got = np.concatenate([np.asarray(x, dtype=float), np.asarray(u, dtype=float)])
    if got.shape != exact.shape:
        return float("inf")
    return float((np.abs(got - exact) / (1.0 + np.abs(exact))).max())


def check_report(T, r, k, report_text: str, exact_example: bool = False) -> tuple[str, str]:
    """Verdict (OK, FAILED or WRONG) and a reason for one serialized report.

    Every instance given to this check has a solution, so a report that is
    not Converged is a FAILED solve.  With exact_example the recovered point
    must also match the built-in example's rational solution.
    """
    rep = json.loads(report_text)
    if rep["status"] != "Converged":
        return FAILED, f"not converged: {rep['status']}"
    if rep["recovered"] is None:
        return WRONG, "converged without a recovered point"
    x = np.asarray(rep["recovered"]["x"], dtype=float)
    u = np.asarray(rep["recovered"]["u"], dtype=float)
    pt = rep["point"]
    xhat, pu, t = np.asarray(pt["xhat"], dtype=float), np.asarray(pt["u"], dtype=float), pt["t"]
    scale = 1.0 + float(np.abs(x).max())
    if np.abs(xhat + t - x).max() > 1e-9 * scale or np.abs(pu - u).max() > 1e-9 * scale:
        return WRONG, "recovered point does not match the augmented point"
    bad = {name: val for name, val in pair_violations(T, r, k, x, u).items() if val > PAIR_TOL}
    if bad:
        return WRONG, "not a complementary pair: " + ", ".join(f"{n}={v:.2e}" for n, v in bad.items())
    tol = rep["options"]["tol"]
    res = float(np.abs(fb_residual(T, r, k, xhat, pu, t)).max())
    if res > tol * (1.0 + 1e-6):
        return WRONG, f"recomputed residual {res:.3e} above tolerance {tol:.1e}"
    label = rep["case_label"]
    if not label_fits(label, T, r, k, x, u):
        if label == "CASE_VI" and label_fits("CASE_II", T, r, k, x, u):
            return FAILED, "v = 0 answer labelled CASE_VI"
        return WRONG, f"label {label} does not fit the pair"
    if exact_example and example_error(x, u) > EXAMPLE_TOL:
        return WRONG, f"example solution off by {example_error(x, u):.2e}"
    return OK, ""
