"""Built-in example problem and seeded random instance generation.

The generators work backwards from a chosen solution: draw the blocks of T,
draw a point with the desired structure (general positive-norm solution,
u = 0, or v = 0), then set r so the affine image lands exactly where the
solution characterization needs it.  Each constructed instance therefore
ships with a known solution sidecar; the "random" flavor draws (T, r)
unconditioned and has none.
"""

from __future__ import annotations

import numpy as np

from .cones import EsocDims, PointZ
from .errors import SingularMatrix
from .record import Record
from .reformulation import LcpProblem

# Matrix entries are drawn uniformly from this range, matching the scale of
# the built-in example.
ENTRY_RANGE = 50.0

# Scales for the constructed solution parts.  Kept moderate (solutions a
# small multiple of the solvers' start box) and bounded away from zero so
# the FB pairs at the solution are strictly complementary; near-degenerate
# pairs make the Jacobian nearly singular there and stall the fixed-damping
# iteration.
PART_LO = 0.2
PART_HI = 2.0
MIN_U_NORM = 0.5
MAX_U_NORM = 2.5
LAMBDA_LO = 0.5
LAMBDA_HI = 3.0

_REDRAW_LIMIT = 100

CASES = ("vi", "i", "ii", "random")


def example_problem() -> LcpProblem:
    """The built-in 3+2 example instance.

    Its solve has a known positive-norm solution with x approximately
    (0.3548, 1.0200, 0.3548) and u approximately (0.2304, 0.2699).
    """
    T = [
        [26.0, 15.0, 3.0, 51.0, -42.0],
        [-7.0, -39.0, -16.0, -17.0, 18.0],
        [32.0, 23.0, 40.0, -38.0, 46.0],
        [6.0, -22.0, -28.0, -17.0, 27.0],
        [-38.0, -25.0, 24.0, 47.0, -16.0],
    ]
    r = [-1.0, 47.0, 13.0, -32.0, -45.0]
    return LcpProblem(EsocDims(3, 2), np.array(T), np.array(r))


class GeneratedInstance(Record):
    """A generated problem plus its constructed solution, when one exists."""

    __slots__ = ("problem", "solution", "case")

    def __init__(self, problem: LcpProblem, solution: PointZ | None, case: str):
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "case", case)


def _draw_problem(rng: np.random.Generator, dims: EsocDims) -> LcpProblem:
    """Draw (T, r) with T, A, D nonsingular, redrawing on failure."""
    m = dims.m
    for _ in range(_REDRAW_LIMIT):
        T = rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, (m, m))
        r = rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, m)
        try:
            return LcpProblem(dims, T, r)
        except SingularMatrix:
            continue
    raise RuntimeError("could not draw a nonsingular T in 100 tries")


def _draw_u(rng: np.random.Generator, l: int) -> np.ndarray:
    for _ in range(_REDRAW_LIMIT):
        u = rng.uniform(-PART_HI, PART_HI, l)
        if MIN_U_NORM <= np.linalg.norm(u) <= MAX_U_NORM:
            return u
    raise RuntimeError("could not draw u with a moderate norm in 100 tries")


def _split_mask(rng: np.random.Generator, k: int) -> np.ndarray:
    """Boolean mask with at least one True and one position left False.

    Used to split orthant indices between the active side of a point and
    the active side of its image; for k = 1 the single index goes to the
    point.
    """
    if k == 1:
        return np.array([True])
    for _ in range(_REDRAW_LIMIT):
        mask = rng.uniform(size=k) < 0.5
        if mask.any() and not mask.all():
            return mask
    return np.array([True] + [False] * (k - 1))


def make_instance(case: str, k: int, l: int, seed: int) -> GeneratedInstance:
    """Generate one seeded instance of the requested flavor.

    "vi" constructs a solution with u != 0 and positive multiplier, "i" one
    with u = 0, "ii" one with the image's norm block at zero; "random"
    draws data only.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    rng = np.random.default_rng(seed)
    base = _draw_problem(rng, EsocDims(k, l))  # checks k and l before any draw
    if case == "random":
        return GeneratedInstance(base, None, case)

    A, B, C, D = base.A, base.B, base.C, base.D

    if case == "vi":
        u = _draw_u(rng, l)
        nu = float(np.linalg.norm(u))
        lam = rng.uniform(LAMBDA_LO, LAMBDA_HI)
        mask = _split_mask(rng, k)
        y = np.where(mask, rng.uniform(PART_LO, 1.0, k), 0.0)
        y *= lam * nu / y.sum()
        s = np.where(mask, 0.0, rng.uniform(PART_LO, PART_HI, k))
        x = nu + s
        p = y - A @ x - B @ u
        q = -lam * u - C @ x - D @ u
        z = PointZ(x, u)
    elif case == "i":
        mask = _split_mask(rng, k)
        x = np.where(mask, rng.uniform(PART_LO, PART_HI, k), 0.0)
        y = np.where(mask, 0.0, rng.uniform(PART_LO, PART_HI, k))
        p = y - A @ x
        eta = rng.uniform(-1.0, 1.0, l)
        norm_eta = float(np.linalg.norm(eta))
        if norm_eta > 0:
            eta *= 0.9 * y.sum() * rng.uniform(0.0, 1.0) / norm_eta
        q = eta - C @ x
        z = PointZ(x, np.zeros(l))
    else:
        u = _draw_u(rng, l)
        nu = float(np.linalg.norm(u))
        s = rng.uniform(PART_LO, PART_HI, k)
        x = nu + s
        p = -(A @ x + B @ u)
        q = -(C @ x + D @ u)
        z = PointZ(x, u)

    r = np.concatenate([p, q])
    prob = LcpProblem(base.dims, base.T, r)
    return GeneratedInstance(prob, z, case)
