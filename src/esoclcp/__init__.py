"""Solver library for linear complementarity problems over the extended
second order cone: cone membership and complementarity checks, the
augmented smooth reformulation, Fischer-Burmeister residuals and
Jacobians, Newton / Levenberg-Marquardt solvers with a case-dispatch
pipeline, seeded instance generation, and deterministic file I/O.

The paper's conditions and reference formulas (`theory`) are off the solve
path: their names are exported here but `theory` loads on first access.
"""

from .cones import (
    CertificateIII,
    EsocDims,
    PairCase,
    PointZ,
    classify_pair,
    comp_pair_check,
    in_esoc,
    in_esoc_dual,
    orthant_comp_violation,
)
from .errors import (
    DegenerateT,
    DimensionMismatch,
    EsoclcpError,
    InfeasibleXhat,
    ShapeUnsupported,
    SingularMatrix,
    TooLarge,
    ZeroU,
)
from .fbsystem import certify_solution, fb_jacobian, fb_residual, psi_fb, s0_check
from .fileio import (
    parse_problem,
    parse_report,
    parse_solution,
    serialize_problem,
    serialize_report,
    serialize_solution,
)
from .instances import GeneratedInstance, example_problem, make_instance
from .linalg import LuFactors, as_matrix, as_vector, lu_factor, lu_solve
from .reformulation import (
    AugmentedPoint,
    LcpProblem,
    affine_map,
    case_i_check,
    case_ii_check,
    recover_solution,
)
from .solvers import (
    CaseLabel,
    SolveReport,
    SolveStatus,
    SolverOptions,
    lm_solve,
    newton_solve,
    solve_esoclcp,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedPoint",
    "CaseLabel",
    "CertificateIII",
    "DegenerateT",
    "DimensionMismatch",
    "EsocDims",
    "EsoclcpError",
    "GeneratedInstance",
    "IndexSets",
    "InfeasibleXhat",
    "JacobianBlocks",
    "LcpProblem",
    "LuFactors",
    "MicpResidual",
    "PairCase",
    "PointZ",
    "RegularityKind",
    "RegularityVerdict",
    "ShapeUnsupported",
    "SingularMatrix",
    "SolveReport",
    "SolveStatus",
    "SolverOptions",
    "TooLarge",
    "ZeroU",
    "affine_map",
    "as_matrix",
    "as_vector",
    "case_i_check",
    "case_ii_check",
    "certify_solution",
    "classify_pair",
    "comp_pair_check",
    "example_problem",
    "f_comp",
    "f_eq",
    "fd_jacobian",
    "fb_jacobian",
    "fb_regularity_check",
    "fb_residual",
    "grad_merit",
    "icp_form",
    "in_esoc",
    "in_esoc_dual",
    "index_sets",
    "jacobian_blocks",
    "lm_solve",
    "lu_factor",
    "lu_solve",
    "make_instance",
    "merit",
    "micp_residual",
    "micp_residual_shifted",
    "newton_solve",
    "orthant_comp_violation",
    "parse_problem",
    "parse_report",
    "parse_solution",
    "psi_fb",
    "recover_solution",
    "s0_check",
    "schur_complement",
    "serialize_problem",
    "serialize_report",
    "serialize_solution",
    "solve_esoclcp",
    "stationarity_check",
]


def __getattr__(name):
    # Every other exported name is bound above; the rest are theory's.
    if name in __all__:
        from . import theory

        return getattr(theory, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
