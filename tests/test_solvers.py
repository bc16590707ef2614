"""Newton/LM engines, the orthant branch, and the case-dispatch pipeline."""

import numpy as np
import pytest

from esoclcp import (
    AugmentedPoint,
    CaseLabel,
    PointZ,
    SingularMatrix,
    SolveStatus,
    SolverOptions,
    affine_map,
    case_i_check,
    case_ii_check,
    comp_pair_check,
    lm_solve,
    make_instance,
    newton_solve,
    orthant_lcp_solve,
    solve_esoclcp,
)
from esoclcp.fbsystem import FbKernel
from esoclcp.solvers import _iterate, _resolve_start


def test_options_defaults_and_validation():
    opts = SolverOptions()
    assert opts.method == "lm"
    assert opts.residual_tol == 1e-7
    assert opts.mu == 0.005
    assert opts.max_iter == 200
    assert opts.num_random_starts == 8
    assert opts.rng_seed == 0
    with pytest.raises(ValueError):
        SolverOptions(method="bfgs")
    with pytest.raises(ValueError):
        SolverOptions(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(mu=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mu", float("nan")),
        ("mu", float("inf")),
        ("residual_tol", float("inf")),
        ("residual_tol", float("nan")),
        ("max_iter", 2.5),
        ("num_random_starts", 1.5),
        ("rng_seed", -1),
    ],
)
def test_options_reject_non_finite_and_non_integer_knobs(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverOptions(**{field: value})


def test_options_accept_numpy_integers(example):
    opts = SolverOptions(max_iter=np.int64(3), num_random_starts=np.int32(0))
    assert solve_esoclcp(example, opts).iterations <= 3


def test_method_preconditions(example):
    with pytest.raises(ValueError):
        newton_solve(example, SolverOptions(method="lm"))
    with pytest.raises(ValueError):
        lm_solve(example, SolverOptions(method="newton"))
    with pytest.raises(ValueError):
        lm_solve(example, SolverOptions(method="lm", mu=0.0))


def test_newton_converges_on_example(example):
    rep = newton_solve(example, SolverOptions(method="newton"))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.residual_norm <= 1e-7
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residual_history[-1] == rep.residual_norm
    assert rep.recovered is not None
    assert comp_pair_check(rep.recovered, affine_map(example, rep.recovered), 1e-6)


def test_lm_converges_on_example(example):
    rep = lm_solve(example, SolverOptions())
    assert rep.status is SolveStatus.CONVERGED
    assert rep.residual_norm <= 1e-7
    assert rep.certified, "solution should pass the regularity certificate"
    # damped steps still contract fast here
    assert rep.iterations <= 30, f"took {rep.iterations} iterations"


def test_zero_iterations_when_started_at_solution(example):
    first = newton_solve(example, SolverOptions(method="newton"))
    again = newton_solve(example, SolverOptions(method="newton", start=first.point))
    assert again.status is SolveStatus.CONVERGED
    assert again.iterations == 0
    assert len(again.residual_history) == 1


def test_singular_jacobian_detected(example):
    # u = 0, t = 0 zeroes the norm equation row
    start = AugmentedPoint(np.ones(3), np.zeros(2), 0.0)
    rep = newton_solve(example, SolverOptions(method="newton", start=start))
    assert rep.status is SolveStatus.SINGULAR_JACOBIAN
    assert not rep.certified


def test_max_iter_reports_best_point(example):
    rep = lm_solve(example, SolverOptions(max_iter=1))
    assert rep.status is SolveStatus.MAX_ITER
    assert rep.iterations == 1
    assert len(rep.residual_history) == 2
    assert rep.residual_norm == min(rep.residual_history)


def test_start_validation(example):
    bad = AugmentedPoint(np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        newton_solve(example, SolverOptions(method="newton", start=bad))
    with pytest.raises(ValueError):
        newton_solve(example, SolverOptions(method="newton", start="center"))


def test_orthant_solver_known_lcp():
    A = np.eye(2)
    p = np.array([-1.0, 2.0])
    x, status = orthant_lcp_solve(A, p, SolverOptions())
    assert status is SolveStatus.CONVERGED
    assert np.abs(x - np.array([1.0, 0.0])).max() <= 1e-7, f"x = {x}"


def test_orthant_solver_rejects_singular():
    with pytest.raises(SingularMatrix):
        orthant_lcp_solve(np.zeros((2, 2)), np.ones(2), SolverOptions())


def test_pipeline_positive_norm_instance():
    inst = make_instance("vi", 3, 2, 5)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.case_label is CaseLabel.CASE_VI
    assert rep.residual_norm <= 1e-7
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)


def test_pipeline_routes_through_orthant_branch():
    # this seeded instance defeats the augmented solve but not the u = 0 branch
    inst = make_instance("i", 5, 4, 0)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.case_label is CaseLabel.CASE_I
    assert np.all(rep.recovered.u == 0.0)
    assert case_i_check(inst.problem, rep.recovered.x, 1e-6)
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)


def test_pipeline_routes_through_zero_image_branch():
    inst = make_instance("ii", 2, 1, 13)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.case_label is CaseLabel.CASE_II
    assert case_ii_check(inst.problem, rep.recovered, 1e-6)
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)


def test_pipeline_failure_reports_diverged_for_invalid_root():
    # best attempt converges to a mirror root and is reported as divergence
    inst = make_instance("vi", 5, 2, 24)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.DIVERGED
    assert not rep.certified
    assert rep.recovered is None


def test_pipeline_failure_reports_max_iter():
    inst = make_instance("vi", 2, 5, 114)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.MAX_ITER
    assert not rep.certified
    assert rep.recovered is None


def test_pipeline_deterministic(example):
    a = solve_esoclcp(example)
    b = solve_esoclcp(example)
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert np.array_equal(a.point.to_array(), b.point.to_array())
    assert a.residual_history == b.residual_history


def test_pipeline_newton_method(example):
    rep = solve_esoclcp(example, SolverOptions(method="newton"))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.case_label is CaseLabel.CASE_VI
    assert rep.certified


# (case, k, l, seed, status, iterations) of the default pipeline, recorded
# before the augmented system moved onto FbKernel.  It covers the augmented,
# u = 0 and v = 0 branches and the Diverged and MaxIter outcomes.
PINNED_RUNS = [
    ("vi", 1, 1, 200, "Converged", 9),
    ("vi", 2, 2, 201, "Converged", 7),
    ("vi", 3, 3, 202, "Converged", 11),
    ("vi", 4, 4, 203, "Converged", 8),
    ("vi", 5, 5, 204, "Converged", 12),
    ("vi", 1, 2, 205, "Converged", 8),
    ("vi", 2, 3, 206, "Converged", 10),
    ("vi", 3, 4, 207, "Converged", 81),
    ("vi", 4, 5, 208, "Converged", 16),
    ("vi", 5, 1, 209, "Converged", 8),
    ("i", 5, 4, 0, "Converged", 6),
    ("ii", 2, 1, 13, "Converged", 6),
    ("vi", 5, 2, 24, "Diverged", 11),
    ("vi", 2, 5, 114, "MaxIter", 200),
]


def test_pipeline_status_and_iterations_pinned():
    got = []
    for case, k, l, seed, _, _ in PINNED_RUNS:
        rep = solve_esoclcp(make_instance(case, k, l, seed).problem)
        got.append((case, k, l, seed, rep.status.value, rep.iterations))
    assert got == PINNED_RUNS


def test_pipeline_labels_zero_image_answer_case_ii():
    # The augmented branch solves this planted case-vi instance at a point
    # whose image has a zero norm block, which makes it a case-ii answer.
    inst = make_instance("vi", 2, 2, 201)
    rep = solve_esoclcp(inst.problem)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.point.t > 0.0
    assert rep.case_label is CaseLabel.CASE_II
    assert case_ii_check(inst.problem, rep.recovered, 1e-6)


def test_singular_lm_normal_matrix_ends_only_that_run():
    # With mu = 0 the normal matrix J'J is singular wherever J is.  On this
    # instance that happens on the default start, after 14 steps; the run
    # ends SingularJacobian, as a Newton run does, and the pipeline goes on.
    inst = make_instance("vi", 4, 1, 3)
    opts = SolverOptions(mu=0.0)
    kernel = FbKernel(inst.problem)
    raw = _iterate(kernel.residual, kernel.jacobian, _resolve_start(opts, inst.problem), opts)
    assert (raw.status, raw.iterations) == (SolveStatus.SINGULAR_JACOBIAN, 14)
    rep = solve_esoclcp(inst.problem, opts)
    assert rep.status is SolveStatus.CONVERGED
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)
    with pytest.raises(ValueError):
        lm_solve(inst.problem, opts)
