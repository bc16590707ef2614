"""Newton/LM engines, the orthant LCP roots, and the case-dispatch pipeline."""

import itertools

import numpy as np
import pytest

from esoclcp import (
    AugmentedPoint,
    CaseLabel,
    EsocDims,
    LcpProblem,
    PairCase,
    PointZ,
    SolveReport,
    SolveStatus,
    SolverOptions,
    affine_map,
    case_i_check,
    case_ii_check,
    certify_solution,
    classify_pair,
    comp_pair_check,
    example_problem,
    lm_solve,
    make_instance,
    newton_solve,
    solve_esoclcp,
)
import esoclcp.solvers as solvers
from esoclcp.fbsystem import FbKernel
from esoclcp.fileio import serialize_report
from esoclcp.solvers import ENUM_MAX_K, _iterate, _resolve_start, lcp_roots


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
        ("max_iter", True),
        ("rng_seed", True),
        ("num_random_starts", False),
        ("start", "center"),
        ("start", "default"),
        pytest.param("start", np.ones(6), id="start-array"),
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


# At t = 1e153 the residual is finite but J'J overflows; at t = 1e154 the
# residual itself is inf.  Either ends the run at its start instead of
# raising, and the pipeline goes on to its other starts.  Neither writes a
# warning: the run's status reports the overflow.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t, method, status", [
    (1e153, "lm", SolveStatus.DIVERGED),
    (1e153, "newton", SolveStatus.SINGULAR_JACOBIAN),
    (1e154, "lm", SolveStatus.DIVERGED),
    (1e154, "newton", SolveStatus.DIVERGED),
])
def test_overflowing_start_ends_the_run(example, t, method, status):
    start = AugmentedPoint(np.ones(3), np.ones(2), t)
    opts = SolverOptions(method=method, start=start)
    rep = (newton_solve if method == "newton" else lm_solve)(example, opts)
    assert (rep.status, rep.iterations, len(rep.residual_history)) == (status, 0, 1)
    assert rep.residual_norm == rep.residual_history[0]
    assert rep.recovered is None and not rep.certified
    pipeline = solve_esoclcp(example, opts)
    assert pipeline.status is SolveStatus.CONVERGED
    assert comp_pair_check(pipeline.recovered, affine_map(example, pipeline.recovered), 1e-6)


# Entries near the float range overflow the kernel's constant sums (e'Ae
# is inf) and make the answer's Jacobian, which its certificate builds,
# NaN.  The solve still answers, through the u = 0 branch, uncertified,
# and writes no warning.
@pytest.mark.filterwarnings("error")
def test_data_near_the_float_range_solves_without_warnings():
    prob = LcpProblem(EsocDims(2, 1), 1e308 * np.eye(3), np.ones(3))
    rep = solve_esoclcp(prob)
    assert (rep.status, rep.case_label, rep.iterations) == (SolveStatus.CONVERGED, CaseLabel.CASE_I, 0)
    assert not rep.certified
    assert np.array_equal(rep.recovered.x, [0.0, 0.0])


# Data whose reduced v = 0 LCP overflows (B D^-1 C is inf); data where
# M x + q overflows at a support solution of the u = 0 branch; and a u = 0
# root x = 1e10 whose image's norm block C x + q overflows (T fails the
# pivot test there).  None is an answer; each solve reports, without a
# warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims, T, r", [
    ((1, 1), [[1.0, 1e300], [1e300, 1.0]], [-1.0, 1.0]),
    ((2, 1), [[1e300, 0.0, 0.0], [1e301, 1e300, 0.0], [0.0, 0.0, 1e300]], [-1.7e308, 0.0, 0.0]),
    ((1, 1), [[1.0, 0.0], [1e300, 1.0]], [-1e10, 0.0]),
])
def test_non_finite_reduced_data_is_no_answer(dims, T, r):
    rep = solve_esoclcp(LcpProblem(EsocDims(*dims), np.array(T), np.array(r), allow_singular=True))
    assert (rep.status, rep.recovered) == (SolveStatus.DIVERGED, None)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
def test_lcp_roots_skip_a_non_finite_image():
    # In exact arithmetic x = (1.7e308, 0) with M x + q = (0, 3.4e308).
    M = np.array([[1.0, 0.0], [2.0, 1.0]])
    assert list(lcp_roots(M, np.array([-1.7e308, 0.0]))) == []


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


def _assert_lcp_root(M, q, x, tol=1e-9):
    w = M @ x + q
    scale = 1.0 + np.abs(x).max() + np.abs(w).max()
    assert x.min() >= -tol * scale and w.min() >= -tol * scale
    assert np.abs(x * w).max() <= tol * scale * scale


def test_lcp_roots_are_complementary_on_random_lcps():
    rng = np.random.default_rng(31)
    found = 0
    for n in range(1, 7):
        for _ in range(20):
            M = rng.uniform(-5.0, 5.0, (n, n))
            q = rng.uniform(-5.0, 5.0, n)
            for x in lcp_roots(M, q):
                _assert_lcp_root(M, q, x)
                found += 1
    assert found > 100


def test_lcp_roots_contain_a_planted_root():
    rng = np.random.default_rng(37)
    for n in range(1, 7):
        M = rng.uniform(-5.0, 5.0, (n, n))
        support = rng.uniform(size=n) < 0.5
        x_star = np.where(support, rng.uniform(0.2, 2.0, n), 0.0)
        w_star = np.where(support, 0.0, rng.uniform(0.2, 2.0, n))
        q = w_star - M @ x_star
        roots = list(lcp_roots(M, q))
        assert any(np.abs(x - x_star).max() <= 1e-9 * (1.0 + np.abs(x_star).max()) for x in roots)


def _spy_factor(monkeypatch):
    """Record the (name, matrix) of every LU factorization: lu_factor's, the
    engine's and lcp_roots' all run LuFactors.factor."""
    calls = []
    real = solvers.LuFactors.factor

    def spy(work, name):
        calls.append((name, work.lu.copy()))
        return real(work, name)

    monkeypatch.setattr(solvers.LuFactors, "factor", spy)
    return calls


def test_lcp_roots_visit_supports_by_size_then_lexicographically(monkeypatch):
    # Distinct diagonal entries name the factored principal blocks, and
    # with q = 0 every support gives the root x = 0.
    calls = _spy_factor(monkeypatch)
    roots = list(lcp_roots(np.diag([1.0, 2.0, 3.0]), np.zeros(3)))
    assert len(roots) == 8 and all(np.array_equal(x, np.zeros(3)) for x in roots)
    seen = [tuple(int(v) - 1 for v in m.diagonal()) for _, m in calls]
    assert seen == [s for r in range(1, 4) for s in itertools.combinations(range(3), r)]


def _single_start(method, case, k, l, seed):
    inst = make_instance(case, k, l, seed)
    opts = SolverOptions(method=method)
    return inst.problem, (newton_solve if method == "newton" else lm_solve)(inst.problem, opts)


def test_single_start_labels_zero_image_answer_case_ii():
    prob, rep = _single_start("lm", "vi", 2, 2, 201)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.case_label is CaseLabel.CASE_II
    assert case_ii_check(prob, rep.recovered, 1e-6)


def test_single_start_at_negative_t_is_diverged():
    # The run converges to the spurious root t = -||u||, which recovers no pair.
    _, rep = _single_start("lm", "vi", 4, 5, 208)
    assert rep.point.t < 0.0
    assert rep.status is SolveStatus.DIVERGED
    assert rep.recovered is None
    assert not rep.certified


def test_single_start_rejects_a_pair_that_fails_the_check():
    # The run converges at t = 4e-5 to a point whose pair is not complementary.
    _, rep = _single_start("newton", "vi", 4, 3, 223)
    assert rep.status is not SolveStatus.CONVERGED
    assert rep.recovered is None


def test_single_start_answers_are_verified_and_labelled_by_their_pair():
    # The benchmark's declared case-vi set, seeds 200-250, under both methods.
    # A pair that fails comp_pair_check at 1e-6 classifies NOT_COMPLEMENTARY,
    # which has no label.
    labels = {PairCase.U_ZERO: CaseLabel.CASE_I, PairCase.V_ZERO: CaseLabel.CASE_II,
              PairCase.GENERAL: CaseLabel.CASE_VI}
    converged = 0
    for method, seed in itertools.product(("lm", "newton"), range(200, 251)):
        prob, rep = _single_start(method, "vi", *_declared_dims(seed), seed)
        if rep.status is SolveStatus.CONVERGED:
            converged += 1
            assert rep.recovered is not None, (method, seed)
            case, _ = classify_pair(rep.recovered, affine_map(prob, rep.recovered), 1e-6)
            assert labels.get(case) is rep.case_label, (method, seed, case)
    assert converged > 40


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
# u = 0 and v = 0 branches and the Diverged and MaxIter outcomes.  The u = 0
# and v = 0 answers are enumerated roots, which take 0 iterations.
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
    ("i", 5, 4, 0, "Converged", 0),
    ("ii", 2, 1, 13, "Converged", 0),
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
    raw = _iterate(kernel, _resolve_start(opts, inst.problem), opts)
    assert (raw.status, raw.iterations) == (SolveStatus.SINGULAR_JACOBIAN, 14)
    rep = solve_esoclcp(inst.problem, opts)
    assert rep.status is SolveStatus.CONVERGED
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)
    with pytest.raises(ValueError):
        lm_solve(inst.problem, opts)


def _declared_dims(seed):
    j = seed - 200
    return 1 + j % 5, 1 + (j + j // 5) % 5


def test_declared_degenerate_instances_all_converge():
    # The benchmark's degenerate set: case-i seeds 200-210 and case-ii seeds
    # 200-209.  The u = 0 Newton multistart missed i/204, i/207 and i/208,
    # whose planted roots the support enumeration reaches.
    labels = {}
    for case, seeds in (("i", range(200, 211)), ("ii", range(200, 210))):
        for seed in seeds:
            inst = make_instance(case, *_declared_dims(seed), seed)
            rep = solve_esoclcp(inst.problem)
            assert rep.status is SolveStatus.CONVERGED, (case, seed, rep.status)
            assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)
            labels[case, seed] = rep.case_label
    for seed in (204, 207, 208):
        assert labels["i", seed] is CaseLabel.CASE_I


@pytest.mark.parametrize("case, dims_seed", [("i", 7), ("ii", 8)])
def test_criterion_4_degenerate_sets_all_solve(case, dims_seed):
    # The 50 planted case-i and case-ii instances of acceptance criterion 4.
    dims_rng = np.random.default_rng(dims_seed)
    failed = []
    for seed in range(50):
        k = int(dims_rng.integers(1, 6))
        l = int(dims_rng.integers(1, 6))
        inst = make_instance(case, k, l, seed)
        rep = solve_esoclcp(inst.problem)
        if rep.status is not SolveStatus.CONVERGED or not comp_pair_check(
            rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6
        ):
            failed.append(seed)
    assert failed == []


def test_enumeration_up_to_enum_max_k():
    # At k = ENUM_MAX_K the u = 0 branch enumerates: 0 iterations.
    inst = make_instance("i", ENUM_MAX_K, 1, 0)
    rep = solve_esoclcp(inst.problem)
    assert (rep.status, rep.case_label, rep.iterations) == (SolveStatus.CONVERGED, CaseLabel.CASE_I, 0)
    assert case_i_check(inst.problem, rep.recovered.x, 1e-6)


@pytest.mark.parametrize("case, k, l, seed", [
    ("ii", 11, 2, 4),
    ("ii", 12, 1, 3),
    ("ii", 12, 2, 7),
    ("i", 11, 1, 0),
    ("i", 12, 1, 2),
])
def test_enumeration_answers_planted_instances_at_k_11_and_12(case, k, l, seed):
    # The augmented starts miss these; the reduced branches' enumeration
    # answers them, with 0 iterations.  A case-ii instance may be answered
    # CASE_I, where a u = 0 root exists.
    inst = make_instance(case, k, l, seed)
    rep = solve_esoclcp(inst.problem)
    assert (rep.status, rep.iterations) == (SolveStatus.CONVERGED, 0)
    assert comp_pair_check(rep.recovered, affine_map(inst.problem, rep.recovered), 1e-6)


def test_zero_image_branch_enumerates_at_k_11():
    inst = make_instance("ii", 11, 3, 1)
    found = [(raw, z) for raw, _, z in solvers._reduced_candidates(inst.problem)
             if classify_pair(z, affine_map(inst.problem, z), 1e-6)[0] is PairCase.V_ZERO]
    assert found
    raw, z = found[0]
    assert raw is None
    assert case_ii_check(inst.problem, z, 1e-6)


def test_reduced_branches_not_searched_above_enum_max_k(monkeypatch):
    inst = make_instance("i", ENUM_MAX_K + 1, 1, 0)
    calls = _spy_factor(monkeypatch)
    assert list(solvers._reduced_candidates(inst.problem)) == []
    assert calls == []


def test_singular_d_ends_zero_image_branch_quietly(monkeypatch):
    # No solution: y = -x - 1 < 0 for every x >= 0.  D = 0 cannot be
    # factored, so the v = 0 branch ends at once and the pipeline reports
    # its best augmented attempt.
    prob = LcpProblem(EsocDims(1, 1), np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([-1.0, 0.0]),
                      allow_singular=True)
    calls = _spy_factor(monkeypatch)
    rep = solve_esoclcp(prob, SolverOptions(max_iter=20, num_random_starts=1))
    assert "D" in [name for name, _ in calls]
    assert rep.status is not SolveStatus.CONVERGED
    assert rep.recovered is None


@pytest.mark.parametrize("case", ["vi", "i", "ii"])
def test_every_answer_is_labelled_by_its_pair(case):
    # One rule accepts and labels every candidate, augmented run or
    # enumerated root: the case label is the shape of the answer's pair.
    checked = 0
    for seed in range(200, 251):
        prob = make_instance(case, *_declared_dims(seed), seed).problem
        reports = [
            solve_esoclcp(prob),
            lm_solve(prob, SolverOptions()),
            newton_solve(prob, SolverOptions(method="newton")),
        ]
        for rep in reports:
            if rep.status is not SolveStatus.CONVERGED:
                continue
            z = rep.recovered
            shape, _ = classify_pair(z, affine_map(prob, z), 1e-6)
            assert rep.case_label is solvers._PAIR_LABEL[shape], (case, seed)
            checked += 1
    assert checked >= 51


# The example and vi seeds whose answers come from augmented runs: from the
# default start, from a later start (207, 235), uncertified (214, 250 under
# lm) and labelled CASE_II (201).
@pytest.mark.parametrize("seed", [None, 200, 201, 207, 214, 233, 235, 250])
@pytest.mark.parametrize("method", ["lm", "newton"])
def test_answer_accepted_from_the_last_evaluation_matches_a_fresh_one(seed, method):
    prob = example_problem() if seed is None else make_instance("vi", *_declared_dims(seed), seed).problem
    opts = SolverOptions(method=method)
    rep = solve_esoclcp(prob, opts)
    assert rep.status is SolveStatus.CONVERGED and rep.iterations > 0
    kernel = FbKernel(prob)
    arr = rep.point.to_array()
    res, jac, img = kernel.evaluate(arr)
    fresh = SolveReport(rep.status, rep.point, float(np.abs(res).max()), rep.iterations, rep.residual_history,
                        rep.case_label, kernel.certified(arr, res, jac, img[:kernel.k]), rep.recovered)
    assert fresh.residual_norm.hex() == rep.residual_norm.hex() == rep.residual_history[-1].hex()
    assert fresh.certified is rep.certified
    assert serialize_report(fresh, opts) == serialize_report(rep, opts)


@pytest.mark.parametrize("method", ["lm", "newton"])
def test_augmented_answers_check_and_certify_from_the_last_evaluation(monkeypatch, method):
    # Over the vi seeds 200-250 (the benchmark's dims), every augmented
    # answer's pair image is its run's last img, which must be affine_map's
    # bits, and its certificate, made from the run's last Jacobian, must be
    # a fresh certify_solution's verdict.  The pipeline calls affine_map
    # only for enumerated roots, which come after the augmented candidates.
    accepted = []
    accept = solvers._accept
    mapped = []

    def spy(kernel, raw, point, label, recovered):
        report = accept(kernel, raw, point, label, recovered)
        if raw is not None:
            accepted.append((raw.last[2], report))
        return report

    monkeypatch.setattr(solvers, "_accept", spy)
    monkeypatch.setattr(solvers, "affine_map", lambda prob, z: mapped.append(z) or affine_map(prob, z))
    opts = SolverOptions(method=method)
    for seed in range(200, 251):
        prob = make_instance("vi", *_declared_dims(seed), seed).problem
        mapped.clear()
        rep = solve_esoclcp(prob, opts)
        if rep.status is SolveStatus.CONVERGED and rep.iterations > 0:
            img, answer = accepted[-1]
            assert answer is rep and mapped == [], seed
            assert img.tobytes() == affine_map(prob, rep.recovered).to_array().tobytes(), seed
            assert rep.certified is certify_solution(prob, rep.point), seed
    assert len(accepted) >= 40
    assert any(answer.certified for _, answer in accepted)
