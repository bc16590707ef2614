"""Problem container, augmented map, case checks, and reduced forms."""

import numpy as np
import pytest

from esoclcp import (
    AugmentedPoint,
    DegenerateT,
    EsocDims,
    InfeasibleXhat,
    LcpProblem,
    PointZ,
    ShapeUnsupported,
    SingularMatrix,
    ZeroU,
    affine_map,
    case_i_check,
    case_ii_check,
    comp_pair_check,
    f_comp,
    f_eq,
    fd_jacobian,
    icp_form,
    jacobian_blocks,
    make_instance,
    micp_residual,
    micp_residual_shifted,
    orthant_comp_violation,
    recover_solution,
)
from conftest import random_problem


def identity_problem(k, l, r=None):
    m = k + l
    rr = np.zeros(m) if r is None else np.asarray(r, dtype=float)
    return LcpProblem(EsocDims(k, l), np.eye(m), rr)


def test_blocks_reassemble_exactly(example):
    T = np.block([[example.A, example.B], [example.C, example.D]])
    r = np.concatenate([example.p, example.q])
    assert np.array_equal(T, example.T)
    assert np.array_equal(r, example.r)


def test_from_blocks_round_trip(example):
    again = LcpProblem.from_blocks(example.A, example.B, example.C, example.D, example.p, example.q)
    assert np.array_equal(again.T, example.T)
    assert np.array_equal(again.r, example.r)
    assert again.dims == example.dims


def test_construction_rejects_singular_blocks():
    T = np.eye(5)
    T[0, 0] = 0.0  # zero pivot in the top-left block
    with pytest.raises(SingularMatrix):
        LcpProblem(EsocDims(3, 2), T, np.zeros(5))
    prob = LcpProblem(EsocDims(3, 2), T, np.zeros(5), allow_singular=True)
    assert prob.T[0, 0] == 0.0


def test_construction_rejects_bad_shapes():
    with pytest.raises(Exception):
        LcpProblem(EsocDims(3, 2), np.eye(4), np.zeros(4))
    with pytest.raises(Exception):
        LcpProblem(EsocDims(3, 2), np.eye(5), np.zeros(4))


def test_affine_map_is_plain_matrix_action(example):
    rng = np.random.default_rng(7)
    for trial in range(20):
        z = PointZ(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 2))
        w = affine_map(example, z)
        want = example.T @ z.to_array() + example.r
        assert np.array_equal(w.to_array(), want), f"trial {trial}"


def test_f_comp_equals_top_block_exactly():
    # with x = xhat + t e the first block must match T (x, u) + r bit for bit
    rng = np.random.default_rng(13)
    for trial in range(30):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        prob = random_problem(rng, k, l)
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, l), rng.uniform(0.1, 2.0))
        x = w.xhat + w.t
        top = (prob.T @ np.concatenate([x, w.u]) + prob.r)[:k]
        assert np.array_equal(f_comp(prob, w), top), f"trial {trial}"


def test_f_eq_structure():
    rng = np.random.default_rng(19)
    for trial in range(30):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        prob = random_problem(rng, k, l)
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, l), rng.uniform(0.1, 2.0))
        x = w.xhat + w.t
        img = prob.T @ np.concatenate([x, w.u]) + prob.r
        y, v = img[:k], img[k:]
        want = np.concatenate([w.t * v + w.u * y.sum(), [w.t**2 - w.u @ w.u]])
        assert np.array_equal(f_eq(prob, w), want), f"trial {trial}"


def test_jacobian_blocks_identity_example():
    prob = identity_problem(3, 2)
    w = AugmentedPoint(np.zeros(3), np.array([1.0, 0.0]), 1.0)
    jb = jacobian_blocks(prob, w)
    assert np.array_equal(jb.comp_x, np.eye(3))
    assert np.array_equal(jb.comp_ut, np.array([[0.0, 0.0, 1.0]] * 3))
    assert np.array_equal(jb.eq_x, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.array_equal(jb.eq_ut, np.array([[4.0, 0.0, 4.0], [0.0, 4.0, 0.0], [-2.0, 0.0, 2.0]]))


def test_jacobian_blocks_match_finite_differences():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        prob = random_problem(rng, k, l)
        u = rng.uniform(-1.0, 1.0, l)
        while np.linalg.norm(u) <= 0.1:
            u = rng.uniform(-1.0, 1.0, l)
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), u, rng.uniform(0.2, 2.0))

        def full(arr):
            pt = AugmentedPoint(arr[:k], arr[k : k + l], float(arr[k + l]))
            return np.concatenate([f_comp(prob, pt), f_eq(prob, pt)])

        jb = jacobian_blocks(prob, w)
        analytic = np.block([[jb.comp_x, jb.comp_ut], [jb.eq_x, jb.eq_ut]])
        numeric = fd_jacobian(full, w.to_array())
        err = np.abs(analytic - numeric).max() / (1.0 + np.abs(analytic).max())
        worst = max(worst, err)
    assert worst <= 1e-6, f"worst block mismatch {worst:.3e}"


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_augmented_point_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="t: must be finite"):
        AugmentedPoint(np.zeros(2), np.ones(2), t)
    with pytest.raises(ValueError, match="entries must be finite"):
        AugmentedPoint.from_array(EsocDims(2, 2), [0.0, 0.0, 1.0, 1.0, t])


def test_recover_solution_basics():
    w = AugmentedPoint(np.zeros(2), np.array([3.0, 4.0]), 5.0)
    z = recover_solution(w)
    assert np.array_equal(z.x, np.array([5.0, 5.0]))
    assert np.array_equal(z.u, w.u)

    with pytest.raises(DegenerateT):
        recover_solution(AugmentedPoint(np.zeros(2), np.zeros(2), 0.0))
    with pytest.raises(ValueError):
        recover_solution(AugmentedPoint(np.zeros(2), np.array([3.0, 4.0]), 1.0))
    with pytest.raises(InfeasibleXhat):
        recover_solution(AugmentedPoint(np.array([-1.0, 0.0]), np.array([3.0, 4.0]), 5.0))


def test_constructed_solutions_zero_the_augmented_equations():
    """Forward direction: generator solutions plug into the augmented system."""
    rng = np.random.default_rng(37)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("vi", k, l, trial)
        z = inst.solution
        t = float(np.linalg.norm(z.u))
        w = AugmentedPoint(z.x - t, z.u, t)
        assert np.abs(f_eq(inst.problem, w)).max() <= 1e-10, f"trial {trial}"
        viol = orthant_comp_violation(w.xhat, f_comp(inst.problem, w))
        assert viol <= 1e-10, f"trial {trial}: complementarity {viol:.3e}"


def test_augmented_roots_recover_lcp_solutions():
    """Reverse direction: a root with t > 0 maps back to a verified pair."""
    rng = np.random.default_rng(43)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("vi", k, l, 1000 + trial)
        z = inst.solution
        t = float(np.linalg.norm(z.u))
        w = AugmentedPoint(z.x - t, z.u, t)
        back = recover_solution(w)
        assert comp_pair_check(back, affine_map(inst.problem, back), 1e-6), f"trial {trial}"


def test_case_i_check_on_generated_instances():
    rng = np.random.default_rng(47)
    for trial in range(30):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("i", k, l, trial)
        assert case_i_check(inst.problem, inst.solution.x, 1e-8), f"trial {trial}"


def test_case_i_check_rejects_bad_point(example):
    assert not case_i_check(example, np.array([-1.0, 0.0, 0.0]))


def test_case_ii_check_on_generated_instances():
    rng = np.random.default_rng(53)
    for trial in range(30):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("ii", k, l, trial)
        assert case_ii_check(inst.problem, inst.solution, 1e-8), f"trial {trial}"


def test_case_ii_check_rejects_bad_point(example):
    z = PointZ(np.ones(3), np.array([2.0, 2.0]))  # x below ||u||
    assert not case_ii_check(example, z)


def test_micp_residual_zeroed_by_construction():
    # on T = I the norm-block expression collapses to a hand value
    prob = identity_problem(3, 2, r=[0.0, 0.0, 0.0, -4.0, 0.0])
    res = micp_residual(prob, PointZ(np.ones(3), np.array([1.0, 0.0])))
    assert res.f2_norm == 0.0
    assert res.comp_violation == 0.0


def test_micp_residual_hand_value():
    prob = identity_problem(3, 2)
    res = micp_residual_shifted(prob, PointZ(np.zeros(3), np.array([1.0, 0.0])))
    assert res.f2_norm == 4.0
    assert res.comp_violation == 0.0


def test_micp_residual_rejects_zero_u():
    prob = identity_problem(2, 2)
    with pytest.raises(ZeroU):
        micp_residual(prob, PointZ(np.ones(2), np.zeros(2)))


def test_micp_shift_is_change_of_variables():
    rng = np.random.default_rng(59)
    for trial in range(25):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        prob = random_problem(rng, k, l)
        u = rng.uniform(-2.0, 2.0, l)
        while np.linalg.norm(u) == 0.0:
            u = rng.uniform(-2.0, 2.0, l)
        xhat = rng.uniform(-2.0, 2.0, k)
        nu = float(np.linalg.norm(u))
        direct = micp_residual(prob, PointZ(xhat + nu, u))
        shifted = micp_residual_shifted(prob, PointZ(xhat, u))
        assert direct.f2_norm == shifted.f2_norm, f"trial {trial}"


def test_micp_residual_small_at_solved_example(example):
    from esoclcp import SolverOptions, newton_solve

    rep = newton_solve(example, SolverOptions(method="newton", residual_tol=1e-12))
    res = micp_residual(example, rep.recovered)
    assert res.f2_norm <= 1e-6, f"f2 norm {res.f2_norm:.3e}"
    assert res.comp_violation <= 1e-6, f"violation {res.comp_violation:.3e}"


def test_icp_form_square_example():
    T = np.block([[np.eye(2), np.zeros((2, 2))], [np.eye(2), np.eye(2)]])
    prob = LcpProblem(EsocDims(2, 2), T, np.zeros(4))
    F1, F2 = icp_form(prob, np.array([1.0, 0.0]))
    assert np.abs(F2 - np.array([0.5, 0.0])).max() <= 1e-14
    assert np.abs(F1 - np.array([0.5, 0.0])).max() <= 1e-14
    # the negated solve target zeroes the norm-block residual
    res = micp_residual(prob, PointZ(-F2, np.array([1.0, 0.0])))
    assert res.f2_norm <= 1e-14


def test_icp_form_requires_square_split():
    prob = identity_problem(3, 2)
    with pytest.raises(ShapeUnsupported):
        icp_form(prob, np.array([1.0, 0.0]))


def test_icp_form_rejects_zero_u():
    prob = identity_problem(2, 2)
    with pytest.raises(ZeroU):
        icp_form(prob, np.zeros(2))
