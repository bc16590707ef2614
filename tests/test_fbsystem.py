"""Fischer-Burmeister residual, Jacobian, merit, index sets, regularity."""

import numpy as np
import pytest

from esoclcp import (
    AugmentedPoint,
    EsocDims,
    LcpProblem,
    RegularityKind,
    SingularMatrix,
    SolverOptions,
    TooLarge,
    certify_solution,
    f_comp,
    f_eq,
    fb_jacobian,
    fb_regularity_check,
    fb_residual,
    fd_jacobian,
    grad_merit,
    index_sets,
    jacobian_blocks,
    make_instance,
    merit,
    newton_solve,
    psi_fb,
    s0_check,
    solve_esoclcp,
    stationarity_check,
)
from esoclcp.fbsystem import DEGENERATE_SLOPE, FbKernel, fb_pair
from conftest import random_problem


def complementary(a, b, tol=1e-12):
    return a >= 0.0 and b >= 0.0 and abs(a * b) <= tol


def test_psi_zero_iff_complementary_on_grid():
    axis = np.linspace(-2.0, 2.0, 41)
    for a in axis:
        for b in axis:
            is_zero = abs(psi_fb(a, b)) <= 1e-12
            assert is_zero == complementary(a, b), f"({a}, {b})"


def test_psi_zero_iff_complementary_random():
    rng = np.random.default_rng(61)
    for trial in range(1000):
        a, b = rng.uniform(-3.0, 3.0, 2)
        is_zero = abs(psi_fb(a, b)) <= 1e-12
        assert is_zero == complementary(a, b), f"trial {trial}: ({a}, {b})"


def test_psi_symmetric_and_vectorized():
    rng = np.random.default_rng(67)
    a = rng.uniform(-2.0, 2.0, 50)
    b = rng.uniform(-2.0, 2.0, 50)
    assert np.array_equal(psi_fb(a, b), psi_fb(b, a))
    scalars = np.array([psi_fb(float(ai), float(bi)) for ai, bi in zip(a, b)])
    assert np.array_equal(psi_fb(a, b), scalars)


def test_residual_stacks_psi_over_equations(example):
    rng = np.random.default_rng(71)
    for trial in range(20):
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 2), rng.uniform(0.1, 2.0))
        res = fb_residual(example, w)
        assert np.array_equal(res[:3], psi_fb(w.xhat, f_comp(example, w))), f"trial {trial}"
        assert np.array_equal(res[3:], f_eq(example, w)), f"trial {trial}"


def test_jacobian_degenerate_pair_slopes():
    # FB pair (0, 0): both slopes drop to 1/sqrt(2) - 1
    prob = LcpProblem(EsocDims(1, 1), np.eye(2), np.zeros(2))
    w = AugmentedPoint(np.zeros(1), np.array([0.5]), 0.0)
    row = fb_jacobian(prob, w)[0]
    s = DEGENERATE_SLOPE
    assert np.abs(row - np.array([2.0 * s, 0.0, s])).max() <= 1e-15, f"row {row}"


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(73)
    checked = 0
    worst = 0.0
    while checked < 40:
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        prob = random_problem(rng, k, l)
        u = rng.uniform(-1.0, 1.0, l)
        if np.linalg.norm(u) <= 0.1:
            continue
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), u, rng.uniform(0.2, 2.0))
        if np.hypot(w.xhat, f_comp(prob, w)).min() <= 1e-3:
            continue
        checked += 1

        def res_at(arr):
            return fb_residual(prob, AugmentedPoint(arr[:k], arr[k : k + l], float(arr[k + l])))

        analytic = fb_jacobian(prob, w)
        numeric = fd_jacobian(res_at, w.to_array())
        err = np.abs(analytic - numeric).max() / (1.0 + np.abs(analytic).max())
        worst = max(worst, err)
    assert worst <= 1e-6, f"worst mismatch {worst:.3e}"


def test_merit_and_gradient_identities(example):
    rng = np.random.default_rng(79)
    for trial in range(20):
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 2), rng.uniform(0.1, 2.0))
        res = fb_residual(example, w)
        m = merit(example, w)
        assert abs(m - 0.5 * res @ res) <= 1e-12 * (1.0 + m), f"trial {trial}"
        g = grad_merit(example, w)
        want = fb_jacobian(example, w).T @ res
        assert np.abs(g - want).max() <= 1e-12 * (1.0 + np.abs(want).max()), f"trial {trial}"


def test_gradient_matches_merit_finite_differences():
    rng = np.random.default_rng(83)
    for trial in range(15):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        prob = random_problem(rng, k, l, scale=3.0)
        u = rng.uniform(-1.0, 1.0, l)
        while np.hypot(np.linalg.norm(u), 0.0) <= 0.2:
            u = rng.uniform(-1.0, 1.0, l)
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), u, rng.uniform(0.3, 1.5))
        if np.hypot(w.xhat, f_comp(prob, w)).min() <= 1e-2:
            continue

        def merit_at(arr):
            pt = AugmentedPoint(arr[:k], arr[k : k + l], float(arr[k + l]))
            return np.array([merit(prob, pt)])

        g = grad_merit(prob, w)
        gfd = fd_jacobian(merit_at, w.to_array())[0]
        err = np.abs(g - gfd).max() / (1.0 + np.abs(g).max())
        assert err <= 1e-6, f"trial {trial}: gradient mismatch {err:.3e}"


def test_index_sets_hand_example():
    xhat = np.array([1.0, 0.0, -1.0, 0.5])
    f1 = np.array([0.0, 2.0, 1.0, 0.5])
    got = index_sets(xhat, f1)
    assert got.comp == frozenset({0, 1})
    assert got.res == frozenset({2, 3})
    assert got.pos == frozenset({3})
    assert got.neg == frozenset({2})


def test_index_sets_partition_invariants():
    rng = np.random.default_rng(89)
    for trial in range(100):
        k = int(rng.integers(1, 8))
        xhat = rng.uniform(-1.0, 1.0, k)
        f1 = rng.uniform(-1.0, 1.0, k)
        got = index_sets(xhat, f1)
        assert got.comp | got.res == frozenset(range(k)), f"trial {trial}"
        assert got.comp & got.res == frozenset(), f"trial {trial}"
        assert got.pos | got.neg == got.res, f"trial {trial}"
        assert got.pos & got.neg == frozenset(), f"trial {trial}"


def test_s0_check_examples():
    assert s0_check(np.eye(2))
    assert not s0_check(-np.eye(2))
    assert s0_check(np.array([[0.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(TooLarge):
        s0_check(np.eye(21))


def test_stationarity_at_solution_only(example):
    rep = newton_solve(example, SolverOptions(method="newton", residual_tol=1e-12))
    assert stationarity_check(example, rep.point)
    start = AugmentedPoint(np.ones(3), np.ones(2) / np.sqrt(2.0), 1.0)
    assert not stationarity_check(example, start)


def test_regularity_regular_at_solution(example):
    rep = newton_solve(example, SolverOptions(method="newton", residual_tol=1e-12))
    verdict = fb_regularity_check(example, rep.point)
    assert verdict.kind is RegularityKind.REGULAR, verdict.reason
    assert verdict.index_sets.res == frozenset()


def test_regularity_irregular_witness_for_singular_block():
    T = np.eye(5)
    T[0, 0] = 0.0
    prob = LcpProblem(EsocDims(3, 2), T, np.zeros(5), allow_singular=True)
    w = AugmentedPoint(np.ones(3), np.array([0.7, 0.1]), 1.0)
    verdict = fb_regularity_check(prob, w)
    assert verdict.kind is RegularityKind.IRREGULAR_WITNESS, verdict.reason
    witness = verdict.witness
    assert witness is not None and np.linalg.norm(witness) > 0
    assert np.abs(prob.A @ witness).max() <= 1e-10 * (1.0 + np.linalg.norm(witness))


def test_regularity_indeterminate_away_from_solution(example):
    w = AugmentedPoint(np.ones(3), np.ones(2) / np.sqrt(2.0), 1.0)
    verdict = fb_regularity_check(example, w)
    assert verdict.kind is RegularityKind.INDETERMINATE, verdict.reason
    assert verdict.index_sets.res != frozenset()
    n = len(verdict.index_sets.res)
    assert verdict.schur_free.shape == (n, n)
    assert verdict.s0_advisory in (True, False)


def test_regularity_raises_on_singular_equation_block(example):
    w = AugmentedPoint(np.ones(3), np.zeros(2), 0.0)
    with pytest.raises(SingularMatrix):
        fb_regularity_check(example, w)


def test_certify_solution_verdicts(example):
    rep = newton_solve(example, SolverOptions(method="newton", residual_tol=1e-12))
    assert certify_solution(example, rep.point)
    start = AugmentedPoint(np.ones(3), np.ones(2) / np.sqrt(2.0), 1.0)
    assert not certify_solution(example, start)
    # the singular equation block path must come back False, not raise
    assert not certify_solution(example, AugmentedPoint(np.ones(3), np.zeros(2), 0.0))


def _reference_slopes(a, b):
    rad = np.hypot(a, b)
    degenerate = rad == 0.0
    safe = np.where(degenerate, 1.0, rad)
    d_a = np.where(degenerate, DEGENERATE_SLOPE, a / safe - 1.0)
    d_b = np.where(degenerate, DEGENERATE_SLOPE, b / safe - 1.0)
    return psi_fb(a, b), d_a, d_b


def _reference_fb(prob, w):
    """fb_residual and fb_jacobian assembled from the reformulation blocks."""
    y = f_comp(prob, w)
    _, d_a, d_b = _reference_slopes(w.xhat, y)
    blocks = jacobian_blocks(prob, w)
    jac = np.block([
        [np.diag(d_a) + d_b[:, None] * blocks.comp_x, d_b[:, None] * blocks.comp_ut],
        [blocks.eq_x, blocks.eq_ut],
    ])
    return np.concatenate([psi_fb(w.xhat, y), f_eq(prob, w)]), jac


def test_kernel_matches_reformulation_reference():
    # Bitwise: the kernel does the reference's operations in the same order.
    rng = np.random.default_rng(97)
    for k in range(1, 6):
        for l in range(1, 6):
            prob = random_problem(rng, k, l)
            kernel = FbKernel(prob)
            for trial in range(3):
                w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, l), rng.uniform(0.1, 2.0))
                arr = w.to_array()
                res, aux = kernel.residual(arr)
                want_res, want_jac = _reference_fb(prob, w)
                assert np.array_equal(res, want_res), f"k={k} l={l} trial {trial}"
                assert np.array_equal(kernel.jacobian(arr, aux), want_jac), f"k={k} l={l} trial {trial}"
                assert np.array_equal(fb_residual(prob, w), want_res)
                assert np.array_equal(fb_jacobian(prob, w), want_jac)


def test_kernel_degenerate_pair_matches_reference():
    # Row 0 of T picks x_0 = t and r_0 = -t, so the first pair is (0, 0).
    rng = np.random.default_rng(101)
    for k, l in [(1, 1), (2, 3), (5, 5)]:
        t = 0.75
        T = rng.uniform(-5.0, 5.0, (k + l, k + l))
        T[0] = 0.0
        T[0, 0] = 1.0
        r = rng.uniform(-5.0, 5.0, k + l)
        r[0] = -t
        prob = LcpProblem(EsocDims(k, l), T, r)
        xhat = rng.uniform(-1.0, 1.0, k)
        xhat[0] = 0.0
        w = AugmentedPoint(xhat, rng.uniform(-1.0, 1.0, l), t)
        assert f_comp(prob, w)[0] == 0.0
        res, aux = FbKernel(prob).residual(w.to_array())
        want_res, want_jac = _reference_fb(prob, w)
        jac = FbKernel(prob).jacobian(w.to_array(), aux)
        assert np.array_equal(res, want_res) and np.array_equal(jac, want_jac), f"k={k} l={l}"
        assert jac[0, 0] == DEGENERATE_SLOPE + DEGENERATE_SLOPE * T[0, 0]


def test_fb_pair_slopes_and_degenerate_rule():
    a = np.array([3.0, 0.0, -1.0, 0.0])
    b = np.array([4.0, 2.0, 0.0, 0.0])
    psi, d_a, d_b = fb_pair(a, b)
    assert np.array_equal(psi, psi_fb(a, b))
    assert np.array_equal(d_a, np.array([3.0 / 5.0 - 1.0, -1.0, -2.0, DEGENERATE_SLOPE]))
    assert np.array_equal(d_b, np.array([4.0 / 5.0 - 1.0, 0.0, -1.0, DEGENERATE_SLOPE]))
    # Without a degenerate pair fb_pair skips the masked rule; on no, some
    # and only degenerate pairs it gives the rule's bits.
    rng = np.random.default_rng(113)
    a, b = rng.uniform(-2.0, 2.0, (2, 9))
    index = np.arange(9)
    for degenerate in (index < 0, index % 3 == 0, index >= 0):
        a_d = np.where(degenerate, np.where(index % 2 == 0, 0.0, -0.0), a)
        b_d = np.where(degenerate, 0.0, b)
        rad = np.hypot(a_d, b_d)
        safe = np.where(degenerate, 1.0, rad)
        want = [rad - (a_d + b_d)] + [np.where(degenerate, DEGENERATE_SLOPE, v / safe - 1.0) for v in (a_d, b_d)]
        out = np.empty(9)
        got = fb_pair(a_d, b_d, out=out)
        assert got[0] is out
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want], degenerate


def test_certify_solution_is_the_regular_verdict(example):
    # certify_solution decides the Regular branch directly; it must agree
    # with the full verdict, a SingularMatrix from it counting as False.
    def via_verdict(prob, w):
        if not stationarity_check(prob, w):
            return False
        try:
            return fb_regularity_check(prob, w).kind is RegularityKind.REGULAR
        except SingularMatrix:
            return False

    points = [(example, newton_solve(example, SolverOptions(method="newton", residual_tol=1e-12)).point)]
    points.append((example, AugmentedPoint(np.ones(3), np.ones(2) / np.sqrt(2.0), 1.0)))
    points.append((example, AugmentedPoint(np.ones(3), np.zeros(2), 0.0)))
    T = np.eye(5)
    T[0, 0] = 0.0
    singular_a = LcpProblem(EsocDims(3, 2), T, np.zeros(5), allow_singular=True)
    points.append((singular_a, AugmentedPoint(np.zeros(3), np.zeros(2), 0.0)))
    for seed in range(200, 215):
        inst = make_instance("vi", 1 + seed % 5, 1 + (seed // 5) % 5, seed)
        rep = solve_esoclcp(inst.problem)
        points.append((inst.problem, rep.point))
    verdicts = [certify_solution(prob, w) for prob, w in points]
    assert verdicts == [via_verdict(prob, w) for prob, w in points]
    assert True in verdicts and False in verdicts


def _same_bits(a, b):
    # Bitwise: unlike array_equal, tells -0.0 from +0.0.
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kernel_matches_reference_bit_for_bit_with_zeros():
    rng = np.random.default_rng(113)
    for k in range(1, 5):
        for l in range(1, 4):
            for trial in range(6):
                t = rng.uniform(0.1, 2.0)
                T = rng.uniform(-5.0, 5.0, (k + l, k + l))
                r = rng.uniform(-5.0, 5.0, k + l)
                xhat = rng.uniform(-1.0, 1.0, k)
                u = rng.uniform(-1.0, 1.0, l)
                if trial % 3 < 2:
                    xhat[0] = 0.0
                if trial % 3 == 0:
                    # f_comp_0 = x_0 - t = xhat_0 = 0: a degenerate first pair.
                    T[0] = 0.0
                    T[0, 0] = 1.0
                    r[0] = -t
                if trial >= 3:
                    u[0] = 0.0
                prob = LcpProblem(EsocDims(k, l), T, r, allow_singular=True)
                w = AugmentedPoint(xhat, u, t)
                kernel = FbKernel(prob)
                res, aux = kernel.residual(w.to_array())
                want_res, want_jac = _reference_fb(prob, w)
                assert _same_bits(res, want_res), f"k={k} l={l} trial {trial}"
                assert _same_bits(kernel.jacobian(w.to_array(), aux), want_jac), f"k={k} l={l} trial {trial}"


@pytest.mark.parametrize("k", [8, 9, 13, 16])
@pytest.mark.parametrize("l", [1, 3])
def test_kernel_matches_reference_bit_for_bit_from_eight_orthant_rows(k, l):
    # From eight entries numpy sums pairwise and may order a reduction by
    # memory layout (one sum over the rows of [A | B] differs from the sums
    # over A and B here), so each of the kernel's row and column sums must
    # be the reference's own reduction.
    rng = np.random.default_rng(131 + k + l)
    for trial in range(12):
        prob = random_problem(rng, k, l)
        w = AugmentedPoint(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, l), rng.uniform(0.1, 2.0))
        kernel = FbKernel(prob)
        res, aux = kernel.residual(w.to_array())
        want_res, want_jac = _reference_fb(prob, w)
        assert _same_bits(res, want_res), f"trial {trial}"
        assert _same_bits(kernel.jacobian(w.to_array(), aux), want_jac), f"trial {trial}"


def test_certify_solution_validates_its_tolerances(example):
    # Checked up front, also where the point is not stationary.
    start = AugmentedPoint(np.ones(3), np.ones(2) / np.sqrt(2.0), 1.0)
    assert not certify_solution(example, start)
    for bad in ({"eps": 0.0}, {"tol": 0.0}, {"eps": -1.0}):
        with pytest.raises(ValueError):
            certify_solution(example, start, **bad)
