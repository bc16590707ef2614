"""Seeded instance generation with known-solution sidecars."""

import numpy as np
import pytest

from esoclcp import (
    affine_map,
    case_i_check,
    case_ii_check,
    comp_pair_check,
    example_problem,
    in_esoc,
    in_esoc_dual,
    make_instance,
)


def test_example_problem_frozen_data():
    prob = example_problem()
    assert prob.dims.k == 3 and prob.dims.l == 2
    assert prob.T[0].tolist() == [26.0, 15.0, 3.0, 51.0, -42.0]
    assert prob.T[4].tolist() == [-38.0, -25.0, 24.0, 47.0, -16.0]
    assert prob.r.tolist() == [-1.0, 47.0, 13.0, -32.0, -45.0]


def test_generation_is_deterministic():
    a = make_instance("vi", 3, 2, 123)
    b = make_instance("vi", 3, 2, 123)
    assert np.array_equal(a.problem.T, b.problem.T)
    assert np.array_equal(a.problem.r, b.problem.r)
    assert np.array_equal(a.solution.to_array(), b.solution.to_array())
    c = make_instance("vi", 3, 2, 124)
    assert not np.array_equal(a.problem.T, c.problem.T)


def test_matrix_entries_bounded():
    rng = np.random.default_rng(97)
    for trial in range(30):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("vi", k, l, trial)
        assert np.abs(inst.problem.T).max() <= 50.0, f"trial {trial}"


def test_positive_norm_solutions_verify():
    rng = np.random.default_rng(101)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("vi", k, l, trial)
        z = inst.solution
        assert inst.case == "vi"
        assert np.linalg.norm(z.u) > 0, f"trial {trial}"
        w = affine_map(inst.problem, z)
        assert in_esoc(z, 1e-8), f"trial {trial}"
        assert in_esoc_dual(w, 1e-8), f"trial {trial}"
        assert comp_pair_check(z, w, 1e-8), f"trial {trial}"


def test_zero_u_solutions_satisfy_case_check():
    rng = np.random.default_rng(103)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("i", k, l, trial)
        z = inst.solution
        assert np.all(z.u == 0.0), f"trial {trial}"
        assert case_i_check(inst.problem, z.x, 1e-8), f"trial {trial}"
        assert comp_pair_check(z, affine_map(inst.problem, z), 1e-8), f"trial {trial}"


def test_zero_image_solutions_satisfy_case_check():
    rng = np.random.default_rng(107)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        inst = make_instance("ii", k, l, trial)
        z = inst.solution
        w = affine_map(inst.problem, z)
        assert np.abs(w.u).max() <= 1e-8 * (1.0 + np.abs(z.to_array()).max()), f"trial {trial}"
        assert case_ii_check(inst.problem, z, 1e-8), f"trial {trial}"
        assert comp_pair_check(z, w, 1e-8), f"trial {trial}"


def test_random_case_has_no_sidecar():
    inst = make_instance("random", 4, 3, 11)
    assert inst.case == "random"
    assert inst.solution is None
    assert inst.problem.dims.k == 4 and inst.problem.dims.l == 3


def test_single_coordinate_edge_dims():
    for seed in range(10):
        for case in ("vi", "i", "ii"):
            inst = make_instance(case, 1, 1, seed)
            if case == "i":
                assert case_i_check(inst.problem, inst.solution.x, 1e-8), f"{case} seed {seed}"
            else:
                z = inst.solution
                assert comp_pair_check(z, affine_map(inst.problem, z), 1e-8), f"{case} seed {seed}"


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_instance("iii", 2, 2, 0)


@pytest.mark.parametrize("k, l", [(-5, 2), (0, 1), (2, 0), (2.5, 2), (True, 2), (2, True)])
def test_bad_dims_rejected_before_drawing(k, l):
    with pytest.raises(ValueError, match=rf"^dims must satisfy k >= 1 and l >= 1, got k={k}, l={l}$"):
        make_instance("vi", k, l, 0)
