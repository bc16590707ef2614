"""The independent checker accepts good answers and rejects bad ones."""

import json

import numpy as np
import pytest

import checker
from esoclcp import SolverOptions, example_problem, make_instance, solve_esoclcp
from esoclcp.fileio import serialize_report

PLANTED = [("vi", "CASE_VI"), ("i", "CASE_I"), ("ii", "CASE_II")]


def _example_report() -> dict:
    prob = example_problem()
    opts = SolverOptions()
    return json.loads(serialize_report(solve_esoclcp(prob, opts), opts))


def _check(rep: dict, exact: bool = True):
    prob = example_problem()
    return checker.check_report(prob.T, prob.r, prob.dims.k, json.dumps(rep), exact_example=exact)


@pytest.mark.parametrize("case,label", PLANTED)
@pytest.mark.parametrize("seed", [200, 201, 202, 203, 204])
def test_planted_sidecars_are_accepted(case, label, seed):
    k, l = 1 + seed % 5, 1 + (seed * 3) % 5
    inst = make_instance(case, k, l, seed)
    P, z = inst.problem, inst.solution
    violations = checker.pair_violations(P.T, P.r, k, z.x, z.u)
    assert max(violations.values()) <= checker.PAIR_TOL, violations
    assert checker.label_fits(label, P.T, P.r, k, z.x, z.u)


def test_example_report_is_accepted():
    assert _check(_example_report()) == (checker.OK, "")


def test_exact_example_solution():
    x = [float(c) for c in checker.EXAMPLE_X]
    u = [float(c) for c in checker.EXAMPLE_U]
    assert checker.example_error(x, u) == 0.0
    assert checker.example_error(np.add(x, 1e-4), u) > checker.EXAMPLE_TOL


def test_shifted_x_is_rejected():
    rep = _example_report()
    rep["recovered"]["x"] = [v + 0.01 for v in rep["recovered"]["x"]]
    rep["point"]["xhat"] = [v + 0.01 for v in rep["point"]["xhat"]]
    status, reason = _check(rep)
    assert status == checker.WRONG and "complementary" in reason


def test_shifted_planted_x_violates_the_pair():
    inst = make_instance("vi", 3, 2, 7)
    P, z = inst.problem, inst.solution
    violations = checker.pair_violations(P.T, P.r, 3, z.x + 0.01, z.u)
    assert max(violations.values()) > checker.PAIR_TOL


def test_sign_flipped_u_is_rejected():
    rep = _example_report()
    rep["recovered"]["u"] = [-v for v in rep["recovered"]["u"]]
    rep["point"]["u"] = [-v for v in rep["point"]["u"]]
    status, _ = _check(rep)
    assert status == checker.WRONG


def test_unmatched_augmented_point_is_rejected():
    rep = _example_report()
    rep["point"]["t"] += 1e-3
    assert _check(rep)[0] == checker.WRONG


def test_residual_above_tolerance_is_rejected():
    rep = _example_report()
    rep["options"]["tol"] = 1e-20
    status, reason = _check(rep)
    assert status == checker.WRONG and "residual" in reason


@pytest.mark.parametrize("label", ["CASE_I", "CASE_II", "NOT_A_LABEL"])
def test_wrong_label_is_rejected(label):
    rep = _example_report()
    rep["case_label"] = label
    status, reason = _check(rep)
    assert status == checker.WRONG and "label" in reason


def test_v_zero_answer_labelled_case_vi_is_a_known_fault():
    inst = make_instance("ii", 2, 2, 11)
    P, z = inst.problem, inst.solution
    assert not checker.label_fits("CASE_VI", P.T, P.r, 2, z.x, z.u)
    assert checker.label_fits("CASE_II", P.T, P.r, 2, z.x, z.u)


def test_other_solution_fails_the_exact_example_check():
    # A correct answer to another 3+2 problem passes every pair test but is
    # not the example's rational solution.
    inst = make_instance("vi", 3, 2, 5)
    opts = SolverOptions()
    text = serialize_report(solve_esoclcp(inst.problem, opts), opts)
    P = inst.problem
    assert checker.check_report(P.T, P.r, 3, text) == (checker.OK, "")
    status, reason = checker.check_report(P.T, P.r, 3, text, exact_example=True)
    assert status == checker.WRONG and "example" in reason


def test_not_converged_is_a_failed_solve():
    rep = _example_report()
    rep["status"] = "MaxIter"
    assert _check(rep)[0] == checker.FAILED
