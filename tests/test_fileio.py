"""Byte-stable JSON serialization and parsing round-trips."""

import json

import numpy as np
import pytest

from esoclcp import (
    EsocDims,
    PointZ,
    SolverOptions,
    example_problem,
    make_instance,
    parse_problem,
    parse_report,
    parse_solution,
    serialize_problem,
    serialize_report,
    serialize_solution,
    solve_esoclcp,
)
from conftest import random_problem


def test_problem_round_trip_is_exact():
    rng = np.random.default_rng(109)
    for trial in range(20):
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        prob = random_problem(rng, k, l, scale=50.0)
        back = parse_problem(serialize_problem(prob))
        assert np.array_equal(back.T, prob.T), f"trial {trial}"
        assert np.array_equal(back.r, prob.r), f"trial {trial}"
        assert back.dims == prob.dims, f"trial {trial}"


def test_problem_file_layout():
    prob = example_problem()
    text = serialize_problem(prob)
    assert text.endswith("}\n")
    lines = text.splitlines()
    # one line per matrix row between the T brackets
    start = lines.index('  "T": [')
    end = lines.index("  ],")
    assert end - start - 1 == prob.dims.m
    data = json.loads(text)
    assert set(data) == {"k", "l", "T", "r"}


def test_problem_comment_round_trip():
    prob = example_problem()
    text = serialize_problem(prob, comment="seed 7, flavor vi")
    data = json.loads(text)
    assert data["comment"] == "seed 7, flavor vi"
    back = parse_problem(text)
    assert np.array_equal(back.T, prob.T)


def test_problem_serialization_deterministic():
    prob = example_problem()
    assert serialize_problem(prob) == serialize_problem(prob)


def test_seventeen_digit_floats_round_trip():
    third = 1.0 / 3.0
    prob = parse_problem(serialize_problem(example_problem()))
    text = serialize_problem(
        type(prob)(EsocDims(1, 1), np.array([[third, 1.0], [2.0, third]]), np.array([third, 0.0]))
    )
    assert "0.33333333333333331" in text
    back = parse_problem(text)
    assert back.T[0, 0] == third


def test_parse_problem_errors():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_problem("{broken")
    with pytest.raises(ValueError, match='missing field "T"'):
        parse_problem('{"k": 1, "l": 1, "r": [0, 0]}')
    with pytest.raises(ValueError):
        parse_problem("[1, 2, 3]")


def test_solution_round_trip():
    dims = EsocDims(3, 2)
    z = PointZ(np.array([1.0, 1.0 / 7.0, 2.5]), np.array([-0.25, 1e-9]))
    back = parse_solution(serialize_solution(dims, z))
    assert np.array_equal(back.x, z.x)
    assert np.array_equal(back.u, z.u)


def test_solution_dims_crosscheck():
    with pytest.raises(ValueError):
        serialize_solution(EsocDims(2, 2), PointZ(np.ones(3), np.ones(2)))
    with pytest.raises(ValueError):
        parse_solution('{"k": 2, "l": 1, "x": [1.0], "u": [0.0]}')


def problem_text_with(key, value):
    """The example's problem file with one field replaced."""
    data = json.loads(serialize_problem(example_problem()))
    data[key] = value
    return json.dumps(data)


def solution_text_with(key, value):
    """A valid k = 3, l = 2 solution file with one field replaced."""
    data = {"k": 3, "l": 2, "x": [1.0, 2.0, 3.0], "u": [0.5, 0.0]}
    data[key] = value
    return json.dumps(data)


BAD_PROBLEM_FIELDS = [
    ("k", "3"),
    ("k", 3.0),
    ("k", None),
    ("k", [1]),
    ("l", True),
    ("T", "T"),
    ("T", [[1.0, 2.0], [3.0]]),
    ("T", [[1.0, "2"], [3.0, 4.0]]),
    ("r", {"a": 1}),
    ("r", [1.0, True, 0.0, 0.0, 0.0]),
]

BAD_SOLUTION_FIELDS = [
    ("k", 3.9),
    ("l", "2"),
    ("x", [1.0, None, 3.0]),
    ("u", "0.5"),
]


@pytest.mark.parametrize("key, value", BAD_PROBLEM_FIELDS)
def test_parse_problem_checks_field_types(key, value):
    with pytest.raises(ValueError, match=f'field "{key}" must be'):
        parse_problem(problem_text_with(key, value))


@pytest.mark.parametrize("key, value", BAD_SOLUTION_FIELDS)
def test_parse_solution_checks_field_types(key, value):
    with pytest.raises(ValueError, match=f'field "{key}" must be'):
        parse_solution(solution_text_with(key, value))


def test_integer_valued_lists_still_parse():
    prob = parse_problem(problem_text_with("r", [1, 0, -2, 0, 1]))
    assert prob.r.tolist() == [1.0, 0.0, -2.0, 0.0, 1.0]
    assert parse_solution(solution_text_with("x", [1, 2, 3])).x.tolist() == [1.0, 2.0, 3.0]


def test_report_round_trip_converged():
    prob = example_problem()
    opts = SolverOptions()
    rep = solve_esoclcp(prob, opts)
    text = serialize_report(rep, opts)
    data = parse_report(text)
    assert data["status"] == "Converged"
    assert data["case_label"] == "CASE_VI"
    assert data["iterations"] == rep.iterations
    assert data["residual_norm"] == rep.residual_norm
    assert data["certified"] is True
    assert data["point"]["xhat"] == rep.point.xhat.tolist()
    assert data["point"]["t"] == rep.point.t
    assert data["recovered"]["x"] == rep.recovered.x.tolist()
    assert data["residual_history"] == rep.residual_history
    assert data["options"] == {
        "method": "lm",
        "tol": 1e-7,
        "mu": 0.005,
        "max_iter": 200,
        "seed": 0,
        "starts": 8,
    }


def test_report_round_trip_enumerated_answer():
    # i/207 is solved by the exact u = 0 branch, which takes no iterations.
    inst = make_instance("i", 3, 4, 207)
    opts = SolverOptions()
    rep = solve_esoclcp(inst.problem, opts)
    data = parse_report(serialize_report(rep, opts))
    assert data["status"] == "Converged"
    assert data["case_label"] == "CASE_I"
    assert data["iterations"] == 0
    assert data["residual_history"] == [data["residual_norm"]] == [rep.residual_norm]
    assert len(data["residual_history"]) == data["iterations"] + 1
    assert data["recovered"]["x"] == rep.recovered.x.tolist()
    assert data["point"]["t"] == 0.0
    assert data["certified"] is True


def test_report_round_trip_failure():
    inst = make_instance("vi", 2, 5, 114)
    opts = SolverOptions()
    rep = solve_esoclcp(inst.problem, opts)
    data = parse_report(serialize_report(rep, opts))
    assert data["status"] == "MaxIter"
    assert data["recovered"] is None
    assert data["certified"] is False


def test_report_serialization_deterministic():
    prob = example_problem()
    opts = SolverOptions()
    a = serialize_report(solve_esoclcp(prob, opts), opts)
    b = serialize_report(solve_esoclcp(prob, opts), opts)
    assert a == b


def test_parse_report_requires_core_fields():
    with pytest.raises(ValueError, match='missing field "status"'):
        parse_report('{"case_label": "CASE_VI"}')
