"""Command-line behavior: exit codes, formats, env defaults, round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from esoclcp import SolverOptions, example_problem, make_instance, parse_problem, serialize_problem
from esoclcp.cli import main


def test_solve_example_human_output(capsys):
    code = main(["solve", "example-paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Converged" in out
    assert "case: CASE_VI" in out
    assert "certified: yes" in out
    assert "x: [" in out and "u: [" in out


def test_solve_example_json_output(monkeypatch, capsys):
    monkeypatch.delenv("ESOCLCP_DEFAULT_TOL", raising=False)
    code = main(["solve", "example-paper", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Converged"
    assert data["options"]["method"] == "lm"
    # With no flags the report's options are SolverOptions' defaults.
    defaults = SolverOptions()
    assert data["options"] == {
        "method": defaults.method, "tol": defaults.residual_tol, "mu": defaults.mu,
        "max_iter": defaults.max_iter, "seed": defaults.rng_seed, "starts": defaults.num_random_starts,
    }


def test_solve_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "example-paper", "--json", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_solve_problem_file_and_unsolved_exit(tmp_path, capsys):
    good = make_instance("vi", 3, 2, 5)
    path = tmp_path / "good.json"
    path.write_text(serialize_problem(good.problem), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()

    hard = make_instance("vi", 5, 2, 24)  # defeats every branch of the pipeline
    path2 = tmp_path / "hard.json"
    path2.write_text(serialize_problem(hard.problem), encoding="utf-8")
    code = main(["solve", str(path2)])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: Converged" not in out


def test_solve_env_tolerance_default(monkeypatch, capsys):
    monkeypatch.setenv("ESOCLCP_DEFAULT_TOL", "1e-9")
    main(["solve", "example-paper", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["options"]["tol"] == 1e-9
    # an explicit flag beats the environment
    main(["solve", "example-paper", "--json", "--tol", "1e-5"])
    data = json.loads(capsys.readouterr().out)
    assert data["options"]["tol"] == 1e-5


def test_solve_env_tolerance_invalid(monkeypatch, capsys):
    monkeypatch.setenv("ESOCLCP_DEFAULT_TOL", "abc")
    code = main(["solve", "example-paper"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_verify_accepts_generated_sidecar(tmp_path, capsys):
    out = tmp_path / "prob.json"
    assert main(["gen", "--k", "3", "--l", "2", "--seed", "42", "--out", str(out)]) == 0
    code = main(["verify", str(out), str(out) + ".solution"])
    text = capsys.readouterr().out
    assert code == 0
    assert "case: GENERAL" in text
    assert "lambda:" in text
    assert "complementary: yes" in text


def test_verify_rejects_corrupted_candidate(tmp_path, capsys):
    out = tmp_path / "prob.json"
    main(["gen", "--k", "3", "--l", "2", "--seed", "42", "--out", str(out)])
    sidecar = tmp_path / "prob.json.solution"
    bad = sidecar.read_text(encoding="utf-8").replace('"x": [', '"x": [9.0, ', 1)
    # keep lengths right: drop the original last x entry
    data = json.loads(bad)
    data["x"] = data["x"][:3]
    sidecar.write_text(
        '{"k": 3, "l": 2, "x": %s, "u": %s}' % (json.dumps(data["x"]), json.dumps(data["u"])),
        encoding="utf-8",
    )
    code = main(["verify", str(out), str(sidecar)])
    text = capsys.readouterr().out
    assert code == 2
    assert "complementary: no" in text


def test_verify_zero_u_candidate_classification(tmp_path, capsys):
    out = tmp_path / "prob.json"
    main(["gen", "--k", "3", "--l", "2", "--case", "i", "--seed", "3", "--out", str(out)])
    code = main(["verify", str(out), str(out) + ".solution"])
    text = capsys.readouterr().out
    assert code == 0
    assert "case: U_ZERO" in text
    assert "lambda:" not in text


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_rejects_a_non_finite_tolerance(tol, tmp_path, capsys):
    # x = (100, -5, 7), u = (40, 40) is far from complementary (inner
    # product 2.6e5); an infinite tolerance used to accept it as U_ZERO.
    path = tmp_path / "far.solution"
    path.write_text('{"k": 3, "l": 2, "x": [100, -5, 7], "u": [40, 40]}', encoding="utf-8")
    assert main(["verify", "example-paper", str(path), "--tol", "1e-6"]) == 2
    capsys.readouterr()
    assert main(["verify", "example-paper", str(path), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite and non-negative, got {tol}\n"


def test_verify_dims_mismatch_is_usage_error(tmp_path, capsys):
    out = tmp_path / "prob.json"
    main(["gen", "--k", "3", "--l", "2", "--out", str(out)])
    other = tmp_path / "other.json"
    main(["gen", "--k", "2", "--l", "2", "--out", str(other)])
    code = main(["verify", str(out), str(other) + ".solution"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_writes_problem_and_sidecar(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--k", "2", "--l", "3", "--seed", "9", "--out", str(out)]) == 0
    prob = parse_problem(out.read_text(encoding="utf-8"))
    assert prob.dims.k == 2 and prob.dims.l == 3
    assert (tmp_path / "inst.json.solution").exists()


def test_gen_random_case_has_no_sidecar(tmp_path):
    out = tmp_path / "rnd.json"
    assert main(["gen", "--k", "2", "--l", "2", "--case", "random", "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "rnd.json.solution").exists()


def test_gen_stdout_mode_notes_missing_sidecar(capsys):
    code = main(["gen", "--k", "2", "--l", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["k"] == 2
    assert "known solution not written" in captured.err


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["gen", "--k", "4", "--l", "2", "--seed", "77", "--out", str(a)])
    main(["gen", "--k", "4", "--l", "2", "--seed", "77", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.solution").read_bytes() == (tmp_path / "b.json.solution").read_bytes()


def test_example_command_round_trips(tmp_path, capsys):
    out = tmp_path / "ex.json"
    assert main(["example-paper", "--out", str(out)]) == 0
    prob = parse_problem(out.read_text(encoding="utf-8"))
    want = example_problem()
    assert np.array_equal(prob.T, want.T)
    assert np.array_equal(prob.r, want.r)
    assert main(["example-paper"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 3 and data["l"] == 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gen", "--l", "2"]) == 1
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_gen_rejects_bad_dims(capsys):
    assert main(["gen", "--k", "0", "--l", "2"]) == 1
    assert "error: dims must satisfy k >= 1 and l >= 1, got k=0, l=2" in capsys.readouterr().err


def test_solve_example_imports_no_scipy_linalg_optimize_theory_or_json():
    # The LU routines are called through ctypes in numpy's OpenBLAS library,
    # so neither scipy.linalg nor its f2py LAPACK extension is loaded;
    # scipy.optimize serves only the Indeterminate regularity advisory, no
    # solve runs the paper's conditions in esoclcp.theory, and a report
    # needs no JSON quoting; a fresh interpreter solving the example must
    # load none of them.
    code = (
        "import contextlib, io, sys\n"
        "from esoclcp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['solve', 'example-paper', '--json']) == 0\n"
        "    assert main(['solve', 'example-paper']) == 0\n"
        "loaded = {'scipy.linalg', 'scipy.linalg._flapack', 'scipy.optimize', 'esoclcp.theory', 'json'}\n"
        "print(sorted(loaded & set(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_cold_solve_maps_one_blas_library():
    # The LU binds the OpenBLAS that `import numpy` has already mapped: a
    # fresh interpreter solving the example maps no library of scipy's
    # wheel and does not import scipy at all.
    code = (
        "import contextlib, io, sys\n"
        "from esoclcp import linalg\n"
        "from esoclcp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['solve', 'example-paper']) == 0\n"
        "print(linalg.LAPACK_SOURCE)\n"
        "print('scipy' in sys.modules)\n"
        "with open('/proc/self/maps') as maps:\n"
        "    paths = {line.split()[-1] for line in maps if '/' in line}\n"
        "print(*sorted(p for p in paths if 'scipy.libs' in p or 'openblas' in p), sep='\\n')\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    source, scipy_loaded, *mapped = run.stdout.splitlines()
    assert source.startswith("numpy.libs/libscipy_openblas64_")
    assert len(mapped) == 1 and mapped[0].endswith(source), mapped
    assert scipy_loaded == "False"


def test_generation_and_random_starts_import_no_numpy_random():
    # Seeded draws come from esoclcp.rng, numpy's default_rng stream
    # rebuilt without numpy.random: generating every case, `esoclcp gen`,
    # and a solve that finds no answer and so draws all 8 random starts
    # must not load it.  The example converges at its default start, so its
    # solve does not even load esoclcp.rng.
    code = (
        "import contextlib, io, sys\n"
        "from esoclcp import SolverOptions, SolveStatus, make_instance, solve_esoclcp\n"
        "from esoclcp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['solve', 'example-paper']) == 0\n"
        "    assert 'esoclcp.rng' not in sys.modules\n"
        "    assert main(['gen', '--k', '3', '--l', '2', '--case', 'random', '--seed', '4']) == 0\n"
        "for case in ('vi', 'i', 'ii', 'random'):\n"
        "    make_instance(case, 3, 2, 0)\n"
        "report = solve_esoclcp(make_instance('random', 3, 2, 17).problem, SolverOptions())\n"
        "assert report.status is SolveStatus.MAX_ITER, report.status\n"
        "assert 'esoclcp.rng' in sys.modules\n"
        "print('numpy.random' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize(
    "key, value",
    [("k", "3"), ("k", 3.0), ("k", None), ("k", [1]), ("l", True), ("r", {"a": 1})],
)
def test_solve_rejects_mistyped_problem_fields(key, value, tmp_path, capsys):
    data = json.loads(serialize_problem(example_problem()))
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f'error: field "{key}" must be')
    assert "Traceback" not in err


# An integer written out in digits that no float can hold.
HUGE = int("1" + "0" * 400)


@pytest.mark.parametrize("key", ["T", "r"])
def test_solve_reports_integers_beyond_the_float_range_as_field_errors(key, tmp_path, capsys):
    data = json.loads(serialize_problem(example_problem()))
    if key == "T":
        data["T"][0][0] = HUGE
    else:
        data["r"][0] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f'error: field "{key}" must hold numbers within the float range')
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["x", "u"])
def test_verify_reports_integers_beyond_the_float_range_as_field_errors(key, tmp_path, capsys):
    data = {"k": 3, "l": 2, "x": [1, 1, 1], "u": [0, 0]}
    data[key][0] = -HUGE
    path = tmp_path / "huge.solution"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "example-paper", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f'error: field "{key}" must hold numbers within the float range')
    assert "Traceback" not in err


def test_verify_rejects_fractional_solution_dims(tmp_path, capsys):
    path = tmp_path / "bad.solution"
    path.write_text('{"k": 3.9, "l": 2, "x": [1, 1, 1], "u": [0, 0]}', encoding="utf-8")
    assert main(["verify", "example-paper", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: field "k" must be an integer, got 3.9')
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--mu", "nan"], "mu"),
        (["--mu", "inf"], "mu"),
        (["--tol", "inf"], "residual_tol"),
        (["--tol", "nan"], "residual_tol"),
        (["--starts", "-1"], "num_random_starts"),
        (["--seed", "-1"], "rng_seed"),
    ],
)
def test_solve_rejects_bad_options_at_the_boundary(flags, field, capsys):
    assert main(["solve", "example-paper", *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be")


def test_solve_rejects_bad_env_tolerance_and_fractional_max_iter(monkeypatch, capsys):
    monkeypatch.setenv("ESOCLCP_DEFAULT_TOL", "inf")
    assert main(["solve", "example-paper"]) == 1
    assert capsys.readouterr().err.startswith("error: residual_tol must be")
    monkeypatch.delenv("ESOCLCP_DEFAULT_TOL")
    assert main(["solve", "example-paper", "--max-iter", "2.5"]) == 1
    assert "--max-iter: invalid int value" in capsys.readouterr().err


def test_solve_with_zero_damping_exits_zero(tmp_path, capsys):
    # A singular LM normal matrix ends one start, not the whole command.
    path = tmp_path / "vi.json"
    assert main(["gen", "--k", "4", "--l", "1", "--case", "vi", "--seed", "3", "--out", str(path)]) == 0
    code = main(["solve", str(path), "--mu", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Converged" in out
