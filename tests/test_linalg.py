"""Dense LU, Schur complement, and finite-difference oracle tests."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from esoclcp import linalg

from esoclcp import (
    DimensionMismatch,
    SingularMatrix,
    as_matrix,
    as_vector,
    fd_jacobian,
    lu_factor,
    lu_solve,
    schur_complement,
)


def test_as_vector_coerces_and_validates():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_lu_factor_reconstructs_input():
    # unpack the packed factors and undo the recorded row swaps
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        m = rng.uniform(-10.0, 10.0, (n, n)) + np.eye(n)
        f = lu_factor(m)
        lower = np.tril(f.lu, -1) + np.eye(n)
        upper = np.triu(f.lu)
        back = lower @ upper
        for i in reversed(range(n)):
            back[[i, f.piv[i]]] = back[[f.piv[i], i]]
        err = np.abs(back - m).max() / max(1.0, np.abs(m).max())
        assert err <= 1e-12, f"trial {trial}: reconstruction error {err:.3e}"


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(1, 10))
        m = rng.uniform(-5.0, 5.0, (n, n)) + 2.0 * np.eye(n)
        b = rng.uniform(-5.0, 5.0, n)
        got = lu_solve(lu_factor(m), b)
        want = np.linalg.solve(m, b)
        assert np.abs(got - want).max() <= 1e-10, f"trial {trial}"


def test_lu_solve_checks_rhs_length():
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_solve(f, np.ones(4))


def test_lu_factor_rejects_singular():
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((2, 2)))
    sing = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        lu_factor(sing)


def _same_error(m, name, error):
    # The solvers' step factors through linalg._factor: it must raise what
    # lu_factor raises, with the same message.
    with pytest.raises(error) as boundary:
        lu_factor(m, name=name)
    with pytest.raises(error) as core:
        linalg._factor(m, name)
    assert str(core.value) == str(boundary.value)
    return str(boundary.value)


def test_lu_factor_error_carries_name():
    with pytest.raises(SingularMatrix) as exc:
        lu_factor(np.zeros((2, 2)), name="A block")
    assert "A block" in str(exc.value)
    # A pivot 1e-13 times the largest entry fails the test only after dgetrf.
    nearly = np.array([[1.0, 2.0, 0.0], [2.0, 4.0 + 2e-13, 0.0], [0.0, 0.0, 1.0]])
    for m in (np.zeros((2, 2)), nearly):
        assert "jacobian is singular" in _same_error(m, "jacobian", SingularMatrix)


def test_lu_factor_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.ones((2, 3)))


def test_schur_complement_known_value():
    # [[P, Q], [R, S]] with P = 2, Q = (1, 0), R = (1, 1)^T, S = I
    pi = np.array([
        [2.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
    ])
    got = schur_complement(pi, 1)
    want = np.array([[0.5, 0.0], [-0.5, 1.0]])
    assert np.abs(got - want).max() <= 1e-14


def test_schur_complement_matches_direct_formula():
    rng = np.random.default_rng(17)
    for trial in range(15):
        d = int(rng.integers(1, 4))
        n = d + int(rng.integers(1, 4))
        pi = rng.uniform(-3.0, 3.0, (n, n)) + np.eye(n)
        P, Q = pi[:d, :d], pi[:d, d:]
        R, S = pi[d:, :d], pi[d:, d:]
        want = S - R @ np.linalg.solve(P, Q)
        got = schur_complement(pi, d)
        assert np.abs(got - want).max() <= 1e-10, f"trial {trial}"


def test_schur_complement_singular_leading_block():
    pi = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        schur_complement(pi, 1)


def test_schur_complement_range_checks():
    with pytest.raises(DimensionMismatch):
        schur_complement(np.eye(3), 0)
    with pytest.raises(DimensionMismatch):
        schur_complement(np.eye(3), 3)


def test_fd_jacobian_on_polynomial_map():
    def f(v):
        x, y = v
        return np.array([x * x * y, 3.0 * x + y * y * y, x - y])

    def jac(v):
        x, y = v
        return np.array([
            [2.0 * x * y, x * x],
            [3.0, 3.0 * y * y],
            [1.0, -1.0],
        ])

    rng = np.random.default_rng(23)
    for trial in range(10):
        at = rng.uniform(-2.0, 2.0, 2)
        err = np.abs(fd_jacobian(f, at) - jac(at)).max()
        assert err <= 1e-8, f"trial {trial}: fd error {err:.3e}"


def test_fd_jacobian_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_jacobian(lambda v: v, np.ones(2), h=0.0)


def test_lu_factor_matches_scipy_and_is_read_only():
    rng = np.random.default_rng(107)
    for n in range(12):
        m = rng.uniform(-3.0, 3.0, (n, n))
        f = lu_factor(m)
        lu, piv = scipy.linalg.lu_factor(m)
        assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv), f"n={n}"
        b = rng.uniform(-3.0, 3.0, n)
        assert np.array_equal(lu_solve(f, b), scipy.linalg.lu_solve((lu, piv), b)), f"n={n}"
        assert not f.lu.flags.writeable and not f.piv.flags.writeable
        if n:
            # The solvers' step: the pivot core, then dgetrs, same bits.
            core_lu, core_piv = linalg._factor(m, "matrix")
            assert core_lu.tobytes() == f.lu.tobytes() and core_piv.tobytes() == f.piv.tobytes(), f"n={n}"
            assert linalg.dgetrs(core_lu, core_piv, -b)[0].tobytes() == lu_solve(f, -b).tobytes(), f"n={n}"


def test_lu_factor_rejects_non_finite_entries_by_name():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="normal matrix"):
            lu_factor(m, name="normal matrix")
        assert _same_error(m, "normal matrix", ValueError) == "normal matrix: entries must be finite"


def test_lu_factor_rejects_wrong_shapes():
    for shape in [(3,), (2, 2, 2), (2, 3), (3, 2)]:
        with pytest.raises(DimensionMismatch, match="jacobian"):
            lu_factor(np.ones(shape), name="jacobian")


def test_direct_lapack_load_matches_scipy_bitwise():
    # esoclcp loads the LAPACK extension first, scipy.linalg second: both
    # must use the same routines and give the same bits.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from esoclcp import linalg\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from scipy.linalg import lapack\n"
        "assert linalg._flapack_extension() is sys.modules['scipy.linalg._flapack']\n"
        "rng = np.random.default_rng(5)\n"
        "for n in range(1, 9):\n"
        "    m, b = rng.uniform(-3.0, 3.0, (n, n)), rng.uniform(-3.0, 3.0, n)\n"
        "    lu, piv, info = linalg.dgetrf(m)\n"
        "    want_lu, want_piv, want_info = lapack.dgetrf(m)\n"
        "    assert lu.tobytes() == want_lu.tobytes() and np.array_equal(piv, want_piv), n\n"
        "    assert info == want_info == 0, n\n"
        "    x, _ = linalg.dgetrs(lu, piv, b)\n"
        "    assert x.tobytes() == lapack.dgetrs(want_lu, want_piv, b)[0].tobytes(), n\n"
        "print('ok')\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def test_lapack_load_falls_back_to_scipy_linalg(monkeypatch):
    def unavailable():
        raise ImportError("no extension")

    monkeypatch.setattr(linalg, "_flapack_extension", unavailable)
    getrf, getrs = linalg._load_getrf_getrs()
    assert getrf is scipy.linalg.lapack.dgetrf and getrs is scipy.linalg.lapack.dgetrs
    monkeypatch.setattr(linalg, "dgetrf", getrf)
    monkeypatch.setattr(linalg, "dgetrs", getrs)
    rng = np.random.default_rng(109)
    for n in range(9):
        m, b = rng.uniform(-3.0, 3.0, (n, n)), rng.uniform(-3.0, 3.0, n)
        f = lu_factor(m)
        lu, piv = scipy.linalg.lu_factor(m)
        assert f.lu.tobytes() == lu.tobytes() and np.array_equal(f.piv, piv), f"n={n}"
        assert lu_solve(f, b).tobytes() == scipy.linalg.lu_solve((lu, piv), b).tobytes(), f"n={n}"


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_norm_helper_is_numpy_norm_byte_for_byte():
    rng = np.random.default_rng(16)
    vectors = [rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150) for n in range(40)]
    vectors += [v[::3] for v in vectors] + [v[::-1] for v in vectors]  # strided views
    tiny = np.nextafter(0.0, 1.0)
    vectors += [
        np.zeros(5),
        np.full(4, tiny),
        np.array([1e-310, -3e-320, 2.5e-308]),
        np.array([1e200, 1.0]),
        np.full(3, -1e200),
        np.array([1.0, np.nan, 2.0]),
        np.array([-np.nan]),
        np.array([np.inf, 1.0]),
        np.array([-np.inf, np.nan]),
    ]
    with np.errstate(over="ignore"):
        for v in vectors:
            got = linalg._norm(v)
            assert type(got) is float
            assert _bits(got) == _bits(np.linalg.norm(v)), v
        assert linalg._norm(np.array([1e200, 1.0])) == math.inf
    # The same overflow warning as numpy's, which tier-1 turns into an error.
    for norm in (linalg._norm, np.linalg.norm):
        with pytest.raises(RuntimeWarning, match="overflow"):
            norm(np.full(3, 1e200))
