"""Dense LU, Schur complement, and finite-difference oracle tests."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from esoclcp import SolverOptions, linalg, make_instance
from esoclcp.fbsystem import FbKernel
from esoclcp.solvers import _iterate, _resolve_start

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


def _unfactored(m):
    """A new LuFactors holding m, as the solvers' step writes one."""
    work = linalg.LuFactors(m.shape[0])
    work.lu[...] = m
    return work


def _same_error(m, name, error):
    # The solvers' step factors in a reused LuFactors: it must raise what
    # lu_factor raises, with the same message.
    with pytest.raises(error) as boundary:
        lu_factor(m, name=name)
    with pytest.raises(error) as core:
        _unfactored(m).factor(name)
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
    for h in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^h must be finite and positive, got {h}$"):
            fd_jacobian(lambda v: v, np.ones(2), h=h)


def test_lu_factor_matches_scipy_and_is_read_only():
    rng = np.random.default_rng(107)
    for n in range(12):
        m = rng.uniform(-3.0, 3.0, (n, n))
        f = lu_factor(m)
        lu, piv = scipy.linalg.lu_factor(m)
        assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv), f"n={n}"
        b = rng.uniform(-3.0, 3.0, n)
        assert np.array_equal(lu_solve(f, b), scipy.linalg.lu_solve((lu, piv), b)), f"n={n}"
        assert not f.lu.flags.writeable
        if n:
            # The solvers' step: a reused LuFactors factors and solves, same bits.
            work = _unfactored(m)
            work.factor("matrix")
            assert work.lu.tobytes("F") == f.lu.tobytes("F") and np.array_equal(work.piv, f.piv), f"n={n}"
            work.b[...] = -b
            assert work.solve().tobytes() == lu_solve(f, -b).tobytes(), f"n={n}"


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


@pytest.fixture(params=["bound", "cython_lapack"])
def lapack_source(request, monkeypatch):
    """The routines this process bound, or those of the cython_lapack capsules."""
    if request.param == "cython_lapack":
        source, *addresses = linalg._capsule_routines()
        assert source == "scipy.linalg.cython_lapack"
        assert addresses != linalg._addresses  # cython_lapack's own wrappers of the routines
        getrf, getrs = linalg._bind(*addresses)
        monkeypatch.setattr(linalg, "_dgetrf", getrf)
        monkeypatch.setattr(linalg, "_dgetrs", getrs)
    return request.param


def _binding_matrices():
    """(label, matrix) for n = 1-16: random, exactly singular and SPD normal matrices."""
    rng = np.random.default_rng(18)
    for n in range(1, 17):
        yield f"random n={n}", rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
        singular = rng.uniform(-3.0, 3.0, (n, n))
        singular[:, n // 2] = 0.0  # an exactly zero column: dgetrf's info is n // 2 + 1
        yield f"singular n={n}", singular
        jac = rng.standard_normal((n + 2, n))
        yield f"normal n={n}", jac.T @ jac + 0.005 * np.eye(n)


def test_lu_binding_matches_scipy_lapack_byte_for_byte(lapack_source):
    # lu_factor/lu_solve and a reused LuFactors give dgetrf/dgetrs's bits: the
    # factors, the 0-based pivots, the info code of an exactly singular
    # matrix, and 1-d and 2-d solutions.
    rng = np.random.default_rng(19)
    for label, m in _binding_matrices():
        n = m.shape[0]
        want_lu, want_piv, want_info = scipy.linalg.lapack.dgetrf(m)
        work = _unfactored(m)
        if want_info:
            assert want_info == n // 2 + 1, label
            with pytest.raises(SingularMatrix):
                lu_factor(m)
            with pytest.raises(SingularMatrix):
                work.factor("matrix")
            assert work._ints[2] == want_info, label  # LAPACK's info code
        else:
            work.factor("matrix")
            f = lu_factor(m)
            assert f.lu.tobytes() == want_lu.tobytes() and f.piv.tobytes() == want_piv.tobytes(), label
            assert f.piv.dtype == want_piv.dtype and f.lu.flags.f_contiguous, label
            for b in (rng.standard_normal(n), rng.standard_normal((n, 1)), rng.standard_normal((n, 3))):
                want = scipy.linalg.lapack.dgetrs(want_lu, want_piv, b)[0]
                got = lu_solve(f, b)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), label
            work.b[...] = b[:, 0]
            assert work.solve().tobytes() == scipy.linalg.lapack.dgetrs(want_lu, want_piv, b[:, 0])[0].tobytes()
        assert work.lu.tobytes("F") == want_lu.tobytes("F") and np.array_equal(work.piv, want_piv), label


def _reference_iterate(kernel, x, opts):
    """The engine's iteration with scipy.linalg.lapack's dgetrf/dgetrs:
    (best iterate, history)."""
    res, jac, _ = kernel.evaluate(x)
    iterates, history = [x], [float(np.abs(res).max())]
    for _ in range(opts.max_iter):
        if history[-1] <= opts.residual_tol:
            break
        if opts.method == "newton":
            matrix, rhs = jac, -res
        else:
            matrix, rhs = jac.T @ jac + opts.mu * np.eye(x.size), -(jac.T @ res)
        lu, piv, info = scipy.linalg.lapack.dgetrf(matrix)
        assert info == 0
        x = x + scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0]
        res, jac, _ = kernel.evaluate(x)
        iterates.append(x)
        history.append(float(np.abs(res).max()))
    return iterates[int(np.argmin(history))], history


@pytest.mark.parametrize("method", ["newton", "lm"])
def test_engine_workspace_matches_scipy_lapack_byte_for_byte(lapack_source, method):
    # The engine writes J, or J^T J + mu I in C order, into the kernel's
    # LuFactors; its iterates are those of scipy's dgetrf/dgetrs on the
    # matrices it used to build.
    for seed, k, l in ((200, 1, 1), (201, 2, 2), (3, 4, 1), (207, 3, 5)):
        prob = make_instance("vi", k, l, seed).problem
        opts = SolverOptions(method=method, max_iter=8)
        kernel = FbKernel(prob)
        assert kernel.lu.lu.shape == (k + l + 1, k + l + 1)
        start = _resolve_start(opts, prob)
        raw = _iterate(kernel, start, opts)
        x, history = _reference_iterate(FbKernel(prob), start, opts)
        assert raw.history == history, (seed, method)
        assert raw.x.tobytes() == x.tobytes(), (seed, method)


def test_lu_solve_rejects_bad_factors_and_shapes(lapack_source):
    f = lu_factor(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    for rhs in (np.ones(2), np.ones(4), np.ones((2, 3)), np.float64(1.0), np.ones((3, 1, 1))):
        with pytest.raises(DimensionMismatch):
            lu_solve(f, rhs)
    # A non-finite right-hand side is LAPACK's business: NaN in, NaN out.
    rhs = np.array([1.0, np.nan, np.inf])
    want = scipy.linalg.lapack.dgetrs(f.lu, f.piv, rhs)[0]
    assert lu_solve(f, rhs).tobytes() == want.tobytes()


def test_new_factors_start_with_identity_pivots(lapack_source):
    # With the identity written into a new object's lu, both solves give b
    # back and leave lu as written: no pivot swaps a row out of range.
    f = linalg.LuFactors(3)
    f.lu[...] = np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(f.piv, [0, 1, 2])
    assert lu_solve(f, b).tobytes() == b.tobytes()
    f.b[...] = b
    assert f.solve().tobytes() == b.tobytes()
    assert f.lu.tobytes() == np.eye(3).tobytes()


def test_repeated_lu_solves_return_new_arrays_and_keep_the_factors(lapack_source):
    # The v = 0 branch solves with D's factors 2 + roots times.
    rng = np.random.default_rng(20)
    for n in (1, 4, 7):
        m = rng.standard_normal((n, n))
        want_lu, want_piv, _ = scipy.linalg.lapack.dgetrf(m)
        f = lu_factor(m)
        factors = f.lu.tobytes(), f.piv.tobytes()
        rhs = [rng.standard_normal(n), rng.standard_normal((n, 1)), rng.standard_normal((n, 3))]
        inputs = [b.tobytes() for b in rhs]
        solutions = []
        for b in rhs + rhs:
            got = lu_solve(f, b)
            want = scipy.linalg.lapack.dgetrs(want_lu, want_piv, b)[0]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n
            assert (f.lu.tobytes(), f.piv.tobytes()) == factors, n
            assert not any(np.shares_memory(got, other) for other in [f.lu, *rhs, *solutions]), n
            solutions.append(got)
        assert [b.tobytes() for b in rhs] == inputs, n


def test_lu_factor_rejects_non_finite_and_singular_input(lapack_source):
    for bad in (np.nan, np.inf, -np.inf):
        for n in (1, 4):
            m = np.eye(n)
            m[n - 1, 0] = bad
            assert _same_error(m, "block", ValueError) == "block: entries must be finite"
    for m in (np.zeros((1, 1)), np.ones((5, 5)), np.diag([1.0, 1e-14])):
        assert "block is singular" in _same_error(m, "block", SingularMatrix)


def test_lu_handles_empty_systems():
    f = lu_factor(np.empty((0, 0)))
    assert f.n == 0 and f.lu.shape == (0, 0) and f.piv.shape == (0,)
    assert lu_solve(f, np.empty(0)).shape == (0,)
    assert lu_solve(f, np.empty((0, 2))).shape == (0, 2)
    assert lu_solve(lu_factor(np.eye(3)), np.empty((3, 0))).shape == (3, 0)


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
