"""The package's records: signatures, immutability, equality, reprs."""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import esoclcp
from esoclcp import (
    AugmentedPoint,
    CaseLabel,
    CertificateIII,
    EsocDims,
    IndexSets,
    LcpProblem,
    PointZ,
    RegularityKind,
    RegularityVerdict,
    SolveReport,
    SolverOptions,
    SolveStatus,
    example_problem,
    make_instance,
    solve_esoclcp,
)
from esoclcp.instances import GeneratedInstance
from esoclcp.solvers import _RawSolve

SIGNATURES = {
    EsocDims: "(k: int, l: int)",
    PointZ: "(x: numpy.ndarray, u: numpy.ndarray)",
    CertificateIII: "(lambda_: float, max_violation: float)",
    LcpProblem: "(dims: 'EsocDims', T: 'np.ndarray', r: 'np.ndarray', allow_singular: 'bool' = False)",
    AugmentedPoint: "(xhat: 'np.ndarray', u: 'np.ndarray', t: 'float')",
    GeneratedInstance: "(problem: 'LcpProblem', solution: 'PointZ | None', case: 'str')",
    SolverOptions: (
        "(method: 'str' = 'lm', residual_tol: 'float' = 1e-07, mu: 'float' = 0.005, "
        "max_iter: 'int' = 200, start: 'AugmentedPoint | None' = None, "
        "num_random_starts: 'int' = 8, rng_seed: 'int' = 0)"
    ),
    SolveReport: (
        "(status: 'SolveStatus', point: 'AugmentedPoint', residual_norm: 'float', "
        "iterations: 'int', residual_history: 'list[float]', "
        "case_label: 'CaseLabel' = <CaseLabel.CASE_VI: 'CASE_VI'>, certified: 'bool' = False, "
        "recovered: 'PointZ | None' = None)"
    ),
    _RawSolve: "(status: 'SolveStatus', x: 'np.ndarray', norm: 'float', iterations: 'int', "
    "history: 'list[float]', last: 'tuple | None' = None)",
    IndexSets: "(comp: 'frozenset', res: 'frozenset', pos: 'frozenset', neg: 'frozenset')",
    RegularityVerdict: (
        "(kind: 'RegularityKind', reason: 'str', index_sets: 'IndexSets | None' = None, "
        "witness: 'np.ndarray | None' = None, schur_free: 'np.ndarray | None' = None, "
        "s0_advisory: 'bool | None' = None)"
    ),
}


def _records():
    """One instance of every record class, built twice (a, b) from equal fields."""
    prob = example_problem()
    sets = dict(comp=frozenset({0}), res=frozenset({1}), pos=frozenset(), neg=frozenset({1}))
    point = AugmentedPoint(np.ones(3), np.ones(2), 1.0)

    def build():
        return [
            EsocDims(3, 2),
            PointZ([1.0], [2.0]),
            CertificateIII(1.5, 0.0),
            LcpProblem(prob.dims, prob.T, prob.r),
            AugmentedPoint([1.0], [2.0], 3.0),
            GeneratedInstance(prob, None, "random"),
            SolverOptions(method="newton", start=point),
            SolveReport(SolveStatus.MAX_ITER, point, 1.0, 2, [3.0, 1.0]),
            _RawSolve(SolveStatus.MAX_ITER, np.ones(2), 1.0, 1, [2.0, 1.0]),
            IndexSets(**sets),
            RegularityVerdict(RegularityKind.REGULAR, "why"),
        ]

    return build(), build()


def test_no_package_module_imports_dataclasses():
    src = Path(esoclcp.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_parameters(cls):
    # Names, order, annotations and defaults; not the return annotation.
    signature = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
    assert str(signature) == SIGNATURES[cls]


def test_fields_cannot_be_assigned_or_deleted():
    for record in _records()[0]:
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_value_records_compare_and_hash_by_fields_others_by_identity():
    value_classes = {EsocDims, CertificateIII, SolverOptions, IndexSets}
    for a, b in zip(*_records()):
        if type(a) in value_classes:
            assert a == b and hash(a) == hash(b), type(a).__name__
        else:
            assert a != b and a == a, type(a).__name__
    assert EsocDims(3, 2) != EsocDims(2, 3)
    assert EsocDims(3, 2) != (3, 2)
    assert SolverOptions() == SolverOptions() and SolverOptions() != SolverOptions(mu=0.01)
    assert len({EsocDims(1, 1), EsocDims(1, 1), EsocDims(1, 2)}) == 2


def test_reprs():
    assert repr(EsocDims(3, 2)) == "EsocDims(k=3, l=2)"
    assert repr(CertificateIII(1.5, 0.0)) == "CertificateIII(lambda_=1.5, max_violation=0.0)"
    assert repr(AugmentedPoint([1.0], [2.0], 3.0)) == "AugmentedPoint(xhat=array([1.]), u=array([2.]), t=3.0)"
    assert repr(SolverOptions()) == (
        "SolverOptions(method='lm', residual_tol=1e-07, mu=0.005, max_iter=200, start=None, "
        "num_random_starts=8, rng_seed=0)"
    )
    report = SolveReport(SolveStatus.MAX_ITER, AugmentedPoint([1.0], [2.0], 3.0), 1.0, 1, [9.5, 1.0])
    assert repr(report) == (
        "SolveReport(status=<SolveStatus.MAX_ITER: 'MaxIter'>, "
        "point=AugmentedPoint(xhat=array([1.]), u=array([2.]), t=3.0), residual_norm=1.0, "
        "iterations=1, case_label=<CaseLabel.CASE_VI: 'CASE_VI'>, certified=False, recovered=None)"
    )
    prob = LcpProblem(EsocDims(1, 1), np.eye(2), [1.0, 2.0])
    prob.lu_A
    assert repr(prob) == (
        "LcpProblem(dims=EsocDims(k=1, l=1), T=array([[1., 0.],\n       [0., 1.]]), "
        "r=array([1., 2.]), allow_singular=False)"
    )


def test_lu_a_is_cached_and_a_singular_a_is_not():
    prob = example_problem()
    assert prob.lu_A is prob.lu_A
    singular = LcpProblem(EsocDims(1, 1), np.zeros((2, 2)), [1.0, 2.0], allow_singular=True)
    for _ in range(2):
        with pytest.raises(esoclcp.SingularMatrix):
            singular.lu_A


def test_records_copy_and_pickle():
    prob = make_instance("vi", 2, 2, 3).problem
    prob.lu_A
    for record in _records()[0] + [prob, solve_esoclcp(prob)]:
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert repr(clone) == repr(record)
    assert pickle.loads(pickle.dumps(EsocDims(3, 2))) == EsocDims(3, 2)
    clone = pickle.loads(pickle.dumps(prob))
    assert np.array_equal(clone.lu_A.lu, prob.lu_A.lu)
    report = solve_esoclcp(prob)
    assert copy.copy(report).residual_history == report.residual_history
    assert copy.copy(report).case_label is report.case_label
