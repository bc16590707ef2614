"""Serialization of problems, solution sidecars and solve reports.

Files are JSON, written by a hand-rolled emitter so output is byte-stable:
fixed key order, fixed layout (matrix rows one per line, scalar lists
inline), floats printed with 17 significant digits so every double
round-trips exactly, and no timestamps or environment echoes.  Parsing
uses the stdlib JSON reader, loaded only then and to quote a comment, and
checks field types and shapes on the way in: k and l are JSON integers, T
equal-length rows of numbers, and r, x and u lists of numbers.
"""

from __future__ import annotations

import numpy as np

from .cones import EsocDims, PointZ
from .reformulation import LcpProblem
from .solvers import SolveReport, SolverOptions


def _fnum(v) -> str:
    return format(float(v), ".17g")


def _flist(vals) -> str:
    return "[" + ", ".join(_fnum(v) for v in np.asarray(vals, dtype=float)) + "]"


def serialize_problem(prob: LcpProblem, comment: str | None = None) -> str:
    """Problem file: k, l, row-major T, r and an optional comment."""
    lines = ["{"]
    lines.append(f'  "k": {prob.dims.k},')
    lines.append(f'  "l": {prob.dims.l},')
    lines.append('  "T": [')
    for i, row in enumerate(prob.T):
        comma = "," if i + 1 < prob.dims.m else ""
        lines.append(f"    {_flist(row)}{comma}")
    lines.append("  ],")
    tail = "," if comment is not None else ""
    lines.append(f'  "r": {_flist(prob.r)}{tail}')
    if comment is not None:
        import json
        lines.append(f'  "comment": {json.dumps(comment)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(data: dict, key: str):
    if key not in data:
        raise ValueError(f'missing field "{key}"')
    return data[key]


def _dims(data: dict) -> EsocDims:
    for key in ("k", "l"):
        if type(_require(data, key)) is not int:
            raise ValueError(f'field "{key}" must be an integer, got {data[key]!r}')
    return EsocDims(data["k"], data["l"])


def _is_numbers(value) -> bool:
    return type(value) is list and all(type(v) in (int, float) for v in value)


def _numbers(data: dict, key: str) -> list:
    value = _require(data, key)
    if not _is_numbers(value):
        raise ValueError(f'field "{key}" must be a list of numbers')
    return value


def _loads(text: str) -> dict:
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("top-level value must be an object")
    return data


def parse_problem(text: str) -> LcpProblem:
    """Inverse of serialize_problem; comments are ignored."""
    data = _loads(text)
    dims = _dims(data)
    rows = _require(data, "T")
    if type(rows) is not list or not all(map(_is_numbers, rows)) or len(set(map(len, rows))) > 1:
        raise ValueError('field "T" must be a list of equal-length lists of numbers')
    return LcpProblem(dims, np.array(rows, dtype=float), _numbers(data, "r"))


def serialize_solution(dims: EsocDims, z: PointZ) -> str:
    """Sidecar file carrying a known solution z = (x, u) for a problem."""
    if z.dims != dims:
        raise ValueError(f"solution dims {z.dims} do not match {dims}")
    lines = ["{"]
    lines.append(f'  "k": {dims.k},')
    lines.append(f'  "l": {dims.l},')
    lines.append(f'  "x": {_flist(z.x)},')
    lines.append(f'  "u": {_flist(z.u)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> PointZ:
    data = _loads(text)
    dims = _dims(data)
    z = PointZ(_numbers(data, "x"), _numbers(data, "u"))
    if z.dims != dims:
        raise ValueError(f"x/u lengths {z.dims} do not match declared k={dims.k}, l={dims.l}")
    return z


def serialize_report(report: SolveReport, opts: SolverOptions) -> str:
    """Report file: outcome, iterate, recovery and an echo of the options."""
    p = report.point
    lines = ["{"]
    # status, case_label and method are fixed identifiers: nothing to escape.
    lines.append(f'  "status": "{report.status.value}",')
    lines.append(f'  "case_label": "{report.case_label.value}",')
    lines.append(
        f'  "point": {{"xhat": {_flist(p.xhat)}, "u": {_flist(p.u)}, "t": {_fnum(p.t)}}},'
    )
    if report.recovered is None:
        lines.append('  "recovered": null,')
    else:
        z = report.recovered
        lines.append(f'  "recovered": {{"x": {_flist(z.x)}, "u": {_flist(z.u)}}},')
    lines.append(f'  "residual_norm": {_fnum(report.residual_norm)},')
    lines.append(f'  "iterations": {report.iterations},')
    lines.append(f'  "certified": {"true" if report.certified else "false"},')
    lines.append(f'  "residual_history": {_flist(report.residual_history)},')
    lines.append(
        '  "options": {'
        f'"method": "{opts.method}", '
        f'"tol": {_fnum(opts.residual_tol)}, '
        f'"mu": {_fnum(opts.mu)}, '
        f'"max_iter": {opts.max_iter}, '
        f'"seed": {opts.rng_seed}, '
        f'"starts": {opts.num_random_starts}'
        "}"
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Read a report file back into a plain dict (numbers as floats/ints)."""
    data = _loads(text)
    for key in ("status", "case_label", "point", "residual_norm", "iterations", "certified"):
        _require(data, key)
    return data
