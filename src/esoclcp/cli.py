"""Command-line front end.

Commands: solve (run the pipeline on a problem file), verify (check a
candidate solution file against a problem), gen (seeded instance
generation, optionally with a known-solution sidecar), example-paper
(emit the built-in example problem).  Exit codes: 0 solved/verified,
2 not solved/not complementary, 1 usage or data errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .cones import PairCase, classify_pair, in_esoc, in_esoc_dual
from .errors import EsoclcpError
from .fileio import (
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_report,
    serialize_solution,
)
from .instances import CASES, example_problem, make_instance
from .reformulation import affine_map
from .solvers import SolveStatus, SolverOptions, solve_esoclcp

ENV_TOL = "ESOCLCP_DEFAULT_TOL"

# Name accepted in place of a problem path to mean the built-in example.
EXAMPLE_NAME = "example-paper"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(format(float(x), ".12g") for x in np.asarray(v)) + "]"


def _default_tol() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return 1e-7
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL} must be a number, got {raw!r}") from None


def _load_problem(path: str):
    if path == EXAMPLE_NAME:
        return example_problem()
    return parse_problem(Path(path).read_text(encoding="utf-8"))


def _cmd_solve(args) -> int:
    prob = _load_problem(args.problem)
    tol = args.tol if args.tol is not None else _default_tol()
    opts = SolverOptions(
        method=args.method,
        residual_tol=tol,
        mu=args.mu,
        max_iter=args.max_iter,
        num_random_starts=args.starts,
        rng_seed=args.seed,
    )
    report = solve_esoclcp(prob, opts)
    text = serialize_report(report, opts)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"status: {report.status.value}")
        print(f"case: {report.case_label.value}")
        print(f"iterations: {report.iterations}")
        print(f"residual_norm: {report.residual_norm:.6e}")
        print(f"certified: {'yes' if report.certified else 'no'}")
        if report.recovered is not None:
            print(f"x: {_fmt_vec(report.recovered.x)}")
            print(f"u: {_fmt_vec(report.recovered.u)}")
    return 0 if report.status is SolveStatus.CONVERGED else 2


def _cmd_verify(args) -> int:
    prob = _load_problem(args.problem)
    z = parse_solution(Path(args.candidate).read_text(encoding="utf-8"))
    if z.dims != prob.dims:
        raise ValueError(f"candidate dims {z.dims} do not match problem dims {prob.dims}")
    w = affine_map(prob, z)
    case, cert = classify_pair(z, w, args.tol)
    ok = case is not PairCase.NOT_COMPLEMENTARY
    print(f"case: {case.value}")
    if cert is not None:
        print(f"lambda: {cert.lambda_:.12g}")
        print(f"max_violation: {cert.max_violation:.6e}")
    print(f"z in cone: {'yes' if in_esoc(z, args.tol) else 'no'}")
    print(f"image in dual cone: {'yes' if in_esoc_dual(w, args.tol) else 'no'}")
    print(f"inner_product: {float(z.to_array() @ w.to_array()):.6e}")
    print(f"complementary: {'yes' if ok else 'no'}")
    return 0 if ok else 2


def _cmd_gen(args) -> int:
    if args.k < 1 or args.l < 1:
        raise ValueError(f"k and l must be at least 1, got k={args.k}, l={args.l}")
    inst = make_instance(args.case, args.k, args.l, args.seed)
    comment = f"generated: case {args.case}, k={args.k}, l={args.l}, seed={args.seed}"
    text = serialize_problem(inst.problem, comment=comment)
    if args.out is None:
        sys.stdout.write(text)
        if inst.solution is not None:
            print("note: known solution not written (use --out to get a sidecar)", file=sys.stderr)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        if inst.solution is not None:
            sidecar = Path(str(args.out) + ".solution")
            sidecar.write_text(
                serialize_solution(inst.problem.dims, inst.solution), encoding="utf-8"
            )
    return 0


def _cmd_example(args) -> int:
    text = serialize_problem(example_problem(), comment="built-in example problem")
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; code 2 is reserved for "no solution".
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="esoclcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("problem", help=f"problem file path, or '{EXAMPLE_NAME}'")
    solve.add_argument("--method", choices=["newton", "lm"], default="lm")
    solve.add_argument("--tol", type=float, default=None, help="residual tolerance")
    solve.add_argument("--mu", type=float, default=0.005, help="LM damping")
    solve.add_argument("--max-iter", type=int, default=200)
    solve.add_argument("--seed", type=int, default=0, help="seed for extra starts")
    solve.add_argument("--starts", type=int, default=8, help="number of random starts")
    solve.add_argument("--json", action="store_true", help="print the report file to stdout")
    solve.add_argument("--out", default=None, help="also write the report file here")
    solve.set_defaults(fn=_cmd_solve)

    verify = sub.add_parser("verify", help="check a candidate solution")
    verify.add_argument("problem", help=f"problem file path, or '{EXAMPLE_NAME}'")
    verify.add_argument("candidate", help="solution file with fields k, l, x, u")
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.set_defaults(fn=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a seeded instance")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--l", type=int, required=True)
    gen.add_argument("--case", choices=list(CASES), default="vi")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="problem path; sidecar goes to <out>.solution")
    gen.set_defaults(fn=_cmd_gen)

    example = sub.add_parser(
        "example-paper", help="emit the built-in example problem"
    )
    example.add_argument("--out", default=None)
    example.set_defaults(fn=_cmd_example)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (EsoclcpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
