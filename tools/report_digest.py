"""SHA-256 digests of the generated problems and serialized reports of
declared instance sets.

Usage (from anywhere):

    python3 tools/report_digest.py [CHECKOUT]

Imports ``esoclcp`` from ``CHECKOUT/src`` (default: the checkout this file
belongs to), so the same script digests any tree, including one that does
not have it.  For every instance, the digest of its set and the total are
fed, in this order:

- the problem's ``serialize_problem`` text, which checks the generator's
  draws directly;
- for ``method="lm"`` and then ``method="newton"`` (default options
  otherwise), the ``serialize_report`` text of ``solve_esoclcp`` and of
  that method's single-start entry point (``lm_solve`` or
  ``newton_solve``);
- for each method again, the report of ``solve_esoclcp`` under
  ``rng_seed=5``, a second stream of random starts (``rng_seed=0`` is the
  default), which checks the start draws of every solve that reaches them.

A solve that raises feeds its exception's type and message instead, so a
tree that raises still has a digest.  The declared sets:

- ``example``: ``example_problem()``;
- ``vi-200-250``, ``i-200-250``, ``ii-200-250``: ``make_instance(case, k, l,
  seed)`` for seeds 200-250, with the benchmark's dims rule
  (``perfbench/run.py``: j = seed - 200, k = 1 + j % 5,
  l = 1 + (j + j // 5) % 5);
- ``vi-0-199``: the acceptance criterion-4 set, seeds 0-199 with k and l
  drawn in 1..5 by ``numpy.random.default_rng(2024)``;
- ``random-0-99``: ``make_instance("random", k, l, seed)`` for seeds 0-99
  with k and l drawn in 1..5 by ``numpy.random.default_rng(99)``.  The
  planted sets mostly accept an early candidate; most of these instances
  have no answer, so every branch's candidates are checked and rejected.

Printed: one line per set (digest, problem count, report count, name), then
the total.  Two trees whose totals agree generated byte-identical problems
and wrote byte-identical reports on every set.  Standard library only,
besides ``esoclcp`` and the numpy it needs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

METHODS = ("lm", "newton")
SECOND_RNG_SEED = 5


def declared_sets():
    """(name, problems) for every declared set, in a fixed order."""
    from numpy.random import default_rng

    from esoclcp import example_problem, make_instance

    def benchmark_dims(seed):
        j = seed - 200
        return 1 + j % 5, 1 + (j + j // 5) % 5

    sets = [("example", [example_problem()])]
    for case in ("vi", "i", "ii"):
        problems = [make_instance(case, *benchmark_dims(seed), seed).problem for seed in range(200, 251)]
        sets.append((f"{case}-200-250", problems))
    for case, seeds, dims_seed in (("vi", range(200), 2024), ("random", range(100), 99)):
        dims_rng = default_rng(dims_seed)
        problems = []
        for seed in seeds:
            k = int(dims_rng.integers(1, 6))
            l = int(dims_rng.integers(1, 6))
            problems.append(make_instance(case, k, l, seed).problem)
        sets.append((f"{case}-{seeds[0]}-{seeds[-1]}", problems))
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path.insert(0, str((args.checkout / "src").resolve()))

    from esoclcp import SolverOptions, lm_solve, newton_solve, serialize_problem, solve_esoclcp
    from esoclcp.fileio import serialize_report

    single_start = {"lm": lm_solve, "newton": newton_solve}
    runs = [(SolverOptions(method=method), solve)
            for method in METHODS for solve in (solve_esoclcp, single_start[method])]
    runs += [(SolverOptions(method=method, rng_seed=SECOND_RNG_SEED), solve_esoclcp) for method in METHODS]

    def report_text(solve, prob, opts):
        try:
            return serialize_report(solve(prob, opts), opts)
        except Exception as exc:  # noqa: BLE001 - digested, not hidden
            return f"{type(exc).__name__}: {exc}\n"

    total = hashlib.sha256()
    for name, problems in declared_sets():
        digest = hashlib.sha256()
        for prob in problems:
            for text in [serialize_problem(prob)] + [report_text(solve, prob, opts) for opts, solve in runs]:
                digest.update(text.encode())
                total.update(text.encode())
        print(f"{digest.hexdigest()}  {len(problems):4d} {len(problems) * len(runs):5d}  {name}", flush=True)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
