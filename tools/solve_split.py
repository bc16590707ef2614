"""Time each solve of a benchmark batch inside and outside the Newton/LM
engine, and count the engine's runs and iterations by how each run ended.

Usage (from anywhere):

    python3 tools/solve_split.py [CHECKOUT] [--set {vi-batch,degenerate-batch}] [--repeats N]

Imports ``esoclcp`` from ``CHECKOUT/src`` (default: the checkout this file
belongs to), so the same script measures any tree, including one that does
not have it.  The instances are the benchmark's declared set named by
``--set`` (default ``vi-batch``), as ``perfbench/run.py`` declares it:
``vi-batch`` is ``make_instance("vi", k, l, seed)`` for seeds 200-250,
``degenerate-batch`` the case-i instances of seeds 200-210 and the case-ii
ones of seeds 200-209, each with the benchmark's dims rule (j = seed - 200,
k = 1 + j % 5, l = 1 + (j + j // 5) % 5).  After one warm-up solve of
each, ``solve_esoclcp`` runs N rounds over the set (default 15), with one
default ``SolverOptions`` as the benchmark passes.  ``solvers._iterate``
is wrapped, so each solve's time inside the engine is the sum of its runs'
times, and its time outside is the rest of the solve's wall time.

Printed: one line per instance (its label, the engine runs of one solve,
then the median and the minimum over the N solves of the time inside and
of the time outside, in microseconds); then, over the single-run
instances (answered by the default start's run) and over all instances,
the median across instances of each of those four columns; then the
engine runs and iterations of one round (the warm-up), per status the
runs ended with, and in all.  Solves are deterministic, so every round
makes the same runs.  Times are raw ``time.perf_counter`` wall times of
this host, not the benchmark's nominal speed, so compare two trees by
alternating runs of this script.  Standard library only, besides
``esoclcp`` and the numpy it needs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

# perfbench/run.py's declared sets: (case, seed) pairs.
SETS = {
    "vi-batch": [("vi", 200 + j) for j in range(51)],
    "degenerate-batch": [("i", 200 + j) for j in range(11)] + [("ii", 200 + j) for j in range(10)],
}


def benchmark_dims(seed: int) -> tuple[int, int]:
    j = seed - 200
    return 1 + j % 5, 1 + (j + j // 5) % 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--set", choices=SETS, default="vi-batch", help="declared set (default vi-batch)")
    parser.add_argument("--repeats", type=int, default=15, help="timed rounds over the set (default 15)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str((args.checkout / "src").resolve()))

    import esoclcp.solvers as solvers
    from esoclcp import make_instance

    engine = solvers._iterate
    inside = [0.0, 0]  # seconds and runs of the current solve
    ended = {}  # status -> [runs, iterations] of the warm-up round; None after it

    def timed_iterate(*call):
        start = time.perf_counter()
        try:
            raw = engine(*call)
        finally:
            inside[0] += time.perf_counter() - start
            inside[1] += 1
        if ended is not None:
            tally = ended.setdefault(raw.status.value, [0, 0])
            tally[0] += 1
            tally[1] += raw.iterations
        return raw

    solvers._iterate = timed_iterate
    opts = solvers.SolverOptions()
    items = []
    for case, seed in SETS[args.set]:
        k, l = benchmark_dims(seed)
        prob = make_instance(case, k, l, seed).problem
        solvers.solve_esoclcp(prob, opts)  # warm-up
        items.append((f"{case}/{seed}/k{k}l{l}", prob, [], []))
    split, ended = ended, None

    runs = {}
    for _ in range(args.repeats):
        for label, prob, ins, outs in items:
            inside[:] = [0.0, 0]
            start = time.perf_counter()
            solvers.solve_esoclcp(prob, opts)
            total = time.perf_counter() - start
            ins.append(1e6 * inside[0])
            outs.append(1e6 * (total - inside[0]))
            runs[label] = inside[1]

    rows = []
    for label, _, ins, outs in items:
        row = (statistics.median(ins), min(ins), statistics.median(outs), min(outs))
        rows.append((label, runs[label], row))
        print(f"{label:16s} runs {runs[label]:2d}  inside {row[0]:9.1f} {row[1]:9.1f}"
              f"  outside {row[2]:7.1f} {row[3]:7.1f}")
    print("medians across instances, us: inside median, min; outside median, min")
    for name, chosen in (("single-run", [row for _, n, row in rows if n == 1]), ("all", [row for _, _, row in rows])):
        columns = [statistics.median(column) for column in zip(*chosen)]
        print(f"{name:10s} n={len(chosen):2d}  " + "  ".join(f"{value:9.1f}" for value in columns))
    print("engine runs and iterations of one round, by how each run ended")
    split["all"] = [sum(column) for column in zip(*split.values())]
    for status, (count, iterations) in split.items():
        print(f"{status:16s} runs {count:5d}  iterations {iterations:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
