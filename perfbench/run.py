"""Benchmark of the esoclcp solver: cold CLI, case-vi batch, degenerate batch.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads:

* ``cli-cold``: fresh interpreters, one at a time, each running
  ``esoclcp solve example-paper --json`` timed from before ``import
  esoclcp`` until ``main`` returns.
* ``vi-batch``: in-process ``solve_esoclcp`` over a declared set of planted
  case-vi instances.
* ``degenerate-batch``: the same over planted case-i and case-ii instances.

The instance sets are fixed (see ``SETS``); the seed orders them, so every
run attempts whole rounds of the same solves and fails the same share.
Every time is taken with the in-process speed sampler of ``refspeed``
running and is reported in seconds at the reference's nominal speed.
Every report is checked by the independent ``checker``.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; the line before it holds the same figures as raw
wall-clock work time.  With ``--trace 1`` each round is solved untraced and
then traced, the two sets of serialized reports must be byte-identical, and
the result holds the per-layer metrics.  Per-run records go to
``perfbench/out/``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the solver's matrices are at most 11x11, and extra
# threads only add CPU time on a 2-core host.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from refspeed import NP_NOMINAL_S, PY_NOMINAL_S, SpeedSampler, np_kernel, py_kernel  # noqa: E402

WORKLOADS = ("cli-cold", "vi-batch", "degenerate-batch")

# Declared instance sets: (case, seed) pairs.  Instance j of a set uses
# seed 200 + j (the held-out range; the acceptance gate uses 0-199) and
# dims k = 1 + j % 5, l = 1 + (j + j // 5) % 5, so every 25 consecutive
# instances cover each (k, l) in 1..5 x 1..5 once.  The set sizes are odd
# so that the median falls on one instance's samples, not between two.
SETS = {
    "vi-batch": [("vi", 200 + j) for j in range(51)],
    "degenerate-batch": [("i", 200 + j) for j in range(11)] + [("ii", 200 + j) for j in range(10)],
}

# solve_tail_ms on the batches is the mean of the slowest TAIL_INSTANCES
# solves of every round: the slowest 5/51 (beyond p90.2) on vi-batch and
# 5/21 (beyond p76.2) on degenerate-batch.  MIN_ROUNDS keeps at least ten
# samples in it.  A mean over the tail repeats between runs; the single
# order statistic at p90 moved by 13 % between runs on a shared host.
TAIL_INSTANCES = 5
MIN_ROUNDS = 2

# cli-cold runs at least MIN_SPAWNS fresh interpreters.  Its operation is
# the whole cold command, so its solve_p50_ms is cold_solve_s in ms.  With
# 20-30 samples a run has no tail with ten samples beyond it, so its
# solve_tail_ms is the upper quartile.
MIN_SPAWNS = 20
CLI_TAIL_PERCENTILE = 75

# Cold CLI solves of a batch's lead instance, made after the timed loop.
LEAD_COLD_SPAWNS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_solve_s": "s",
    "instances_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def dims_of(seed: int) -> tuple[int, int]:
    j = seed - 200
    return 1 + j % 5, 1 + (j + j // 5) % 5


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def tail_mean(values, count: int) -> float:
    """Mean of the count largest values."""
    return statistics.fmean(sorted(values)[-count:])


def parse_importtime(stderr: str, factor: float) -> dict:
    """Cumulative import times in ms, times factor, of the modules of interest."""
    wanted = {"esoclcp": "import.esoclcp_ms", "numpy": "import.numpy_ms",
              "scipy.linalg": "import.scipy_linalg_ms", "scipy.optimize": "import.scipy_optimize_ms"}
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in wanted and parts[1].isdigit():
            found[wanted[parts[2]]] = int(parts[1]) * 1e-3 * factor
    return found


class Run:
    """One benchmark run: outcome counts, problems found, records."""

    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.out = HERE / "out"
        self.setup = (0.0, 0.0)  # (work seconds, nominal seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.records: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    def tally(self, label: str, verdict) -> None:
        self.attempted += 1
        status, reason = verdict
        if status == checker.FAILED:
            self.failed += 1
        elif status == checker.WRONG:
            self.wrong.append(f"{label}: {reason}")

    def cold_spawn(self, problem: str, importtime: bool = False) -> dict:
        """One fresh interpreter solving problem; returns the child's record."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [str(HERE / "coldchild.py"), str(self.src), problem]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=self.root)
        spawn_s = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(rec.pop("module")).resolve().parent.parent != self.src.resolve():
            raise RuntimeError("cold child imported esoclcp from outside the checkout")
        rec["cold_s"] = rec["import_s"] + rec["main_s"]
        rec["cold_nominal_s"] = rec["import_nominal_s"] + rec["main_nominal_s"]
        # The whole spawn, less the child's sampling, at the child's own speed.
        rec["spawn_s"] = spawn_s - rec.pop("sampler_s")
        rec["spawn_nominal_s"] = rec["spawn_s"] * rec["cold_nominal_s"] / rec["cold_s"]
        if importtime:
            rec["importtime"] = parse_importtime(proc.stderr, rec["import_nominal_s"] / rec["import_s"])
        return rec

    def finish(self, metrics: dict, units: dict, raw: dict | None) -> dict:
        self.out.mkdir(exist_ok=True)
        self.records.update(metrics=metrics, raw=raw, wrong=self.wrong)
        name = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}.json"
        (self.out / name).write_text(json.dumps(self.records, indent=1) + "\n", encoding="utf-8")
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


# ------------------------------------------------------------------ set-up


class Batch:
    """A declared instance set, generated once, solved in rounds."""

    def __init__(self, workload: str):
        from esoclcp.instances import make_instance

        self.items = []
        for case, seed in SETS[workload]:
            k, l = dims_of(seed)
            self.items.append((f"{case}/{seed}/k{k}l{l}", make_instance(case, k, l, seed).problem))
        self.first_report: dict = {}

    def solve_round(self, run: Run, order, sampler: SpeedSampler) -> list:
        """Solve every instance once in the given order; one record per solve."""
        import esoclcp.solvers as solvers
        from esoclcp.fileio import serialize_report

        opts = solvers.SolverOptions()
        recs = []
        for idx in order:
            label, prob = self.items[idx]
            # Looked up at call time, so that the tracer's rebinding applies.
            rep, work, nominal = sampler.time(solvers.solve_esoclcp, prob, opts)
            text = serialize_report(rep, opts)
            verdict = checker.check_report(prob.T, prob.r, prob.dims.k, text)
            if self.first_report.setdefault(label, text) != text:
                verdict = (checker.WRONG, "report differs from an earlier solve of the same instance")
            run.tally(label, verdict)
            recs.append({
                "instance": label,
                "work_s": work,
                "nominal_s": nominal,
                "verdict": ": ".join(v for v in verdict if v),
                "iterations": rep.iterations,
                "accepted": verdict[0] == checker.OK,
                "text": text,
            })
        return recs


def prepare_batch(run: Run):
    """A batch's set-up: instances, the lead problem file, a warm-up solve."""
    import esoclcp.solvers as solvers
    from esoclcp.fileio import serialize_problem

    batch = Batch(run.args.workload)
    lead_label, lead = batch.items[0]
    run.out.mkdir(exist_ok=True)
    lead_path = run.out / f"lead-{run.args.workload}.json"
    lead_path.write_text(serialize_problem(lead, comment=lead_label), encoding="utf-8")
    solvers.solve_esoclcp(lead)  # warm-up: lazy imports and first-call costs
    np_kernel()
    return batch, lead_path


def round_orders(seed: int, n: int):
    """The seed's sequence of orders of the declared set, one per round."""
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------- cli-cold


def run_cli_cold(run: Run) -> tuple[dict, dict]:
    from esoclcp.instances import example_problem

    prob = example_problem()
    spawns = []
    t0 = perf_counter()
    while perf_counter() - t0 < run.args.seconds or len(spawns) < MIN_SPAWNS:
        rec = run.cold_spawn("example-paper")
        if rec["code"] != 0:
            verdict = (checker.FAILED, f"exit code {rec['code']}")
        else:
            verdict = checker.check_report(prob.T, prob.r, prob.dims.k, rec["report"], exact_example=True)
        run.tally(f"spawn {len(spawns)}", verdict)
        spawns.append({key: v for key, v in rec.items() if key != "report"})
    run.records.update(spawns=spawns, report=rec["report"])
    run.notes.append(f"{len(spawns)} cold spawns; solve_tail_ms is p{CLI_TAIL_PERCENTILE} of them")

    def figures(cold_key, setup_s):
        cold = [s[cold_key] for s in spawns]
        return {
            "setup_s": setup_s,
            "cold_solve_s": median(cold),
            "instances_per_s": len(cold) / sum(cold),
            "solve_p50_ms": 1e3 * median(cold),
            "solve_tail_ms": 1e3 * percentile(cold, CLI_TAIL_PERCENTILE),
        }

    metrics = figures("cold_nominal_s", run.setup[1])
    metrics["peak_rss_mb"] = max(s["rss_mb"] for s in spawns)
    return metrics, figures("cold_s", run.setup[0])


# ------------------------------------------------------------------ batches


def run_batch(run: Run, state) -> tuple[dict, dict]:
    import resource

    batch, lead_path = state
    recs = []
    rounds = 0
    orders = round_orders(run.args.seed, len(batch.items))
    with SpeedSampler(np_kernel, NP_NOMINAL_S) as sampler:
        t0 = perf_counter()
        while rounds < MIN_ROUNDS or perf_counter() - t0 < run.args.seconds:
            recs.extend(batch.solve_round(run, next(orders), sampler))
            rounds += 1

    # Cold CLI solves of the lead instance; they are checked, not counted.
    label, lead = batch.items[0]
    spawns = [run.cold_spawn(str(lead_path)) for _ in range(LEAD_COLD_SPAWNS)]
    for i, rec in enumerate(spawns):
        verdict = checker.check_report(lead.T, lead.r, lead.dims.k, rec.pop("report"))
        if verdict[0] != checker.OK:
            run.wrong.append(f"cold solve {i} of lead {label}: {verdict}")

    tail = TAIL_INSTANCES * rounds
    run.records.update(
        rounds=rounds,
        solves=[{k: v for k, v in r.items() if k != "text"} for r in recs],
        reports=batch.first_report,
        lead_spawns=spawns,
    )
    run.notes.append(f"{rounds} rounds of {len(batch.items)} solves; solve_tail_ms is the mean of "
                     f"the slowest {tail} of {len(recs)} solves; cold_solve_s is the median of "
                     f"{len(spawns)} cold CLI solves of {label}")

    def figures(time_key, cold_key, setup_s):
        ms = [1e3 * r[time_key] for r in recs]
        return {
            "setup_s": setup_s,
            "cold_solve_s": median([s[cold_key] for s in spawns]),
            "instances_per_s": len(recs) / sum(r[time_key] for r in recs),
            "solve_p50_ms": median(ms),
            "solve_tail_ms": tail_mean(ms, tail),
        }

    metrics = figures("nominal_s", "cold_nominal_s", run.setup[1])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, figures("work_s", "cold_s", run.setup[0])


# ------------------------------------------------------------ traced runs


def run_traced(run: Run, state) -> dict:
    """Per-layer metrics: each round runs untraced, then traced, then compares."""
    from tracer import Tracer

    tracer = Tracer()
    with SpeedSampler(np_kernel, NP_NOMINAL_S) as sampler:
        if state is None:
            rounds = _traced_cli_rounds(run, tracer, sampler)
        else:
            rounds = _traced_batch_rounds(run, tracer, sampler, state[0])
        metrics = _layer_probes(run, sampler)
    if tracer.missing:
        print("missing layers: " + ", ".join(tracer.missing))
        run.wrong.append("missing layers: " + ", ".join(tracer.missing))

    stats = {key: sum(r[key] for r in rounds) / len(rounds) for key in rounds[0]}
    for key, value in stats.items():
        if key.endswith(".calls") and float(value).is_integer():
            stats[key] = int(value)
    for name in tracer.hooks:
        if name != "solvers.solve_esoclcp":
            metrics[f"{name}.calls"] = stats[f"{name}.calls"]
            metrics[f"{name}.self_s"] = stats[f"{name}.self_s"]
    iterations = stats["linalg.lu_factor.calls"]
    metrics["solvers.self_s"] = stats["solvers.solve_esoclcp.self_s"]
    metrics["solvers.iterations"] = iterations
    metrics["solvers.augmented_iterations"] = stats["fbsystem.fb_jacobian.calls"]
    metrics["solvers.reduced_iterations"] = iterations - stats["fbsystem.fb_jacobian.calls"]
    metrics["solvers.useful_iteration_ratio"] = stats["useful_iterations"] / iterations if iterations else 0.0
    metrics["solvers.us_per_iteration"] = 1e6 * stats["untraced_s"] / iterations if iterations else 0.0
    metrics["trace.overhead_s"] = stats["traced_s"] - stats["untraced_s"]
    run.records.update(layers_per_round=stats, missing_layers=tracer.missing)
    run.notes.append(f"{len(rounds)} traced rounds; counts and times are per round")
    return metrics


def _layer_row(tracer, untraced: list, traced: list) -> dict:
    """One round's layer counts and self times, scaled to nominal speed."""
    factor = sum(r["nominal_s"] for r in traced) / sum(r["work_s"] for r in traced)
    row = {}
    for name, stat in tracer.stats.items():
        row[f"{name}.calls"] = stat.calls
        row[f"{name}.self_s"] = stat.self_s * factor
    row["untraced_s"] = sum(r["nominal_s"] for r in untraced)
    row["traced_s"] = sum(r["nominal_s"] for r in traced)
    row["useful_iterations"] = sum(r["iterations"] for r in untraced if r["accepted"])
    return row


def _traced_batch_rounds(run: Run, tracer, sampler, batch: Batch) -> list:
    rounds = []
    orders = round_orders(run.args.seed, len(batch.items))
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < run.args.seconds:
        order = next(orders)
        plain = batch.solve_round(run, order, sampler)
        tracer.reset()
        counts = run.attempted, run.failed
        with tracer.installed():
            traced = batch.solve_round(run, order, sampler)
        run.attempted, run.failed = counts  # each instance counts once per round
        for a, b in zip(plain, traced):
            if a["text"] != b["text"]:
                run.wrong.append(f"{a['instance']}: traced report differs from untraced")
        rounds.append(_layer_row(tracer, plain, traced))
    return rounds


def _quiet_main() -> tuple[int, str]:
    import esoclcp.cli as cli

    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        return cli.main(["solve", "example-paper", "--json"]), sys.stdout.getvalue()
    finally:
        sys.stdout = stdout


def _traced_cli_rounds(run: Run, tracer, sampler) -> list:
    from esoclcp.instances import example_problem

    prob = example_problem()

    def one_main():
        (code, text), work, nominal = sampler.time(_quiet_main)
        return {"text": text, "code": code, "work_s": work, "nominal_s": nominal,
                "iterations": json.loads(text)["iterations"]}

    rounds = []
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < run.args.seconds:
        plain = one_main()
        if plain["code"] != 0:
            verdict = (checker.FAILED, f"exit code {plain['code']}")
        else:
            verdict = checker.check_report(prob.T, prob.r, prob.dims.k, plain["text"], exact_example=True)
        run.tally(f"main {len(rounds)}", verdict)
        plain["accepted"] = verdict[0] == checker.OK
        tracer.reset()
        with tracer.installed():
            traced = one_main()
        if traced["text"] != plain["text"]:
            run.wrong.append("traced report differs from untraced")
        rounds.append(_layer_row(tracer, [plain], [traced]))
    return rounds


def _layer_probes(run: Run, sampler) -> dict:
    """Import, CLI, file I/O and generator timings, measured from outside."""
    from esoclcp.fileio import parse_problem, serialize_problem, serialize_report
    from esoclcp.instances import make_instance
    from esoclcp.solvers import SolverOptions, solve_esoclcp

    out = {}
    probes = [run.cold_spawn("example-paper", importtime=True)["importtime"] for _ in range(3)]
    for key in ("import.esoclcp_ms", "import.numpy_ms", "import.scipy_linalg_ms", "import.scipy_optimize_ms"):
        out[key] = median([p.get(key, 0.0) for p in probes])

    def timed(fn, reps: int) -> float:
        """Median nominal-speed time of one call of fn over reps calls."""
        return median([sampler.time(fn)[2] for _ in range(reps)])

    out["cli.main_ms"] = 1e3 * timed(_quiet_main, 5)
    cases = sorted({case for case, _ in SETS.get(run.args.workload, [("vi", 200)])})
    sweep = [(case, 200 + j) for case in cases for j in range(25)]

    def make_all():
        return [make_instance(case, *dims_of(seed), seed) for case, seed in sweep]

    out["instances.make_instance_ms"] = 1e3 * timed(make_all, 3) / len(sweep)
    probs = [inst.problem for inst in make_all()]
    texts = [serialize_problem(p) for p in probs]
    out["fileio.parse_problem_us"] = 1e6 * timed(lambda: [parse_problem(t) for t in texts], 5) / len(texts)
    opts = SolverOptions()
    reports = [solve_esoclcp(p, opts) for p in probs[:5]]
    out["fileio.serialize_report_us"] = 1e6 * timed(
        lambda: [serialize_report(rep, opts) for rep in reports], 20) / len(reports)
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "iterations")):
        return "count"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_ratio", "ratio"),
                         ("us_per_iteration", "us")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for layer metric {name}")


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "esoclcp" / "__init__.py").is_file():
        print(f"error: no esoclcp sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    with SpeedSampler(py_kernel, PY_NOMINAL_S) as sampler:
        sys.path.insert(0, str(run.src))
        import esoclcp

        if Path(esoclcp.__file__).resolve().parent != (run.src / "esoclcp").resolve():
            print(f"error: esoclcp imported from {esoclcp.__file__}", file=sys.stderr)
            return 2
        state = None if args.workload == "cli-cold" else prepare_batch(run)
        run.setup = sampler.since((0, 0.0), perf_counter() - T_START)
    if state is None:
        # Warm-up child: compiles bytecode, fills the page cache.  The parent
        # only waits for it, so its time is scaled by the child's samples.
        warm = run.cold_spawn("example-paper")
        run.setup = (run.setup[0] + warm["spawn_s"], run.setup[1] + warm["spawn_nominal_s"])

    raw = None
    if args.trace:
        metrics = run_traced(run, state)
        units = {name: layer_unit(name) for name in metrics}
    elif state is None:
        metrics, raw = run_cli_cold(run)
        units = END_TO_END_UNITS
    else:
        metrics, raw = run_batch(run, state)
        units = END_TO_END_UNITS
    result = run.finish(metrics, units, raw)
    for note in run.notes:
        print(note)
    for line in run.wrong[:20]:
        print(f"WRONG: {line}")
    if raw is not None:
        print(json.dumps({"raw_wall_clock": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
