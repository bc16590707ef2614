"""Run-to-run spread of the benchmark, reference-scaled against raw.

Usage (from the root of a source checkout):

    python3 perfbench/noise.py --workloads vi-batch cli-cold [--first-seed 11]

Runs ``perfbench/run.py`` once per seed (first-seed .. first-seed + 9, one
run at a time, ``run_seconds`` from ``BENCHMARK.json``) for each workload,
and prints, per metric, the median and the quartile spread (Q3 - Q1) /
median of the reference-scaled values and of the raw wall-clock values,
plus the failed share of every run.  Each workload's runs are also written
to ``perfbench/out/noise-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(lines[-2])["raw_wall_clock"]
    return {"seed": seed, "result": result, "raw": raw}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in range(args.first_seed, args.first_seed + RUNS)]
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"noise-{workload}.json").write_text(json.dumps(runs, indent=1) + "\n")
        print(f"## {workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}")
        print(f"{'metric':16} {'median':>12} {'spread':>8} {'raw median':>12} {'raw spread':>10}")
        for name in runs[0]["result"]["metrics"]:
            med, spr = spread([r["result"]["metrics"][name]["value"] for r in runs])
            line = f"{name:16} {med:12.5g} {spr:8.3f}"
            if name in runs[0]["raw"]:
                rmed, rspr = spread([r["raw"][name] for r in runs])
                line += f" {rmed:12.5g} {rspr:10.3f}"
            print(line)
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        correct = all(r["result"]["correct"] for r in runs)
        print(f"failed/attempted per run: {sorted(shares)}; all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
