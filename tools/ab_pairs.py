"""Paired benchmark runs of two checkouts, alternating which one goes first.

Usage (from anywhere; both directories are source checkouts):

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload vi-batch --seeds 61-70

For every seed, ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, the parent first on even pair
indices and the change first on odd ones, so drift of the host's speed
over the session falls on both sides alike.  The end-to-end metrics, their
direction and their bounds are read from the change's ``BENCHMARK.json``;
``--seconds`` defaults to its ``run_seconds``.

Printed: every pair's values, with each run's ``attempted`` after its
``peak_rss_mb`` (on the batches, the number of solves the run completed,
against which to read a memory change), then per metric the parent's and
the change's median and quartiles, the relative change of the median, the
parent's interquartile range relative to its median, and how many pairs
the change won; then ``failed``/``attempted``, the median ``attempted``
and ``correct`` per side.  ``--out FILE`` also writes every run's result
and each side's median ``attempted`` as JSON.  ``--bench-json FILE`` adds
the workload's summary to FILE (a ``BENCH_*.json``; created when absent,
other workloads' entries kept): per metric both sides' medians and
quartiles, the seeds, ``failed``/``attempted`` and the median
``attempted`` per side, the ``src/``
line count of each checkout (``src_lines``), the line count of the
``esoclcp`` modules a fresh ``import esoclcp.cli`` loads from it
(``cold_path_lines``, also printed before the runs) and the machine's facts,
so running it once per workload with the same FILE collects every workload
of one comparison.

Every child runs with ``PYTHONDONTWRITEBYTECODE=1``, so no run leaves a
bytecode cache behind, and a checkout that already has
``src/esoclcp/__pycache__`` is refused: cold runs would read that cache
instead of compiling the source.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'61-70' or '61,63,65' -> list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


# The environment of every child: the caller's, without bytecode writing.
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=CHILD_ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def src_lines(checkout: Path) -> int:
    """Lines of Python under the checkout's src/."""
    return sum(len(path.read_bytes().splitlines()) for path in (checkout / "src").rglob("*.py"))


# Run in a fresh interpreter with the checkout's src/ as argv[1]: prints the
# files of the esoclcp modules that importing the CLI loads.
COLD_PATH_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import esoclcp.cli
for name, module in sys.modules.items():
    if name.split(".")[0] == "esoclcp":
        print(module.__file__)
"""


def cold_path_lines(checkout: Path) -> int:
    """Lines of the esoclcp modules a fresh `import esoclcp.cli` loads."""
    src = (checkout / "src").resolve()
    proc = subprocess.run([sys.executable, "-c", COLD_PATH_PROBE, str(src)],
                          env=CHILD_ENV, capture_output=True, text=True, check=True)
    files = [Path(line) for line in proc.stdout.splitlines()]
    stray = [str(path) for path in files if src not in path.resolve().parents]
    if stray:
        raise SystemExit(f"{checkout}: esoclcp loaded from outside its src/: {stray}")
    return sum(len(path.read_bytes().splitlines()) for path in files)


def machine_facts() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text(encoding="utf-8").splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def write_bench_json(path: Path, lines: dict[str, dict], workload: str, entry: dict) -> None:
    """Add one workload's entry to the BENCH file at path.

    lines maps "src_lines" and "cold_path_lines" to their count per side.
    """
    record = {**lines, "machine": machine_facts(), "workloads": {}}
    if path.exists():
        record = json.loads(path.read_text(encoding="utf-8"))
        for key, counts in lines.items():
            if record.get(key) != counts:
                raise SystemExit(f"{path} compares trees with {key} {record.get(key)}, "
                                 f"these have {counts}")
    record["workloads"][workload] = entry
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="'A-B' or 'A,B,C'")
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    parser.add_argument("--bench-json", type=Path, help="add this workload's summary to this file")
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    caches = [checkout / "src" / "esoclcp" / "__pycache__" for checkout in sides.values()]
    cached = [str(cache) for cache in caches if cache.exists()]
    if cached:
        raise SystemExit(f"bytecode cache present, remove it first: {cached}")
    lines = {"src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
             "cold_path_lines": {side: cold_path_lines(checkout) for side, checkout in sides.items()}}
    for side in sides:
        print(f"{side}: src/ {lines['src_lines'][side]} lines, "
              f"cold path {lines['cold_path_lines'][side]} lines", flush=True)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds))
        row = "  ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f"->{runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
            + (f" (attempted {runs['parent'][-1]['attempted']}->{runs['change'][-1]['attempted']})"
               if m["name"] == "peak_rss_mb" else "")
            for m in metrics
        )
        print(f"pair {index + 1} seed {seed} ({order[0]} first): {row}", flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{seconds:g} s runs; median [q1, q3]")
    summary = {}
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        (p1, p2, p3), (c1, c2, c3) = quartiles(values["parent"]), quartiles(values["change"])
        won = wins(values["parent"], values["change"], m["better"])
        print(f"  {name:16s} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  change {c2 / p2 - 1.0:+.1%} (parent IQR {(p3 - p1) / p2:.1%}, bound {m['bound']:.0%},"
              f" {m['better']} is better)  change won {won}/{len(args.seeds)}")
        summary[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"median": p2, "q1": p1, "q3": p3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "relative_change": c2 / p2 - 1.0, "change_won": won,
        }
    outcomes = {}
    for side in sides:
        failed = [r["failed"] for r in runs[side]]
        attempted = [r["attempted"] for r in runs[side]]
        correct = sum(r["correct"] for r in runs[side])
        print(f"  {side}: failed/attempted {sum(failed)}/{sum(attempted)} "
              f"(per run {min(failed)}-{max(failed)} of {min(attempted)}-{max(attempted)}, "
              f"median attempted {statistics.median(attempted):g}), correct {correct}/{len(runs[side])}")
        outcomes[side] = {"failed": sum(failed), "attempted": sum(attempted),
                          "median_attempted": statistics.median(attempted),
                          "correct_runs": correct, "runs": len(runs[side])}
    if args.out is not None:
        record = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                  "median_attempted": {side: outcomes[side]["median_attempted"] for side in sides},
                  "runs": runs}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.bench_json is not None:
        entry = {"seeds": args.seeds, "seconds": seconds, "pairs": len(args.seeds),
                 "metrics": summary, "outcomes": outcomes}
        write_bench_json(args.bench_json, lines, args.workload, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
