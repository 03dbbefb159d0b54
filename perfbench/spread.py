"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 10 [--workloads pivot-hub ...] [--out FILE]

Runs ``run.py`` once per seed 1..N and workload (seeds in the outer loop, so a
drift in host speed touches every workload alike) with the run length
from ``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (q3 - q1) / median next to the metric's bound, and the same for the
unscaled medians each run prints.  ``--out`` writes the summary, the
machine and every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
UNSCALED = "# unscaled medians: "


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    runs = []
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            unscaled = {}
            for line in lines:
                if line.startswith(UNSCALED):
                    for item in line[len(UNSCALED):].split():
                        name, value = item.split("=")
                        unscaled[name] = float(value)
            runs.append({"workload": workload, "seed": seed, "unscaled": unscaled,
                         **result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: FAILED CHECKS", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            for name, value in unscaled.items():
                values[workload].setdefault(f"unscaled.{name}", []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, series in metrics.items():
            stats = summarize(series)
            summary[workload][name] = stats
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       f" bound={bound} {'ok' if stats['spread'] < bound / 3 else 'WIDE'}")
            print(f"{workload:13s} {name:20s} median={stats['median']:.4g}"
                  f" q1={stats['q1']:.4g} q3={stats['q3']:.4g}"
                  f" spread={stats['spread']:.3f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": run.machine(), "run_seconds": SPEC["run_seconds"],
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
