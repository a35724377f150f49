#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmarks/e2e/steadiness.py [--runs 10] [--first-seed 100] [--workload NAME]

Runs the command of ``BENCHMARK.json`` once per seed and workload with
``--trace 0`` and prints, per (workload, metric), the median of the runs and
the distance between their first and third quartile as a share of that
median, next to the metric's bound.  The result is also written to
``out/steadiness-<first seed>.json`` in the shape ``run.py compare`` reads,
so two sets can be compared with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    workloads = {}
    worst = 0.0
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in seeds:
            started = time.perf_counter()
            done = subprocess.run(
                [*manifest["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not line["correct"] or line["failed"]:
                print(f"{name} seed {seed}: exit {done.returncode}, {line['failed']} failed")
                return 1
            for metric in bounds:
                values[metric].append(line["metrics"][metric]["value"])
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        workloads[name] = {"end_to_end": {}}
        for metric, runs in values.items():
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median
            if metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
            workloads[name]["end_to_end"][metric] = {
                "value": median, "q1": q1, "q3": q3, "n": len(runs),
            }
            print(f"{name:22s} {metric:18s} median {median:11.4f}  spread {spread:6.1%}"
                  f"  bound {bounds[metric]:4.0%}  {'ok' if spread <= bounds[metric] / 3 else 'WIDE'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.first_seed}.json").write_text(
        json.dumps({"seeds": list(seeds), "workloads": workloads}, indent=1)
    )
    print(f"widest spread is {worst:.0%} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
