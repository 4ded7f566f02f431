#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...]

Runs the benchmark --runs times per workload, each with another seed, and
prints for every end-to-end metric its median and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the bound BENCHMARK.json sets. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for wl in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                bench["command"] + ["--workload", wl, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{wl} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bounds[name])
            print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}{flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
