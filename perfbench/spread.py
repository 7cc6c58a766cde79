#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per metric,
the median and the distance between the first and third quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds S] [WORKLOAD ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: checks failed:\n{out.stdout}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            result = run(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}:")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- at least a third of the bound"
            print(f"  {name:34s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
