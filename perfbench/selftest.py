#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py MAIN_EXE BENCHMARK_JSON
    dune build @perfbench/selftest        # the same, through dune

For each workload in BENCHMARK.json it runs the benchmark at the default
seed with --trace 0 and --trace 1, and at the held-out seed with
--trace 0, and asserts that
  - every check passed (correct, no failed request, exit code 0);
  - the result line names exactly the end-to-end (--trace 0) or
    per-layer (--trace 1) metrics, each with its unit and a finite value,
    and every end-to-end value is non-zero;
  - every metric is also printed by name, with its unit, above it;
  - both runs at the default seed print the same outcome digest, so the
    outcome repeats exactly across processes.
"""

import json
import math
import os
import re
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def run(exe, workload, seed, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} seed {seed} trace {trace}"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {where}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    return where, lines, json.loads(lines[-1])


def check(where, lines, result, expected, nonzero):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    body = "\n".join(lines[:-1])
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')}, expected {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v}")
        elif nonzero and v == 0:
            errors.append(f"{name}: zero")
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$",
                         body, re.M):
            errors.append(f"{name} not printed with its unit")
    for e in errors:
        print(f"FAIL {where}: {e}")
    return not errors


def digest(lines):
    for line in lines:
        m = re.search(r"outcome digest ([0-9a-f]{32})", line)
        if m:
            return m.group(1)
    return None


def main():
    exe, bench_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        digests = []
        for seed, trace in [(DEFAULT_SEED, 0), (DEFAULT_SEED, 1),
                            (HELD_OUT_SEED, 0)]:
            where, lines, result = run(exe, name, seed, trace)
            ok &= check(where, lines, result, layers if trace else e2e,
                        nonzero=not trace)
            if seed == DEFAULT_SEED:
                digests.append(digest(lines))
            print(f"ok   {where}")
        if None in digests or len(set(digests)) != 1:
            print(f"FAIL {name}: outcome digests {digests} do not repeat")
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
