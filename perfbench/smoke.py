#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seed 7] [--seconds 2]

Runs every workload in BENCHMARK.json briefly through run.py, once
untraced and once traced, and checks that each run exits 0 with a
correct result that carries every end-to-end (untraced) or per-layer
(traced) metric named in BENCHMARK.json with its unit, and that both runs
of one seed report the same deterministic work counts ("round work:"
line). Exits nonzero on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    work = [line for line in lines if line.startswith("round work:")]
    return json.loads(lines[-1]), work[:1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    spec = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    for workload in (w["name"] for w in spec["workloads"]):
        works = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, work = run(workload, args.seed, args.seconds, trace)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: incorrect result")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    sys.exit(f"FAIL {workload} trace={trace}: metric "
                             f"{metric['name']} missing or wrong unit")
            if len(result["metrics"]) != len(spec[key]):
                sys.exit(f"FAIL {workload} trace={trace}: unexpected metrics")
            works.append(work)
        if works[0] != works[1]:
            sys.exit(f"FAIL {workload}: work counts differ across runs of "
                     f"seed {args.seed}: {works}")
        print(f"ok {workload}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics; {works[0]}")


if __name__ == "__main__":
    main()
