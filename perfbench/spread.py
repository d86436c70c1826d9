#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--record LABEL] [workload ...]

Runs each workload (default: every workload in BENCHMARK.json) once per
seed through run.py with --trace 0, then prints for every end-to-end
metric its median, its quartile spread (Q3 - Q1, from
statistics.quantiles(n=4), as a share of the median) and the metric's
bound. A spread above a third of the bound is flagged. Exits nonzero if a
run fails. Raw results go to <build root>/spread.json; --record appends
the medians and spreads to perfbench/trajectory.jsonl under LABEL.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    """(median, quartile spread as a share of the median) of one metric."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def host():
    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{os.cpu_count()} CPUs {platform.machine()}, {mem_gib:.0f} GiB, "
            f"Linux {platform.release()}")


def record(label, raw, spec, first_seed, runs):
    """Append one trajectory point built from spread.py's raw results."""
    point = {"label": label, "host": host(),
             "run_seconds": spec["run_seconds"],
             "seeds": f"{first_seed}-{first_seed + runs - 1}",
             "median": {}, "spread": {}}
    for workload, values in raw.items():
        point["median"][workload] = {}
        point["spread"][workload] = {}
        for name, vals in values.items():
            med, spread = summarize(vals)
            point["median"][workload][name] = med
            point["spread"][workload][name] = round(spread, 4)
    with open(os.path.join(BENCH_DIR, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(point) + "\n")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                sys.exit(1)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload} ({args.runs} seeds from {args.first_seed})")
        for name, vals in values.items():
            med, spread = summarize(vals)
            flag = "  <-- above bound/3" if spread > bounds[name] / 3 else ""
            print(f"  {name:16s} median {med:12.5g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{flag}")
    out = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "spread.json")
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    if args.record:
        record(args.record, raw, spec, args.first_seed, args.runs)


if __name__ == "__main__":
    main()
