#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
gq library and the `gqbench` binary (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The binary's standard output is passed through, then one line
per metric, then the JSON result as the last line. The binary reports
values by name only: units and the metric lists come from BENCHMARK.json
(`end_to_end` with --trace 0, `per_layer` with --trace 1), and a
per-layer metric a workload does not exercise reads 0. Exits nonzero,
without printing a result, when the sources are missing, the build fails,
the run times out, or the binary reports a metric BENCHMARK.json does not
list (or leaves out an end-to-end one).
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPEC = os.path.join(REPO, "BENCHMARK.json")


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("gq sources (src/) not found next to perfbench/", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=False, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "gqbench", "-j", jobs],
        check=False, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(BUILD_DIR, "gqbench")
    if done.returncode != 0 or not os.path.isfile(binary):
        fail("build failed", 2)
    return binary


def metric_list(argv):
    """The BENCHMARK.json metrics the run must report, in order."""
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    with open(SPEC) as f:
        spec = json.load(f)
    return spec["per_layer" if trace == "1" else "end_to_end"], trace == "1"


def with_units(values, metrics, zero_fill):
    """The binary's {name: value} as {name: {value, unit}} in spec order."""
    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}", 5)
    out = {}
    for m in metrics:
        if m["name"] not in values and not zero_fill:
            fail(f"metric {m['name']} missing from the result", 5)
        out[m["name"]] = {"value": values.get(m["name"], 0.0),
                          "unit": m["unit"]}
    return out


def main():
    binary = build()
    metrics, per_layer = metric_list(sys.argv[1:])
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        proc = subprocess.run([binary, *sys.argv[1:], "--work-dir", WORK_DIR],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (json.JSONDecodeError, IndexError):
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})",
             proc.returncode or 4)
    result["metrics"] = with_units(result["metrics"], metrics, per_layer)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
