#!/usr/bin/env python3
"""Repository benchmark: builds vero_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the vero_perfbench program (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild only what
changed. Each workload runs in its own process, so peak RSS is its own.

The last line of stdout is the result object {correct, attempted, failed,
metrics}. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list; this script refuses to
print a result whose metric names or units differ from that list. A
--trace 1 run also writes the benchmark's spans as Chrome trace JSON to
<build dir>/traces/<workload>-seed<n>.trace.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds vero_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", build_dir, "--target", "vero_perfbench",
            "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "vero_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def validate(result, expected):
    """Returns a reason the result is malformed, or None."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys differ from " + str(sorted(RESULT_KEYS))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metric set differs: missing {missing}, unexpected {extra}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check only: shrink every row count / break the oracle on purpose.
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--perturb-oracle", action="store_true")
    args = parser.parse_args()

    binary = build()
    expected = expected_metrics(args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
    if args.perturb_oracle:
        command.append("--perturb-oracle")
    if args.trace:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"vero_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line on stdout")
    reason = validate(result, expected)
    if reason is not None:
        fail(reason)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
