#!/usr/bin/env python3
"""Tiny-scale self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root. Runs every workload of BENCHMARK.json once
with --trace 0 and once with --trace 1 at 5% of the benchmark's row counts,
and checks:
  - the output schema (run.py already refuses a result whose metric names
    or units differ from BENCHMARK.json) and that every value is finite;
  - the correctness oracle: every run is correct with no failed operation,
    and a run told to perturb its expected outputs reports failures;
  - that every end-to-end metric is nonzero (bounds are relative to it);
  - that README.md documents every workload and per-layer metric;
  - that a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark exit nonzero without printing a result.
Takes about a minute after the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "2", "--seconds", "1", "--scale", "0.05"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    problems = []

    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} --trace {trace}"
            proc = run(["--workload", w["name"], "--trace", str(trace)] + TINY)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                + proc.stderr.strip()[-500:])
                continue
            env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
            for key in ("nproc", "build_type", "vero_disable_obs"):
                if key not in env:
                    problems.append(f"{label}: env line lacks {key}")
            result = result_of(proc)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: oracle reported {result['failed']} "
                                f"failures of {result['attempted']}")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} is not finite")
                elif trace == 0 and m["value"] == 0:
                    problems.append(f"{label}: {name} is 0")
            print(f"ok  {label}: {result['attempted']} operations checked")

    first = spec["workloads"][0]["name"]
    proc = run(["--workload", first, "--trace", "0", "--perturb-oracle"]
               + TINY)
    if proc.returncode != 0:
        problems.append("perturbed run did not finish")
    else:
        result = result_of(proc)
        if result["correct"] or result["failed"] == 0:
            problems.append("perturbed oracle went unnoticed")
        else:
            print(f"ok  perturbed oracle: {result['failed']} failures caught")

    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["per_layer"] + spec["end_to_end"]]
    for name in names:
        if f"`{name}`" not in readme:
            problems.append(f"README.md does not document `{name}`")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(os.path.abspath(build_root), "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", first, "--trace", "0"] + TINY, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without src/ still printed a result")
    else:
        print("ok  checkout without src/ exits", proc.returncode)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
