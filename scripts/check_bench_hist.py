#!/usr/bin/env python3
"""Validates the histogram-kernel perf snapshot (BENCH_histogram.json).

Two modes:

  check_bench_hist.py --json BENCH_histogram.json
      Validate an already-emitted snapshot against the
      "vero.hist_bench.v1" schema (scripts/bench_smoke.sh uses this).

  check_bench_hist.py --emitter PATH/TO/micro_kernels
      Run the bench binary itself (micro_kernels --hist-json) into a temp
      dir at a tiny VERO_SCALE and validate the result. Registered as the
      check_bench_hist ctest.

The snapshot schema is documented in docs/performance.md. Exits non-zero
with a message on the first violation.
"""

from checklib import bench_main, fail, load_json

SCHEMA = "vero.hist_bench.v1"
WORKLOAD_KEYS = {
    "instances", "features", "bins", "density", "entries", "layer_nodes",
    "cpus",
}
KERNEL_KEYS = {
    "name", "dims", "threads", "seconds", "rows_per_sec", "entries_per_sec",
    "bytes_per_sec", "speedup_vs_scalar",
}
# Every snapshot must contain these (name, dims, threads) grid points.
REQUIRED_GRID = [
    ("scalar_row_add", 1, 1),
    ("scalar_row_add", 3, 1),
    ("builder_row_layer", 1, 1),
    ("builder_row_layer", 1, 4),
    ("builder_row_layer", 3, 1),
    ("builder_row_layer", 3, 4),
    ("scalar_column_binary_search", 1, 1),
    ("builder_column_sweep", 1, 1),
    ("builder_column_sweep", 1, 4),
]


def validate(path):
    doc = load_json(path)

    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")

    workload = doc.get("workload")
    if not isinstance(workload, dict):
        fail("missing workload object")
    missing = WORKLOAD_KEYS - workload.keys()
    if missing:
        fail(f"workload missing keys: {sorted(missing)}")
    for key in ("instances", "features", "bins", "entries", "layer_nodes",
                "cpus"):
        if not isinstance(workload[key], int) or workload[key] <= 0:
            fail(f"workload.{key} must be a positive integer")
    if not 0 < workload["density"] <= 1:
        fail("workload.density must be in (0, 1]")

    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        fail("kernels must be a non-empty list")
    seen = set()
    for i, k in enumerate(kernels):
        if not isinstance(k, dict):
            fail(f"kernels[{i}] is not an object")
        missing = KERNEL_KEYS - k.keys()
        if missing:
            fail(f"kernels[{i}] missing keys: {sorted(missing)}")
        if not isinstance(k["name"], str) or not k["name"]:
            fail(f"kernels[{i}].name must be a non-empty string")
        for key in ("dims", "threads"):
            if not isinstance(k[key], int) or k[key] <= 0:
                fail(f"kernels[{i}].{key} must be a positive integer")
        for key in ("seconds", "rows_per_sec", "entries_per_sec",
                    "bytes_per_sec", "speedup_vs_scalar"):
            if not isinstance(k[key], (int, float)) or k[key] <= 0:
                fail(f"kernels[{i}].{key} must be a positive number")
        point = (k["name"], k["dims"], k["threads"])
        if point in seen:
            fail(f"duplicate kernel entry {point}")
        seen.add(point)
        if k["name"].startswith("scalar_") and k["speedup_vs_scalar"] != 1.0:
            fail(f"kernels[{i}]: scalar baseline speedup must be 1.0")

    for point in REQUIRED_GRID:
        if point not in seen:
            fail(f"missing grid point (name, dims, threads) = {point}")

    print(f"check_bench_hist: OK ({path}: {len(kernels)} kernels, "
          f"N={workload['instances']}, cpus={workload['cpus']})")


if __name__ == "__main__":
    bench_main(validate, "BENCH_histogram.json", ["--hist-json"],
               {"VERO_SCALE": "0.02"})
