#!/usr/bin/env python3
"""Validates the serving-throughput snapshot (BENCH_serve.json).

Two modes:

  check_bench_serve.py --json BENCH_serve.json
      Validate an already-emitted snapshot against the
      "vero.serve_bench.v1" schema (scripts/bench_smoke.sh uses this).

  check_bench_serve.py --emitter PATH/TO/serve_sweep
      Run the bench binary itself (serve_sweep --json) into a temp dir at
      a tiny VERO_SCALE and validate the result. Registered as the
      check_bench_serve ctest.

Checked invariants (see docs/serving.md):
  - schema / workload / forest-grid shape: forests {8, 64} trees x
    C in {1, 3}, cells batch {64, 1024, 8192} x threads {1, 4};
  - every throughput is a positive number;
  - determinism: within one forest, the per-row baseline digest and every
    cell digest are identical — batched, tiled, threaded scoring produced
    byte-identical margins on the measured run;
  - monotone-batch sanity: growing the batch from 64 to >= 1024 at one
    thread never loses more than half the throughput;
  - on full-scale snapshots (scale >= 0.25) only: each 8-tree forest must
    reach >= 5x per-row throughput in some cell with batch >= 1024 (the
    acceptance bar; tiny ctest runs are too noisy to gate on speed).

Exits non-zero with a message on the first violation.
"""

from checklib import bench_main, fail, load_json

SCHEMA = "vero.serve_bench.v1"
WORKLOAD_KEYS = {"rows", "features", "depth", "density", "scale", "cpus"}
FOREST_KEYS = {"trees", "dims", "internal_nodes", "leaves", "per_row",
               "cells"}
CELL_KEYS = {"batch", "threads", "seconds", "rows_per_sec",
             "speedup_vs_per_row", "digest"}
REQUIRED_FORESTS = [(8, 1), (8, 3), (64, 1), (64, 3)]
REQUIRED_CELLS = [(b, t) for b in (64, 1024, 8192) for t in (1, 4)]
FULL_SCALE = 0.25
SPEEDUP_BAR = 5.0


def check_positive_number(value, label):
    if not isinstance(value, (int, float)) or value <= 0:
        fail(f"{label} must be a positive number")


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
    for key in ("rows", "features", "depth", "cpus"):
        if not isinstance(workload[key], int) or workload[key] <= 0:
            fail(f"workload.{key} must be a positive integer")
    if not 0 < workload["density"] <= 1:
        fail("workload.density must be in (0, 1]")
    check_positive_number(workload["scale"], "workload.scale")
    full_scale = workload["scale"] >= FULL_SCALE

    forests = doc.get("forests")
    if not isinstance(forests, list) or not forests:
        fail("forests must be a non-empty list")

    seen_forests = set()
    for i, forest in enumerate(forests):
        if not isinstance(forest, dict):
            fail(f"forests[{i}] is not an object")
        missing = FOREST_KEYS - forest.keys()
        if missing:
            fail(f"forests[{i}] missing keys: {sorted(missing)}")
        for key in ("trees", "dims", "internal_nodes", "leaves"):
            if not isinstance(forest[key], int) or forest[key] <= 0:
                fail(f"forests[{i}].{key} must be a positive integer")
        label = f"forests[{i}] (T={forest['trees']} C={forest['dims']})"
        point = (forest["trees"], forest["dims"])
        if point in seen_forests:
            fail(f"duplicate forest entry {point}")
        seen_forests.add(point)

        per_row = forest["per_row"]
        if not isinstance(per_row, dict):
            fail(f"{label}.per_row is not an object")
        for key in ("seconds", "rows_per_sec"):
            check_positive_number(per_row.get(key), f"{label}.per_row.{key}")
        baseline_digest = per_row.get("digest")
        if not isinstance(baseline_digest, str) or len(baseline_digest) != 16:
            fail(f"{label}.per_row.digest must be a 16-hex-char string")

        cells = forest["cells"]
        if not isinstance(cells, list) or not cells:
            fail(f"{label}.cells must be a non-empty list")
        seen_cells = set()
        by_cell = {}
        for j, cell in enumerate(cells):
            if not isinstance(cell, dict):
                fail(f"{label}.cells[{j}] is not an object")
            missing = CELL_KEYS - cell.keys()
            if missing:
                fail(f"{label}.cells[{j}] missing keys: {sorted(missing)}")
            for key in ("batch", "threads"):
                if not isinstance(cell[key], int) or cell[key] <= 0:
                    fail(f"{label}.cells[{j}].{key} must be a positive "
                         "integer")
            for key in ("seconds", "rows_per_sec", "speedup_vs_per_row"):
                check_positive_number(cell[key], f"{label}.cells[{j}].{key}")
            grid = (cell["batch"], cell["threads"])
            if grid in seen_cells:
                fail(f"{label}: duplicate cell {grid}")
            seen_cells.add(grid)
            by_cell[grid] = cell
            # Thread- and batch-determinism: the measured margins of every
            # cell must be byte-identical to the per-row baseline's.
            if cell["digest"] != baseline_digest:
                fail(f"{label}.cells[{j}] digest {cell['digest']} differs "
                     f"from per-row baseline {baseline_digest}: batched "
                     "scoring is not bit-identical")

        for grid in REQUIRED_CELLS:
            if grid not in seen_cells:
                fail(f"{label}: missing cell (batch, threads) = {grid}")

        # Monotone-batch sanity at one thread: a bigger batch amortizes
        # strictly more, so it must keep at least half the small-batch
        # throughput (0.5 slack absorbs timer noise).
        small = by_cell[(64, 1)]["rows_per_sec"]
        for batch in (1024, 8192):
            big = by_cell[(batch, 1)]["rows_per_sec"]
            if big < 0.5 * small:
                fail(f"{label}: batch={batch} throughput {big:.0f} fell "
                     f"below half of batch=64 ({small:.0f})")

        if full_scale and forest["trees"] == 8:
            best = max(cell["speedup_vs_per_row"]
                       for (batch, _), cell in by_cell.items()
                       if batch >= 1024)
            if best < SPEEDUP_BAR:
                fail(f"{label}: best batch>=1024 speedup {best:.2f}x is "
                     f"below the {SPEEDUP_BAR}x acceptance bar")

    for point in REQUIRED_FORESTS:
        if point not in seen_forests:
            fail(f"missing forest (trees, dims) = {point}")

    mode = "full-scale" if full_scale else "tiny-scale (speed gate skipped)"
    print(f"check_bench_serve: OK ({path}: {len(forests)} forests, "
          f"rows={workload['rows']}, {mode})")


if __name__ == "__main__":
    bench_main(validate, "BENCH_serve.json", ["--json"],
               {"VERO_SCALE": "0.02"})
