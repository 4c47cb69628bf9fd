#!/usr/bin/env python3
"""Validates the compressed-communication sweep (bench/comm_sweep --json).

Two modes:

  check_bench_comm.py --json BENCH_comm.json
      Validate an already-emitted "vero.comm_bench.v1" file produced by
      comm_sweep (scripts/bench_smoke.sh uses this).

  check_bench_comm.py --emitter PATH/TO/comm_sweep
      Run the bench binary itself into a temp dir at a tiny VERO_SCALE and
      validate the result. Registered as the check_bench_comm ctest.

Beyond schema shape, this checks the CollectiveCompression contract:

  * the full density x quadrant x mode grid is present exactly once;
  * compression=off records no codec accounting at all (delegation means
    off == seed behavior, byte for byte);
  * every codec run prices fewer bytes on the wire than it moved raw, and
    the block-shape counters match the mode (lossless modes never emit
    quantized blocks; quantized never emits lossless sparse blocks);
  * at <= 10% density the lossless sparse modes cut the histogram wire
    volume by at least 2x (the headline goodput-vs-density claim), and
    total train traffic beats the uncompressed run;
  * delta index packing never loses to absolute indices, and quantization
    beats both lossless modes at full density;
  * lossless cells train the exact model compression=off trains (equal
    model digests), so the byte savings are free;
  * at 100% density no mode regresses goodput (useful bytes per modeled
    network second) by more than 5% against off — the dense-raw fallback
    keeps the frame overhead marginal.

Exits non-zero with a message on the first violation.
"""

from checklib import bench_main, fail, load_json

SCHEMA = "vero.comm_bench.v1"
MODES = ("off", "sparse", "sparse_delta", "quantized")
QUADRANTS = ("qd1", "qd2")
LOSSLESS = ("sparse", "sparse_delta")
RUN_KEYS = ("label", "quadrant", "mode", "density", "workers",
            "train_seconds", "comm_seconds", "bytes_on_wire",
            "hist_raw_bytes", "hist_wire_bytes", "blocks_dense",
            "blocks_sparse", "blocks_quantized", "model_digest", "goodput")


def validate(path):
    doc = load_json(path)

    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs must be a non-empty list")

    cells = {}
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(f"runs[{i}] is not an object")
        for key in RUN_KEYS:
            if key not in run:
                fail(f"runs[{i}] missing key {key!r}")
        label = run["label"]
        if run["train_seconds"] <= 0 or run["comm_seconds"] <= 0:
            fail(f"{label}: train/comm seconds must be positive")
        if run["goodput"] <= 0:
            fail(f"{label}: goodput must be positive")
        if run["quadrant"] not in QUADRANTS:
            fail(f"{label}: unknown quadrant {run['quadrant']!r}")
        if run["mode"] not in MODES:
            fail(f"{label}: unknown mode {run['mode']!r}")
        cell = cells.setdefault((run["quadrant"], run["density"]), {})
        if run["mode"] in cell:
            fail(f"duplicate run for {label!r}")
        cell[run["mode"]] = run

    densities = sorted({density for (_, density) in cells})
    if len(densities) < 2:
        fail(f"need at least two densities, got {densities}")
    if min(densities) > 0.1:
        fail(f"need a cell at <= 10% density, got {densities}")
    if max(densities) < 1.0:
        fail(f"need a cell at 100% density, got {densities}")
    for quadrant in QUADRANTS:
        for density in densities:
            cell = cells.get((quadrant, density))
            if cell is None:
                fail(f"missing cell {quadrant} @ density {density}")
            missing = set(MODES) - cell.keys()
            if missing:
                fail(f"cell {quadrant}@{density} missing modes: "
                     f"{sorted(missing)}")

    for (quadrant, density), cell in sorted(cells.items()):
        off = cell["off"]
        name = f"{quadrant}@{density}"

        # Delegation: compression=off must be indistinguishable from the
        # seed -- no codec accounting anywhere.
        for key in ("hist_raw_bytes", "hist_wire_bytes", "blocks_dense",
                    "blocks_sparse", "blocks_quantized"):
            if off[key] != 0:
                fail(f"{name}: off run has nonzero {key}")

        for mode in MODES[1:]:
            run = cell[mode]
            if run["hist_raw_bytes"] == 0 or run["hist_wire_bytes"] == 0:
                fail(f"{name}/{mode}: codec run recorded no histogram "
                     "traffic")
            if run["hist_wire_bytes"] >= run["hist_raw_bytes"]:
                fail(f"{name}/{mode}: wire bytes "
                     f"{run['hist_wire_bytes']} not below raw "
                     f"{run['hist_raw_bytes']}")
            blocks = (run["blocks_dense"] + run["blocks_sparse"]
                      + run["blocks_quantized"])
            if blocks == 0:
                fail(f"{name}/{mode}: no codec blocks counted")
            if mode in LOSSLESS and run["blocks_quantized"] != 0:
                fail(f"{name}/{mode}: lossless run emitted quantized "
                     "blocks")
            if mode == "quantized" and run["blocks_sparse"] != 0:
                fail(f"{name}/quantized: emitted lossless sparse blocks")

        # Lossless modes reconstruct bit-exact payloads, so the trained
        # model must be the one compression=off trains.
        for mode in LOSSLESS:
            if cell[mode]["model_digest"] != off["model_digest"]:
                fail(f"{name}/{mode}: model digest "
                     f"{cell[mode]['model_digest']} != off digest "
                     f"{off['model_digest']}")

        # Delta index packing never loses to absolute indices.
        if cell["sparse_delta"]["hist_wire_bytes"] > \
                cell["sparse"]["hist_wire_bytes"]:
            fail(f"{name}: sparse_delta wire "
                 f"{cell['sparse_delta']['hist_wire_bytes']} exceeds "
                 f"sparse wire {cell['sparse']['hist_wire_bytes']}")

        if density <= 0.1:
            # The headline claim: >= 2x fewer histogram bytes on the wire
            # at sparse workloads, visible in total train traffic too.
            for mode in LOSSLESS:
                run = cell[mode]
                if run["hist_wire_bytes"] * 2 > run["hist_raw_bytes"]:
                    fail(f"{name}/{mode}: only "
                         f"{run['hist_raw_bytes'] / run['hist_wire_bytes']:.2f}x "
                         "wire reduction, want >= 2x at <= 10% density")
                if run["bytes_on_wire"] >= off["bytes_on_wire"]:
                    fail(f"{name}/{mode}: total traffic "
                         f"{run['bytes_on_wire']} not below off "
                         f"{off['bytes_on_wire']}")

        if density == 1.0:
            # Dense fallback: goodput regression vs off stays within 5%.
            for mode in MODES[1:]:
                if cell[mode]["goodput"] < 0.95 * off["goodput"]:
                    fail(f"{name}/{mode}: goodput "
                         f"{cell[mode]['goodput']:.3g} regresses more "
                         f"than 5% vs off {off['goodput']:.3g}")
            # Lossy quantization out-compresses both lossless modes once
            # the bins fill up.
            for mode in LOSSLESS:
                if cell["quantized"]["hist_wire_bytes"] >= \
                        cell[mode]["hist_wire_bytes"]:
                    fail(f"{name}: quantized wire "
                         f"{cell['quantized']['hist_wire_bytes']} not "
                         f"below {mode} wire "
                         f"{cell[mode]['hist_wire_bytes']}")

    print(f"check_bench_comm: OK ({path}: {len(runs)} runs, "
          f"{len(cells)} cells, densities {densities})")


if __name__ == "__main__":
    bench_main(validate, "BENCH_comm.json", ["--json"],
               {"VERO_SCALE": "0.05"})
