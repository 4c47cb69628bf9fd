#!/usr/bin/env python3
"""Validates the observability layer's JSON artifacts.

Two modes:

  check_trace.py TRACE.json [REPORT.json]
      Validate an already-emitted Chrome trace (and optionally a
      "vero.run_report.v1" run report) against the documented schemas.

  check_trace.py --emitter PATH/TO/obs_test
      Drive the obs_test gtest binary twice (--gtest_filter=ObsEmit* with
      VERO_OBS_EMIT_DIR pointing at fresh temp dirs), validate both emitted
      trace/report pairs, and require the deterministic projection of the
      two traces to be identical — the executable end-to-end form of the
      "schema stable across seeded runs" guarantee. Registered as the
      check_trace ctest.

Schemas are documented in docs/observability.md. Exits non-zero with a
message on the first violation.
"""

import argparse
import os

from checklib import load_json, require, run_gtest_emitter

PHASE_NAMES = {
    "gradient", "hist-build", "find-split", "node-split", "margin-update",
    "grow-tree", "checkpoint", "checkpoint-snapshot", "recovery", "rejoin",
    "resize", "reshard",
    "sketch-build", "transform-encode", "transform-decode", "label-broadcast",
}
COLLECTIVE_NAMES = {
    "AllReduceSum", "AllGather", "Broadcast", "Gather", "AllToAll", "Barrier",
}
CATEGORIES = {"phase", "collective", "driver"}

REPORT_SCHEMA = "vero.run_report.v1"
BENCH_SCHEMA = "vero.bench_report.v1"


def check_trace(path):
    """Validates one Chrome trace file; returns its deterministic projection."""
    doc = load_json(path)
    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require("traceEvents" in doc, f"{path}: missing traceEvents")
    events = doc["traceEvents"]
    require(isinstance(events, list), f"{path}: traceEvents must be an array")
    require(len(events) > 0, f"{path}: empty trace")

    projection = []
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        require(isinstance(ev, dict), f"{where}: must be an object")
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            require(key in ev, f"{where}: missing {key}")
        require(ev["ph"] == "X", f"{where}: ph must be 'X' (complete event)")
        require(ev["cat"] in CATEGORIES,
                f"{where}: unknown category {ev['cat']!r}")
        if ev["cat"] == "collective":
            require(ev["name"] in COLLECTIVE_NAMES,
                    f"{where}: unknown collective {ev['name']!r}")
        else:
            require(ev["name"] in PHASE_NAMES,
                    f"{where}: unknown phase {ev['name']!r}")
        require(ev["ts"] >= 0 and ev["dur"] >= 0,
                f"{where}: negative wall stamps")

        args = ev["args"]
        require(isinstance(args, dict), f"{where}: args must be an object")
        for key in ("rank", "tree", "layer", "sim_begin", "sim_end",
                    "cpu_seconds", "bytes", "op_id", "incarnation"):
            require(key in args, f"{where}: args missing {key}")
        require(args["rank"] >= -1, f"{where}: bad rank")
        require(args["tree"] >= -1, f"{where}: bad tree")
        require(args["layer"] >= -1, f"{where}: bad layer")
        require(args["bytes"] >= 0, f"{where}: negative bytes")
        require(args["cpu_seconds"] >= 0, f"{where}: negative cpu_seconds")
        require(args["incarnation"] >= 0, f"{where}: negative incarnation")
        # Collective spans carry the per-rank op sequence number (the
        # cross-rank DAG join key); every other span uses the -1 sentinel.
        if ev["cat"] == "collective":
            require(args["op_id"] >= 0, f"{where}: collective without op_id")
        else:
            require(args["op_id"] == -1,
                    f"{where}: non-collective with op_id {args['op_id']}")
        # Sim stamps are either both the -1 sentinel or a sane interval.
        if args["sim_begin"] >= 0 or args["sim_end"] >= 0:
            require(args["sim_end"] >= args["sim_begin"] >= 0,
                    f"{where}: sim interval out of order")
        projection.append((ev["name"], ev["cat"], args["rank"], args["tree"],
                           args["layer"], args["sim_begin"], args["sim_end"],
                           args["bytes"], args["op_id"], args["incarnation"]))
    return projection


def check_run_report(doc, where):
    require(isinstance(doc, dict), f"{where}: report must be an object")
    require(doc.get("schema") == REPORT_SCHEMA,
            f"{where}: schema must be {REPORT_SCHEMA!r}, "
            f"got {doc.get('schema')!r}")
    scalar_fields = {
        "label": str, "quadrant": str, "workers": int, "trees": int,
        "model_digest": int,
        "train_seconds": (int, float), "comp_seconds": (int, float),
        "comm_seconds": (int, float), "setup_seconds": (int, float),
        "train_bytes_sent": int, "peak_histogram_bytes": int,
        "data_bytes": int, "wasted_bytes": int,
        "wasted_seconds": (int, float), "trace_path": str,
    }
    for name, types in scalar_fields.items():
        require(name in doc, f"{where}: missing {name}")
        require(isinstance(doc[name], types),
                f"{where}: {name} has wrong type")

    phases = doc.get("phases")
    require(isinstance(phases, dict), f"{where}: missing phases object")
    for name in ("gradient", "hist", "find_split", "node_split", "other",
                 "comm"):
        require(isinstance(phases.get(name), (int, float)),
                f"{where}: phases.{name} missing or non-numeric")
    phase_sum = sum(phases[k] for k in
                    ("gradient", "hist", "find_split", "node_split", "other"))
    require(abs(phase_sum - doc["comp_seconds"]) <=
            1e-6 * (1.0 + abs(doc["comp_seconds"])),
            f"{where}: phase totals {phase_sum} != comp_seconds "
            f"{doc['comp_seconds']}")

    recovery = doc.get("recovery")
    require(isinstance(recovery, dict), f"{where}: missing recovery object")
    for name in ("failures_observed", "recovery_attempts", "trees_recovered",
                 "trees_retrained", "final_world_size", "rejoined_workers",
                 "rendezvous_failures", "recovery_seconds", "recovery_bytes"):
        require(name in recovery, f"{where}: recovery missing {name}")

    metrics = doc.get("metrics")
    require(isinstance(metrics, dict),
            f"{where}: metrics must be an object keyed by metric name")
    for name, entry in metrics.items():
        ew = f"{where}: metrics[{name!r}]"
        require(isinstance(entry, dict), f"{ew}: must be an object")
        kind = entry.get("kind")
        require(kind in ("counter", "gauge", "histogram"),
                f"{ew}: unknown kind {kind!r}")
        if kind == "counter":
            require(isinstance(entry.get("value"), int), f"{ew}: bad value")
        elif kind == "gauge":
            require(isinstance(entry.get("value"), (int, float)),
                    f"{ew}: bad value")
        else:
            for field in ("count", "sum", "min", "max", "p50", "p99"):
                require(isinstance(entry.get(field), (int, float)),
                        f"{ew}: histogram missing {field}")
            if entry["count"] > 0:
                require(entry["min"] <= entry["p50"] <= entry["p99"]
                        <= entry["max"],
                        f"{ew}: histogram quantiles out of order")
    # json.load preserves emission order; the schema promises sorted names.
    require(list(metrics.keys()) == sorted(metrics.keys()),
            f"{where}: metrics not sorted by name")


def check_report_file(path):
    doc = load_json(path)
    if isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA:
        runs = doc.get("runs")
        require(isinstance(runs, list), f"{path}: runs must be an array")
        for i, run in enumerate(runs):
            check_run_report(run, f"{path}: runs[{i}]")
        return len(runs)
    check_run_report(doc, path)
    return 1


def run_emitter(binary):
    """Runs the ObsEmit* tests into a fresh dir; returns (trace, report)."""
    out_dir = run_gtest_emitter(binary, "ObsEmit*", "VERO_OBS_EMIT_DIR")
    trace = os.path.join(out_dir, "trace.json")
    report = os.path.join(out_dir, "report.json")
    require(os.path.exists(trace), f"emitter produced no {trace}")
    require(os.path.exists(report), f"emitter produced no {report}")
    return trace, report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="TRACE.json [REPORT.json] to validate")
    parser.add_argument("--emitter", metavar="OBS_TEST",
                        help="obs_test binary to drive end-to-end")
    args = parser.parse_args()

    if args.emitter:
        trace_a, report_a = run_emitter(args.emitter)
        proj_a = check_trace(trace_a)
        check_report_file(report_a)
        trace_b, report_b = run_emitter(args.emitter)
        proj_b = check_trace(trace_b)
        check_report_file(report_b)
        require(proj_a == proj_b,
                "deterministic trace projection differs between two "
                "identical seeded runs")
        print(f"check_trace: OK ({len(proj_a)} events, deterministic "
              "projection stable across 2 runs, reports valid)")
        return

    if not args.paths:
        parser.error("need TRACE.json (and optional REPORT.json) "
                     "or --emitter")
    projection = check_trace(args.paths[0])
    msg = f"{len(projection)} events valid"
    if len(args.paths) > 1:
        runs = check_report_file(args.paths[1])
        msg += f", {runs} report(s) valid"
    print(f"check_trace: OK ({msg})")


if __name__ == "__main__":
    main()
