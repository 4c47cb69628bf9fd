#!/usr/bin/env python3
"""Validates the cost-anatomy JSON ("vero.anatomy.v1") emitted by RunObserver
consumers and the bench --anatomy wrapper ("vero.anatomy_bench.v1").

Two modes:

  check_anatomy.py ANATOMY.json
      Validate an already-emitted anatomy file (a single report or a bench
      wrapper with a runs[] array) against the documented schema and the
      exact-sum invariants.

  check_anatomy.py --emitter PATH/TO/anatomy_test
      Drive the anatomy_test gtest binary twice (--gtest_filter=AnatomyEmit*
      with VERO_OBS_EMIT_DIR pointing at fresh temp dirs), validate both
      emitted files, and require the deterministic projection of the two to
      be identical. Registered as the check_anatomy ctest.

The headline invariant is re-checked here in pure Python: JsonWriter emits
doubles with %.17g, which round-trips IEEE doubles exactly, and Python floats
are IEEE doubles — so the checker re-performs the canonical summations
(same operands, same association order) and demands plain equality, not an
epsilon. Schema documented in docs/observability.md. Exits non-zero with a
message on the first violation.
"""

import argparse
import os

from checklib import load_json, require, run_gtest_emitter

SCHEMA = "vero.anatomy.v1"
BENCH_SCHEMA = "vero.anatomy_bench.v1"

CATEGORY_NAMES = {
    "compute.gradient", "compute.hist_build", "compute.split_eval",
    "compute.partition", "compute.other", "compute.sketch",
    "compute.transform", "comm.total", "setup", "checkpoint", "recovery",
    "reshard", "wait.deadline_wait", "wait.straggler_absorb",
    "wait.injected_stall", "wait.barrier_skew", "wasted",
}
SEGMENT_KINDS = {"setup", "tree", "recovery", "reshard"}


def check_anatomy(doc, where):
    """Validates one anatomy report; returns its deterministic projection."""
    require(isinstance(doc, dict), f"{where}: report must be an object")
    require(doc.get("schema") == SCHEMA,
            f"{where}: schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    scalar_fields = {
        "label": str, "quadrant": str, "workers": int, "trees": int,
        "incarnations": int, "total_seconds": (int, float),
        "attributed_train_seconds": (int, float), "exact": bool,
        "wasted_seconds": (int, float), "train_bytes_sent": int,
    }
    for name, types in scalar_fields.items():
        require(name in doc, f"{where}: missing {name}")
        require(isinstance(doc[name], types),
                f"{where}: {name} has wrong type")
    require(doc["incarnations"] >= 1, f"{where}: incarnations < 1")

    # Components re-sum to the total in the canonical association order,
    # bit-exactly.
    comps = doc.get("components")
    require(isinstance(comps, dict), f"{where}: missing components object")
    for name in ("setup", "train", "recovery", "reshard"):
        require(isinstance(comps.get(name), (int, float)),
                f"{where}: components.{name} missing or non-numeric")
    resummed = ((comps["setup"] + comps["train"]) + comps["recovery"]) \
        + comps["reshard"]
    require(resummed == doc["total_seconds"],
            f"{where}: components sum {resummed!r} != total_seconds "
            f"{doc['total_seconds']!r}")

    # Per-tree rows: canonical TreeCost order per row, left-to-right row sum
    # == attributed_train_seconds, both bit-exact.
    per_tree = doc.get("per_tree")
    require(isinstance(per_tree, list), f"{where}: per_tree must be an array")
    attributed = 0.0
    tree_proj = []
    for i, row in enumerate(per_tree):
        rw = f"{where}: per_tree[{i}]"
        require(isinstance(row, dict), f"{rw}: must be an object")
        for name in ("tree", "incarnation", "gradient", "hist", "find_split",
                     "node_split", "other", "comm", "total",
                     "blame_comp_rank", "blame_comm_rank"):
            require(name in row, f"{rw}: missing {name}")
        row_total = ((((row["gradient"] + row["hist"]) + row["find_split"])
                      + row["node_split"]) + row["other"]) + row["comm"]
        require(row_total == row["total"],
                f"{rw}: fields sum {row_total!r} != total {row['total']!r}")
        require(0 <= row["incarnation"] < doc["incarnations"],
                f"{rw}: incarnation out of range")
        attributed += row["total"]
        tree_proj.append((row["tree"], row["incarnation"], row["comm"]))
    require(attributed == doc["attributed_train_seconds"],
            f"{where}: row totals sum {attributed!r} != "
            f"attributed_train_seconds {doc['attributed_train_seconds']!r}")
    require(doc["exact"] ==
            (doc["attributed_train_seconds"] == comps["train"]),
            f"{where}: exact flag inconsistent with the attribution")
    require(doc["exact"], f"{where}: attribution not exact")

    # Display categories: known taxonomy, sorted by name, non-negative.
    categories = doc.get("categories")
    require(isinstance(categories, dict),
            f"{where}: categories must be an object")
    names = list(categories.keys())
    require(names == sorted(names), f"{where}: categories not sorted")
    for name, seconds in categories.items():
        require(name in CATEGORY_NAMES,
                f"{where}: unknown category {name!r}")
        require(isinstance(seconds, (int, float)) and seconds >= 0,
                f"{where}: categories[{name!r}] negative or non-numeric")

    # Per-op communication profile.
    comm_ops = doc.get("comm_ops")
    require(isinstance(comm_ops, list), f"{where}: comm_ops must be an array")
    op_proj = []
    for i, op in enumerate(comm_ops):
        ow = f"{where}: comm_ops[{i}]"
        for name in ("op", "ops", "sim_seconds", "p50", "p99"):
            require(name in op, f"{ow}: missing {name}")
        require(op["ops"] > 0, f"{ow}: zero-op entry emitted")
        require(op["sim_seconds"] >= 0, f"{ow}: negative sim_seconds")
        require(op["p50"] <= op["p99"], f"{ow}: p50 > p99")
        op_proj.append((op["op"], op["ops"]))
    op_names = [op["op"] for op in comm_ops]
    require(op_names == sorted(op_names), f"{where}: comm_ops not sorted")

    # Per-rank skew rows.
    per_rank = doc.get("per_rank")
    require(isinstance(per_rank, list), f"{where}: per_rank must be an array")
    rank_proj = []
    for i, row in enumerate(per_rank):
        rw = f"{where}: per_rank[{i}]"
        for name in ("incarnation", "rank", "comp_seconds", "comm_seconds",
                     "events", "bytes"):
            require(name in row, f"{rw}: missing {name}")
        require(row["events"] > 0, f"{rw}: empty rank row emitted")
        require(0 <= row["incarnation"] < doc["incarnations"],
                f"{rw}: incarnation out of range")
        rank_proj.append((row["incarnation"], row["rank"], row["events"],
                          row["bytes"]))

    # Critical path: never longer than the total; the single rank at W = 1
    # IS the path, so equality is bitwise there. Exported segments are the
    # heaviest first.
    cp = doc.get("critical_path")
    require(isinstance(cp, dict), f"{where}: missing critical_path object")
    require(isinstance(cp.get("length_seconds"), (int, float)),
            f"{where}: critical_path.length_seconds missing")
    require(cp["length_seconds"] <= doc["total_seconds"],
            f"{where}: critical path {cp['length_seconds']!r} exceeds total "
            f"{doc['total_seconds']!r}")
    if doc["workers"] == 1 and doc["incarnations"] == 1:
        require(cp["length_seconds"] == doc["total_seconds"],
                f"{where}: W=1 critical path {cp['length_seconds']!r} != "
                f"total {doc['total_seconds']!r}")
    segments = cp.get("segments")
    require(isinstance(segments, list),
            f"{where}: critical_path.segments must be an array")
    require(isinstance(cp.get("segments_total"), int) and
            cp["segments_total"] >= len(segments),
            f"{where}: segments_total smaller than exported segments")
    for i, seg in enumerate(segments):
        sw = f"{where}: critical_path.segments[{i}]"
        for name in ("kind", "tree", "rank", "incarnation", "seconds",
                     "dominant", "dominant_seconds"):
            require(name in seg, f"{sw}: missing {name}")
        require(seg["kind"] in SEGMENT_KINDS,
                f"{sw}: unknown kind {seg['kind']!r}")
        require(seg["dominant_seconds"] <= seg["seconds"],
                f"{sw}: dominant exceeds the segment")
        if i > 0:
            require(segments[i - 1]["seconds"] >= seg["seconds"],
                    f"{sw}: exported segments not sorted heaviest-first")

    # Stitching integrity: one weakly-connected acyclic DAG, with the vertex
    # count the construction promises (2 per span + 1 join per collective
    # group).
    dag = doc.get("dag")
    require(isinstance(dag, dict), f"{where}: missing dag object")
    for name in ("events", "vertices", "program_edges", "collective_edges",
                 "incarnation_edges", "collective_groups", "weak_components",
                 "acyclic"):
        require(name in dag, f"{where}: dag missing {name}")
    require(dag["events"] > 0, f"{where}: empty trace behind the anatomy")
    require(dag["vertices"] == 2 * dag["events"] + dag["collective_groups"],
            f"{where}: dag vertex count inconsistent")
    require(dag["weak_components"] == 1,
            f"{where}: trace stitched into {dag['weak_components']} "
            "components (expected 1)")
    require(dag["acyclic"] is True, f"{where}: causal DAG has a cycle")
    if doc["incarnations"] > 1:
        require(dag["incarnation_edges"] > 0,
                f"{where}: multi-incarnation run without incarnation joins")

    # Deterministic projection: structural identity plus the sim-clock
    # quantities (CPU-seconds fields are real measurements and excluded).
    return (doc["label"], doc["quadrant"], doc["workers"], doc["trees"],
            doc["incarnations"], doc["train_bytes_sent"], tuple(tree_proj),
            tuple(op_proj), tuple(rank_proj),
            tuple(sorted(dag.items())))


def check_file(path):
    """Validates one file; returns the list of run projections."""
    doc = load_json(path)
    if isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA:
        runs = doc.get("runs")
        require(isinstance(runs, list), f"{path}: runs must be an array")
        require(len(runs) > 0, f"{path}: empty runs array")
        return [check_anatomy(run, f"{path}: runs[{i}]")
                for i, run in enumerate(runs)]
    return [check_anatomy(doc, path)]


def run_emitter(binary):
    """Runs the AnatomyEmit* tests into a fresh dir; returns the file path."""
    out_dir = run_gtest_emitter(binary, "AnatomyEmit*", "VERO_OBS_EMIT_DIR")
    path = os.path.join(out_dir, "anatomy.json")
    require(os.path.exists(path), f"emitter produced no {path}")
    return path


def check_emitted(path):
    """The AnatomyEmit fixture writes one clean and one recovery+resize run."""
    projections = check_file(path)
    require(len(projections) == 2,
            f"{path}: expected 2 emitted runs, got {len(projections)}")
    labels = {p[0] for p in projections}
    require(labels == {"anatomy_emit_clean", "anatomy_emit_elastic"},
            f"{path}: unexpected run labels {labels}")
    for proj in projections:
        if proj[0] == "anatomy_emit_elastic":
            require(proj[4] >= 2,
                    f"{path}: elastic run stayed single-incarnation")
    return projections


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="ANATOMY.json file(s) to validate")
    parser.add_argument("--emitter", metavar="ANATOMY_TEST",
                        help="anatomy_test binary to drive end-to-end")
    args = parser.parse_args()

    if args.emitter:
        proj_a = check_emitted(run_emitter(args.emitter))
        proj_b = check_emitted(run_emitter(args.emitter))
        require(proj_a == proj_b,
                "deterministic anatomy projection differs between two "
                "identical seeded runs")
        print(f"check_anatomy: OK ({len(proj_a)} runs, exact attribution, "
              "deterministic projection stable across 2 runs)")
        return

    if not args.paths:
        parser.error("need ANATOMY.json or --emitter")
    total = 0
    for path in args.paths:
        total += len(check_file(path))
    print(f"check_anatomy: OK ({total} run(s), exact attribution, "
          "critical path and DAG integrity valid)")


if __name__ == "__main__":
    main()
