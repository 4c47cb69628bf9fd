#!/usr/bin/env python3
"""Validates the integrity sweep (bench/fault_grid --integrity-grid).

Two modes:

  check_bench_integrity.py --json BENCH_integrity.json
      Validate an already-emitted "vero.bench_report.v1" report produced by
      fault_grid --integrity-grid (scripts/bench_smoke.sh uses this).

  check_bench_integrity.py --emitter PATH/TO/fault_grid
      Run the bench binary itself into a temp dir at a tiny VERO_SCALE and
      validate the result. Registered as the check_bench_integrity ctest.

Beyond schema shape, this checks the end-to-end integrity contract:

  * clean grid (ig-clean-<level>, all four quadrants): the three integrity
    levels train bit-identical models (equal nonzero model_digest), move
    identical bytes in identical simulated time (the audit rides existing
    rendezvous), run checks only when enabled, and never raise a violation;
  * QD1 injection cells: silent corruption of a histogram all-reduce replica
    is detected at checksum+ and healed by layer recompute with the faulty
    rank blamed; corruption of the child-counts all-reduce escalates
    straight to checkpoint rollback (the blamed rank is expelled); NaN/Inf
    poison of gradient/histogram buffers sails through off AND checksum but
    is caught, blamed, and healed at full;
  * escape cells: the scanned corruption provably changes the final model at
    integrity=off (digest diverges from the clean reference while zero
    checks ran), and the identical fault at integrity=full is detected with
    a blamed rank and healed back to the reference digest.

Exits non-zero with a message on the first violation.
"""

import re

from checklib import bench_main, fail, load_json

SCHEMA = "vero.bench_report.v1"
LEVELS = ("off", "checksum", "full")
QUADRANTS = ("qd1", "qd2", "qd3", "qd4")
LABEL_RE = re.compile(
    r"^run\d+-(?P<quadrant>[a-z0-9]+)-w(?P<workers>\d+)-ig-"
    r"(?:(?P<cell>clean|silent-hist|silent-counts|poison-grad|poison-hist)"
    r"-(?P<level>off|checksum|full)"
    r"|(?P<escape>escape-(?:ref|off|full)))$")
# Cell -> (levels it must run under, levels where the fault must be caught).
INJECTION_CELLS = {
    "silent-hist": (("checksum", "full"), ("checksum", "full")),
    "silent-counts": (("checksum", "full"), ("checksum", "full")),
    "poison-grad": (("off", "checksum", "full"), ("full",)),
    "poison-hist": (("off", "checksum", "full"), ("full",)),
}
# Cell -> rank its fault plan targets (the rank the auditor must blame).
INJECTED_RANK = {
    "silent-hist": 2,
    "silent-counts": 2,
    "poison-grad": 1,
    "poison-hist": 0,
}


def integrity(run):
    block = run.get("integrity")
    if not isinstance(block, dict):
        fail(f"{run['label']}: missing integrity block")
    return block


def check_clean_integrity(run, level):
    """A run with no injected fault: checks gated by level, no violations."""
    block = integrity(run)
    if block.get("level") != level:
        fail(f"{run['label']}: integrity.level {block.get('level')!r} does "
             f"not match label level {level!r}")
    if level == "off":
        if block.get("checks", 0) != 0:
            fail(f"{run['label']}: integrity=off ran audit checks")
    elif block.get("checks", 0) <= 0:
        fail(f"{run['label']}: integrity={level} ran no audit checks")
    for key in ("violations", "recomputes", "escalations", "rollbacks"):
        if block.get(key, 0) != 0:
            fail(f"{run['label']}: clean run has nonzero integrity.{key}")
    if block.get("last_blamed_rank", -1) != -1:
        fail(f"{run['label']}: clean run blamed a rank")


def check_clean_grid(clean):
    digests = {}
    for quadrant in QUADRANTS:
        levels = clean.get(quadrant)
        if levels is None:
            fail(f"clean grid missing quadrant {quadrant}")
        missing = set(LEVELS) - levels.keys()
        if missing:
            fail(f"clean grid {quadrant} missing levels: {sorted(missing)}")
        off = levels["off"]
        if off.get("model_digest", 0) == 0:
            fail(f"{off['label']}: model_digest not stamped")
        for level in LEVELS:
            run = levels[level]
            check_clean_integrity(run, level)
            if run.get("model_digest") != off["model_digest"]:
                fail(f"{run['label']}: model digest differs from the "
                     f"integrity=off run (auditing changed the model)")
            # train_seconds folds in measured host compute (jitters run to
            # run), so the "audit is free" claim is pinned on the exact
            # byte count and the bit-identical model instead.
            if run.get("train_bytes_sent") != off.get("train_bytes_sent"):
                fail(f"{run['label']}: train_bytes_sent differs from off — "
                     "the audit must move no modeled bytes")
        digests[quadrant] = off["model_digest"]
    return digests


def check_injection_cells(injections, clean_qd1_digest):
    for cell, (want_levels, caught_levels) in INJECTION_CELLS.items():
        levels = injections.get(cell)
        if levels is None:
            fail(f"injection grid missing cell {cell}")
        missing = set(want_levels) - levels.keys()
        if missing:
            fail(f"cell {cell} missing levels: {sorted(missing)}")
        for level in want_levels:
            run = levels[level]
            block = integrity(run)
            label = run["label"]
            if level not in caught_levels:
                # The fault is live but below this level's detection floor:
                # the run must look clean (that is the escape surface).
                check_clean_integrity(run, level)
                continue
            if block.get("violations", 0) < 1:
                fail(f"{label}: injected fault raised no violation")
            if block.get("last_blamed_rank") != INJECTED_RANK[cell]:
                fail(f"{label}: blamed rank "
                     f"{block.get('last_blamed_rank')} != injected rank "
                     f"{INJECTED_RANK[cell]}")
            if cell == "silent-counts":
                # No retained inputs to recompute counts from: escalates
                # straight to rollback, expelling the blamed rank.
                if block.get("recomputes", 0) != 0:
                    fail(f"{label}: counts corruption should not recompute")
                if block.get("escalations", 0) < 1 \
                        or block.get("rollbacks", 0) < 1:
                    fail(f"{label}: counts corruption did not escalate to "
                         "rollback")
                recovery = run.get("recovery", {})
                if recovery.get("recovery_attempts", 0) < 1:
                    fail(f"{label}: rollback ran no recovery attempt")
                if recovery.get("final_world_size") != run_workers(run) - 1:
                    fail(f"{label}: blamed rank was not expelled "
                         f"(final_world_size "
                         f"{recovery.get('final_world_size')})")
            else:
                if block.get("recomputes", 0) < 1:
                    fail(f"{label}: detected fault was never recomputed")
                if block.get("escalations", 0) != 0:
                    fail(f"{label}: recompute-healable fault escalated")
                if run.get("model_digest") != clean_qd1_digest:
                    fail(f"{label}: healed model digest differs from the "
                         "clean run (recompute did not restore the model)")
                if block.get("wasted_seconds", 0) <= 0:
                    fail(f"{label}: recompute charged no wasted_seconds")


def run_workers(run):
    m = re.match(r"^run\d+-[a-z0-9]+-w(\d+)-", run["label"])
    if m is None:
        fail(f"{run['label']}: cannot parse worker count")
    return int(m.group(1))


def check_escape_cells(escapes):
    missing = {"escape-ref", "escape-off", "escape-full"} - escapes.keys()
    if missing:
        fail(f"escape demo missing runs: {sorted(missing)}")
    ref = escapes["escape-ref"]
    off = escapes["escape-off"]
    full = escapes["escape-full"]
    quadrants = {run["quadrant"] for run in (ref, off, full)}
    if len(quadrants) != 1:
        fail(f"escape runs span multiple quadrants: {sorted(quadrants)}")
    for run in (ref, off):
        block = integrity(run)
        if block.get("level") != "off" or block.get("checks", 0) != 0:
            fail(f"{run['label']}: escape baseline must run integrity=off "
                 "with zero checks")
    if ref.get("model_digest", 0) == 0 or off.get("model_digest", 0) == 0:
        fail("escape runs missing model digests")
    if off["model_digest"] == ref["model_digest"]:
        fail("escape-off model digest equals the clean reference — no wrong "
             "model escaped at integrity=off")
    block = integrity(full)
    if block.get("level") != "full":
        fail(f"{full['label']}: escape-full must run integrity=full")
    if block.get("violations", 0) < 1:
        fail(f"{full['label']}: integrity=full missed the escaping fault")
    if block.get("last_blamed_rank", -1) < 0:
        fail(f"{full['label']}: integrity=full blamed no rank")
    if full["model_digest"] != ref["model_digest"]:
        fail(f"{full['label']}: integrity=full did not heal the model back "
             "to the clean reference")


def validate(path):
    doc = load_json(path)

    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs must be a non-empty list")

    clean = {}
    injections = {}
    escapes = {}
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(f"runs[{i}] is not an object")
        for key in ("label", "train_seconds", "model_digest", "metrics"):
            if key not in run:
                fail(f"runs[{i}] missing key {key!r}")
        m = LABEL_RE.match(run["label"])
        if m is None:
            continue  # foreign (fg-/rg-) runs may share the report file
        if m.group("escape"):
            if m.group("escape") in escapes:
                fail(f"duplicate escape run {run['label']!r}")
            escapes[m.group("escape")] = run
            continue
        cell, level = m.group("cell"), m.group("level")
        if cell == "clean":
            bucket = clean.setdefault(m.group("quadrant"), {})
        else:
            if m.group("quadrant") != "qd1":
                fail(f"{run['label']}: injection cells run on qd1 only")
            bucket = injections.setdefault(cell, {})
        if level in bucket:
            fail(f"duplicate run for {run['label']!r}")
        bucket[level] = run

    if not clean and not injections and not escapes:
        fail("no integrity-grid (ig-*) runs found")
    digests = check_clean_grid(clean)
    check_injection_cells(injections, digests["qd1"])
    check_escape_cells(escapes)

    print(f"check_bench_integrity: OK ({path}: {len(runs)} runs, "
          f"{len(clean)} clean quadrants, {len(injections)} injection "
          f"cells, {len(escapes)} escape runs)")


if __name__ == "__main__":
    bench_main(validate, "BENCH_integrity.json", ["--integrity-grid", "--report"],
               {"VERO_SCALE": "0.05", "VERO_BENCH_TREES": "2"})
