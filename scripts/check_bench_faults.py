#!/usr/bin/env python3
"""Validates the fault-grid failure sweep (bench/fault_grid --report).

Two modes:

  check_bench_faults.py --json BENCH_faults.json
      Validate an already-emitted "vero.bench_report.v1" report produced by
      fault_grid (scripts/bench_smoke.sh uses this).

  check_bench_faults.py --emitter PATH/TO/fault_grid
      Run the bench binary itself into a temp dir at a tiny VERO_SCALE and
      validate the result. Registered as the check_bench_faults ctest.

Beyond schema shape, this checks the straggler-mitigation contract:

  * runs group into grid cells, each cell with exactly the three modes
    (strict / bounded / speculative) on the same fault schedule;
  * strict runs keep every staleness.* / speculation.* counter at zero
    (mitigation off == seed behavior);
  * train-phase cells with a dominant straggler (delay >= 0.5 s): both
    mitigation modes beat strict train_seconds, bounded actually deferred
    contributions, and speculation launched backups and charged their
    duplicated traffic to wasted_bytes.

and the recovery-grid contract (rg-ci<interval>-<crash>-<resize> cells):

  * the full checkpoint_interval x crash x resize product is present,
    every run completed at the width its resize schedule dictates;
  * crash cells observed a failure and ran recovery; crash-free cells
    show zero failures and zero recovery traffic;
  * resize=up cells admitted workers and priced re-shard traffic,
    resize=down cells retired workers, resize=none cells never resized;
  * trees_recovered / trees_retrained describe the last recovery only: a
    run that never recovered reports 0 / 0 (a resize writes neither), and
    a recovered run's two counts add up to its trees;
  * for a matched crash x resize pair, the sparse-checkpoint run (largest
    interval) retrains at least as many trees as the per-tree-checkpoint
    run (denser checkpoints never lose more work).

Exits non-zero with a message on the first violation.
"""

import re

from checklib import bench_main, fail, load_json

SCHEMA = "vero.bench_report.v1"
MODES = ("strict", "bounded", "speculative")
LABEL_RE = re.compile(
    r"^run\d+-(?P<quadrant>[a-z0-9]+)-w(?P<workers>\d+)-"
    r"(?P<cell>fg-(?P<phase>train|setup)-r\d+-d(?P<delay>[0-9.]+))-"
    r"(?P<mode>strict|bounded|speculative)$")
RG_LABEL_RE = re.compile(
    r"^run\d+-(?P<quadrant>[a-z0-9]+)-w(?P<workers>\d+)-"
    r"rg-ci(?P<interval>\d+)-(?P<crash>none|early|late)-"
    r"(?P<resize>none|up|down)$")
RG_CRASHES = ("none", "early", "late")
RG_RESIZES = ("none", "up", "down")
STALENESS_COUNTERS = (
    "staleness.deferred_contributions",
    "staleness.forced_syncs",
    "speculation.launched",
    "speculation.wasted_bytes",
)


def counter(run, name):
    entry = run.get("metrics", {}).get(name)
    if entry is None:
        return 0
    if entry.get("kind") != "counter":
        fail(f"{run['label']}: metric {name} is not a counter")
    return entry["value"]


def validate(path):
    doc = load_json(path)

    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs must be a non-empty list")

    cells = {}
    recovery_runs = {}
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(f"runs[{i}] is not an object")
        for key in ("label", "train_seconds", "wasted_bytes", "metrics"):
            if key not in run:
                fail(f"runs[{i}] missing key {key!r}")
        if not isinstance(run["train_seconds"], (int, float)) \
                or run["train_seconds"] <= 0:
            fail(f"{run['label']}: train_seconds must be positive")
        rg = RG_LABEL_RE.match(run["label"])
        if rg is not None:
            key = (int(rg.group("interval")), rg.group("crash"),
                   rg.group("resize"))
            if key in recovery_runs:
                fail(f"duplicate recovery-grid run for {run['label']!r}")
            recovery_runs[key] = (int(rg.group("workers")), run)
            continue
        m = LABEL_RE.match(run["label"])
        if m is None:
            fail(f"runs[{i}].label {run['label']!r} is not a fault-grid "
                 "label (runNNN-<quadrant>-wW-fg-<phase>-rR-dD-<mode> or "
                 "runNNN-<quadrant>-wW-rg-ciI-<crash>-<resize>)")
        cell = cells.setdefault(
            m.group("cell"),
            {"phase": m.group("phase"), "delay": float(m.group("delay")),
             "modes": {}})
        if m.group("mode") in cell["modes"]:
            fail(f"duplicate run for {m.group('cell')} / {m.group('mode')}")
        cell["modes"][m.group("mode")] = run

    if not cells:
        fail("no fault-grid cells found")
    for name, cell in sorted(cells.items()):
        missing = set(MODES) - cell["modes"].keys()
        if missing:
            fail(f"cell {name} missing modes: {sorted(missing)}")
        strict = cell["modes"]["strict"]
        bounded = cell["modes"]["bounded"]
        spec = cell["modes"]["speculative"]

        # Mitigation off must look exactly like the seed: no staleness or
        # speculation accounting anywhere in the strict run.
        for metric in STALENESS_COUNTERS:
            if counter(strict, metric) != 0:
                fail(f"cell {name}: strict run has nonzero {metric}")
        if strict["wasted_bytes"] != 0:
            fail(f"cell {name}: strict run has nonzero wasted_bytes")

        if cell["phase"] == "train" and cell["delay"] >= 0.5:
            # A dominant straggler: mitigated goodput must beat strict.
            for mode_name, run in (("bounded", bounded),
                                   ("speculative", spec)):
                if run["train_seconds"] >= strict["train_seconds"]:
                    fail(f"cell {name}: {mode_name} train_seconds "
                         f"{run['train_seconds']:.4f} does not beat strict "
                         f"{strict['train_seconds']:.4f}")
            if counter(bounded, "staleness.deferred_contributions") == 0:
                fail(f"cell {name}: bounded run never deferred")
            if counter(spec, "speculation.launched") == 0:
                fail(f"cell {name}: speculative run never launched")
            if counter(spec, "speculation.wasted_bytes") == 0 \
                    or spec["wasted_bytes"] == 0:
                fail(f"cell {name}: speculative run charged no waste")
            if spec["wasted_bytes"] != counter(spec,
                                               "speculation.wasted_bytes"):
                fail(f"cell {name}: report wasted_bytes "
                     f"{spec['wasted_bytes']} != speculation.wasted_bytes "
                     f"counter {counter(spec, 'speculation.wasted_bytes')}")

    validate_recovery_grid(recovery_runs)

    print(f"check_bench_faults: OK ({path}: {len(runs)} runs, "
          f"{len(cells)} straggler cells, {len(recovery_runs)} recovery "
          "cells)")


def validate_recovery_grid(recovery_runs):
    """Checks the rg-ci<I>-<crash>-<resize> family (may be absent in old
    reports; any presence requires the full product)."""
    if not recovery_runs:
        return
    intervals = sorted({key[0] for key in recovery_runs})
    for interval in intervals:
        for crash in RG_CRASHES:
            for resize in RG_RESIZES:
                if (interval, crash, resize) not in recovery_runs:
                    fail(f"recovery grid missing cell "
                         f"rg-ci{interval}-{crash}-{resize}")

    for (interval, crash, resize), (workers, run) in \
            sorted(recovery_runs.items()):
        label = run["label"]
        recovery = run.get("recovery")
        elasticity = run.get("elasticity")
        if not isinstance(recovery, dict) or not isinstance(elasticity, dict):
            fail(f"{label}: missing recovery/elasticity blocks")

        want_width = workers + {"none": 0, "up": 1, "down": -1}[resize]
        if recovery.get("final_world_size") != want_width:
            fail(f"{label}: final_world_size "
                 f"{recovery.get('final_world_size')} != scheduled width "
                 f"{want_width}")

        if crash == "none":
            if recovery.get("failures_observed", 0) != 0:
                fail(f"{label}: crash-free run observed failures")
            if recovery.get("recovery_bytes", 0) != 0:
                fail(f"{label}: crash-free run charged recovery traffic")
        else:
            if recovery.get("failures_observed", 0) < 1:
                fail(f"{label}: crash run observed no failure")
            if recovery.get("recovery_attempts", 0) < 1:
                fail(f"{label}: crash run never ran recovery")

        recovered = recovery.get("trees_recovered", 0)
        retrained = recovery.get("trees_retrained", 0)
        if recovery.get("recovery_attempts", 0) == 0:
            if recovered != 0 or retrained != 0:
                fail(f"{label}: run without recovery reports "
                     f"{recovered} recovered / {retrained} retrained trees")
        elif recovered + retrained != run.get("trees"):
            fail(f"{label}: {recovered} recovered + {retrained} retrained "
                 f"trees != {run.get('trees')} trees")

        if resize == "none":
            if elasticity.get("resizes", 0) != 0:
                fail(f"{label}: resize-free run resized")
            if elasticity.get("reshard_bytes", 0) != 0:
                fail(f"{label}: resize-free run priced re-shard traffic")
        else:
            if elasticity.get("resizes", 0) != 1:
                fail(f"{label}: expected exactly one resize, got "
                     f"{elasticity.get('resizes', 0)}")
            if elasticity.get("reshard_bytes", 0) <= 0:
                fail(f"{label}: resize run priced no re-shard traffic")
            if elasticity.get("reshard_seconds", 0) <= 0:
                fail(f"{label}: resize run charged no re-shard time")
            if resize == "up" and elasticity.get("admitted_workers", 0) < 1:
                fail(f"{label}: scale-up admitted no workers")
            if resize == "down" and elasticity.get("retired_workers", 0) < 1:
                fail(f"{label}: scale-down retired no workers")

    # Denser checkpoints never lose more committed work: for each matched
    # crash x resize pair, the sparsest-interval run retrains at least as
    # many trees as the densest-interval run.
    if len(intervals) >= 2:
        dense, sparse = intervals[0], intervals[-1]
        for crash in RG_CRASHES:
            if crash == "none":
                continue
            for resize in RG_RESIZES:
                dense_run = recovery_runs[(dense, crash, resize)][1]
                sparse_run = recovery_runs[(sparse, crash, resize)][1]
                d = dense_run["recovery"].get("trees_retrained", 0)
                s = sparse_run["recovery"].get("trees_retrained", 0)
                if s < d:
                    fail(f"recovery grid {crash}/{resize}: ci={sparse} "
                         f"retrained {s} trees < ci={dense}'s {d} (sparser "
                         "checkpoints should never retrain less)")


if __name__ == "__main__":
    bench_main(validate, "BENCH_faults.json", ["--fault-grid", "--report"],
               {"VERO_SCALE": "0.05", "VERO_BENCH_TREES": "2"})
