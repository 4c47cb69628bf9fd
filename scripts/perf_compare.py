#!/usr/bin/env python3
"""Paired comparison of two revisions on the repository benchmark.

  perf_compare.py run --parent REV --change REV --work-dir DIR
                      [--workload W ...] [--seed S ...] [--pairs N]
                      [--trace 0|1] [--out FILE [--append]]
  perf_compare.py check FILE

`run` unpacks each revision (any tree-ish; `$(git write-tree)` names the
staged tree) with `git archive` into DIR/<side>-src, builds it under its own
CARGO_TARGET_DIR (DIR/<side>-target), and runs N alternating pairs of
`perfbench/run.py` per workload and seed, each run BENCHMARK.json's
`run_seconds` long: pair k runs the parent first when k is even and the
change first when k is odd. It prints, per metric, the median [quartiles]
of each side, the per-pair values, and the pairs the change won, and writes
them to FILE (with --append, into FILE's cells). FILE records each side's
revision as given, the commit it names (null for a bare tree) and its tree,
and the commit checked out while the runs were made: a staged change,
named by `$(git write-tree)`, is that tree on top of that commit.

The house rule decides each metric: the change is `better` when it wins at
least 90% of the pairs (9 of 10) and its median lies beyond the parent's
median by more than the parent's interquartile range; `worse` is the
mirror; equal values in every pair are `identical`; anything else is
`unresolved`. A gain does not count when more operations fail: if any pair
shows the change failing a larger share of its operations than the parent,
the cell lists those pairs and no metric of it reads `better`. A metric
with a bound in
BENCHMARK.json is flagged `past_bound` when the change's median is worse
than the parent's by more than that fraction.

Each run's record keeps the 1-minute load average (/proc/loadavg) read
just before it started, as `<side>_load`. Another process on the host
moves every metric, so the printed table marks with `*` each pair one of
whose runs started with that load above the host's CPU count less one;
records made before the field existed carry no mark.

Each cell stores the BENCHMARK.json metric list (unit, direction, bound)
it ran under. `check` recomputes every summary of FILE from its stored
per-pair values and that list, and fails if any median, quartile, win
count, verdict, bound flag or failing pair differs. Registered as the check_bench_train ctest on BENCH_train.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "vero.perf_compare.v1"
SIDES = ("parent", "change")
MIN_WIN_SHARE = 0.9


def fail(msg):
    print(f"perf_compare: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def rounded(x):
    return float(f"{x:.6g}")


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failure_share(pair, side):
    failed, attempted = pair[f"{side}_failed"]
    return failed / attempted if attempted else 0.0


def more_failures(pairs):
    """Indices of the pairs in which the change failed a larger share of
    its operations than the parent."""
    return [k for k, pair in enumerate(pairs)
            if failure_share(pair, "change") > failure_share(pair, "parent")]


def summarize(pairs, spec):
    """Per-metric summary of one cell's pairs under the house rule."""
    failing = bool(more_failures(pairs))
    summary = {}
    for name, meta in spec.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = -1.0 if meta["better"] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq = quartiles(parent)
        cq = quartiles(change)
        gain = sign * (cq[1] - pq[1])
        iqr = pq[2] - pq[0]
        needed = math.ceil(MIN_WIN_SHARE * len(pairs))
        if parent == change:
            verdict = "identical"
        elif wins >= needed and gain > iqr and not failing:
            verdict = "better"
        elif losses >= needed and -gain > iqr:
            verdict = "worse"
        else:
            verdict = "unresolved"
        bound = meta.get("bound")
        past_bound = None
        if bound is not None:
            past_bound = -gain > bound * abs(pq[1])
        summary[name] = {
            "parent": [rounded(x) for x in pq],
            "change": [rounded(x) for x in cq],
            "delta_pct": (rounded(100.0 * (cq[1] - pq[1]) / abs(pq[1]))
                          if pq[1] != 0 else None),
            "wins": wins,
            "losses": losses,
            "verdict": verdict,
            "past_bound": past_bound,
        }
    return summary


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_spec(trace):
    listed = benchmark()["per_layer" if trace else "end_to_end"]
    return {m["name"]: {k: m[k] for k in ("unit", "better", "bound")
                        if k in m} for m in listed}


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(rev):
    """What `rev` names: the revision as given, its commit (None for a bare
    tree) and its tree."""
    tree = git("rev-parse", f"{rev}^{{tree}}")
    if tree is None:
        fail(f"unknown revision {rev}")
    return {"rev": rev, "commit": git("rev-parse", "--verify", "-q",
                                      f"{rev}^{{commit}}"), "tree": tree}


def unpack(rev, tree, work_dir, side):
    """Unpacks `rev` into DIR/<side>-src unless that directory already
    holds the same tree, so its build directory stays warm."""
    src = os.path.join(work_dir, f"{side}-src")
    stamp = src + ".tree"
    if os.path.isdir(src) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == tree:
                return src
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"cannot unpack {rev}")
    with open(stamp, "w") as f:
        f.write(tree)
    return src


def load_average():
    """The 1-minute load average, or None where /proc/loadavg is absent."""
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def busy(pair, cpus):
    """Whether a run of the pair started with a load above cpus - 1."""
    return any((pair.get(f"{side}_load") or 0.0) > cpus - 1
               for side in SIDES)


def run_once(src, target, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=src, capture_output=True, text=True,
                          env=dict(os.environ, CARGO_TARGET_DIR=target))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        fail(f"{' '.join(cmd)} exited {proc.returncode} in {src}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"], result["attempted"]


def fmt(x):
    return "-" if x is None else f"{x:.4g}"


def print_cell(cell, spec, cpus):
    print(f"\n### {cell['workload']}, seed {cell['seed']}, trace "
          f"{cell['trace']} ({len(cell['pairs'])} pairs)\n")
    marks = ["*" if busy(pr, cpus) else "" for pr in cell["pairs"]]
    print("| metric | parent | change | median | change better | verdict "
          "| pairs (parent/change) |")
    print("|---|---|---|---|---|---|---|")
    if cell["more_failures"]:
        print(f"\nThe change failed a larger share of operations in pairs "
              f"{cell['more_failures']}: no metric reads better.\n")
    for name, s in cell["summary"].items():
        unit = spec[name]["unit"]
        p, c = s["parent"], s["change"]
        delta = "-" if s["delta_pct"] is None else f"{s['delta_pct']:+.1f}%"
        flag = " PAST BOUND" if s["past_bound"] else ""
        pairs = " ".join(f"{fmt(pr['parent'][name])}/{fmt(pr['change'][name])}"
                         f"{mark}" for pr, mark in zip(cell["pairs"], marks))
        print(f"| `{name}` ({unit}) | {fmt(p[1])} [{fmt(p[0])}, {fmt(p[2])}] "
              f"| {fmt(c[1])} [{fmt(c[0])}, {fmt(c[2])}] | {delta} "
              f"| {s['wins']}/{len(cell['pairs'])} | {s['verdict']}{flag} "
              f"| {pairs} |")
    if any(marks):
        print(f"\n`*`: a run of the pair started with the 1-minute load "
              f"average above {cpus - 1} on a {cpus}-CPU host.")


def cmd_run(args):
    spec = metric_spec(args.trace)
    seconds = benchmark()["run_seconds"]
    work_dir = os.path.abspath(args.work_dir)
    os.makedirs(work_dir, exist_ok=True)
    revs = {"parent": revision(args.parent), "change": revision(args.change)}
    srcs = {side: unpack(revs[side]["rev"], revs[side]["tree"], work_dir,
                         side) for side in SIDES}
    targets = {side: os.path.join(work_dir, f"{side}-target")
               for side in SIDES}
    doc = {"schema": SCHEMA, **revs, "head": git("rev-parse", "HEAD"),
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      "--seconds <seconds> --trace <trace>",
           "cpus": os.cpu_count(), "cells": []}
    if args.append and args.out and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
        if any(doc.get(side, {}).get("tree") != revs[side]["tree"]
               for side in SIDES):
            fail(f"{args.out} compares other revisions")
    for workload in args.workload:
        for seed in args.seed:
            cell = {"workload": workload, "seed": seed, "trace": args.trace,
                    "seconds": seconds, "metrics": spec, "pairs": []}
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[f"{side}_load"] = load_average()
                    values, failed, attempted = run_once(
                        srcs[side], targets[side], workload, seed, seconds,
                        args.trace)
                    pair[side] = values
                    pair[f"{side}_failed"] = [failed, attempted]
                cell["pairs"].append(pair)
                print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            cell["more_failures"] = more_failures(cell["pairs"])
            cell["summary"] = summarize(cell["pairs"], spec)
            key = (workload, seed, args.trace)
            doc["cells"] = [c for c in doc["cells"]
                            if (c["workload"], c["seed"], c["trace"]) != key]
            doc["cells"].append(cell)
            if args.out:
                with open(args.out, "w") as f:
                    json.dump(doc, f, indent=1)
                    f.write("\n")
            print_cell(cell, spec, doc["cpus"])
    flagged = [(c["workload"], c["seed"], name)
               for c in doc["cells"] for name, s in c["summary"].items()
               if s["past_bound"]]
    for workload, seed, name in flagged:
        print(f"perf_compare: {workload} seed {seed}: {name} moved past "
              f"its BENCHMARK.json bound", file=sys.stderr)
    return 0


def cmd_check(args):
    try:
        with open(args.file) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse {args.file}: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not doc.get("cells"):
        fail("no cells")
    for cell in doc["cells"]:
        where = f"{cell.get('workload')} seed {cell.get('seed')} " \
                f"trace {cell.get('trace')}"
        spec = cell.get("metrics") or {}
        pairs = cell.get("pairs") or []
        if not pairs:
            fail(f"{where}: no pairs")
        for k, pair in enumerate(pairs):
            for side in SIDES:
                if not spec or set(pair.get(side, {})) != set(spec):
                    fail(f"{where}: pair {k} {side} metrics differ from "
                         f"the cell's metric list")
                failed, attempted = pair[f"{side}_failed"]
                if not 0 <= failed <= attempted:
                    fail(f"{where}: pair {k} {side} failed count out of range")
                load = pair.get(f"{side}_load")
                if load is not None and not (
                        isinstance(load, (int, float)) and load >= 0):
                    fail(f"{where}: pair {k} {side} load {load!r} is not a "
                         f"load average")
            want_first = SIDES[k % 2]
            if pair.get("first") != want_first:
                fail(f"{where}: pair {k} ran {pair.get('first')} first, "
                     f"want {want_first} (alternating order)")
        if cell.get("more_failures") != more_failures(pairs):
            fail(f"{where}: stored pairs with more failures "
                 f"{cell.get('more_failures')} differ from its pairs: "
                 f"{more_failures(pairs)}")
        recomputed = summarize(pairs, spec)
        for name, want in recomputed.items():
            if cell.get("summary", {}).get(name) != want:
                fail(f"{where}: stored summary of {name} differs from its "
                     f"pairs: {cell.get('summary', {}).get(name)} vs {want}")
        print_cell(cell, spec, doc.get("cpus") or 1)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--work-dir", required=True)
    run.add_argument("--workload", nargs="+",
                     default=["rcv1-qd1", "rcv1-qd2", "higgs-vero"])
    run.add_argument("--seed", type=int, nargs="+", default=[1])
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out")
    run.add_argument("--append", action="store_true")
    check = sub.add_parser("check")
    check.add_argument("file")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
