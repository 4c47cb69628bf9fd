#!/usr/bin/env python3
"""Checks how vero_train_cli reports distributed settings it cannot honor
and input rows it must not train on.

  check_train_cli.py --cli PATH/TO/vero_train_cli

Writes a 200-row binary LIBSVM file into a temp dir, then runs the CLI on
six cases and checks each exit code and message:

  --trees 0 --quadrant qd1          exit 1, "training failed: InvalidArgument:
                                    num_trees == 0" (a status, not an abort)
  --row-subsample 0.5 --quadrant qd2
                                    exit 1, the status names row_subsample
                                    (no quadrant subsamples rows)
  --compression sparse              exit 2 (usage error): the reference
                                    trainer has no collectives to compress
  --quadrant qd1 --compression sparse_delta
                                    exit 0, trains and saves the model
  the same rows with each row's feature ids in descending order
                                    exit 1, "failed to load data: Corruption:"
                                    (rows must list feature ids strictly
                                    increasing; shuffled rows are rejected,
                                    not trained on)
  --task multiclass on a file with label 1000000000
                                    exit 1, "failed to load data: Corruption:
                                    label 1000000000 at line 4" (labels are
                                    bounded, not sized into a billion classes)

Registered as the check_train_cli ctest. Exits non-zero on the first
mismatch.
"""

import argparse
import os
import random
import subprocess
import sys
import tempfile

ROWS = 200
FEATURES = 12


def write_libsvm(path, descending=False):
    rng = random.Random(7)
    with open(path, "w") as f:
        for _ in range(ROWS):
            values = {j: round(rng.uniform(-1.0, 1.0), 4)
                      for j in range(1, FEATURES + 1) if rng.random() < 0.6}
            score = values.get(1, 0.0) + 0.5 * values.get(2, 0.0)
            label = 1 if score + rng.gauss(0.0, 0.3) > 0.0 else 0
            cells = " ".join(f"{j}:{v}" for j, v in
                             sorted(values.items(), reverse=descending))
            f.write(f"{label} {cells}\n")


def run_case(cli, args, want_code, want_text):
    proc = subprocess.run([cli] + args, capture_output=True, text=True,
                          timeout=120)
    output = proc.stdout + proc.stderr
    label = " ".join(args)
    if proc.returncode != want_code:
        sys.exit(f"FAIL [{label}]: exit {proc.returncode}, want {want_code}"
                 f"\n{output}")
    if want_text not in output:
        sys.exit(f"FAIL [{label}]: output lacks {want_text!r}\n{output}")
    print(f"ok   [{label}]: exit {want_code}, {want_text!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="vero_train_cli binary")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "train.libsvm")
        model = os.path.join(tmp, "model.bin")
        write_libsvm(data)
        common = ["--data", data, "--workers", "2", "--layers", "4",
                  "--bins", "8"]
        run_case(args.cli, common + ["--trees", "0", "--quadrant", "qd1"], 1,
                 "training failed: InvalidArgument: num_trees == 0")
        run_case(args.cli,
                 common + ["--trees", "3", "--row-subsample", "0.5",
                           "--quadrant", "qd2"], 1,
                 "training failed: InvalidArgument: params.row_subsample")
        run_case(args.cli, common + ["--trees", "3", "--compression",
                                     "sparse"], 2,
                 "--compression requires --quadrant")
        run_case(args.cli,
                 common + ["--trees", "3", "--quadrant", "qd1",
                           "--compression", "sparse_delta", "--model", model],
                 0, "trained 3 trees on 2 simulated workers")
        if not os.path.getsize(model):
            sys.exit("FAIL: the clean run saved an empty model")
        shuffled = os.path.join(tmp, "shuffled.libsvm")
        write_libsvm(shuffled, descending=True)
        run_case(args.cli,
                 ["--data", shuffled] + common[2:] +
                 ["--trees", "3", "--quadrant", "qd2"], 1,
                 "failed to load data: Corruption: feature ids not strictly "
                 "increasing")
        huge_label = os.path.join(tmp, "huge_label.libsvm")
        with open(huge_label, "w") as f:
            f.write("0 1:0.5\n1 2:0.3\n2 1:0.1\n1000000000 2:0.2\n")
        run_case(args.cli,
                 ["--data", huge_label, "--task", "multiclass", "--trees", "2"],
                 1, "failed to load data: Corruption: label 1000000000 at "
                 "line 4")
    print("check_train_cli: all cases passed")


if __name__ == "__main__":
    main()
