"""Helpers shared by the check_*.py validators: failure reporting, JSON
loading, and the two ways a checker drives the binary that emits what it
checks (a bench binary writing one output file, or a gtest filter writing
into a directory)."""

import argparse
import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile

# Messages are prefixed with the running checker's name, e.g. "check_trace".
NAME = os.path.splitext(os.path.basename(sys.argv[0]))[0]


def fail(msg):
    print(f"{NAME}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def load_json(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse {path}: {e}")


def run_emitter(cmd, env):
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(f"emitter {' '.join(cmd)} exited {proc.returncode}")


def run_gtest_emitter(binary, gtest_filter, dir_env):
    """Runs `binary --gtest_filter=FILTER` with the environment variable
    `dir_env` naming a fresh temp dir (removed at exit); returns the dir."""
    out_dir = tempfile.mkdtemp(prefix=f"{NAME}_")
    atexit.register(shutil.rmtree, out_dir, True)
    run_emitter([binary, f"--gtest_filter={gtest_filter}"],
                dict(os.environ, **{dir_env: out_dir}))
    return out_dir


def bench_main(validate, out_name, flags, env_defaults):
    """The driver of the check_bench_* scripts: `--json FILE` validates an
    already-emitted FILE; `--emitter BINARY` runs BINARY with `flags` and an
    output path `out_name` in a temp dir, under `env_defaults` unless the
    environment sets them (a tiny workload: the ctest entries check the
    contract, not scale), and validates what it wrote."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", help="validate an already-emitted file")
    parser.add_argument("--emitter",
                        help=f"run EMITTER {' '.join(flags)} {out_name}")
    args = parser.parse_args()
    if bool(args.json) == bool(args.emitter):
        parser.error("pass exactly one of --json / --emitter")
    if args.json:
        validate(args.json)
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, out_name)
        run_emitter([args.emitter, *flags, out],
                    {**env_defaults, **os.environ})
        validate(out)
