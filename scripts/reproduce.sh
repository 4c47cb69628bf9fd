#!/usr/bin/env bash
# Builds the repo, runs the full test suite, and regenerates every table
# and figure of the paper's evaluation. The logs land in the (gitignored)
# build directory: build/test_output.txt and build/bench_output.txt.
#
#   scripts/reproduce.sh [scale]
#
# `scale` multiplies workload sizes (default 1.0; see VERO_SCALE in README).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1.0}"

# The default generator, as in the README's build line and ROADMAP's tier-1
# verify command, so a build/ that either configured is reused, not
# rejected for a generator mismatch.
cmake -B build -S .
cmake --build build
ctest --test-dir build --output-on-failure 2>&1 | tee build/test_output.txt

export VERO_SCALE="$SCALE"
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done 2>&1 | tee build/bench_output.txt
