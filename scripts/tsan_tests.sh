#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the cluster / communicator / fault-tolerance test binaries. Races in the
# simulated cluster substrate (barrier, collectives, fault injection,
# recovery orchestration) show up here long before they corrupt an
# experiment. edge_cases_test runs QD2 with more workers than features,
# where a rank with an empty feature slice still has its pool histograms
# read in place by its peers during the layer exchange.
#
#   scripts/tsan_tests.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"
TESTS=(
  communicator_test communicator_stress_test fault_tolerance_test
  elastic_recovery_test elasticity_test checkpoint_rotation_test
  delta_checkpoint_test straggler_mitigation_test integrity_test
  codec_test threading_test hist_builder_test dist_trainer_test obs_test
  anatomy_test serve_test edge_cases_test
)

cmake -B "$BUILD_DIR" -DVERO_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target "${TESTS[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
for t in "${TESTS[@]}"; do
  echo "== TSan: $t =="
  "$BUILD_DIR/tests/$t"
done
echo "All TSan test binaries passed."
