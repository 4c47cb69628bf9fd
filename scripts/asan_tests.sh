#!/usr/bin/env bash
# Builds the recovery / checkpoint / straggler test binaries under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs them. The elastic
# paths tear clusters down mid-collective and re-adopt fault injectors
# across incarnations, so lifetime bugs (use-after-free of worker state,
# out-of-bounds shard math after a resize) show up here first; UBSan guards
# the wire-format arithmetic in the delta-checkpoint and histogram-
# compression codecs. dist_trainer_test drives every quadrant end to end,
# including QD1's segmented reduce-scatter/all-gather AllReduceSum, where
# peers read each rank's pool histograms in place while each rank writes its
# reduced slice into its own. The build is Debug so VERO_DCHECK and the
# cross-rank byte-symmetry check of AllToAllSum's codec layer
# (DebugCheckCodecSymmetry, W > 1), which compile out under NDEBUG, run
# too. obs_test and anatomy_test drive
# the driver's attempt loop and its end-of-run report and counters.
# libsvm_test runs the LIBSVM parser and Dataset::Validate, the input
# boundary that rejects malformed and non-canonical rows, over every
# truncation and byte substitution of two small files. threading_test
# and hist_builder_test drive the shared ParallelFor pool, whose helper
# threads read per-call state that lives on the calling thread's stack.
# edge_cases_test runs QD2 with more workers than features: peers read each
# other's pool histograms in place during the layer exchange (AllToAllSum),
# and some ranks own an empty feature slice. bitmap_test, column_group_test
# (the row store's tests), binned_test and node_indexer_test cover batched
# split placement: the word-at-a-time Bitmap::Fill (shifts by up to 63 bits,
# the partial tail word), the block cursor's unsigned range test in
# BinnedRowStore::FillGoLeft, the forward column search in
# BinnedColumnStore::FillGoLeft, and the
# branch-free RowPartition::Split that writes every instance to both of its
# cursors. split_test runs SplitFinder::FindBest's scan, which walks raw
# column pointers into the node histogram, against its bitwise oracle.
# column_group_test also cuts BinnedRowStore::FromCsr's blocks from the
# matrix's row pointers, and with binned_test walks the row store with its
# block cursor into columns (BinnedColumnStore::FromRows).
# transform_property_test decodes dense column-group blocks (bins only,
# indexed by r*w) and merges them across every worker count and encoding.
# model_io_test's bit-flip, truncation and trailing-bytes cases drive the
# shared frame reader (ReadFrame) that every persisted record goes through.
# quantile_summary_test, candidate_splits_test and transform_test cover the
# set-up path: the per-shard summary builder (a scatter through
# per-feature cursors, batches radix-sorted in place with raw
# digit-indexed stores), the summary decode (a count checked before
# anything is sized from it, entries copied in one block) and the sketch
# and split record readers, fed every truncation and field flip of valid
# messages, the branch-free BinForValue (pointer steps and a 16-split
# count window in the split table), the transform encode's stores through
# per-destination cursors into exact-size messages, and the block
# decoder's fixed-width loads, fed every truncation of a valid message.
#
#   scripts/asan_tests.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
TESTS=(
  fault_tolerance_test elastic_recovery_test elasticity_test
  checkpoint_rotation_test delta_checkpoint_test integrity_test
  straggler_mitigation_test codec_test communicator_test
  communicator_stress_test serve_test dist_trainer_test obs_test
  anatomy_test libsvm_test threading_test hist_builder_test edge_cases_test
  bitmap_test column_group_test binned_test node_indexer_test split_test
  transform_property_test model_io_test quantile_summary_test
  candidate_splits_test transform_test
)

cmake -B "$BUILD_DIR" -DVERO_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" --target "${TESTS[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
for t in "${TESTS[@]}"; do
  echo "== ASan/UBSan: $t =="
  "$BUILD_DIR/tests/$t"
done
echo "All ASan/UBSan test binaries passed."
