#ifndef VERO_CORE_HIST_BUILDER_H_
#define VERO_CORE_HIST_BUILDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/threading.h"
#include "common/timer.h"
#include "core/binned.h"
#include "core/gradients.h"
#include "core/histogram.h"
#include "core/node_indexer.h"
#include "data/types.h"

namespace vero {

/// Shared histogram-construction subsystem (§2.1.2): one-sweep multi-node
/// layer builds over a row store or column store, with optional intra-worker
/// parallelism.
///
/// Determinism contract: parallelism partitions the OUTPUT (histogram
/// feature columns for row stores, whole columns for column stores), never
/// the input rows. Every histogram cell therefore has exactly one writer
/// that visits its contributions in the same order as the serial scan, so
/// the result is bit-identical to the serial build — and to the pre-builder
/// scalar loops — for any thread count (see docs/performance.md).
class HistogramBuilder {
 public:
  HistogramBuilder() = default;
  explicit HistogramBuilder(uint32_t num_threads)
      : num_threads_(num_threads == 0 ? 1 : num_threads) {}

  uint32_t num_threads() const { return num_threads_; }

  /// Wall seconds and thread count of the most recent Build* call.
  double last_build_seconds() const { return last_build_seconds_; }
  uint32_t last_threads_used() const { return last_threads_used_; }

  /// One frontier node's histogram-construction assignment: scan `rows` into
  /// `hist`. All tasks of a layer build are accumulated in a single pass.
  struct NodeRows {
    Histogram* hist = nullptr;
    std::span<const InstanceId> rows;
  };

  /// Per-column scan strategy for column-store layer builds (QD3, §5.2.2).
  enum class ColumnScan {
    kLinear,        ///< One pass over the column via the instance-to-node map.
    kBinarySearch,  ///< Per build node, FindBin for each of its instances.
    kAuto,          ///< Per column, whichever the cost model says is cheaper.
  };

  /// Builds every task's histogram by walking its rows of the row store
  /// with the store's block cursor (BinnedRowStore::ForEachRow). Only
  /// features in [feature_begin, feature_end) are accumulated, into
  /// histogram column f - feature_begin (the feature-parallel slice
  /// convention; pass 0 / D for a full-width store). `store_num_features`
  /// is the number of feature ids that can appear in the store — it gates
  /// the no-bounds-check fast path when the window covers the whole store.
  void BuildRowStoreLayer(const BinnedRowStore& store,
                          const GradientBuffer& grads,
                          std::span<const NodeRows> tasks,
                          uint32_t feature_begin, uint32_t feature_end,
                          uint32_t store_num_features);

  /// One sweep over all columns builds every frontier node at once, driven
  /// by the instance-to-node index (the XGBoost layer pass; QD1).
  /// `hist_of_node` maps NodeId -> histogram, nullptr for finished leaves.
  void BuildColumnStoreSweep(const BinnedColumnStore& store,
                             const GradientBuffer& grads,
                             const InstanceToNode& node_of,
                             std::span<Histogram* const> hist_of_node);

  /// Column-store layer build with a per-column scan-strategy choice (QD3):
  /// kAuto compares one linear pass (cost = nnz) against per-node binary
  /// searches (cost = build_instances * log2(nnz + 2)).
  void BuildColumnStoreLayer(const BinnedColumnStore& store,
                             const GradientBuffer& grads,
                             const InstanceToNode& node_of,
                             const RowPartition& partition,
                             std::span<const NodeId> build_nodes,
                             std::span<Histogram* const> hist_of_node,
                             ColumnScan policy);

  /// Serial accumulation of pre-materialized (feature, bin) entries that all
  /// share one gradient row (advisor calibration, tests).
  static void AccumulateEntries(Histogram* hist,
                                std::span<const FeatureId> features,
                                std::span<const BinId> bins,
                                const GradPair* grad_row);

 private:
  /// Runs fn(b) for b in [0, num_blocks) on min(num_threads, num_blocks)
  /// threads of the shared ParallelFor pool. Blocks are claimed dynamically
  /// — legal because every block writes a disjoint set of histogram cells,
  /// so the schedule cannot change the result. One thread is the plain loop.
  /// Records last_build_seconds / last_threads_used.
  template <typename Fn>
  void RunBlocks(size_t num_blocks, const Fn& fn) {
    WallTimer timer;
    const size_t threads =
        std::max<size_t>(1, std::min<size_t>(num_threads_, num_blocks));
    last_threads_used_ = static_cast<uint32_t>(threads);
    if (threads == 1) {
      for (size_t b = 0; b < num_blocks; ++b) fn(b);
    } else {
      ParallelFor(num_blocks, threads, fn);
    }
    timer.Stop();
    last_build_seconds_ = timer.Seconds();
  }

  uint32_t num_threads_ = 1;
  double last_build_seconds_ = 0.0;
  uint32_t last_threads_used_ = 1;
};

}  // namespace vero

#endif  // VERO_CORE_HIST_BUILDER_H_
