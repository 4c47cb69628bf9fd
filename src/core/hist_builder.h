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

  /// Builds every task's histogram by scanning its rows of a row store
  /// (BinnedRowStore or ColumnGroup: anything with ForEachRow).
  /// Row entries must be sorted by feature id. Only features in
  /// [feature_begin, feature_end) are accumulated, into histogram column
  /// f - feature_begin (the feature-parallel slice convention; pass 0 / D
  /// for a full-width store). `store_num_features` is the number of feature
  /// ids that can appear in the store — it gates the no-bounds-check fast
  /// path when the window covers the whole store.
  template <typename Store>
  void BuildRowStoreLayer(const Store& store, const GradientBuffer& grads,
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

namespace histdetail {

/// Row scan with no feature-window checks: every entry of every row lands in
/// the histogram. dims==1 hoists (g, h) out of the entry loop and addresses
/// the flat double buffer directly.
template <typename Store>
void AccumulateRowsFull(const Store& store, const GradientBuffer& grads,
                        Histogram* hist, std::span<const InstanceId> rows) {
  if (hist->num_dims() == 1) {
    double* data = hist->raw_data();
    const size_t q = hist->num_bins();
    store.ForEachRow(rows, [&](InstanceId i, auto features, auto bins) {
      const GradPair* grad = grads.row(i);
      const double g = grad->g;
      const double h = grad->h;
      for (size_t k = 0; k < features.size(); ++k) {
        const size_t cell =
            2 * (static_cast<size_t>(features[k]) * q + bins[k]);
        data[cell] += g;
        data[cell + 1] += h;
      }
    });
  } else {
    store.ForEachRow(rows, [&](InstanceId i, auto features, auto bins) {
      const GradPair* grad = grads.row(i);
      for (size_t k = 0; k < features.size(); ++k) {
        hist->Add(features[k], bins[k], grad);
      }
    });
  }
}

/// Row scan restricted to features in [fb, fe), accumulated into histogram
/// column f - origin. Row entries are sorted by feature id, so each row
/// jumps to the window start and stops at its end; within the window the
/// entry order — hence the floating-point accumulation order — matches the
/// full serial scan.
template <typename Store>
void AccumulateRowsWindow(const Store& store, const GradientBuffer& grads,
                          Histogram* hist, std::span<const InstanceId> rows,
                          uint32_t origin, uint32_t fb, uint32_t fe) {
  const bool one_dim = hist->num_dims() == 1;
  double* data = hist->raw_data();
  const size_t q = hist->num_bins();
  store.ForEachRow(rows, [&](InstanceId i, auto features, auto bins) {
    const GradPair* grad = grads.row(i);
    size_t k = 0;
    if (fb != 0) {
      k = static_cast<size_t>(
          std::lower_bound(features.begin(), features.end(), fb) -
          features.begin());
    }
    if (one_dim) {
      const double g = grad->g;
      const double h = grad->h;
      for (; k < features.size() && features[k] < fe; ++k) {
        const size_t cell =
            2 * ((static_cast<size_t>(features[k]) - origin) * q + bins[k]);
        data[cell] += g;
        data[cell + 1] += h;
      }
    } else {
      for (; k < features.size() && features[k] < fe; ++k) {
        hist->Add(features[k] - origin, bins[k], grad);
      }
    }
  });
}

}  // namespace histdetail

template <typename Store>
void HistogramBuilder::BuildRowStoreLayer(const Store& store,
                                          const GradientBuffer& grads,
                                          std::span<const NodeRows> tasks,
                                          uint32_t feature_begin,
                                          uint32_t feature_end,
                                          uint32_t store_num_features) {
  if (tasks.empty() || feature_end <= feature_begin) {
    last_build_seconds_ = 0.0;
    last_threads_used_ = 1;
    return;
  }
  // Blocks form a task x feature-range grid. The node axis is free
  // parallelism (each task's rows are scanned exactly once, as in the
  // serial build); the feature axis costs a per-row lower_bound and a
  // redundant traversal of the row entries outside the window, so it is
  // only split when there are fewer tasks than threads (e.g. the root
  // build). f_blocks = ceil(T / tasks) keeps every thread busy while
  // bounding the redundant-scan factor at that ratio.
  const uint32_t width = feature_end - feature_begin;
  const size_t f_blocks = std::min<size_t>(
      width, (num_threads_ + tasks.size() - 1) / tasks.size());
  const size_t num_blocks = tasks.size() * f_blocks;
  RunBlocks(num_blocks, [&](size_t block) {
    const NodeRows& task = tasks[block / f_blocks];
    const size_t fr = block % f_blocks;
    const uint32_t fb =
        feature_begin + static_cast<uint32_t>(width * fr / f_blocks);
    const uint32_t fe =
        feature_begin + static_cast<uint32_t>(width * (fr + 1) / f_blocks);
    if (fb == 0 && fe >= store_num_features) {
      histdetail::AccumulateRowsFull(store, grads, task.hist, task.rows);
    } else {
      histdetail::AccumulateRowsWindow(store, grads, task.hist, task.rows,
                                       feature_begin, fb, fe);
    }
  });
}

}  // namespace vero

#endif  // VERO_CORE_HIST_BUILDER_H_
