#include "core/hist_builder.h"

#include <cmath>

namespace vero {
namespace {

/// Row scan with no feature-window checks: every entry of every row lands in
/// the histogram. dims==1 hoists (g, h) out of the entry loop and addresses
/// the flat double buffer directly.
void AccumulateRowsFull(const BinnedRowStore& store,
                        const GradientBuffer& grads, Histogram* hist,
                        std::span<const InstanceId> rows) {
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
void AccumulateRowsWindow(const BinnedRowStore& store,
                          const GradientBuffer& grads, Histogram* hist,
                          std::span<const InstanceId> rows, uint32_t origin,
                          uint32_t fb, uint32_t fe) {
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

}  // namespace

void HistogramBuilder::BuildRowStoreLayer(const BinnedRowStore& store,
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
      AccumulateRowsFull(store, grads, task.hist, task.rows);
    } else {
      AccumulateRowsWindow(store, grads, task.hist, task.rows, feature_begin,
                           fb, fe);
    }
  });
}

void HistogramBuilder::BuildColumnStoreSweep(
    const BinnedColumnStore& store, const GradientBuffer& grads,
    const InstanceToNode& node_of, std::span<Histogram* const> hist_of_node) {
  // Whole columns are the parallel unit: column f only ever touches
  // histogram column f, so blocks write disjoint cells and the per-cell
  // entry order stays the serial column order.
  RunBlocks(store.num_features(), [&](size_t f) {
    const auto rows = store.ColumnRows(static_cast<FeatureId>(f));
    const auto bins = store.ColumnBins(static_cast<FeatureId>(f));
    for (size_t k = 0; k < rows.size(); ++k) {
      Histogram* hist = hist_of_node[node_of.Get(rows[k])];
      if (hist == nullptr) continue;  // Instance rests on a finished leaf.
      hist->Add(static_cast<uint32_t>(f), bins[k], grads.row(rows[k]));
    }
  });
}

void HistogramBuilder::BuildColumnStoreLayer(
    const BinnedColumnStore& store, const GradientBuffer& grads,
    const InstanceToNode& node_of, const RowPartition& partition,
    std::span<const NodeId> build_nodes,
    std::span<Histogram* const> hist_of_node, ColumnScan policy) {
  uint64_t build_instances = 0;
  for (const NodeId node : build_nodes) {
    build_instances += partition.Count(node);
  }
  RunBlocks(store.num_features(), [&](size_t fi) {
    const auto f = static_cast<FeatureId>(fi);
    const uint64_t nnz = store.ColumnLength(f);
    if (nnz == 0) return;
    // Per column: either one linear scan that serves every build node via
    // the instance-to-node index, or per-node binary searches via the
    // node-to-instance index — whichever touches less data (§5.2.2).
    const double cost_linear = static_cast<double>(nnz);
    const double cost_binary = static_cast<double>(build_instances) *
                               std::log2(static_cast<double>(nnz) + 2.0);
    const bool linear =
        policy == ColumnScan::kLinear ||
        (policy == ColumnScan::kAuto && cost_linear <= cost_binary);
    if (linear) {
      const auto rows = store.ColumnRows(f);
      const auto bins = store.ColumnBins(f);
      for (size_t k = 0; k < rows.size(); ++k) {
        Histogram* hist = hist_of_node[node_of.Get(rows[k])];
        if (hist == nullptr) continue;
        hist->Add(f, bins[k], grads.row(rows[k]));
      }
    } else {
      for (const NodeId node : build_nodes) {
        Histogram* hist = hist_of_node[node];
        for (const InstanceId i : partition.Instances(node)) {
          const auto bin = store.FindBin(f, i);
          if (bin.has_value()) hist->Add(f, *bin, grads.row(i));
        }
      }
    }
  });
}

void HistogramBuilder::AccumulateEntries(Histogram* hist,
                                         std::span<const FeatureId> features,
                                         std::span<const BinId> bins,
                                         const GradPair* grad_row) {
  if (hist->num_dims() == 1) {
    double* data = hist->raw_data();
    const size_t q = hist->num_bins();
    const double g = grad_row->g;
    const double h = grad_row->h;
    for (size_t k = 0; k < features.size(); ++k) {
      const size_t cell = 2 * (static_cast<size_t>(features[k]) * q + bins[k]);
      data[cell] += g;
      data[cell + 1] += h;
    }
  } else {
    for (size_t k = 0; k < features.size(); ++k) {
      hist->Add(features[k], bins[k], grad_row);
    }
  }
}

}  // namespace vero
