#include "core/hist_builder.h"

#include <cmath>

namespace vero {

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
