#include "quadrants/qd1_trainer.h"

#include <numeric>
#include <span>

#include "common/logging.h"

namespace vero {

Qd1Trainer::Qd1Trainer(WorkerContext& ctx, const DistTrainOptions& options,
                       const Dataset& shard, const CandidateSplits& splits,
                       uint32_t num_global_instances)
    : DistTrainerBase(ctx, options, shard.task(), shard.num_classes(),
                      splits, shard.labels(), num_global_instances),
      store_(BinnedColumnStore::FromCsr(shard.matrix(), splits)) {
  all_features_.resize(shard.num_features());
  std::iota(all_features_.begin(), all_features_.end(), FeatureId{0});
  slot_of_node_.assign((size_t{1} << options.params.num_layers) - 1, -1);
}

uint64_t Qd1Trainer::DataBytes() const {
  return store_.MemoryBytes() + labels_.capacity() * sizeof(float);
}

uint32_t Qd1Trainer::HistFeatureCount() const {
  return static_cast<uint32_t>(all_features_.size());
}

void Qd1Trainer::InitTreeIndexes() { node_of_.Init(num_rows()); }

void Qd1Trainer::BuildLayerHistograms(const std::vector<BuildTask>& tasks) {
  const uint32_t q = options_.params.num_candidate_splits;
  // One sweep over all columns builds every frontier node at once, driven
  // by the instance-to-node index (the XGBoost layer pass).
  std::vector<Histogram*> hists((size_t{1} << options_.params.num_layers) - 1,
                                nullptr);
  for (const BuildTask& task : tasks) {
    VERO_CHECK_EQ(task.subtract_node, kInvalidNode);
    hists[task.build_node] =
        pool_.Acquire(task.build_node, HistFeatureCount(), q, dims_);
  }
  builder_.BuildColumnStoreSweep(store_, grads_, node_of_, hists);
}

std::vector<SplitCandidate> Qd1Trainer::FindLayerSplits(
    const std::vector<NodeId>& frontier) {
  const uint32_t q = options_.params.num_candidate_splits;
  const size_t per_node =
      static_cast<size_t>(HistFeatureCount()) * q * dims_ * 2;
  // All-reduce the layer's pool histograms in place; afterwards every
  // worker holds the aggregated histograms (XGBoost then lets each worker
  // evaluate all features redundantly — deterministic, so no extra
  // broadcast). Peers read the pool buffers until the call returns.
  std::vector<double*> parts(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    Histogram* hist = pool_.Get(frontier[i]);
    VERO_DCHECK_EQ(hist->raw_size(), per_node);
    parts[i] = hist->raw_data();
  }
  VERO_COMM_OK(
      ctx_.AllReduceSum(parts, per_node, {codec_, options_.mitigation}));
  if (auditor_.enabled()) {
    // Every worker now holds a replica of the aggregated layer histograms;
    // a digest mismatch pins silent transport corruption on the dissenting
    // rank by majority vote.
    auditor_.PushReplicatedDoubles("qd1-hist-allreduce",
                                   {parts.data(), parts.size()}, per_node);
  }
  return LocalBestSplits(frontier);
}

void Qd1Trainer::ApplyLayerSplits(const std::vector<NodeId>& nodes,
                                  const std::vector<SplitCandidate>& splits,
                                  std::vector<uint32_t>* child_counts) {
  // Pass 1: instances present in a split feature's column move by value.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const SplitCandidate& s = splits[i];
    auto rows = store_.ColumnRows(s.feature);
    auto bins = store_.ColumnBins(s.feature);
    for (size_t k = 0; k < rows.size(); ++k) {
      if (node_of_.Get(rows[k]) != nodes[i]) continue;
      node_of_.Set(rows[k], bins[k] <= s.split_bin ? LeftChild(nodes[i])
                                                   : RightChild(nodes[i]));
    }
    slot_of_node_[nodes[i]] = static_cast<int32_t>(i);
  }
  // Pass 2: one scan moves the remaining (missing-value) instances to the
  // default child of whichever node they still sit on.
  std::vector<double> counts(2 * nodes.size(), 0.0);
  for (InstanceId i = 0; i < num_rows(); ++i) {
    const NodeId node = node_of_.Get(i);
    NodeId resolved = node;
    if (static_cast<size_t>(node) < slot_of_node_.size() &&
        slot_of_node_[node] >= 0) {
      const size_t slot = static_cast<size_t>(slot_of_node_[node]);
      resolved = splits[slot].default_left ? LeftChild(node)
                                           : RightChild(node);
      node_of_.Set(i, resolved);
    }
    // Count children of this layer.
    const NodeId parent = Parent(resolved);
    if (resolved > 0 && static_cast<size_t>(parent) < slot_of_node_.size() &&
        slot_of_node_[parent] >= 0) {
      const size_t slot = static_cast<size_t>(slot_of_node_[parent]);
      counts[2 * slot + (IsLeftChild(resolved) ? 0 : 1)] += 1.0;
    }
  }
  for (NodeId node : nodes) slot_of_node_[node] = -1;
  ReduceChildCounts(counts, child_counts);
}

void Qd1Trainer::UpdateMargins(const Tree& tree) {
  const double lr = options_.params.learning_rate;
  for (InstanceId i = 0; i < num_rows(); ++i) {
    const NodeId node = node_of_.Get(i);
    VERO_DCHECK(tree.Exists(node));
    const std::vector<float>& w = tree.node(node).leaf_values;
    for (uint32_t k = 0; k < dims_; ++k) {
      margins_[static_cast<size_t>(i) * dims_ + k] += lr * w[k];
    }
  }
}

}  // namespace vero
