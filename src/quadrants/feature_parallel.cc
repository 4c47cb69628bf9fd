#include "quadrants/feature_parallel.h"

#include <numeric>

#include "common/bitmap.h"
#include "common/logging.h"

namespace vero {

FeatureParallelTrainer::FeatureParallelTrainer(WorkerContext& ctx,
                                               const DistTrainOptions& options,
                                               const Dataset& full,
                                               const CandidateSplits& splits)
    : DistTrainerBase(ctx, options, full.task(), full.num_classes()),
      splits_(splits),
      store_(BinnedRowStore::FromCsr(full.matrix(), splits)),
      num_rows_(full.num_instances()) {
  num_global_instances_ = num_rows_;
  labels_ = full.labels();
  margins_.assign(static_cast<size_t>(num_rows_) * dims_, 0.0);
  grads_ = GradientBuffer(num_rows_, dims_);
  const uint32_t d = full.num_features();
  feature_begin_ =
      static_cast<uint32_t>(ctx.SliceBegin(d, ctx.rank()));
  const uint32_t feature_end =
      static_cast<uint32_t>(ctx.SliceEnd(d, ctx.rank()));
  owned_features_.resize(feature_end - feature_begin_);
  std::iota(owned_features_.begin(), owned_features_.end(), feature_begin_);
}

uint64_t FeatureParallelTrainer::DataBytes() const {
  return store_.MemoryBytes() + labels_.capacity() * sizeof(float);
}

void FeatureParallelTrainer::InitTreeIndexes() {
  partition_.Init(num_rows_, options_.params.num_layers);
}

GradStats FeatureParallelTrainer::ComputeGradients() {
  ComputeGradientsParallel(*loss_, labels_, margins_, num_rows_,
                           options_.params.num_threads, &grads_);
  return grads_.Total();
}

void FeatureParallelTrainer::BuildLayerHistograms(
    const std::vector<BuildTask>& tasks) {
  // Row scans over the full copy, restricted to the owned feature slice
  // (feature-parallel histogram division); the builder maps global feature
  // f to histogram column f - feature_begin_.
  BuildRowLayer(store_, partition_, tasks, feature_begin_,
                feature_begin_ + static_cast<uint32_t>(owned_features_.size()),
                store_.num_features());
}

std::vector<SplitCandidate> FeatureParallelTrainer::FindLayerSplits(
    const std::vector<NodeId>& frontier) {
  std::vector<SplitCandidate> local(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    const Histogram* hist = pool_.Get(frontier[i]);
    local[i] = finder_.FindBest(*hist, node_stats_[frontier[i]],
                                owned_features_, splits_);
  }
  std::vector<std::vector<uint8_t>> all;
  MitigationOutcome outcome;
  VERO_COMM_OK(ctx_.AllGather(SerializeSplits(local), &all,
                              {.mitigation = options_.mitigation}, &outcome));
  std::vector<SplitCandidate> best;
  for (int r = 0; r < ctx_.world_size(); ++r) {
    if (!outcome.contributed[r]) continue;
    MergeBestSplits(DeserializeSplits(all[r]), &best);
  }
  return best;
}

void FeatureParallelTrainer::ApplyLayerSplits(
    const std::vector<NodeId>& nodes,
    const std::vector<SplitCandidate>& splits,
    std::vector<uint32_t>* child_counts) {
  // Every worker holds the full dataset: placement is local, no broadcast.
  child_counts->clear();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const SplitCandidate& s = splits[i];
    auto instances = partition_.Instances(nodes[i]);
    Bitmap go_left(instances.size());
    store_.FillGoLeft(instances, s.feature, s.split_bin, s.default_left,
                      &go_left);
    partition_.Split(nodes[i], go_left);
    child_counts->push_back(partition_.Count(LeftChild(nodes[i])));
    child_counts->push_back(partition_.Count(RightChild(nodes[i])));
  }
}

void FeatureParallelTrainer::UpdateMargins(const Tree& tree) {
  const double lr = options_.params.learning_rate;
  for (NodeId node = 0; node < static_cast<NodeId>(tree.max_nodes());
       ++node) {
    if (!partition_.Has(node)) continue;
    const std::vector<float>& w = tree.node(node).leaf_values;
    for (InstanceId i : partition_.Instances(node)) {
      for (uint32_t k = 0; k < dims_; ++k) {
        margins_[static_cast<size_t>(i) * dims_ + k] += lr * w[k];
      }
    }
  }
}

}  // namespace vero
