#include "quadrants/feature_parallel.h"

#include <numeric>

#include "common/logging.h"

namespace vero {

FeatureParallelTrainer::FeatureParallelTrainer(WorkerContext& ctx,
                                               const DistTrainOptions& options,
                                               const Dataset& full,
                                               const CandidateSplits& splits)
    : DistTrainerBase(ctx, options, full.task(), full.num_classes(), splits,
                      full.labels(), full.num_instances()),
      store_(BinnedRowStore::FromCsr(full.matrix(), splits)) {
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
  return AllGatherBestSplits(LocalBestSplits(frontier));
}

void FeatureParallelTrainer::ApplyLayerSplits(
    const std::vector<NodeId>& nodes,
    const std::vector<SplitCandidate>& splits,
    std::vector<uint32_t>* child_counts) {
  // Every worker holds the full dataset: placement is local, no broadcast.
  SplitRowStore(store_, nodes, splits, child_counts);
}

}  // namespace vero
