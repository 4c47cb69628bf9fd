#include "quadrants/qd4_vero.h"

#include "common/logging.h"

namespace vero {

Qd4VeroTrainer::Qd4VeroTrainer(WorkerContext& ctx,
                               const DistTrainOptions& options, Task task,
                               uint32_t num_classes,
                               const VerticalShard& shard)
    : VerticalTrainerBase(ctx, options, task, num_classes, shard) {}

uint64_t Qd4VeroTrainer::DataBytes() const {
  return shard_.data.MemoryBytes() + labels_.capacity() * sizeof(float);
}

void Qd4VeroTrainer::BuildLayerHistograms(const std::vector<BuildTask>& tasks) {
  // Row scans over the blockified column group: the node-to-instance index
  // yields each build node's rows; each row is already (local feature, bin)
  // pairs, so the shared row-store layer build applies directly.
  BuildRowLayer(shard_.data, partition_, tasks, 0, HistFeatureCount(),
                HistFeatureCount());
}

void Qd4VeroTrainer::FillGoLeft(std::span<const InstanceId> instances,
                                uint32_t local_feature,
                                const SplitCandidate& split,
                                Bitmap* go_left) const {
  // Row-store lookup: a block cursor, then a binary search inside each row.
  shard_.data.FillGoLeft(instances, local_feature, split.split_bin,
                         split.default_left, go_left);
}

}  // namespace vero
