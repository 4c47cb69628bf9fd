#ifndef VERO_QUADRANTS_QD2_TRAINER_H_
#define VERO_QUADRANTS_QD2_TRAINER_H_

#include <vector>

#include "core/binned.h"
#include "quadrants/dist_common.h"

namespace vero {

/// QD2: horizontal partitioning + row-store (the LightGBM / DimBoost
/// design). Each worker holds a row shard binned over the full feature
/// space, maintains a node-to-instance index with histogram subtraction,
/// aggregates histograms with a feature-sliced reduce-scatter, finds splits
/// on its feature slice, and exchanges per-node local bests. The
/// reduce-scatter (WorkerContext::AllToAllSum) sums the slice straight out
/// of the peers' pool histograms into `slice_sums_`.
class Qd2Trainer : public DistTrainerBase {
 public:
  /// `shard` is this worker's contiguous row range (global feature space);
  /// `splits` must be the shared distributed candidate-split table.
  Qd2Trainer(WorkerContext& ctx, const DistTrainOptions& options,
             const Dataset& shard, const CandidateSplits& splits,
             uint32_t num_global_instances);

  uint64_t DataBytes() const override;

 protected:
  bool OwnsAllRows() const override { return false; }
  uint32_t HistFeatureCount() const override;
  const std::vector<FeatureId>& HistGlobalIds() const override {
    return all_features_;
  }
  void BuildLayerHistograms(const std::vector<BuildTask>& tasks) override;
  std::vector<SplitCandidate> FindLayerSplits(
      const std::vector<NodeId>& frontier) override;
  void ApplyLayerSplits(const std::vector<NodeId>& nodes,
                        const std::vector<SplitCandidate>& splits,
                        std::vector<uint32_t>* child_counts) override;

 private:
  BinnedRowStore store_;
  std::vector<FeatureId> all_features_;
  /// Global ids of this rank's feature slice.
  std::vector<FeatureId> slice_ids_;
  /// Per frontier position: the aggregated histogram of this rank's feature
  /// slice. Grows to the widest layer and is reused.
  std::vector<Histogram> slice_sums_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_QD2_TRAINER_H_
