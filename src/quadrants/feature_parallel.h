#ifndef VERO_QUADRANTS_FEATURE_PARALLEL_H_
#define VERO_QUADRANTS_FEATURE_PARALLEL_H_

#include <vector>

#include "core/binned.h"
#include "quadrants/dist_common.h"

namespace vero {

/// Feature-parallel LightGBM (Appendix D): the dataset is NOT partitioned —
/// every worker loads a full copy. Histogram construction and split finding
/// are divided by feature subset (like vertical partitioning), but node
/// splitting is local on every worker (like horizontal partitioning), so
/// the only communication is the per-layer exchange of local best splits.
/// The cost is W copies of the dataset in memory, which is why the paper
/// rules it out for large-scale workloads.
class FeatureParallelTrainer : public DistTrainerBase {
 public:
  /// `full` is the complete dataset (identical on every worker).
  FeatureParallelTrainer(WorkerContext& ctx, const DistTrainOptions& options,
                         const Dataset& full, const CandidateSplits& splits);

  uint64_t DataBytes() const override;

 protected:
  bool OwnsAllRows() const override { return true; }
  uint32_t HistFeatureCount() const override {
    return static_cast<uint32_t>(owned_features_.size());
  }
  const std::vector<FeatureId>& HistGlobalIds() const override {
    return owned_features_;
  }
  void BuildLayerHistograms(const std::vector<BuildTask>& tasks) override;
  std::vector<SplitCandidate> FindLayerSplits(
      const std::vector<NodeId>& frontier) override;
  void ApplyLayerSplits(const std::vector<NodeId>& nodes,
                        const std::vector<SplitCandidate>& splits,
                        std::vector<uint32_t>* child_counts) override;

 private:
  BinnedRowStore store_;        ///< Full dataset, global feature ids.
  /// This worker's feature slice [begin, end) as global ids.
  std::vector<FeatureId> owned_features_;
  uint32_t feature_begin_ = 0;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_FEATURE_PARALLEL_H_
