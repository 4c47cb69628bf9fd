#ifndef VERO_QUADRANTS_QD1_TRAINER_H_
#define VERO_QUADRANTS_QD1_TRAINER_H_

#include <vector>

#include "core/binned.h"
#include "core/node_indexer.h"
#include "quadrants/dist_common.h"

namespace vero {

/// QD1: horizontal partitioning + column-store (the XGBoost design). Each
/// worker holds a row shard stored column-wise, maintains an
/// instance-to-node index (no histogram subtraction — §3.2.3), builds the
/// whole layer's histograms in one column sweep, and all-reduces them so
/// every worker can enumerate all features for the best split.
class Qd1Trainer : public DistTrainerBase {
 public:
  Qd1Trainer(WorkerContext& ctx, const DistTrainOptions& options,
             const Dataset& shard, const CandidateSplits& splits,
             uint32_t num_global_instances);

  uint64_t DataBytes() const override;

 protected:
  bool UsesSubtraction() const override { return false; }
  bool OwnsAllRows() const override { return false; }
  uint32_t HistFeatureCount() const override;
  const std::vector<FeatureId>& HistGlobalIds() const override {
    return all_features_;
  }
  void InitTreeIndexes() override;
  void BuildLayerHistograms(const std::vector<BuildTask>& tasks) override;
  std::vector<SplitCandidate> FindLayerSplits(
      const std::vector<NodeId>& frontier) override;
  void ApplyLayerSplits(const std::vector<NodeId>& nodes,
                        const std::vector<SplitCandidate>& splits,
                        std::vector<uint32_t>* child_counts) override;
  void UpdateMargins(const Tree& tree) override;

 private:
  BinnedColumnStore store_;
  InstanceToNode node_of_;
  std::vector<FeatureId> all_features_;
  /// Maps a live node id to its slot in the current layer (-1 otherwise).
  std::vector<int32_t> slot_of_node_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_QD1_TRAINER_H_
