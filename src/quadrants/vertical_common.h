#ifndef VERO_QUADRANTS_VERTICAL_COMMON_H_
#define VERO_QUADRANTS_VERTICAL_COMMON_H_

#include <span>
#include <vector>

#include "common/bitmap.h"
#include "core/node_indexer.h"
#include "quadrants/dist_common.h"

namespace vero {

/// Shared machinery of the vertical quadrants (QD3 / QD4): every worker
/// holds ALL instances restricted to its feature subset, computes gradients
/// for all instances (labels were broadcast by the transform), finds local
/// best splits on its own features only, and after a split the owning
/// worker broadcasts the instance placement as a bitmap (§2.2.1, §4.2.2).
class VerticalTrainerBase : public DistTrainerBase {
 public:
  VerticalTrainerBase(WorkerContext& ctx, const DistTrainOptions& options,
                      Task task, uint32_t num_classes,
                      const VerticalShard& shard);

 protected:
  bool OwnsAllRows() const override { return true; }
  uint32_t HistFeatureCount() const override {
    return static_cast<uint32_t>(shard_.owned_features.size());
  }
  const std::vector<FeatureId>& HistGlobalIds() const override {
    return shard_.owned_features;
  }
  std::vector<SplitCandidate> FindLayerSplits(
      const std::vector<NodeId>& frontier) override;
  void ApplyLayerSplits(const std::vector<NodeId>& nodes,
                        const std::vector<SplitCandidate>& splits,
                        std::vector<uint32_t>* child_counts) override;

  /// Placement of one node's instances under a split this worker owns: bit
  /// j of `go_left` (sized instances.size()) says whether instances[j] goes
  /// left. One batched call per split node, implemented against the
  /// quadrant's storage (row vs column lookup).
  virtual void FillGoLeft(std::span<const InstanceId> instances,
                          uint32_t local_feature, const SplitCandidate& split,
                          Bitmap* go_left) const = 0;

  /// Hook for extra index maintenance after partition_.Split (QD3 keeps an
  /// instance-to-node index as well).
  virtual void OnNodeSplit(NodeId node) { (void)node; }

  /// When true, split exchange goes through the master (gather + broadcast,
  /// Vero's flow); otherwise all-gather (Yggdrasil's flow).
  virtual bool MasterCoordinatesSplits() const = 0;

  const VerticalShard& shard_;
  /// local feature id of each global feature this worker owns
  /// (kInvalidFeature-marked entries are owned by other workers).
  std::vector<uint32_t> local_id_of_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_VERTICAL_COMMON_H_
