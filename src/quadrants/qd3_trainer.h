#ifndef VERO_QUADRANTS_QD3_TRAINER_H_
#define VERO_QUADRANTS_QD3_TRAINER_H_

#include <vector>

#include "core/binned.h"
#include "core/hist_builder.h"
#include "quadrants/vertical_common.h"

namespace vero {

/// QD3: vertical partitioning + column-store (the Yggdrasil family). Each
/// worker stores its feature subset as columns over all instances and
/// combines an instance-to-node index (for linear column scans) with the
/// node-to-instance index (for per-node binary searches + subtraction).
/// `scan` is the index plan (§5.2.2, Appendix C): kAuto picks per column
/// whichever is cheaper (the paper's QD3); kLinear and kBinarySearch force
/// one index for every column.
class Qd3Trainer : public VerticalTrainerBase {
 public:
  Qd3Trainer(WorkerContext& ctx, const DistTrainOptions& options, Task task,
             uint32_t num_classes, const VerticalShard& shard,
             HistogramBuilder::ColumnScan scan =
                 HistogramBuilder::ColumnScan::kAuto);

  uint64_t DataBytes() const override;

 protected:
  void InitTreeIndexes() override;
  void BuildLayerHistograms(const std::vector<BuildTask>& tasks) override;
  void FillGoLeft(std::span<const InstanceId> instances,
                  uint32_t local_feature, const SplitCandidate& split,
                  Bitmap* go_left) const override;
  void OnNodeSplit(NodeId node) override;
  bool MasterCoordinatesSplits() const override { return false; }

 private:
  BinnedColumnStore store_;  ///< Columns indexed by local feature id.
  InstanceToNode node_of_;
  HistogramBuilder::ColumnScan scan_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_QD3_TRAINER_H_
