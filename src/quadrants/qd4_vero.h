#ifndef VERO_QUADRANTS_QD4_VERO_H_
#define VERO_QUADRANTS_QD4_VERO_H_

#include "quadrants/vertical_common.h"

namespace vero {

/// QD4 — Vero: vertical partitioning + row-store (§4.2). Each worker trains
/// on a blockified column group (all instances x owned features, quantized),
/// builds histograms with the node-to-instance index and histogram
/// subtraction, routes split decisions through the master, and broadcasts
/// placement bitmaps after node splits.
class Qd4VeroTrainer : public VerticalTrainerBase {
 public:
  Qd4VeroTrainer(WorkerContext& ctx, const DistTrainOptions& options,
                 Task task, uint32_t num_classes, const VerticalShard& shard);

  uint64_t DataBytes() const override;

 protected:
  void BuildLayerHistograms(const std::vector<BuildTask>& tasks) override;
  void FillGoLeft(std::span<const InstanceId> instances,
                  uint32_t local_feature, const SplitCandidate& split,
                  Bitmap* go_left) const override;
  bool MasterCoordinatesSplits() const override { return true; }

 private:
};

}  // namespace vero

#endif  // VERO_QUADRANTS_QD4_VERO_H_
