#ifndef VERO_QUADRANTS_TRAIN_DISTRIBUTED_H_
#define VERO_QUADRANTS_TRAIN_DISTRIBUTED_H_

#include "cluster/communicator.h"
#include "core/hist_builder.h"
#include "data/dataset.h"
#include "quadrants/dist_common.h"
#include "quadrants/quadrant.h"

namespace vero {

/// Runs one full distributed training job on the simulated cluster:
/// shards `train` horizontally by rank order, executes the quadrant's SPMD
/// pipeline (including the horizontal-to-vertical transform for QD3/QD4 and
/// the distributed candidate-split pipeline for QD1/QD2), and aggregates
/// the cluster-level cost model.
///
/// `valid` (optional) is evaluated on rank 0 after every round so the
/// convergence curve in the result mirrors Figure 11. `qd3_scan` is QD3's
/// index plan (see Qd3Trainer); other quadrants ignore it.
DistResult TrainDistributed(Cluster& cluster, const Dataset& train,
                            Quadrant quadrant,
                            const DistTrainOptions& options,
                            const Dataset* valid = nullptr,
                            HistogramBuilder::ColumnScan qd3_scan =
                                HistogramBuilder::ColumnScan::kAuto);

}  // namespace vero

#endif  // VERO_QUADRANTS_TRAIN_DISTRIBUTED_H_
