#ifndef VERO_PERFBENCH_LAYERS_H_
#define VERO_PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "obs/report.h"
#include "workload.h"

namespace perfbench {

/// One per-layer metric: its name (module.quantity), unit, and the
/// end-to-end metric and workloads it is expected to move.
struct LayerMetric {
  std::string name;
  const char* unit;
  const char* moves;
};

/// Every per-layer metric a traced run reports, in output order.
const std::vector<LayerMetric>& LayerTable();

using Values = std::map<std::string, double>;

/// Per-tree quadrant, cluster, core-pool and data metrics of one traced
/// TrainDistributed call, read from its RunReport and the collective spans
/// the observer recorded.
Values TracedCallMetrics(const TrainCall& call,
                         const vero::obs::RunObserver& observer,
                         uint32_t trees);

/// Replays AllReduceSum and AllToAll on a fresh Cluster(kWorkers) at the
/// per-rank payload sizes `traced` observed (TracedCallMetrics fills
/// "replay.*_payload_bytes"); yields cluster.{allreduce,alltoall}_ms_per_mb.
Values CollectiveReplays(const Values& traced, double budget_s);

/// Replays the histogram kernel the workload's quadrant uses (a root layer
/// and a depth-4 layer of 16 nodes), SplitFinder over that layer, and the
/// gradient pass, over rank 0's binned store of `data`; yields the core.*
/// replays. `candidate` and `transform` are set-up runs of both kinds.
Values CoreReplays(const WorkloadSpec& spec, const TrainingSet& data,
                   const SetupRun& candidate, const SetupRun& transform,
                   double budget_s);

}  // namespace perfbench

#endif  // VERO_PERFBENCH_LAYERS_H_
