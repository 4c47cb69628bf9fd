#ifndef VERO_PERFBENCH_WORKLOAD_H_
#define VERO_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clock.h"
#include "data/dataset.h"
#include "obs/report.h"
#include "partition/transform.h"
#include "quadrants/train_distributed.h"
#include "serve/flat_forest.h"

namespace perfbench {

// Paper parameters (§5.1) and the host shape every workload is sized for:
// W = 4 simulated workers at num_threads = 1, or 4 serving threads, so no
// workload asks for more than the 4 CPUs it is measured on.
inline constexpr int kWorkers = 4;
inline constexpr uint32_t kLayers = 8;
inline constexpr uint32_t kBins = 20;
// Bulk scoring runs on kServeThreads; 64-row calls run on one thread, where
// their latency tail is the library's and not the host scheduler's.
inline constexpr uint32_t kServeThreads = 4;
inline constexpr uint32_t kSmallBatch = 64;
inline constexpr uint32_t kBulkBatch = 8192;
// A p99 needs at least ten samples beyond it.
inline constexpr size_t kMinSmallBatchCalls = 1100;
// The served forest: full depth-kLayers trees over the §5.2 rows (D = 50,
// density 0.3), generated from the seed. Every tree has the same shape
// whatever the seed, so the cost of scoring a row does not depend on it.
inline constexpr int kServeTrees = 64;
inline constexpr uint32_t kServeFeatures = 50;
inline constexpr double kServeDensity = 0.3;
inline constexpr uint32_t kServeRows = 5 * kBulkBatch;

/// One benchmark workload: a training job (data shape, quadrant, trees per
/// TrainDistributed call). Every workload then serves the same generated
/// forest over the same generated rows.
struct WorkloadSpec {
  const char* name;
  vero::Quadrant quadrant;
  /// Tag of the generated dataset; workloads sharing it train on the same
  /// rows for the same seed.
  const char* dataset;
  uint32_t train_rows;  ///< A 20% validation tail is generated on top.
  uint32_t features;
  double density;
  /// RCV1-style sparse profile: signal concentrated on frequent features.
  bool sparse_profile;
  uint32_t trees_per_call;
  /// Training sets of this shape generated per run; the rounds cycle
  /// through them. Where tree shapes, and with them the histogram memory,
  /// vary from one dataset to the next, the run's figures then average
  /// over several datasets instead of resting on one.
  uint32_t datasets;
  /// Shares of --seconds spent in each timed phase.
  double setup_share;
  double train_share;
  double small_share;
  double bulk_share;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated training set.
struct TrainingSet {
  vero::Dataset train;
  vero::Dataset valid;
  /// HorizontalRange shards of `train`, in rank order.
  std::vector<vero::Dataset> shards;
};

/// Everything a run needs, generated from the seed before any timing.
struct Inputs {
  /// `datasets` training sets; the first is the one the oracle pins and
  /// the traced run uses.
  std::vector<TrainingSet> sets;
  /// The served forest: kServeTrees full trees generated from the seed.
  vero::GbdtModel forest;
  /// Rows scored by the serving phases: kServeRows §5.2 rows generated
  /// from the seed, a whole number of bulk batches.
  vero::CsrMatrix serve_rows;
};

/// `scale` shrinks every row count (self-check runs); 1 is the benchmark.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double scale);

/// The training pipeline's set-up stage, run standalone on a fresh
/// Cluster(kWorkers) over the HorizontalRange shards.
enum class SetupKind { kCandidateSplits, kTransform };

SetupKind SetupOf(vero::Quadrant quadrant);

struct SetupRun {
  bool ok = false;
  double wall_s = 0.0;
  /// Rank 0's candidate splits (kCandidateSplits) or vertical shard
  /// (kTransform), kept for the layer replays.
  vero::CandidateSplits splits;
  vero::VerticalShard vertical;
  /// kTransform: per-rank transform statistics.
  std::vector<vero::TransformStats> stats;
};

SetupRun RunSetup(SetupKind kind, const std::vector<vero::Dataset>& shards);

/// Training hyper-parameters of a workload (T = trees_per_call, L = 8,
/// q = 20, one histogram thread per worker).
vero::DistTrainOptions TrainOptions(const WorkloadSpec& spec);

/// One TrainDistributed call on a fresh Cluster(kWorkers).
struct TrainCall {
  /// Real-clock cost; peak_rss_kb is the process peak during the call.
  ClockSample cost;
  vero::DistResult result;
  /// FNV-1a of ModelToText (0 when the call failed).
  uint64_t digest = 0;
};

TrainCall RunTraining(const WorkloadSpec& spec, const TrainingSet& data,
                      vero::obs::RunObserver* observer);

/// Per-row reference margins: Tree::PredictInto tree by tree.
std::vector<double> ReferenceMargins(const vero::GbdtModel& model,
                                     const vero::CsrMatrix& rows);

/// Scoring results of one serving phase.
struct ServeRun {
  /// Seconds per call.
  std::vector<double> seconds;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Closed loop of `batch`-row PredictCsrMargins calls over consecutive
/// windows of `rows`, for at least `min_calls` calls and `budget_s`
/// seconds. Each call's margins are compared bitwise with `reference`.
ServeRun RunServing(const vero::serve::FlatForest& forest,
                    const vero::CsrMatrix& rows,
                    const std::vector<double>& reference, uint32_t threads,
                    uint32_t batch, size_t min_calls, double budget_s);

}  // namespace perfbench

#endif  // VERO_PERFBENCH_WORKLOAD_H_
