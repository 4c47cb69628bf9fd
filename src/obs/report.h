#ifndef VERO_OBS_REPORT_H_
#define VERO_OBS_REPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vero {

/// What failure handling cost a training run (all zero when failure-free).
struct RecoveryStats {
  /// Worker failures observed (injected crashes + retry exhaustions).
  int failures_observed = 0;
  /// Recovery rounds performed (cluster rebuilds).
  int recovery_attempts = 0;
  /// These two describe the last recovery transition only; a resize never
  /// writes them, and both stay 0 when no recovery ran. trees_recovered is
  /// the tree that last recovery resumed at (its checkpoint's trees_done, 0
  /// when it restarted from scratch).
  uint32_t trees_recovered = 0;
  /// model.num_trees() - trees_recovered on a completed run that recovered;
  /// 0 otherwise.
  uint32_t trees_retrained = 0;
  /// Workers in the final (surviving) cluster.
  int final_world_size = 0;
  /// Replacement workers that re-joined across all recovery attempts
  /// (elastic_rejoin only).
  int rejoined_workers = 0;
  /// Recovery rendezvous rounds that themselves failed (a crash during the
  /// rejoin/redistribution phase) and had to be retried.
  int rendezvous_failures = 0;
  /// Simulated seconds spent on recovery: state redistribution to the
  /// survivors plus the recovery cluster's setup phase.
  double recovery_seconds = 0.0;
  /// Bytes moved to redistribute state (checkpoint, margins or raw shards)
  /// onto the surviving workers.
  uint64_t recovery_bytes = 0;
};

/// What operator-requested resizes cost a training run (all zero when no
/// resize was scheduled). Crash recovery costs stay in RecoveryStats; this
/// block only covers planned W -> W +- k transitions.
struct ElasticityStats {
  /// Completed resize transitions (scheduled resizes that reached the new
  /// width's first round).
  int resizes = 0;
  /// Brand-new workers admitted by scale-ups.
  int admitted_workers = 0;
  /// Live workers retired by scale-downs.
  int retired_workers = 0;
  /// Bytes moved by the re-sharding plans (rows whose owner changed,
  /// checkpoint broadcast excluded — that lands in recovery_bytes-style
  /// rendezvous accounting within reshard_seconds' transition).
  uint64_t reshard_bytes = 0;
  /// Simulated seconds of the resize rendezvous (re-shard traffic plus the
  /// checkpoint broadcast to the new incarnation).
  double reshard_seconds = 0.0;
};

namespace obs {

/// What to collect for one run. Metrics are cheap (per-worker counter adds)
/// and on by default whenever an observer is attached; tracing buffers every
/// phase / collective span and is opt-in.
struct ObsOptions {
  bool trace = false;
};

/// Bundles the per-run trace recorder and metrics registry. Owned by the
/// caller (bench harness / test) and attached to one or more Clusters —
/// recovery clusters re-attach the same observer, so a run's observability
/// survives worker failures.
class RunObserver {
 public:
  explicit RunObserver(ObsOptions options = {}) : options_(options) {}

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  const ObsOptions& options() const { return options_; }
  bool trace_enabled() const { return kObsEnabled && options_.trace; }

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Buffer / shard for the driver thread (the code orchestrating attempts
  /// outside any worker), created lazily and reused.
  TraceBuffer* driver_buffer();
  MetricsShard* driver_shard();

  /// Called by Cluster::AttachObserver: advances the attach generation and
  /// returns it (0 for the first cluster, 1 for the first recovery / resize
  /// rebuild, ...). Worker trace buffers created during that attach carry
  /// the returned incarnation, which is how the anatomy analyzer tells the
  /// pre- and post-transition halves of one logical rank apart.
  int BeginIncarnation() { return ++incarnation_; }
  int incarnation() const { return incarnation_.load(); }

 private:
  ObsOptions options_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  std::mutex driver_mu_;
  TraceBuffer* driver_buffer_ = nullptr;
  MetricsShard* driver_shard_ = nullptr;
  std::atomic<int> incarnation_{-1};
};

/// Machine-readable summary of one distributed training run: headline cost
/// numbers, per-phase totals, goodput, recovery cost, and the merged metric
/// snapshot. Serialized with the stable "vero.run_report.v1" JSON schema
/// (documented in docs/observability.md); benches collect one per run under
/// --report so figure/table outputs are scriptable.
struct RunReport {
  bool enabled = false;

  std::string label;     ///< Harness-assigned run id (may be empty).
  std::string quadrant;  ///< QuadrantToString of the trained quadrant.
  int workers = 0;       ///< Initial cluster size.
  uint32_t trees = 0;    ///< Trees in the final model.

  /// FNV-1a digest of the final model's canonical text form (0 = not
  /// stamped). Two runs that trained the same model bit-for-bit share a
  /// digest, so sweep checkers can assert "integrity=off is byte-identical"
  /// or "the healed model matches the clean one" without shipping models.
  uint64_t model_digest = 0;

  /// Modeled seconds (sum over trees of max-comp + max-comm).
  double train_seconds = 0.0;
  double comp_seconds = 0.0;
  double comm_seconds = 0.0;
  double setup_seconds = 0.0;

  /// Per-phase totals, summed over trees of the cluster-level (max across
  /// workers) per-round cost — the Fig. 10 decomposition.
  struct Phases {
    double gradient = 0.0;
    double hist = 0.0;
    double find_split = 0.0;
    double node_split = 0.0;
    double other = 0.0;
    double comm = 0.0;
  } phases;

  uint64_t train_bytes_sent = 0;
  uint64_t peak_histogram_bytes = 0;
  uint64_t data_bytes = 0;

  /// Goodput: work thrown away by failed attempts (zero on clean runs).
  uint64_t wasted_bytes = 0;
  double wasted_seconds = 0.0;

  /// Recovery and elasticity cost, copied from DistResult.
  RecoveryStats recovery;
  ElasticityStats elasticity;

  /// Integrity auditing outcome ("off" with all-zero counters when the
  /// auditor is disabled).
  struct Integrity {
    std::string level = "off";
    uint64_t checks = 0;
    uint64_t violations = 0;
    uint64_t recomputes = 0;
    uint64_t escalations = 0;
    int rollbacks = 0;
    int last_blamed_rank = -1;
    uint64_t wasted_bytes = 0;
    double wasted_seconds = 0.0;
  } integrity;

  MetricsSnapshot metrics;

  /// Where the run's Chrome trace JSON was written ("" = not exported).
  std::string trace_path;

  void AppendJson(std::ostream& os) const;
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace vero

#endif  // VERO_OBS_REPORT_H_
