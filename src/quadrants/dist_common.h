#ifndef VERO_QUADRANTS_DIST_COMMON_H_
#define VERO_QUADRANTS_DIST_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/communicator.h"
#include "common/status.h"
#include "common/logging.h"
#include "core/binned.h"
#include "core/gbdt_params.h"
#include "core/gradients.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/loss.h"
#include "core/node_indexer.h"
#include "core/split.h"
#include "core/trainer.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "integrity/auditor.h"
#include "obs/anatomy.h"
#include "obs/report.h"
#include "partition/transform.h"
#include "quadrants/checkpoint.h"
#include "quadrants/quadrant.h"
#include "sketch/candidate_splits.h"

namespace vero {

/// Options for a distributed training run.
struct DistTrainOptions {
  GbdtParams params;
  /// Transform settings (vertical quadrants; horizontal quadrants use only
  /// the sketch fields through the shared candidate-split pipeline).
  TransformOptions transform = {};
  /// Checkpoint/recovery policy (used by TrainDistributed when the cluster
  /// has a fault plan or real failures occur).
  CheckpointOptions checkpoint = {};
  /// How many times TrainDistributed rebuilds a cluster and retries after
  /// worker failures before giving up (0 = fail immediately). Each attempt
  /// tolerates further failures — including failures during the recovery
  /// rendezvous itself — as long as the budget lasts.
  int max_recovery_attempts = 1;
  /// Elastic recovery: replace crashed workers with re-joining replacements
  /// so every rebuilt cluster runs at the original world size W (replacement
  /// ranks are re-seeded with a fresh shard and the latest checkpoint at a
  /// rendezvous barrier). False preserves the degrade-to-survivors behavior.
  bool elastic_rejoin = false;
  /// Operator-requested resize: after this many completed trees the driver
  /// pauses training at a checkpoint boundary, resizes the cluster by
  /// `elastic_resize_delta` workers at a rendezvous (re-sharding the data
  /// onto the new width), and finishes the run there. 0 disables resizing.
  uint32_t elastic_resize_after_trees = 0;
  /// Worker-count change applied at the scheduled resize: positive admits
  /// that many new workers, negative retires surplus ones. Must be nonzero
  /// when a resize is scheduled (a "resize by zero" request is rejected);
  /// shrinking below one worker is rejected by TrainDistributed, which
  /// knows the cluster width.
  int32_t elastic_resize_delta = 0;
  /// Straggler policy of the quadrants' aggregation collectives; strict (the
  /// default) is bit-identical to a run without mitigation. See
  /// docs/straggler_mitigation.md.
  MitigationOptions mitigation = {};
  /// Codec for the histogram payloads of the aggregation collectives; kOff
  /// (the default) ships dense raw doubles, bit-identical to a run without
  /// the codec. See docs/wire_formats.md and docs/cost_model.md.
  CollectiveCompression compression = CollectiveCompression::kOff;
  /// Corruption-detection level; kOff (the default) adds no collectives,
  /// metric handles, or trace spans. See docs/fault_tolerance.md.
  IntegrityLevel integrity = IntegrityLevel::kOff;

  /// Validates params plus every distributed setting; returns
  /// InvalidArgument naming the offending field. Also rejects the
  /// reference-trainer extensions (leaf-wise growth, max_leaves, row and
  /// column subsampling) that no quadrant implements.
  Status Validate() const;
};

/// Cluster-level cost of one boosting round: compute phases are the maximum
/// thread-CPU seconds across workers (the straggler defines the round), comm
/// is the maximum simulated network time across workers.
struct TreeCost {
  double gradient_seconds = 0.0;
  double hist_seconds = 0.0;
  double find_split_seconds = 0.0;
  double node_split_seconds = 0.0;
  double other_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Cluster-wide bytes sent during the round (sum across workers).
  uint64_t bytes_sent = 0;

  double comp_seconds() const {
    return gradient_seconds + hist_seconds + find_split_seconds +
           node_split_seconds + other_seconds;
  }
  double total_seconds() const { return comp_seconds() + comm_seconds; }

  TreeCost& operator+=(const TreeCost& o) {
    gradient_seconds += o.gradient_seconds;
    hist_seconds += o.hist_seconds;
    find_split_seconds += o.find_split_seconds;
    node_split_seconds += o.node_split_seconds;
    other_seconds += o.other_seconds;
    comm_seconds += o.comm_seconds;
    bytes_sent += o.bytes_sent;
    return *this;
  }
};

/// Mean and sample standard deviation of per-tree costs.
struct TreeCostSummary {
  TreeCost mean;
  double comp_std = 0.0;
  double comm_std = 0.0;
};

TreeCostSummary SummarizeTreeCosts(const std::vector<TreeCost>& costs);

/// Result of a distributed training run.
struct DistResult {
  /// OK if training produced the full forest (possibly after recovery);
  /// otherwise the first worker failure that could not be recovered from.
  Status status;
  /// Cost of surviving failures; all zero (except final_world_size) on a
  /// failure-free run.
  RecoveryStats recovery;
  /// Cost of planned resizes; all zero when none was scheduled.
  ElasticityStats elasticity;
  /// Integrity auditing outcome, folded across workers and recovery
  /// attempts; all zero at IntegrityLevel::kOff. `rollbacks` counts
  /// recovery attempts whose triggering failure carried the auditor's
  /// "integrity:" blame (driver-attributed).
  IntegrityStats integrity;
  /// Recovery attempts triggered by an integrity escalation (a subset of
  /// recovery.recovery_attempts).
  int integrity_rollbacks = 0;
  GbdtModel model;
  std::vector<TreeCost> tree_costs;
  /// Max across workers of the peak histogram-pool bytes.
  uint64_t peak_histogram_bytes = 0;
  /// Max across workers of the stored (binned) data bytes.
  uint64_t data_bytes = 0;
  /// Total bytes sent cluster-wide during training (excludes transform).
  uint64_t train_bytes_sent = 0;
  /// Simulated seconds of preprocessing (transform / sketch pipeline):
  /// max worker compute + comm.
  double setup_seconds = 0.0;
  /// Transform cost detail (vertical quadrants).
  TransformStats transform_stats;
  /// Per-iteration curve recorded on rank 0 (elapsed uses simulated time).
  std::vector<IterationStats> curve;
  /// Goodput accounting: communication bytes and modeled seconds spent on
  /// attempts whose work was later discarded (trees lost to a failure that
  /// a checkpoint did not cover, plus the wasted setup of failed attempts).
  /// Zero on failure-free runs.
  uint64_t wasted_bytes = 0;
  double wasted_seconds = 0.0;
  /// Machine-readable run summary (filled when an observer was attached;
  /// `report.enabled` is false otherwise). See obs::RunReport.
  obs::RunReport report;
  /// Exact cost anatomy stitched from the run's trace (filled when the
  /// attached observer had tracing enabled; `anatomy.enabled` is false
  /// otherwise). See obs::AnatomyReport.
  obs::AnatomyReport anatomy;

  /// Sum over trees of max-comp + max-comm: the modeled training time.
  double TrainSeconds() const {
    double total = 0.0;
    for (const TreeCost& c : tree_costs) total += c.total_seconds();
    return total;
  }
  double TotalCompSeconds() const {
    double total = 0.0;
    for (const TreeCost& c : tree_costs) total += c.comp_seconds();
    return total;
  }
  double TotalCommSeconds() const {
    double total = 0.0;
    for (const TreeCost& c : tree_costs) total += c.comm_seconds;
    return total;
  }
};

/// Base class for the per-worker SPMD training loops of QD1-QD4 and
/// feature-parallel.
///
/// The boosting skeleton (gradients -> per-layer histogram / split find /
/// node split -> leaf weights -> margin update) and every body the
/// quadrants share live here: the rank-local row state, the gradient pass,
/// the node-to-instance index and its margin update, the local-best split
/// search, the all-gather of local bests and the child-count reduction.
/// Subclasses supply only their storage, histogram construction, split
/// exchange and placement (the two axes of §3: partitioning x storage).
class DistTrainerBase {
 public:
  /// `labels` are the rows this worker trains on: its row shard for the
  /// horizontal quadrants, every row otherwise. `splits` is the shared
  /// candidate-split table over all D features; it must outlive the trainer.
  DistTrainerBase(WorkerContext& ctx, const DistTrainOptions& options,
                  Task task, uint32_t num_classes,
                  const CandidateSplits& splits, std::vector<float> labels,
                  uint32_t num_global_instances);
  virtual ~DistTrainerBase() = default;

  /// Runs all boosting rounds. `valid` (optional) is evaluated on rank 0
  /// after each round. Fills per-tree costs (identical on all ranks).
  /// After InitFromCheckpoint the loop starts at the restored tree count
  /// and only appends the missing trees.
  void Train(const Dataset* valid, std::vector<TreeCost>* tree_costs,
             std::vector<IterationStats>* curve, double setup_sim_seconds);

  /// Arms per-round checkpointing: after every `interval` completed trees,
  /// rank 0 invokes `sink` with the model-so-far. The sink must not run
  /// collectives (only rank 0 calls it). `span_name` labels the sink's trace
  /// span (must outlive the trainer): async sinks use "checkpoint-snapshot"
  /// so the span honestly covers only the in-loop copy, not the write.
  void EnableCheckpoints(
      uint32_t interval,
      std::function<void(const GbdtModel&, uint32_t trees_done)> sink,
      const char* span_name = "checkpoint") {
    checkpoint_interval_ = interval;
    checkpoint_sink_ = std::move(sink);
    checkpoint_span_name_ = span_name;
  }

  /// Forces the checkpoint sink to also fire after the FINAL tree of this
  /// run even when the interval does not divide it (or is 0). The driver
  /// arms this on attempts clamped to a resize boundary, so the rendezvous
  /// that follows always has a checkpoint at exactly the boundary tree.
  void set_checkpoint_final(bool checkpoint_final) {
    checkpoint_final_ = checkpoint_final;
  }

  /// Seeds the trainer with an already-trained prefix: `model`'s trees are
  /// adopted and `margins` replaces this worker's margin state (shard rows
  /// for horizontal quadrants, all rows for vertical ones). Must be called
  /// before Train.
  void InitFromCheckpoint(const GbdtModel& model,
                          std::span<const double> margins);

  const GbdtModel& model() const { return model_; }
  /// Integrity-audit accounting of this worker (all zero at kOff). Valid
  /// even after Train unwinds via ClusterAbort — the driver salvages it to
  /// attribute the failure.
  const IntegrityStats& integrity_stats() const { return auditor_.stats(); }
  uint64_t peak_histogram_bytes() const { return pool_.PeakBytes(); }
  /// Bytes of the worker's stored training data (subclass-computed).
  virtual uint64_t DataBytes() const = 0;

 protected:
  /// One node's histogram-construction assignment for a layer.
  struct BuildTask {
    NodeId build_node = kInvalidNode;      ///< Built by scanning data.
    NodeId subtract_node = kInvalidNode;   ///< Derived as parent - sibling.
    NodeId parent = kInvalidNode;          ///< Released after both children.
  };

  // ---- Quadrant-specific hooks -------------------------------------------

  /// Whether this quadrant's index supports the histogram subtraction
  /// technique (QD1's instance-to-node index cannot, per §3.2.3).
  virtual bool UsesSubtraction() const { return true; }

  /// True for vertical quadrants, where every worker holds all labels /
  /// margins; false for horizontal ones, which own a row shard.
  virtual bool OwnsAllRows() const = 0;

  /// Number of features covered by this worker's histograms (D for
  /// horizontal quadrants, |owned| for vertical ones).
  virtual uint32_t HistFeatureCount() const = 0;
  /// Global feature ids corresponding to local histogram columns.
  virtual const std::vector<FeatureId>& HistGlobalIds() const = 0;

  /// Resets per-tree instance indexes; by default the row partition
  /// (QD1 replaces it with its instance-to-node index).
  virtual void InitTreeIndexes() {
    partition_.Init(num_rows(), options_.params.num_layers);
  }

  /// Builds (and, for horizontal quadrants, aggregates) histograms for the
  /// layer. `tasks` encodes the subtraction schema; when subtraction is
  /// disabled both children appear as build_node entries.
  virtual void BuildLayerHistograms(const std::vector<BuildTask>& tasks) = 0;

  /// Returns the GLOBAL best split of every frontier node (same result on
  /// every worker; involves the quadrant's split-exchange pattern).
  virtual std::vector<SplitCandidate> FindLayerSplits(
      const std::vector<NodeId>& frontier) = 0;

  /// Applies the decided splits: updates instance indexes (broadcasting
  /// placement bitmaps for vertical quadrants) and fills `child_counts`
  /// with the GLOBAL instance count of each child, ordered
  /// [left0, right0, left1, right1, ...].
  virtual void ApplyLayerSplits(const std::vector<NodeId>& nodes,
                                const std::vector<SplitCandidate>& splits,
                                std::vector<uint32_t>* child_counts) = 0;

  /// Adds learning_rate * leaf weights into the margins of the rows this
  /// worker owns, using the final instance placement of `tree` (by default
  /// the row partition's leaves).
  virtual void UpdateMargins(const Tree& tree);

  // ---- Shared row-state, split and placement bodies ------------------------

  /// Rows this worker trains on (labels_, margins_ and grads_ rows).
  uint32_t num_rows() const { return static_cast<uint32_t>(labels_.size()); }

  /// Computes gradients into grads_ and returns the GLOBAL root gradient
  /// stats (identical on every worker): a row shard's sums are all-reduced.
  GradStats ComputeGradients();

  /// Per-node best split over this worker's histogram columns
  /// (HistGlobalIds); the frontier's histograms must exist in pool_.
  std::vector<SplitCandidate> LocalBestSplits(
      const std::vector<NodeId>& frontier);

  /// All-gathers every rank's local bests and merges them in rank order,
  /// skipping any rank whose bests straggler mitigation deferred. The skip
  /// is identical on every rank, so the decision stays replicated.
  std::vector<SplitCandidate> AllGatherBestSplits(
      const std::vector<SplitCandidate>& local);

  /// Rounds this worker's per-child instance counts into `child_counts`,
  /// all-reducing them first when the worker holds a row shard.
  void ReduceChildCounts(std::span<double> counts,
                         std::vector<uint32_t>* child_counts);

  /// Local placement over a row store holding whole rows (QD2,
  /// feature-parallel): splits every node of the row partition and fills
  /// the GLOBAL child counts.
  void SplitRowStore(const BinnedRowStore& store,
                     const std::vector<NodeId>& nodes,
                     const std::vector<SplitCandidate>& splits,
                     std::vector<uint32_t>* child_counts);

  // ---- Shared histogram-construction helpers ------------------------------

  /// Derives every subtraction task's sibling histogram from the retained
  /// parent (build nodes' histograms must already exist in pool_).
  void ApplySubtractions(const std::vector<BuildTask>& tasks) {
    const uint32_t q = options_.params.num_candidate_splits;
    for (const BuildTask& task : tasks) {
      if (task.subtract_node == kInvalidNode) continue;
      Histogram* sibling =
          pool_.Acquire(task.subtract_node, HistFeatureCount(), q, dims_);
      const Histogram* parent = pool_.Get(task.parent);
      VERO_CHECK(parent != nullptr);
      sibling->SetToDifference(*parent, *pool_.Get(task.build_node));
    }
  }

  /// Standard row-store layer build (QD2 / QD4 / feature-parallel): acquire
  /// each build node's histogram, accumulate all of them in one builder
  /// pass over features [feature_begin, feature_end), then fill the
  /// subtraction siblings. `store_num_features` is the store's feature-id
  /// range (see HistogramBuilder::BuildRowStoreLayer).
  void BuildRowLayer(const BinnedRowStore& store,
                     const RowPartition& partition,
                     const std::vector<BuildTask>& tasks,
                     uint32_t feature_begin, uint32_t feature_end,
                     uint32_t store_num_features);

  // ---- Integrity auditing (see docs/fault_tolerance.md) -------------------

  /// Consults the fault injector's compute-poison stream and, when armed,
  /// writes a NaN/Inf into this worker's gradient buffer. Always active
  /// when an injector is installed (independent of the audit level), so a
  /// poisoned unaudited run demonstrably produces a non-finite model.
  void ApplyGradientPoison();
  /// Same for a freshly built layer histogram (pre-aggregation).
  void ApplyHistogramPoison(const std::vector<BuildTask>& tasks);

  /// True if any freshly BUILT histogram cell of the layer is non-finite.
  /// Evaluated before aggregation mixes ranks' contributions, so the flag
  /// pins compute-born poison on the rank that produced it.
  bool ScanBuiltHistograms(const std::vector<BuildTask>& tasks) const;
  /// kFull mass invariant: for every frontier node and local feature, the
  /// per-class present hessian mass must lie within [0, node hessian] up to
  /// kAuditTolerance (h >= 0 for the supported losses), and be
  /// finite. Catches sign-flip corruption that digests on other channels
  /// miss and any non-finite aggregated cell.
  bool HistMassViolated(const std::vector<NodeId>& frontier) const;
  /// True if any gradient/hessian of this worker's rows is non-finite.
  bool GradsNonFinite() const;
  /// True if any decided split has a non-finite gain / stat component.
  static bool SplitsNonFinite(const std::vector<SplitCandidate>& splits);

  /// Audit + recompute loop around the gradient pass. On a retryable
  /// violation recomputes gradients (and the root all-reduce) up to
  /// kAuditMaxRecomputes times before escalating.
  void AuditGradients(GradStats* root_stats);
  /// Audit + recompute loop around a layer's decided splits: pushes the
  /// layer evidence (decision digest, frontier counts, kFull invariant
  /// flags) on top of the quadrant's own transport digests, exchanges, and
  /// on violation rebuilds every frontier histogram from local data (no
  /// subtraction) and re-runs FindLayerSplits before escalating.
  void AuditLayer(const std::vector<NodeId>& frontier,
                  std::vector<SplitCandidate>* best);
  /// Audits the freshly all-reduced / gathered child counts right after
  /// ApplyLayerSplits, before the frontier derived from them can diverge
  /// the next layer's collective shapes. Not recomputable (the placement
  /// they came from is already committed): violations escalate directly.
  void AuditChildCounts(const std::vector<uint32_t>& child_counts);
  /// Round-end audit after the margin update: full node-count digest plus
  /// (kFull) a margin non-finite flag. Placement corruption is not
  /// recomputable, so any violation escalates directly.
  void AuditRound();
  /// Discards and rebuilds every frontier histogram from local data.
  void RecomputeLayer(const std::vector<NodeId>& frontier);
  /// Digest over the global instance counts of `nodes`.
  uint64_t CountsDigest(const std::vector<NodeId>& nodes) const;

  // ---- Shared state -------------------------------------------------------

  WorkerContext& ctx_;
  DistTrainOptions options_;
  Task task_;
  uint32_t num_classes_;
  uint32_t dims_;
  std::unique_ptr<Loss> loss_;
  SplitFinder finder_;
  /// Candidate splits of all D features (shared; not owned).
  const CandidateSplits& splits_;

  /// Histogram-compression codec for the quadrant's histogram collectives:
  /// options_.compression with one feature's histogram (q * dims * 2
  /// doubles) per block, so the dense/sparse switch tracks per-feature
  /// nonzero density.
  CodecSpec codec_;

  /// Cross-rank invariant auditor (inert at options_.integrity == kOff:
  /// quadrant push sites and the audit points above all guard on
  /// auditor_.enabled(), keeping the off path bit-identical to seed).
  IntegrityAuditor auditor_;
  /// kFull: non-finite flag of the layer's freshly built histograms,
  /// captured pre-aggregation in the hist-build phase and pushed with the
  /// layer audit.
  bool layer_hist_nonfinite_ = false;

  GbdtModel model_;
  GradientBuffer grads_;
  /// Shared histogram-construction engine (params.num_threads intra-worker
  /// threads; see docs/performance.md for the W x T interaction).
  HistogramBuilder builder_;
  HistogramPool pool_;
  /// Per-node gradient stats and global instance counts (replicated).
  std::vector<GradStats> node_stats_;
  std::vector<uint32_t> node_counts_;
  /// Node-to-instance index over this worker's rows (QD1 keeps an
  /// instance-to-node index instead and leaves it empty).
  RowPartition partition_;

  /// Labels for the rows this worker owns.
  std::vector<float> labels_;
  /// Margins for the rows this worker owns, row-major x dims_.
  std::vector<double> margins_;
  /// Global instance count N.
  uint32_t num_global_instances_ = 0;

  /// Checkpoint hook state (see EnableCheckpoints / set_checkpoint_final).
  uint32_t checkpoint_interval_ = 0;
  std::function<void(const GbdtModel&, uint32_t)> checkpoint_sink_;
  const char* checkpoint_span_name_ = "checkpoint";
  bool checkpoint_final_ = false;
};

/// Serialization helpers shared by the quadrant split exchanges.
std::vector<uint8_t> SerializeSplits(const std::vector<SplitCandidate>& splits);
std::vector<SplitCandidate> DeserializeSplits(const std::vector<uint8_t>& data);

/// Element-wise "keep the better" merge used to reduce per-node local bests.
void MergeBestSplits(const std::vector<SplitCandidate>& candidates,
                     std::vector<SplitCandidate>* best);

}  // namespace vero

#endif  // VERO_QUADRANTS_DIST_COMMON_H_
