#include "quadrants/train_distributed.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/membership.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quadrants/attempt_ledger.h"
#include "quadrants/checkpoint.h"
#include "quadrants/feature_parallel.h"
#include "quadrants/qd1_trainer.h"
#include "quadrants/qd2_trainer.h"
#include "quadrants/qd3_trainer.h"
#include "quadrants/qd4_vero.h"

namespace vero {
namespace {

// Everything one worker reports back after its SPMD run.
struct WorkerOutput {
  GbdtModel model;
  /// Round costs, curve and setup cost. The setup bytes are the
  /// cluster-wide sketch / transform traffic, identical on every rank
  /// (InstrumentSum).
  AttemptRecord attempt;
  uint64_t peak_histogram_bytes = 0;
  uint64_t data_bytes = 0;
  uint64_t train_bytes_sent = 0;
  TransformStats transform_stats;
  /// Audit accounting, salvaged even when the attempt aborts: the driver
  /// attributes integrity-triggered rollbacks from it.
  IntegrityStats integrity;
};

// One training attempt's inputs. The first attempt runs fresh; recovery
// attempts resume from a checkpoint (or restart) on a rebuilt cluster.
struct AttemptConfig {
  Quadrant quadrant = Quadrant::kQD1;
  const DistTrainOptions* options = nullptr;
  const Dataset* train = nullptr;
  const Dataset* valid = nullptr;
  HistogramBuilder::ColumnScan qd3_scan = HistogramBuilder::ColumnScan::kAuto;
  /// Restored state to resume from (null = train from scratch).
  const TrainCheckpoint* resume = nullptr;
  /// Full N x dims margin matrix of the restored model (null iff !resume).
  const std::vector<double>* resume_margins = nullptr;
  /// Simulated seconds already elapsed (pre-failure prefix + recovery).
  double elapsed_base = 0.0;
  /// Driver-owned checkpoint writer, shared across attempts (null when
  /// checkpointing is disabled). Rank 0's sink submits snapshots to it.
  CheckpointWriter* writer = nullptr;
  /// Force a checkpoint after this attempt's final tree regardless of the
  /// interval (armed on attempts clamped to a resize boundary, so the
  /// resize rendezvous always has the boundary state to hand out).
  bool checkpoint_final = false;
};

std::vector<Dataset> BuildHorizontalShards(const Dataset& train, int world) {
  const uint32_t n = train.num_instances();
  std::vector<Dataset> shards;
  shards.reserve(world);
  for (int r = 0; r < world; ++r) {
    const auto [begin, end] = HorizontalRange(n, world, r);
    shards.emplace_back(train.matrix().SliceRows(begin, end),
                        std::vector<float>(train.labels().begin() + begin,
                                           train.labels().begin() + end),
                        train.task(), train.num_classes());
  }
  return shards;
}

// Runs the SPMD body of one attempt on `cluster`, filling `outputs` (one
// entry per rank). Returns per-rank statuses from Cluster::TryRun.
std::vector<Status> RunAttempt(Cluster& cluster,
                               const std::vector<Dataset>& shards,
                               const AttemptConfig& cfg,
                               std::vector<WorkerOutput>* outputs) {
  const Dataset& train = *cfg.train;
  const DistTrainOptions& options = *cfg.options;
  const Quadrant quadrant = cfg.quadrant;
  const uint32_t n = train.num_instances();
  const uint32_t dims =
      train.task() == Task::kMultiClass ? train.num_classes() : 1;

  return cluster.TryRun([&](WorkerContext& ctx) {
    const int rank = ctx.rank();
    const int w = ctx.world_size();
    WorkerOutput& out = (*outputs)[rank];
    // Phase announcements let FaultPlan events target the sketch/transform
    // setup or the round loop specifically (labels only — no accounting).
    ctx.set_fault_phase(FaultPhase::kSetup);
    ThreadCpuTimer setup_cpu;
    const double sim_start = ctx.stats().sim_seconds;
    const uint64_t bytes_start = ctx.stats().bytes_sent;

    std::unique_ptr<DistTrainerBase> trainer;
    CandidateSplits splits;       // Storage for horizontal quadrants.
    VerticalShard vertical;       // Storage for vertical quadrants.
    const CandidateSplits* checkpoint_splits = nullptr;

    switch (quadrant) {
      case Quadrant::kQD1:
      case Quadrant::kQD2: {
        const Dataset& shard = shards[rank];
        if (cfg.resume != nullptr && cfg.resume->has_splits) {
          // Recovery: reuse the checkpointed split table; the sketch
          // pipeline (and its communication) is skipped entirely.
          splits = cfg.resume->splits;
        } else {
          double sketch_seconds = 0.0;
          splits = BuildDistributedCandidateSplits(
              ctx, shard, options.params.num_candidate_splits,
              options.params.sketch_entries, nullptr, &sketch_seconds);
        }
        if (quadrant == Quadrant::kQD1) {
          trainer = std::make_unique<Qd1Trainer>(ctx, options, shard, splits,
                                                 n);
        } else {
          trainer = std::make_unique<Qd2Trainer>(ctx, options, shard, splits,
                                                 n);
        }
        checkpoint_splits = &splits;
        break;
      }
      case Quadrant::kQD3:
      case Quadrant::kQD4: {
        TransformOptions transform = options.transform;
        transform.num_candidate_splits = options.params.num_candidate_splits;
        transform.sketch_entries = options.params.sketch_entries;
        if (cfg.resume != nullptr && cfg.resume->has_splits) {
          transform.precomputed_splits = &cfg.resume->splits;
        }
        vertical = HorizontalToVertical(ctx, shards[rank], transform);
        out.transform_stats = vertical.stats;
        if (quadrant == Quadrant::kQD3) {
          trainer = std::make_unique<Qd3Trainer>(ctx, options, train.task(),
                                                 train.num_classes(),
                                                 vertical, cfg.qd3_scan);
        } else {
          trainer = std::make_unique<Qd4VeroTrainer>(
              ctx, options, train.task(), train.num_classes(), vertical);
        }
        checkpoint_splits = &vertical.splits;
        break;
      }
      case Quadrant::kFeatureParallel: {
        // No partitioning: every worker computes identical splits locally
        // from its full copy (no sketch communication).
        if (cfg.resume != nullptr && cfg.resume->has_splits) {
          splits = cfg.resume->splits;
        } else {
          splits = ProposeCandidateSplits(
              train, options.params.num_candidate_splits,
              options.params.sketch_entries);
        }
        trainer = std::make_unique<FeatureParallelTrainer>(ctx, options,
                                                           train, splits);
        checkpoint_splits = &splits;
        break;
      }
    }

    if (cfg.resume != nullptr) {
      // Seed the restored prefix: trees plus this worker's margin slice
      // (shard rows for horizontal layouts, all rows for vertical / FP).
      const std::vector<double>& full = *cfg.resume_margins;
      const bool horizontal =
          quadrant == Quadrant::kQD1 || quadrant == Quadrant::kQD2;
      if (horizontal) {
        const auto [begin, end] = HorizontalRange(n, w, rank);
        trainer->InitFromCheckpoint(
            cfg.resume->model,
            std::span<const double>(full.data() +
                                        static_cast<size_t>(begin) * dims,
                                    static_cast<size_t>(end - begin) * dims));
      } else {
        trainer->InitFromCheckpoint(cfg.resume->model, full);
      }
    }

    if (cfg.writer != nullptr && rank == 0) {
      CheckpointWriter* writer = cfg.writer;
      // Submit copies the model and split table into the writer; in async
      // mode that copy is the only work on the round's critical path — the
      // serialization and file IO happen on the writer's thread, so the
      // span name says "snapshot", not "checkpoint".
      trainer->EnableCheckpoints(
          options.checkpoint.interval,
          [writer, checkpoint_splits](const GbdtModel& model,
                                      uint32_t trees_done) {
            writer->Submit(model, trees_done, checkpoint_splits);
          },
          writer->options().async ? "checkpoint-snapshot" : "checkpoint");
      trainer->set_checkpoint_final(cfg.checkpoint_final);
    }

    setup_cpu.Stop();
    const double setup_comm = ctx.stats().sim_seconds - sim_start;
    out.attempt.setup_seconds =
        ctx.InstrumentMax(setup_cpu.Seconds()) + ctx.InstrumentMax(setup_comm);
    const uint64_t bytes_after_setup = ctx.stats().bytes_sent;
    out.attempt.setup_bytes = static_cast<uint64_t>(std::llround(
        ctx.InstrumentSum(static_cast<double>(bytes_after_setup -
                                              bytes_start))));

    ctx.set_fault_phase(FaultPhase::kTrain);
    try {
      trainer->Train(cfg.valid, &out.attempt.tree_costs, &out.attempt.curve,
                     cfg.elapsed_base + out.attempt.setup_seconds);
    } catch (...) {
      // An integrity escalation (or any abort) unwinds through here; keep
      // the audit accounting so the driver can attribute the failure.
      out.integrity = trainer->integrity_stats();
      throw;
    }
    ctx.set_fault_phase(FaultPhase::kAnyPhase);
    out.train_bytes_sent = ctx.stats().bytes_sent - bytes_after_setup;
    out.peak_histogram_bytes = trainer->peak_histogram_bytes();
    out.data_bytes = trainer->DataBytes();
    out.integrity = trainer->integrity_stats();
    if (rank == 0) out.model = trainer->model();
  });
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void FoldWorkerOutputs(const std::vector<WorkerOutput>& outputs,
                       DistResult* result) {
  for (const WorkerOutput& out : outputs) {
    result->peak_histogram_bytes =
        std::max(result->peak_histogram_bytes, out.peak_histogram_bytes);
    result->data_bytes = std::max(result->data_bytes, out.data_bytes);
    result->train_bytes_sent += out.train_bytes_sent;
  }
}

// Folds one attempt's audit accounting into the result (called for failed
// attempts too — unlike FoldWorkerOutputs). The check/violation counters
// are evaluated identically on every rank, so the max is the cluster value
// even when some ranks died mid-exchange; recompute waste is per-rank local
// traffic and sums, and also counts as goodput waste.
void FoldIntegrity(const std::vector<WorkerOutput>& outputs,
                   DistResult* result) {
  IntegrityStats fold;
  for (const WorkerOutput& out : outputs) {
    const IntegrityStats& s = out.integrity;
    fold.checks = std::max(fold.checks, s.checks);
    fold.violations = std::max(fold.violations, s.violations);
    fold.recomputes = std::max(fold.recomputes, s.recomputes);
    fold.escalations = std::max(fold.escalations, s.escalations);
    if (s.last_blamed_rank >= 0) fold.last_blamed_rank = s.last_blamed_rank;
    fold.wasted_bytes += s.wasted_bytes;
    fold.wasted_seconds += s.wasted_seconds;
  }
  result->integrity.checks += fold.checks;
  result->integrity.violations += fold.violations;
  result->integrity.recomputes += fold.recomputes;
  result->integrity.escalations += fold.escalations;
  if (fold.last_blamed_rank >= 0) {
    result->integrity.last_blamed_rank = fold.last_blamed_rank;
  }
  result->integrity.wasted_bytes += fold.wasted_bytes;
  result->integrity.wasted_seconds += fold.wasted_seconds;
  result->wasted_bytes += fold.wasted_bytes;
  result->wasted_seconds += fold.wasted_seconds;
}

// An escalated audit verdict unwinds with an "integrity:"-prefixed status;
// the driver keys rollback attribution on it.
bool IsIntegrityFailure(const Status& status) {
  return status.message().rfind("integrity:", 0) == 0;
}

// Approximate on-the-wire size of rows [begin, end) of `data`: CSR entries
// (4-byte feature id + 8-byte value) plus labels. Used to price shard
// re-reads from the replicated store and re-shard plan segments.
uint64_t RangeWireBytes(const Dataset& data, uint32_t begin, uint32_t end) {
  uint64_t bytes = 0;
  const CsrMatrix& m = data.matrix();
  for (InstanceId i = begin; i < end; ++i) {
    bytes += m.RowFeatures(i).size() * (sizeof(FeatureId) + sizeof(double));
  }
  bytes += static_cast<uint64_t>(end - begin) * sizeof(float);
  return bytes;
}

// Approximate on-the-wire size of one horizontal shard (a dead worker's
// shard in degraded mode, a replacement's fresh shard in elastic mode).
uint64_t ShardWireBytes(const Dataset& shard) {
  return RangeWireBytes(shard, 0, shard.num_instances());
}

// The rendezvous of a new incarnation: it meets at a barrier between
// boosting rounds, rank 0 serves the checkpoint `blob` to the group, and a
// resize ships the re-shard plan's surviving-owner rows through a
// personalized all-to-all (`reshard_send[from][to]` bytes, so the network
// model is charged exactly the plan's bytes). This runs under the shared
// fault injector (phase kRecovery), so a crash here is an overlapping
// failure.
Status RunRendezvous(Cluster& cluster, const std::vector<uint8_t>& blob,
                     const std::vector<std::vector<uint64_t>>& reshard_send) {
  return FirstError(cluster.TryRun([&](WorkerContext& ctx) {
    ctx.set_fault_phase(FaultPhase::kRecovery);
    VERO_COMM_OK(ctx.Barrier());
    std::vector<uint8_t> received =
        ctx.rank() == 0 ? blob : std::vector<uint8_t>();
    VERO_COMM_OK(ctx.Broadcast(&received, 0));
    if (!reshard_send.empty()) {
      std::vector<std::vector<uint8_t>> to_each(
          static_cast<size_t>(ctx.world_size()));
      for (int r = 0; r < ctx.world_size(); ++r) {
        to_each[r].resize(reshard_send[ctx.rank()][r]);
      }
      std::vector<std::vector<uint8_t>> from_each;
      VERO_COMM_OK(ctx.AllToAll(std::move(to_each), &from_each));
    }
    ctx.set_fault_phase(FaultPhase::kAnyPhase);
  }));
}

// The training / recovery / elasticity loop proper; the public
// TrainDistributed validates the options, then fills the run report and
// the driver counters once the clusters are quiescent.
//
// Every iteration runs one attempt. The first runs on the caller's cluster;
// each later one is launched by a transition. A RECOVERY transition repairs
// a failed incarnation: its rendezvous group is permanently broken, so
// training continues on a fresh cluster — refilled to the current width
// with re-joined replacements in elastic mode, compacted over the survivors
// otherwise — resuming from the last checkpoint when one exists. A RESIZE
// transition fires from a clean boundary: the membership grows or shrinks
// by the requested delta, the re-shard plan's row movement is charged
// through the network model, and the run continues at the new width from
// the boundary checkpoint. Every rendezvous runs under the (shared) fault
// injector, so a crash mid-transition is an overlapping failure handled by
// the next recovery transition.
DistResult TrainDistributedImpl(Cluster& cluster, const Dataset& train,
                                Quadrant quadrant,
                                const DistTrainOptions& options,
                                const Dataset* valid,
                                HistogramBuilder::ColumnScan qd3_scan) {
  const int w = cluster.num_workers();
  const bool sharded = quadrant != Quadrant::kFeatureParallel;
  const bool elastic = options.elastic_rejoin;
  const uint32_t n = train.num_instances();
  const uint32_t resize_at = options.elastic_resize_after_trees;
  const int resize_delta = static_cast<int>(options.elastic_resize_delta);
  // A scheduled resize stays pending until its membership change is
  // applied; while pending, every attempt is clamped to the boundary tree.
  bool resize_pending = resize_at > 0;

  DistResult result;
  obs::RunObserver* observer = cluster.observer();

  // Driver-owned checkpoint writer, shared by every attempt so the latest
  // restorable state survives cluster teardowns. A scheduled resize needs
  // the boundary checkpoint even when periodic checkpointing is off. The
  // writer's metric cells live on a dedicated shard: whichever single
  // thread commits a write (rank 0 inline in sync mode, the writer thread
  // in async mode) is the sole writer.
  std::unique_ptr<CheckpointWriter> writer;
  if (options.checkpoint.interval > 0 || resize_pending) {
    CheckpointWriter::Metrics writer_metrics;
    if (observer != nullptr) {
      obs::MetricsShard* ckpt_shard = observer->metrics().CreateShard();
      writer_metrics.count = ckpt_shard->counter("checkpoint.count");
      writer_metrics.bytes = ckpt_shard->counter("checkpoint.bytes");
      writer_metrics.rotated_deleted =
          ckpt_shard->counter("checkpoint.rotated_deleted");
      writer_metrics.write_seconds =
          ckpt_shard->histogram("checkpoint.latency_seconds");
      if (options.checkpoint.delta) {
        writer_metrics.delta_count =
            ckpt_shard->counter("checkpoint.delta_count");
        writer_metrics.delta_bytes =
            ckpt_shard->counter("checkpoint.delta_bytes");
      }
      if (!options.checkpoint.dir.empty()) {
        writer_metrics.stale_tmp_deleted =
            ckpt_shard->counter("checkpoint.stale_tmp_deleted");
      }
    }
    writer = std::make_unique<CheckpointWriter>(options.checkpoint,
                                                writer_metrics);
  }

  // Horizontal shards in rank order (the layout loaded from HDFS in §4.2.1)
  // for the ACTIVE world: elastic incarnations keep their width so the
  // table stays put; degraded compaction and resizes rebuild it at the new
  // width.
  std::vector<Dataset> shards;
  if (sharded) shards = BuildHorizontalShards(train, w);

  // While the resize is pending, attempts train toward the boundary only;
  // the rendezvous then continues from the boundary checkpoint at W+-k.
  DistTrainOptions clamped_options = options;
  if (resize_pending) clamped_options.params.num_trees = resize_at;

  AttemptConfig cfg;
  cfg.quadrant = quadrant;
  cfg.train = &train;
  cfg.valid = valid;
  cfg.qd3_scan = qd3_scan;
  cfg.writer = writer.get();

  // The shared injector keeps its occurrence counters across incarnations:
  // already-fired events never re-fire, and phase-targeted events scheduled
  // for the recovery rendezvous can still trigger.
  std::shared_ptr<FaultInjector> injector = cluster.shared_fault_injector();
  Membership membership = InitialMembership(w);
  AttemptLedger ledger;
  // The first attempt's setup cost stands for the run's (recovery and
  // resize setups are charged to their transitions).
  double first_setup_seconds = 0.0;
  TransformStats first_transform_stats;
  double redistribution_elapsed = 0.0;
  std::unique_ptr<Cluster> rebuilt;
  Cluster* active = &cluster;
  // The failure the next transition repairs (OK: the next transition is
  // the scheduled resize), and the ranks it killed.
  Status error;
  std::vector<int> dead;
  int survivors = w;

  cluster.ResetStats();
  for (bool first = true;; first = false) {
    const bool recovering = !error.ok();
    uint32_t trees_recovered = 0;
    TrainCheckpoint restored;
    std::vector<double> resume_margins;
    std::optional<obs::PhaseSpan> transition_span;
    if (!first) {
      obs::TraceBuffer* driver_tb =
          observer != nullptr ? observer->driver_buffer() : nullptr;
      obs::MetricsShard* driver_shard =
          observer != nullptr ? observer->driver_shard() : nullptr;
      if (recovering) {
        ++result.recovery.recovery_attempts;
        if (IsIntegrityFailure(error)) ++result.integrity_rollbacks;
      }
      transition_span.emplace(driver_tb, recovering ? "recovery" : "resize");
      transition_span->set_category("driver");

      // ---- Settle the durable state ------------------------------------
      bool have_checkpoint = false;
      if (writer != nullptr) {
        writer->Flush();
        std::optional<TrainCheckpoint> latest = writer->Latest();
        if (latest.has_value() && latest->trees_done > 0) {
          restored = std::move(*latest);
          have_checkpoint = true;
        }
      }
      trees_recovered = have_checkpoint ? restored.trees_done : 0;
      ledger.Settle(trees_recovered, &result);
      if (recovering) result.recovery.trees_recovered = trees_recovered;

      // ---- Next incarnation --------------------------------------------
      const int prev_world = membership.world;
      if (!recovering && membership.world + resize_delta < 1) {
        // Degradation since the schedule was validated left too few
        // workers.
        error = Status::InvalidArgument(
            "scheduled resize would shrink the cluster below one worker");
        break;
      }
      membership = NextMembership(membership, dead, elastic,
                                  recovering ? 0 : resize_delta);
      const int world = membership.world;
      result.recovery.rejoined_workers +=
          static_cast<int>(membership.rejoined.size());
      if (recovering) {
        VERO_LOG(Info) << "recovery attempt "
                       << result.recovery.recovery_attempts << ": "
                       << membership.ToString()
                       << (have_checkpoint
                               ? " resuming at tree " +
                                     std::to_string(trees_recovered)
                               : " restarting from scratch");
      } else {
        resize_pending = false;
        result.elasticity.resizes += 1;
        result.elasticity.admitted_workers +=
            static_cast<int>(membership.admitted.size());
        result.elasticity.retired_workers +=
            static_cast<int>(membership.retired.size());
        VERO_LOG(Info) << "resize at tree " << trees_recovered << ": "
                       << prev_world << " -> " << world << " workers, "
                       << membership.ToString();
      }

      // ---- Price state movement (the pre-transition table is still
      // active). Driver-priced traffic is what the rendezvous below cannot
      // simulate: re-reads from the replicated store (a replacement's or
      // admitted worker's fresh shard; the dead workers' shards re-spread
      // across the survivors in degraded from-scratch mode; a retired
      // worker's rows, whose owner is gone). Rows moving between surviving
      // ranks ship through the rendezvous all-to-all instead.
      uint64_t priced_bytes = 0;
      std::vector<std::vector<uint64_t>> reshard_send;
      if (recovering) {
        if (sharded) {
          if (elastic) {
            for (int r : membership.rejoined) {
              priced_bytes += ShardWireBytes(shards[r]);
            }
          } else if (!have_checkpoint) {
            for (int r : dead) {
              if (r < static_cast<int>(shards.size())) {
                priced_bytes += ShardWireBytes(shards[r]);
              }
            }
          }
        }
      } else if (sharded) {
        // The deterministic W -> W' plan: every rank derives the same
        // segment list, so no coordination traffic is needed to agree on
        // it.
        reshard_send.assign(world, std::vector<uint64_t>(world, 0));
        for (const ShardMove& move : PlanReshard(n, prev_world, world)) {
          const uint64_t bytes =
              RangeWireBytes(train, move.row_begin, move.row_end);
          result.elasticity.reshard_bytes += bytes;
          if (move.from_rank < world) {
            reshard_send[move.from_rank][move.to_rank] += bytes;
          } else {
            priced_bytes += bytes;  // Retired sender: re-read from store.
          }
        }
      } else {
        // Feature-parallel replicates the full dataset: an admitted worker
        // pulls a complete copy from the store; retirements move nothing.
        const uint64_t admitted_copies =
            RangeWireBytes(train, 0, n) * membership.admitted.size();
        result.elasticity.reshard_bytes += admitted_copies;
        priced_bytes += admitted_copies;
      }

      if (sharded && world != prev_world) {
        shards = BuildHorizontalShards(train, world);
      }

      rebuilt = std::make_unique<Cluster>(world, cluster.network_model());
      rebuilt->set_collective_timeout_seconds(
          cluster.collective_timeout_seconds());
      // A scale-up outgrows the injector's per-rank counter bank; admitted
      // ranks get fresh counters (no events ever target them).
      if (injector != nullptr) injector->EnsureWorkers(world);
      rebuilt->AdoptFaultInjector(injector);
      // Same observer as the failed cluster: the run's trace / metrics keep
      // accumulating across recovery attempts.
      rebuilt->AttachObserver(observer);
      active = rebuilt.get();

      {
        obs::PhaseSpan rejoin_span(driver_tb,
                                   recovering ? "rejoin" : "reshard");
        rejoin_span.set_category("driver");
        error = RunRendezvous(*rebuilt,
                              have_checkpoint ? SerializeCheckpoint(restored)
                                              : std::vector<uint8_t>(),
                              reshard_send);
      }
      const uint64_t redistribution_bytes =
          priced_bytes + rebuilt->TotalStats().bytes_sent;
      const double redistribution_seconds =
          cluster.network_model().OpSeconds(priced_bytes, 0) +
          rebuilt->MaxSimSeconds();
      if (recovering) {
        result.recovery.recovery_bytes += redistribution_bytes;
        result.recovery.recovery_seconds += redistribution_seconds;
        if (driver_shard != nullptr) {
          driver_shard->histogram("recovery.redistribution_seconds")
              ->Observe(redistribution_seconds);
        }
      } else {
        result.elasticity.reshard_seconds += redistribution_seconds;
        if (driver_shard != nullptr) {
          driver_shard->histogram("elasticity.reshard_seconds")
              ->Observe(redistribution_seconds);
        }
      }
      redistribution_elapsed += redistribution_seconds;

      if (error.ok()) {
        if (have_checkpoint) {
          resume_margins = restored.model.PredictDatasetMargins(train);
        }
        cfg.resume = have_checkpoint ? &restored : nullptr;
        cfg.resume_margins = have_checkpoint ? &resume_margins : nullptr;
        cfg.elapsed_base = ledger.ClockAt(
            trees_recovered, first_setup_seconds + redistribution_elapsed);
      } else {
        // Overlapping failure during the redistribution itself: all of it
        // (shard re-ship plus the rendezvous traffic) was spent for nothing
        // and the next recovery has to redo it. A crashed RESIZE
        // rendezvous keeps the already-applied new width, so the repair
        // refills dead slots at W'.
        ++result.recovery.rendezvous_failures;
        result.wasted_bytes += redistribution_bytes;
        result.wasted_seconds += redistribution_seconds;
      }
    }

    // ---- Attempt ---------------------------------------------------------
    if (error.ok()) {
      cfg.options = resize_pending ? &clamped_options : &options;
      cfg.checkpoint_final = resize_pending;
      std::vector<WorkerOutput> outputs(active->num_workers());
      error = FirstError(RunAttempt(*active, shards, cfg, &outputs));
      FoldIntegrity(outputs, &result);
      // Speculative re-execution's duplicated transfers are pure goodput
      // waste no matter how the attempt ended: the backup's copy only
      // exists to cover a straggler, it never adds information to the
      // model.
      result.wasted_bytes += active->TotalStats().speculative_bytes;
      result.wasted_seconds += active->TotalStats().speculative_seconds;
      if (first) {
        first_setup_seconds = outputs[0].attempt.setup_seconds;
        first_transform_stats = outputs[0].transform_stats;
      }
      if (!error.ok()) {
        // The next settle step charges this attempt's waste once the
        // amount kept through checkpoints is known.
        ledger.Fail(trees_recovered, std::move(outputs[0].attempt));
      } else {
        // The rebuilt cluster's setup phase (re-binning / re-transforming
        // on the new membership) is part of what the transition that
        // launched it cost.
        if (!first) {
          (recovering ? result.recovery.recovery_seconds
                      : result.elasticity.reshard_seconds) +=
              outputs[0].attempt.setup_seconds;
        }
        FoldWorkerOutputs(outputs, &result);
        ledger.Commit(trees_recovered, outputs[0].attempt);
        dead.clear();
        // Boundary reached: take the resize transition next.
        if (resize_pending) continue;

        result.model = std::move(outputs[0].model);
        result.tree_costs = ledger.tree_costs();
        result.curve = ledger.curve();
        result.setup_seconds = first_setup_seconds;
        result.transform_stats = first_transform_stats;
        if (result.recovery.recovery_attempts > 0) {
          result.recovery.trees_retrained =
              static_cast<uint32_t>(result.model.num_trees()) -
              result.recovery.trees_recovered;
        }
        result.recovery.final_world_size = active->num_workers();
        if (writer != nullptr) writer->Flush();
        return result;
      }
    }

    // ---- Failure ---------------------------------------------------------
    dead = active->dead_ranks();
    result.recovery.failures_observed += static_cast<int>(dead.size());
    survivors = active->num_workers() - static_cast<int>(dead.size());
    // No rank died: the failure has no one to evict (a timeout, or an
    // unattributed integrity violation where the digests disagree without
    // a majority). Detected but unrecoverable — surface the error as-is.
    if (dead.empty() ||
        result.recovery.recovery_attempts >= options.max_recovery_attempts ||
        survivors < 1) {
      break;
    }
  }

  // The run failed outright: nothing from the last failed attempt was kept.
  ledger.Settle(0, &result);
  result.status = error;
  result.recovery.final_world_size = survivors;
  return result;
}

// Driver counters of a run that got past validation, emitted once from its
// final result. Each appears only when its event happened at least once; a
// failure that killed no rank still shows recovery.failures_observed at 0.
void EmitDriverCounters(const DistResult& result, obs::MetricsShard* shard) {
  auto emit = [shard](const char* name, uint64_t value, bool happened) {
    if (happened) shard->counter(name)->Add(value);
  };
  const RecoveryStats& recovery = result.recovery;
  const ElasticityStats& elasticity = result.elasticity;
  const bool recovered = recovery.recovery_attempts > 0;
  // After validation a run fails only through a failed attempt or
  // rendezvous.
  emit("recovery.failures_observed", recovery.failures_observed,
       recovery.failures_observed > 0 || !result.status.ok());
  emit("recovery.attempts", recovery.recovery_attempts, recovered);
  emit("recovery.redistribution_bytes", recovery.recovery_bytes, recovered);
  emit("recovery.rejoined_workers", recovery.rejoined_workers,
       recovery.rejoined_workers > 0);
  emit("recovery.rendezvous_failures", recovery.rendezvous_failures,
       recovery.rendezvous_failures > 0);
  emit("integrity.rollbacks", result.integrity_rollbacks,
       result.integrity_rollbacks > 0);
  emit("elasticity.resizes", elasticity.resizes, elasticity.resizes > 0);
  emit("elasticity.admitted_workers", elasticity.admitted_workers,
       elasticity.admitted_workers > 0);
  emit("elasticity.retired_workers", elasticity.retired_workers,
       elasticity.retired_workers > 0);
  emit("elasticity.reshard_bytes", elasticity.reshard_bytes,
       elasticity.resizes > 0);
}

}  // namespace

DistResult TrainDistributed(Cluster& cluster, const Dataset& train,
                            Quadrant quadrant,
                            const DistTrainOptions& options,
                            const Dataset* valid,
                            HistogramBuilder::ColumnScan qd3_scan) {
  const int w = cluster.num_workers();
  Status status = options.Validate();
  if (status.ok() && options.elastic_resize_after_trees > 0 &&
      w + static_cast<int>(options.elastic_resize_delta) < 1) {
    status = Status::InvalidArgument(
        "elastic_resize_delta would shrink the cluster below one worker");
  }
  DistResult result;
  if (status.ok()) {
    result = TrainDistributedImpl(cluster, train, quadrant, options, valid,
                                  qd3_scan);
  } else {
    result.status = status;
    result.recovery.final_world_size = w;
  }
  if constexpr (obs::kObsEnabled) {
    obs::RunObserver* observer = cluster.observer();
    if (observer != nullptr) {
      if (obs::MetricsShard* shard = observer->driver_shard()) {
        shard->gauge("train.peak_histogram_bytes")
            ->SetMax(static_cast<double>(result.peak_histogram_bytes));
        shard->gauge("train.data_bytes")
            ->SetMax(static_cast<double>(result.data_bytes));
        if (status.ok()) EmitDriverCounters(result, shard);
      }
      obs::RunReport& report = result.report;
      report.enabled = true;
      report.quadrant = QuadrantToString(quadrant);
      report.workers = cluster.num_workers();
      report.trees = static_cast<uint32_t>(result.model.num_trees());
      report.train_seconds = result.TrainSeconds();
      report.comp_seconds = result.TotalCompSeconds();
      report.comm_seconds = result.TotalCommSeconds();
      report.setup_seconds = result.setup_seconds;
      for (const TreeCost& c : result.tree_costs) {
        report.phases.gradient += c.gradient_seconds;
        report.phases.hist += c.hist_seconds;
        report.phases.find_split += c.find_split_seconds;
        report.phases.node_split += c.node_split_seconds;
        report.phases.other += c.other_seconds;
        report.phases.comm += c.comm_seconds;
      }
      report.train_bytes_sent = result.train_bytes_sent;
      report.peak_histogram_bytes = result.peak_histogram_bytes;
      report.data_bytes = result.data_bytes;
      report.wasted_bytes = result.wasted_bytes;
      report.wasted_seconds = result.wasted_seconds;
      report.recovery = result.recovery;
      report.elasticity = result.elasticity;
      report.integrity.level = IntegrityLevelToString(options.integrity);
      report.integrity.checks = result.integrity.checks;
      report.integrity.violations = result.integrity.violations;
      report.integrity.recomputes = result.integrity.recomputes;
      report.integrity.escalations = result.integrity.escalations;
      report.integrity.rollbacks = result.integrity_rollbacks;
      report.integrity.last_blamed_rank = result.integrity.last_blamed_rank;
      report.integrity.wasted_bytes = result.integrity.wasted_bytes;
      report.integrity.wasted_seconds = result.integrity.wasted_seconds;
      report.metrics = observer->metrics().Merged();
      if (observer->trace_enabled()) {
        obs::AnatomyTotals totals;
        totals.quadrant = report.quadrant;
        totals.workers = report.workers;
        totals.trees = report.trees;
        totals.train_seconds = report.train_seconds;
        totals.setup_seconds = result.setup_seconds;
        totals.recovery_seconds = result.recovery.recovery_seconds;
        totals.reshard_seconds = result.elasticity.reshard_seconds;
        totals.wasted_seconds = result.wasted_seconds;
        totals.train_bytes_sent = result.train_bytes_sent;
        result.anatomy = obs::BuildAnatomyReport(*observer, totals);
      }
    }
  }
  return result;
}

}  // namespace vero
