// Elastic recovery: a crashed worker is replaced by a re-joining worker at
// a rendezvous barrier between rounds, so the rebuilt cluster runs at the
// original world size W instead of degrading to the survivors. Also covers
// overlapping failures (a second crash during the recovery redistribution
// itself), phase-targeted fault injection into the transform/sketch setup
// pipeline, the setup-pipeline trace spans, and async checkpointing's
// critical-path guarantee.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/membership.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quadrants/attempt_ledger.h"
#include "quadrants/checkpoint.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

using obs::ObsOptions;
using obs::RunObserver;
using obs::TraceEvent;

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 8, uint32_t layers = 5) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Attempt ledger: committed prefix and goodput waste, without a cluster.
// ---------------------------------------------------------------------------

// An attempt that began at tree `start` and completed `rounds` rounds. Round
// t costs (t + 1) seconds and 10 * (t + 1) bytes; setup costs 0.5 s and 7
// bytes. Every value is exact in binary, so sums compare with ==.
AttemptRecord MakeAttempt(uint32_t start, uint32_t rounds) {
  AttemptRecord attempt;
  for (uint32_t t = start; t < start + rounds; ++t) {
    TreeCost cost;
    cost.other_seconds = t + 1.0;
    cost.bytes_sent = 10 * (t + 1);
    attempt.tree_costs.push_back(cost);
    IterationStats stats;
    stats.tree_index = t;
    attempt.curve.push_back(stats);
  }
  attempt.setup_seconds = 0.5;
  attempt.setup_bytes = 7;
  return attempt;
}

std::vector<uint32_t> CurveTrees(const AttemptLedger& ledger) {
  std::vector<uint32_t> trees;
  for (const IterationStats& s : ledger.curve()) trees.push_back(s.tree_index);
  return trees;
}

TEST(AttemptLedgerTest, CheckpointCoveringSomeRoundsCommitsThemAndWastesRest) {
  AttemptLedger ledger;
  ledger.Fail(0, MakeAttempt(0, 4));
  DistResult result;
  ledger.Settle(3, &result);
  EXPECT_EQ(CurveTrees(ledger), (std::vector<uint32_t>{0, 1, 2}));
  ASSERT_EQ(ledger.tree_costs().size(), 3u);
  EXPECT_EQ(ledger.tree_costs()[2].bytes_sent, 30u);
  // Only round 3 is lost; the setup bought the kept rounds.
  EXPECT_EQ(result.wasted_seconds, 4.0);
  EXPECT_EQ(result.wasted_bytes, 40u);
  EXPECT_EQ(ledger.ClockAt(3, 0.5), 0.5 + 1.0 + 2.0 + 3.0);

  // Settling clears the pending attempt: a second settle charges nothing.
  ledger.Settle(3, &result);
  EXPECT_EQ(result.wasted_seconds, 4.0);
  EXPECT_EQ(result.wasted_bytes, 40u);
}

TEST(AttemptLedgerTest, NothingKeptChargesEveryRoundAndTheSetup) {
  AttemptLedger ledger;
  ledger.Fail(0, MakeAttempt(0, 2));
  DistResult result;
  ledger.Settle(0, &result);
  EXPECT_TRUE(ledger.tree_costs().empty());
  EXPECT_TRUE(ledger.curve().empty());
  EXPECT_EQ(result.wasted_seconds, 1.0 + 2.0 + 0.5);
  EXPECT_EQ(result.wasted_bytes, 10u + 20u + 7u);
}

TEST(AttemptLedgerTest, CheckpointOlderThanCommittedPrefix) {
  AttemptLedger ledger;
  ledger.Commit(0, MakeAttempt(0, 4));
  ledger.Fail(4, MakeAttempt(4, 2));
  DistResult result;
  // The resume point lies inside the committed prefix: the prefix stays as
  // it is and the whole pending attempt, setup included, is waste.
  ledger.Settle(2, &result);
  EXPECT_EQ(CurveTrees(ledger), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(result.wasted_seconds, 5.0 + 6.0 + 0.5);
  EXPECT_EQ(result.wasted_bytes, 50u + 60u + 7u);
  // An attempt resuming at tree 2 starts after the first two rounds.
  EXPECT_EQ(ledger.ClockAt(2, 0.0), 1.0 + 2.0);
}

TEST(AttemptLedgerTest, CommitStitchesPrefixWithAttemptSuffix) {
  AttemptLedger ledger;
  ledger.Commit(0, MakeAttempt(0, 4));
  ledger.Commit(2, MakeAttempt(2, 3));
  EXPECT_EQ(CurveTrees(ledger), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  std::vector<uint64_t> bytes;
  for (const TreeCost& c : ledger.tree_costs()) bytes.push_back(c.bytes_sent);
  EXPECT_EQ(bytes, (std::vector<uint64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(ledger.ClockAt(5, 0.0), 1.0 + 2.0 + 3.0 + 4.0 + 5.0);
}

// ---------------------------------------------------------------------------
// Membership mapping.
// ---------------------------------------------------------------------------

TEST(MembershipTest, ElasticReplacesDeadSlotsInPlace) {
  const Membership m0 = InitialMembership(4);
  EXPECT_EQ(m0.world, 4);
  EXPECT_TRUE(m0.rejoined.empty());
  for (int r = 0; r < 4; ++r) EXPECT_EQ(m0.prev_rank[r], r);

  const Membership m1 = NextMembership(m0, {1, 3}, /*elastic=*/true);
  EXPECT_EQ(m1.world, 4);
  EXPECT_EQ(m1.prev_rank, (std::vector<int>{0, Membership::kPrevNone, 2,
                                            Membership::kPrevNone}));
  EXPECT_EQ(m1.rejoined, (std::vector<int>{1, 3}));
  EXPECT_FALSE(m1.IsRejoin(0));
  EXPECT_TRUE(m1.IsRejoin(1));
  EXPECT_NE(m1.ToString().find("new"), std::string::npos);
}

TEST(MembershipTest, DegradedCompactsSurvivors) {
  const Membership m1 =
      NextMembership(InitialMembership(4), {1, 3}, /*elastic=*/false);
  EXPECT_EQ(m1.world, 2);
  EXPECT_EQ(m1.prev_rank, (std::vector<int>{0, 2}));
  EXPECT_TRUE(m1.rejoined.empty());

  // A further failure chains off the compacted incarnation.
  const Membership m2 = NextMembership(m1, {0}, /*elastic=*/false);
  EXPECT_EQ(m2.world, 1);
  EXPECT_EQ(m2.prev_rank, (std::vector<int>{1}));
}

// ---------------------------------------------------------------------------
// Kill-then-rejoin on every quadrant: the job finishes at full W.
// ---------------------------------------------------------------------------

class ElasticQuadrantTest : public ::testing::TestWithParam<Quadrant> {};

TEST_P(ElasticQuadrantTest, KillThenRejoinFinishesAtFullWorldSize) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(1400, 30, 307);
  const auto [train, valid] = data.SplitTail(0.25);
  const DistTrainOptions options = SmallOptions();
  const int w = 4;

  // Failure-free baseline: quality target and the positional fault address.
  Cluster clean(w);
  const DistResult base =
      TrainDistributed(clean, train, quadrant, options, &valid);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_EQ(base.model.num_trees(), 8u);
  const double auc_clean = EvaluateModel(base.model, valid).value;
  const uint64_t total_ops = clean.worker_stats(2).num_ops;
  ASSERT_GT(total_ops, 20u);

  Cluster faulted(w);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 2));
  DistTrainOptions elastic_options = options;
  elastic_options.checkpoint.interval = 1;
  elastic_options.elastic_rejoin = true;
  const DistResult result =
      TrainDistributed(faulted, train, quadrant, elastic_options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.failures_observed, 1);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  // The headline elastic property: the replacement re-joined, so the final
  // cluster is back at the original world size.
  EXPECT_EQ(result.recovery.final_world_size, w);
  EXPECT_EQ(result.recovery.rejoined_workers, 1);
  EXPECT_EQ(result.recovery.rendezvous_failures, 0);
  EXPECT_GT(result.recovery.trees_recovered, 0u);
  EXPECT_GT(result.recovery.trees_retrained, 0u);
  EXPECT_EQ(result.recovery.trees_recovered + result.recovery.trees_retrained,
            8u);
  // Recovery moved real state: the rendezvous checkpoint broadcast plus the
  // replacement's shard re-read.
  EXPECT_GT(result.recovery.recovery_bytes, 0u);
  EXPECT_GT(result.recovery.recovery_seconds, 0.0);
  EXPECT_EQ(result.tree_costs.size(), 8u);
  EXPECT_EQ(result.curve.size(), 8u);
  EXPECT_EQ(faulted.dead_ranks(), std::vector<int>{2});

  const double auc = EvaluateModel(result.model, valid).value;
  EXPECT_NEAR(auc, auc_clean, 0.01 * auc_clean);
}

INSTANTIATE_TEST_SUITE_P(AllQuadrants, ElasticQuadrantTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2,
                                           Quadrant::kQD3, Quadrant::kQD4));

// ---------------------------------------------------------------------------
// Overlapping failures: a crash during the recovery redistribution itself.
// ---------------------------------------------------------------------------

TEST(ElasticRecoveryTest, OverlappingFailureDuringRecoveryRedistribution) {
  const Dataset data = MakeData(1200, 25, 311);
  const auto [train, valid] = data.SplitTail(0.25);
  DistTrainOptions options = SmallOptions();
  // Interval 2 leaves the odd round uncheckpointed, so the mid-training
  // crash itself strands work in the wasted counters (not only the failed
  // rendezvous later).
  options.checkpoint.interval = 2;
  options.elastic_rejoin = true;
  options.max_recovery_attempts = 3;

  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, train, Quadrant::kQD2, options, &valid);
  ASSERT_TRUE(base.status.ok());
  const uint64_t total_ops = clean.worker_stats(2).num_ops;

  // Single-failure reference: same mid-training crash, clean recovery.
  // Observers only record metrics; they leave training and accounting as is.
  RunObserver single_observer;
  Cluster single(4);
  single.AttachObserver(&single_observer);
  single.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 2));
  const DistResult ref =
      TrainDistributed(single, train, Quadrant::kQD2, options, &valid);
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  ASSERT_EQ(ref.recovery.recovery_attempts, 1);

  // Overlapping: rank 1 additionally crashes at its first collective of the
  // recovery rendezvous (the rejoin barrier), killing recovery attempt 1.
  RunObserver overlapped_observer;
  Cluster overlapped(4);
  overlapped.AttachObserver(&overlapped_observer);
  overlapped.InstallFaultPlan(
      FaultPlan()
          .Crash(2, CollectiveOp::kAny, total_ops / 2)
          .Crash(1, CollectiveOp::kAny, 0, FaultPhase::kRecovery));
  const DistResult result =
      TrainDistributed(overlapped, train, Quadrant::kQD2, options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.failures_observed, 2);
  EXPECT_EQ(result.recovery.recovery_attempts, 2);
  EXPECT_EQ(result.recovery.rendezvous_failures, 1);
  // Both dead slots were refilled (rank 2's replacement, then rank 1's).
  EXPECT_EQ(result.recovery.rejoined_workers, 2);
  EXPECT_EQ(result.recovery.final_world_size, 4);
  EXPECT_EQ(result.recovery.trees_recovered + result.recovery.trees_retrained,
            8u);
  EXPECT_EQ(result.tree_costs.size(), 8u);

  // Both failed attempts are charged. The single-failure reference already
  // wastes the uncheckpointed round of the mid-training crash; the
  // overlapping run additionally wastes attempt 1's whole redistribution
  // (replacement shard re-ship + rendezvous traffic). That round's seconds
  // include thread-CPU time, so the two runs' wasted seconds differ by
  // timing noise and are not compared; the redistribution is priced by the
  // network model alone, so its seconds are.
  EXPECT_GT(ref.wasted_seconds, 0.0);
  EXPECT_GT(ref.wasted_bytes, 0u);
  EXPECT_GT(result.wasted_bytes, ref.wasted_bytes);
  EXPECT_GE(result.recovery.recovery_bytes, ref.recovery.recovery_bytes);
  const obs::MetricsSnapshot ref_metrics = single_observer.metrics().Merged();
  const obs::MetricsSnapshot metrics = overlapped_observer.metrics().Merged();
  const auto* ref_redistribution =
      ref_metrics.Find("recovery.redistribution_seconds");
  const auto* redistribution =
      metrics.Find("recovery.redistribution_seconds");
  ASSERT_NE(ref_redistribution, nullptr);
  ASSERT_NE(redistribution, nullptr);
  ASSERT_EQ(ref_redistribution->count, 1u);
  ASSERT_EQ(redistribution->count, 2u);
  // The failed rendezvous died at its first collective, before the
  // checkpoint broadcast the successful one completes, so it is the
  // cheaper of the two redistributions.
  const double failed_redistribution = redistribution->min;
  EXPECT_GT(failed_redistribution, 0.0);
  EXPECT_GT(redistribution->sum, ref_redistribution->sum);
  EXPECT_GT(result.wasted_seconds, failed_redistribution);

  const double auc = EvaluateModel(result.model, valid).value;
  const double auc_base = EvaluateModel(base.model, valid).value;
  EXPECT_NEAR(auc, auc_base, 0.01 * auc_base);
}

// Repeated crashes during the rendezvous exhaust the recovery budget and
// surface as a Status — never a hang or an exception.
TEST(ElasticRecoveryTest, RepeatedRendezvousFailuresExhaustBudget) {
  const Dataset data = MakeData(800, 20, 313);
  DistTrainOptions options = SmallOptions(4, 4);
  options.checkpoint.interval = 1;
  options.elastic_rejoin = true;
  options.max_recovery_attempts = 2;

  Cluster faulted(4);
  // Rank 2 dies mid-training; then every rendezvous is killed: rank 1 at
  // its first recovery-phase op (attempt 1's barrier). Attempt 1's broken
  // barrier advanced rank 3's recovery-phase counter to 1, so occurrence 2
  // hits rank 3 during attempt 2's rendezvous broadcast.
  faulted.InstallFaultPlan(
      FaultPlan()
          .Crash(2, CollectiveOp::kAny, 12)
          .Crash(1, CollectiveOp::kAny, 0, FaultPhase::kRecovery)
          .Crash(3, CollectiveOp::kAny, 2, FaultPhase::kRecovery));
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD1, options);

  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.recovery.recovery_attempts, 2);
  EXPECT_EQ(result.recovery.rendezvous_failures, 2);
  EXPECT_EQ(result.recovery.failures_observed, 3);
}

// ---------------------------------------------------------------------------
// Phase-targeted faults in the transform / sketch setup pipeline.
// ---------------------------------------------------------------------------

class TransformCrashTest : public ::testing::TestWithParam<Quadrant> {};

// A worker dies mid-AllToAll during the vertical transform (the second
// setup-phase AllToAll: sketch repartition is #0, column-group repartition
// is #1). Elastic recovery re-runs the transform on a full-size cluster.
TEST_P(TransformCrashTest, CrashMidTransformAllToAllRecovers) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(1000, 24, 317);
  const auto [train, valid] = data.SplitTail(0.25);
  DistTrainOptions options = SmallOptions();
  options.checkpoint.interval = 1;
  options.elastic_rejoin = true;

  Cluster faulted(4);
  faulted.InstallFaultPlan(FaultPlan().Crash(
      1, CollectiveOp::kAllToAll, 1, FaultPhase::kSetup));
  const DistResult result =
      TrainDistributed(faulted, train, quadrant, options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.failures_observed, 1);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.final_world_size, 4);
  EXPECT_EQ(result.recovery.rejoined_workers, 1);
  // The crash predates any completed round, so nothing was checkpointed:
  // the rebuilt cluster retrains the full forest.
  EXPECT_EQ(result.recovery.trees_recovered, 0u);
  EXPECT_EQ(result.recovery.trees_retrained, 8u);
  EXPECT_GT(result.recovery.recovery_bytes, 0u);
  EXPECT_EQ(faulted.dead_ranks(), std::vector<int>{1});
  EXPECT_GT(EvaluateModel(result.model, valid).value, 0.65);
}

INSTANTIATE_TEST_SUITE_P(VerticalQuadrants, TransformCrashTest,
                         ::testing::Values(Quadrant::kQD3, Quadrant::kQD4));

// A phase-targeted event whose phase never occurs (kRecovery on a clean
// run) must leave the simulation bit-identical: the per-phase occurrence
// counters are pure bookkeeping.
TEST(TransformCrashTest, UnfiredPhaseEventKeepsRunBitIdentical) {
  const Dataset data = MakeData(1000, 24, 331);
  const DistTrainOptions options = SmallOptions(5, 5);

  Cluster plain(4);
  const DistResult a = TrainDistributed(plain, data, Quadrant::kQD3, options);
  Cluster armed(4);
  armed.InstallFaultPlan(
      FaultPlan().Crash(0, CollectiveOp::kAny, 0, FaultPhase::kRecovery));
  const DistResult b = TrainDistributed(armed, data, Quadrant::kQD3, options);

  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.train_bytes_sent, b.train_bytes_sent);
  for (int r = 0; r < 4; ++r) {
    const CommStats& sa = plain.worker_stats(r);
    const CommStats& sb = armed.worker_stats(r);
    EXPECT_EQ(sa.bytes_sent, sb.bytes_sent) << "rank " << r;
    EXPECT_EQ(sa.num_ops, sb.num_ops) << "rank " << r;
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds) << "rank " << r;  // Exact.
  }
  EXPECT_EQ(plain.MaxSimSeconds(), armed.MaxSimSeconds());
}

// ---------------------------------------------------------------------------
// Setup-pipeline trace spans.
// ---------------------------------------------------------------------------

TEST(SetupSpanTest, TransformPipelineSpansCarryRankAttribution) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(900, 20, 337);
  const DistTrainOptions options = SmallOptions(4, 4);
  const int workers = 4;

  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster cluster(workers);
  cluster.AttachObserver(&observer);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD3, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // name -> ranks that recorded it.
  const char* kSetupSpans[] = {"sketch-build", "transform-encode",
                               "transform-decode", "label-broadcast"};
  std::map<std::string, std::set<int>> ranks_of;
  for (const TraceEvent& e : observer.trace().MergedEvents()) {
    if (std::string_view(e.category) != "phase") continue;
    for (const char* name : kSetupSpans) {
      if (std::string_view(e.name) == name) {
        // Setup spans predate any boosting round: tree stays unattributed
        // so per-tree cost aggregation never sees them.
        EXPECT_EQ(e.tree, -1) << name;
        ranks_of[name].insert(e.rank);
      }
    }
  }
  for (const char* name : kSetupSpans) {
    ASSERT_TRUE(ranks_of.count(name)) << "missing span " << name;
    EXPECT_EQ(ranks_of[name].size(), static_cast<size_t>(workers))
        << "span " << name << " not recorded on every rank";
  }
}

TEST(SetupSpanTest, HorizontalQuadrantRecordsSketchSpanOnly) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(900, 20, 347);
  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster cluster(3);
  cluster.AttachObserver(&observer);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, SmallOptions(4, 4));
  ASSERT_TRUE(result.status.ok());

  bool saw_sketch = false;
  for (const TraceEvent& e : observer.trace().MergedEvents()) {
    const std::string_view name(e.name);
    saw_sketch = saw_sketch || name == "sketch-build";
    EXPECT_NE(name, "transform-encode");
    EXPECT_NE(name, "transform-decode");
    EXPECT_NE(name, "label-broadcast");
  }
  EXPECT_TRUE(saw_sketch);
}

// ---------------------------------------------------------------------------
// Async checkpointing: identical training, file IO off the round loop.
// ---------------------------------------------------------------------------

TEST(AsyncCheckpointTest, AsyncCheckpointingKeepsCriticalPathClean) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(1000, 22, 349);
  const uint32_t trees = 6;

  struct Run {
    DistResult result;
    std::vector<TraceEvent> events;
    obs::MetricsSnapshot metrics;
  };
  auto run_with = [&](bool async, const std::string& dir) {
    DistTrainOptions options = SmallOptions(trees, 4);
    options.checkpoint.interval = 1;
    options.checkpoint.async = async;
    options.checkpoint.dir = dir;
    ObsOptions obs_options;
    obs_options.trace = true;
    RunObserver observer(obs_options);
    Cluster cluster(3);
    cluster.AttachObserver(&observer);
    Run run;
    run.result = TrainDistributed(cluster, data, Quadrant::kQD1, options);
    run.events = observer.trace().MergedEvents();
    run.metrics = observer.metrics().Merged();
    return run;
  };

  const std::string sync_dir = FreshDir("async_ckpt_sync");
  const std::string async_dir = FreshDir("async_ckpt_async");
  const Run sync_run = run_with(false, sync_dir);
  const Run async_run = run_with(true, async_dir);
  ASSERT_TRUE(sync_run.result.status.ok());
  ASSERT_TRUE(async_run.result.status.ok());

  // Training is oblivious to the writer mode: identical forests and
  // identical modeled cost (bytes and simulated comm are deterministic;
  // thread-CPU seconds are not and are deliberately not compared).
  ASSERT_EQ(sync_run.result.model.num_trees(), trees);
  ASSERT_EQ(async_run.result.model.num_trees(), trees);
  for (uint32_t t = 0; t < trees; ++t) {
    EXPECT_TRUE(sync_run.result.model.tree(t) ==
                async_run.result.model.tree(t))
        << "tree " << t;
    EXPECT_EQ(sync_run.result.tree_costs[t].bytes_sent,
              async_run.result.tree_costs[t].bytes_sent)
        << "tree " << t;
    EXPECT_DOUBLE_EQ(sync_run.result.tree_costs[t].comm_seconds,
                     async_run.result.tree_costs[t].comm_seconds)
        << "tree " << t;
  }
  EXPECT_EQ(sync_run.result.train_bytes_sent,
            async_run.result.train_bytes_sent);

  // Span names tell the critical-path story: the sync round loop carries
  // "checkpoint" (serialize + write inline); the async loop only ever
  // records the snapshot copy.
  auto count_spans = [](const Run& run, std::string_view name) {
    size_t n = 0;
    for (const TraceEvent& e : run.events) {
      if (std::string_view(e.category) != "collective" &&
          std::string_view(e.name) == name) {
        EXPECT_EQ(e.rank, 0) << name << " span off rank 0";
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_spans(sync_run, "checkpoint"), trees);
  EXPECT_EQ(count_spans(sync_run, "checkpoint-snapshot"), 0u);
  EXPECT_EQ(count_spans(async_run, "checkpoint"), 0u);
  EXPECT_EQ(count_spans(async_run, "checkpoint-snapshot"), trees);

  // The sync writer commits inline: exactly one durable commit per round.
  // The async writer also commits every round when it keeps up, but its
  // newest-wins slot may legally coalesce rounds when the test box is
  // loaded — what it guarantees is at least one commit, at most one per
  // round, and (asserted below) a final durable state covering the whole
  // run. Either way the metrics land on the writer's shard.
  EXPECT_EQ(sync_run.metrics.CounterValue("checkpoint.count"), trees);
  const uint64_t async_commits =
      async_run.metrics.CounterValue("checkpoint.count");
  EXPECT_GE(async_commits, 1u);
  EXPECT_LE(async_commits, trees);
  for (const Run* run : {&sync_run, &async_run}) {
    EXPECT_GT(run->metrics.CounterValue("checkpoint.bytes"), 0u);
    const obs::MetricsSnapshot::Entry* latency =
        run->metrics.Find("checkpoint.latency_seconds");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count,
              run->metrics.CounterValue("checkpoint.count"));
  }

  for (const std::string& dir : {sync_dir, async_dir}) {
    const auto loaded = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->trees_done, trees);
    EXPECT_EQ(loaded->model.num_trees(), trees);
  }
}

// Async checkpointing composes with elastic recovery: the driver-owned
// writer survives the cluster teardown, and recovery resumes from whatever
// the background thread had committed.
TEST(AsyncCheckpointTest, AsyncWriterFeedsElasticRecovery) {
  const Dataset data = MakeData(1200, 25, 353);
  const auto [train, valid] = data.SplitTail(0.25);
  DistTrainOptions options = SmallOptions();
  options.checkpoint.interval = 1;
  options.checkpoint.async = true;
  options.elastic_rejoin = true;

  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, train, Quadrant::kQD2, options, &valid);
  ASSERT_TRUE(base.status.ok());
  const uint64_t total_ops = clean.worker_stats(2).num_ops;

  Cluster faulted(4);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 2));
  const DistResult result =
      TrainDistributed(faulted, train, Quadrant::kQD2, options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.final_world_size, 4);
  EXPECT_EQ(result.recovery.rejoined_workers, 1);
  // The async writer had at least one committed round to resume from (the
  // crash lands many rounds in, and Flush settles the pending slot).
  EXPECT_GT(result.recovery.trees_recovered, 0u);
  EXPECT_EQ(result.recovery.trees_recovered + result.recovery.trees_retrained,
            8u);
  const double auc = EvaluateModel(result.model, valid).value;
  const double auc_clean = EvaluateModel(base.model, valid).value;
  EXPECT_NEAR(auc, auc_clean, 0.01 * auc_clean);
}

}  // namespace
}  // namespace vero
