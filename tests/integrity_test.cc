// End-to-end integrity: silent corruption injected AFTER the transport CRC
// (and NaN poison injected into compute buffers) must produce a demonstrably
// wrong model when auditing is off, and must be detected — with the correct
// rank blamed — when auditing is on. Detected violations heal through a
// targeted layer recompute when possible, escalating to the existing
// checkpoint-rollback machinery otherwise, and every path is charged to the
// run's waste accounting. Also covers the guarantee that enabling the
// auditor on a CLEAN run is bit-identical and byte-identical to integrity
// off: audit packets ride the instrumentation channel, not the data plane.

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "integrity/auditor.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 6, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

DistTrainOptions WithIntegrity(DistTrainOptions options, IntegrityLevel level) {
  options.integrity = level;
  return options;
}

// ---------------------------------------------------------------------------
// Clean runs: the auditor must be a pure observer.
// ---------------------------------------------------------------------------

class QuadrantIntegrityTest : public ::testing::TestWithParam<Quadrant> {};

// On a fault-free run, integrity=checksum and integrity=full produce a model
// bit-identical to integrity=off AND move exactly the same number of data
// bytes: the audit exchange rides the instrumentation rendezvous, never the
// (costed, fault-injectable) data plane.
TEST_P(QuadrantIntegrityTest, CleanRunIsBitIdenticalAcrossLevels) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(900, 24, 311);
  const DistTrainOptions base = SmallOptions();

  Cluster off_cluster(3);
  const DistResult off = TrainDistributed(
      off_cluster, data, quadrant, WithIntegrity(base, IntegrityLevel::kOff));
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();
  const std::string off_text = ModelToText(off.model);
  EXPECT_EQ(off.integrity.checks, 0u);

  for (const IntegrityLevel level :
       {IntegrityLevel::kChecksum, IntegrityLevel::kFull}) {
    Cluster cluster(3);
    const DistResult result =
        TrainDistributed(cluster, data, quadrant, WithIntegrity(base, level));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(ModelToText(result.model), off_text)
        << IntegrityLevelToString(level);
    EXPECT_EQ(result.train_bytes_sent, off.train_bytes_sent)
        << IntegrityLevelToString(level);
    EXPECT_GT(result.integrity.checks, 0u);
    EXPECT_EQ(result.integrity.violations, 0u);
    EXPECT_EQ(result.integrity.recomputes, 0u);
    EXPECT_EQ(result.integrity.escalations, 0u);
    EXPECT_EQ(result.integrity_rollbacks, 0);
    EXPECT_EQ(result.integrity.last_blamed_rank, -1);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(cluster.worker_stats(r).bytes_sent,
                off_cluster.worker_stats(r).bytes_sent)
          << "rank " << r;
      EXPECT_EQ(cluster.worker_stats(r).sim_seconds,
                off_cluster.worker_stats(r).sim_seconds)
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQuadrants, QuadrantIntegrityTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2,
                                           Quadrant::kQD3, Quadrant::kQD4));

// QD1 digests its all-reduced pool histograms in place, part after part.
// The digest must be the one of their concatenation, so
// "qd1-hist-allreduce" does not depend on where the parts live: rank 0
// pushes the parts and rank 1 the concatenation's digest, and a 1-vs-1
// split would be a violation.
TEST(AuditDigestTest, ReplicatedPartsDigestIsTheConcatenationDigest) {
  const std::vector<std::vector<double>> parts = {{1.5, -0.0, 3e300, -2.25},
                                                   {0.0, 7.0, -1e-300, 4.5},
                                                   {8.0, 9.0, 0.1, 0.2}};
  std::vector<double> concat, swapped;
  for (const auto& part : parts) {
    concat.insert(concat.end(), part.begin(), part.end());
  }
  for (size_t p : {1, 0, 2}) {
    swapped.insert(swapped.end(), parts[p].begin(), parts[p].end());
  }
  const std::vector<const double*> ptrs = {parts[0].data(), parts[1].data(),
                                           parts[2].data()};
  // `rank1` is the digest rank 1 pushes; returns each rank's verdict.
  const auto agree = [&](uint64_t rank1, size_t len) {
    Cluster cluster(2);
    std::vector<uint8_t> ok(2, 0);
    cluster.Run([&](WorkerContext& ctx) {
      IntegrityAuditor auditor(ctx, IntegrityLevel::kChecksum);
      if (ctx.rank() == 0) {
        auditor.PushReplicatedDoubles("qd1-hist-allreduce", ptrs, len);
      } else {
        auditor.PushReplicated("qd1-hist-allreduce", rank1);
      }
      ok[ctx.rank()] = auditor.Exchange("test").ok;
    });
    return ok[0] && ok[1];
  };
  EXPECT_TRUE(agree(AuditDigestDoubles(concat), 4));
  EXPECT_TRUE(agree(AuditDigestDoubles({}), 0));
  // Controls: the same values in another part order, or a shorter part
  // length, give another digest.
  EXPECT_FALSE(agree(AuditDigestDoubles(swapped), 4));
  EXPECT_FALSE(agree(AuditDigestDoubles(concat), 3));
}

// ---------------------------------------------------------------------------
// Silent transport corruption: escapes at off, caught + blamed + healed on.
// ---------------------------------------------------------------------------

// QD1 aggregates the layer histograms with one AllReduceSum per layer, and
// every worker then evaluates splits from its own replica of the aggregate.
// Flipping a bit of rank 2's replica after the CRC passed makes rank 2
// decide differently from the others — in a real deployment that is a wrong
// model or a desynchronized cluster. At checksum (and full) the replicated
// digest of the aggregate disagrees 1-vs-2, rank 2 is blamed, one layer
// recompute heals the run, and the final model is bit-identical to clean.
TEST(SilentCorruptTest, Qd1AllReduceDetectedAndHealed) {
  const Dataset data = MakeData(900, 24, 313);
  const DistTrainOptions base = SmallOptions();

  Cluster clean(3);
  const DistResult ref = TrainDistributed(clean, data, Quadrant::kQD1, base);
  ASSERT_TRUE(ref.status.ok());
  const std::string ref_text = ModelToText(ref.model);

  for (const IntegrityLevel level :
       {IntegrityLevel::kChecksum, IntegrityLevel::kFull}) {
    Cluster cluster(3);
    // Occurrence 1 of the kTrain AllReduceSum stream = tree 0's root-layer
    // histogram aggregate (occurrence 0 is the gradient all-reduce).
    cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
        2, CollectiveOp::kAllReduceSum, /*occurrence=*/1, /*seed=*/77,
        FaultPhase::kTrain));
    const DistResult result = TrainDistributed(cluster, data, Quadrant::kQD1,
                                               WithIntegrity(base, level));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_GE(result.integrity.violations, 1u) << IntegrityLevelToString(level);
    EXPECT_EQ(result.integrity.recomputes, 1u) << IntegrityLevelToString(level);
    EXPECT_EQ(result.integrity.escalations, 0u);
    EXPECT_EQ(result.integrity.last_blamed_rank, 2);
    EXPECT_GT(result.integrity.wasted_seconds, 0.0);
    EXPECT_GT(result.wasted_seconds, 0.0);  // Folded into run goodput.
    EXPECT_EQ(ModelToText(result.model), ref_text)
        << IntegrityLevelToString(level);
  }
}

// QD2 exchanges per-destination histogram slices with AllToAll, and the
// merged decision stays replicated (every rank merges the same gathered
// per-slice bests) — so at integrity=off a corrupted slice silently yields
// a wrong but internally consistent model: the escape the paper's checksum
// argument misses. On, the pairwise sent/recv digest audit convicts the
// RECEIVER whose copy diverged from what the sender handed to the
// transport, and the layer recompute restores the clean model.
TEST(SilentCorruptTest, Qd2AllToAllEscapesOffBlamesReceiverOn) {
  const Dataset data = MakeData(900, 24, 317);
  const DistTrainOptions base = SmallOptions();

  Cluster clean(3);
  const DistResult ref = TrainDistributed(clean, data, Quadrant::kQD2, base);
  ASSERT_TRUE(ref.status.ok());
  const std::string ref_text = ModelToText(ref.model);

  // Rank 2's feature slice holds the trees' dominant split, so corrupting
  // the slices rank 2 RECEIVES visibly changes the decided model.
  const auto corrupted_plan = [] {
    return FaultPlan().SilentCorrupt(2, CollectiveOp::kAllToAll,
                                     /*occurrence=*/0, /*seed=*/5,
                                     FaultPhase::kTrain);
  };

  Cluster off_cluster(3);
  off_cluster.InstallFaultPlan(corrupted_plan());
  const DistResult off = TrainDistributed(
      off_cluster, data, Quadrant::kQD2, WithIntegrity(base, IntegrityLevel::kOff));
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();
  EXPECT_EQ(off.integrity.checks, 0u);
  EXPECT_NE(ModelToText(off.model), ref_text);

  Cluster cluster(3);
  cluster.InstallFaultPlan(corrupted_plan());
  const DistResult result = TrainDistributed(
      cluster, data, Quadrant::kQD2, WithIntegrity(base, IntegrityLevel::kFull));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.recomputes, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
  EXPECT_EQ(ModelToText(result.model), ref_text);
}

// With only two workers a replicated-digest disagreement is 1-vs-1: detected
// but unattributable (blamed rank -1). The layer recompute still heals it.
TEST(SilentCorruptTest, TwoWorkerTieIsDetectedButUnattributed) {
  const Dataset data = MakeData(700, 20, 331);
  const DistTrainOptions base = SmallOptions();

  Cluster clean(2);
  const DistResult ref = TrainDistributed(clean, data, Quadrant::kQD1, base);
  ASSERT_TRUE(ref.status.ok());

  Cluster cluster(2);
  cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
      1, CollectiveOp::kAllReduceSum, /*occurrence=*/1, /*seed=*/55,
      FaultPhase::kTrain));
  const DistResult result = TrainDistributed(
      cluster, data, Quadrant::kQD1, WithIntegrity(base, IntegrityLevel::kFull));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.recomputes, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, -1);
  EXPECT_EQ(ModelToText(result.model), ModelToText(ref.model));
}

// ---------------------------------------------------------------------------
// Compute poison: NaN / Inf planted in gradient and histogram buffers.
// ---------------------------------------------------------------------------

// A NaN planted in one worker's gradient buffer sums into every rank's root
// stats identically, so replicated digests agree — at off AND at checksum
// the poisoned model escapes. Only the full-level non-finite scan catches
// it, blames the poisoned rank, and a recompute restores the clean model.
TEST(PoisonTest, GradientNaNNeedsFullLevel) {
  const Dataset data = MakeData(800, 20, 337);
  const DistTrainOptions base = SmallOptions();

  Cluster clean(3);
  const DistResult ref = TrainDistributed(clean, data, Quadrant::kQD1, base);
  ASSERT_TRUE(ref.status.ok());
  const std::string ref_text = ModelToText(ref.model);

  const auto poison_plan = [] {
    return FaultPlan().Poison(1, ComputePoint::kGradient, /*occurrence=*/1,
                              /*inf=*/false, FaultPhase::kTrain, /*seed=*/1);
  };

  for (const IntegrityLevel level :
       {IntegrityLevel::kOff, IntegrityLevel::kChecksum}) {
    Cluster cluster(3);
    cluster.InstallFaultPlan(poison_plan());
    const DistResult escaped = TrainDistributed(cluster, data, Quadrant::kQD1,
                                                WithIntegrity(base, level));
    ASSERT_TRUE(escaped.status.ok()) << escaped.status.ToString();
    EXPECT_EQ(escaped.integrity.violations, 0u) << IntegrityLevelToString(level);
    EXPECT_NE(ModelToText(escaped.model), ref_text)
        << IntegrityLevelToString(level);
  }

  Cluster cluster(3);
  cluster.InstallFaultPlan(poison_plan());
  const DistResult result = TrainDistributed(
      cluster, data, Quadrant::kQD1, WithIntegrity(base, IntegrityLevel::kFull));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.recomputes, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 1);
  EXPECT_EQ(ModelToText(result.model), ref_text);
}

// +Inf planted in a built histogram is caught by the pre-aggregation scan
// before the poisoned cell can dissolve into every rank's aggregate, so the
// blame lands on the poisoned worker and the layer rebuild heals the run.
TEST(PoisonTest, HistogramInfBlamedAndRecomputed) {
  const Dataset data = MakeData(800, 20, 347);
  const DistTrainOptions base = SmallOptions();

  Cluster clean(3);
  const DistResult ref = TrainDistributed(clean, data, Quadrant::kQD1, base);
  ASSERT_TRUE(ref.status.ok());

  Cluster cluster(3);
  // Occurrence 3 of the histogram stream = tree 1's root layer, which is
  // built without subtraction — so the healed rebuild is bit-exact.
  cluster.InstallFaultPlan(FaultPlan().Poison(0, ComputePoint::kHistogram,
                                              /*occurrence=*/3, /*inf=*/true,
                                              FaultPhase::kTrain));
  const DistResult result = TrainDistributed(
      cluster, data, Quadrant::kQD1, WithIntegrity(base, IntegrityLevel::kFull));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.recomputes, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 0);
  EXPECT_EQ(ModelToText(result.model), ModelToText(ref.model));
}

// ---------------------------------------------------------------------------
// Escalation: recompute budget exhausted -> blame-attributed rollback.
// ---------------------------------------------------------------------------

// Corruption that persists across the recompute (two consecutive occurrences
// of the same collective) exhausts kAuditMaxRecomputes. The blamed
// worker is failed, and with checkpoint + recovery budget the run rolls
// back, finishes on the survivors, and records the integrity rollback.
TEST(EscalationTest, PersistentCorruptionRollsBackViaCheckpoint) {
  const Dataset data = MakeData(900, 24, 349);
  DistTrainOptions options = SmallOptions();
  options.integrity = IntegrityLevel::kFull;
  options.checkpoint.interval = 1;

  Cluster cluster(3);
  // Occurrence 8 = tree 1's root-layer histogram aggregate; occurrence 9 is
  // consumed by the recompute's re-aggregation, so the corruption survives
  // the retry and exhausts kAuditMaxRecomputes.
  cluster.InstallFaultPlan(
      FaultPlan()
          .SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/8,
                         /*seed=*/77, FaultPhase::kTrain)
          .SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/9,
                         /*seed=*/78, FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 6u);
  EXPECT_EQ(result.integrity.recomputes, 1u);
  EXPECT_GE(result.integrity.escalations, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
  EXPECT_EQ(result.integrity_rollbacks, 1);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.final_world_size, 2);
  EXPECT_GT(result.recovery.trees_recovered, 0u);  // Tree 0's checkpoint held.
  EXPECT_EQ(cluster.dead_ranks(), std::vector<int>{2});
}

// Corrupting the small child-count all-reduce would leave the ranks with
// divergent frontiers — a desynchronized cluster, not just a wrong model.
// The per-layer counts audit catches it immediately after ApplyLayerSplits,
// escalates without burning a recompute (placement is already committed),
// and the run rolls back past it.
TEST(EscalationTest, CountsCorruptionEscalatesWithoutRecompute) {
  const Dataset data = MakeData(900, 24, 349);
  DistTrainOptions options = SmallOptions();
  options.integrity = IntegrityLevel::kChecksum;
  options.checkpoint.interval = 1;

  Cluster cluster(3);
  // Occurrence 9 = tree 1's root-layer child-count all-reduce.
  cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
      2, CollectiveOp::kAllReduceSum, /*occurrence=*/9, /*seed=*/81,
      FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 6u);
  EXPECT_EQ(result.integrity.recomputes, 0u);
  EXPECT_GE(result.integrity.escalations, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
  EXPECT_EQ(result.integrity_rollbacks, 1);
  EXPECT_EQ(result.recovery.final_world_size, 2);
}

// The same persistent corruption with a zero recovery budget surfaces as a
// failed run whose status names the integrity subsystem — detected, blamed,
// but unrecoverable by policy. The salvaged counters still report the
// escalation.
TEST(EscalationTest, NoRecoveryBudgetFailsWithIntegrityStatus) {
  const Dataset data = MakeData(900, 24, 349);
  DistTrainOptions options = SmallOptions();
  options.integrity = IntegrityLevel::kFull;
  options.max_recovery_attempts = 0;

  Cluster cluster(3);
  cluster.InstallFaultPlan(
      FaultPlan()
          .SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/8,
                         /*seed=*/77, FaultPhase::kTrain)
          .SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/9,
                         /*seed=*/78, FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);

  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("integrity"), std::string::npos)
      << result.status.ToString();
  EXPECT_GE(result.integrity.escalations, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
}

// ---------------------------------------------------------------------------
// Noisy-transport escalation (satellite): CRC-visible corruption that keeps
// failing past RetryPolicy::max_attempts escalates to a crash.
// ---------------------------------------------------------------------------

class RetryExhaustionTest : public ::testing::TestWithParam<FaultKind> {};

TEST_P(RetryExhaustionTest, ExhaustedRetriesEscalateToCrash) {
  const Dataset data = MakeData(700, 20, 353);
  DistTrainOptions options = SmallOptions(4, 4);
  options.max_recovery_attempts = 0;

  FaultPlan plan;
  // 5 consecutive bad attempts > RetryPolicy{max_attempts=3}: unrecoverable
  // by retry alone.
  if (GetParam() == FaultKind::kCorrupt) {
    plan.Corrupt(1, CollectiveOp::kAllReduceSum, /*occurrence=*/2,
                 /*attempts=*/5, FaultPhase::kTrain);
  } else {
    plan.Truncate(1, CollectiveOp::kAllReduceSum, /*occurrence=*/2,
                  /*attempts=*/5, FaultPhase::kTrain);
  }
  Cluster cluster(3);
  cluster.InstallFaultPlan(plan);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);

  // The survivors observe the escalated crash as kUnavailable.
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.recovery.failures_observed, 1);
  EXPECT_EQ(cluster.dead_ranks(), std::vector<int>{1});
  // The failed attempts' traffic is charged: retransmissions on the wire,
  // and the aborted attempt's work in the run's waste accounting.
  EXPECT_GT(cluster.worker_stats(1).retransmitted_bytes, 0u);
  EXPECT_GE(cluster.worker_stats(1).num_retries, 3u);
  EXPECT_GT(result.wasted_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(CorruptAndTruncate, RetryExhaustionTest,
                         ::testing::Values(FaultKind::kCorrupt,
                                           FaultKind::kTruncate));

// ---------------------------------------------------------------------------
// Parameter validation + dataset rejection coordinates (satellites).
// ---------------------------------------------------------------------------

TEST(IntegrityParamsTest, ValidateRejectsBadKnobs) {
  DistTrainOptions options;
  ASSERT_TRUE(options.Validate().ok());
  options.integrity = IntegrityLevel::kFull;
  EXPECT_TRUE(options.Validate().ok());

  // Reference-trainer extensions no quadrant implements are rejected, not
  // silently ignored, and the status names the field.
  auto rejects = [](void (*mutate)(GbdtParams&), const char* field) {
    DistTrainOptions bad;
    mutate(bad.params);
    const Status status = bad.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.ToString();
  };
  rejects([](GbdtParams& p) { p.growth = GrowthPolicy::kLeafWise; },
          "growth");
  rejects([](GbdtParams& p) { p.max_leaves = 8; }, "max_leaves");
  rejects([](GbdtParams& p) { p.row_subsample = 0.5; }, "row_subsample");
  rejects([](GbdtParams& p) { p.column_subsample = 0.5; },
          "column_subsample");
}

TEST(DatasetIntegrityTest, NonFiniteRejectionNamesTheCell) {
  // Row 1 holds a NaN at feature 2; the rejection must say so.
  CsrMatrix matrix(4, {0, 2, 4, 5},
                   {0, 1, 2, 3, 1},
                   {1.0f, 2.0f, std::nanf(""), 4.0f, 5.0f});
  Dataset data(std::move(matrix), {0.0f, 1.0f, 0.0f}, Task::kBinary, 2);
  const Status status = data.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("row 1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("feature 2"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("nan"), std::string::npos)
      << status.ToString();
}

TEST(DatasetIntegrityTest, LabelRejectionNamesTheRow) {
  CsrMatrix matrix(2, {0, 1, 2}, {0, 1}, {1.0f, 2.0f});
  Dataset data(std::move(matrix), {0.0f, 3.0f}, Task::kBinary, 2);
  const Status status = data.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("row 1"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace vero
