// Elastic scale-up/scale-down: the resizing NextMembership overload and the
// deterministic PlanReshard row-movement plan (unit + seeded property
// sweeps), the elasticity GbdtParams knob validation, and end-to-end
// mid-training resizes on the distributed trainers — including a resize
// composed with a crash, committed-prefix equality against the
// uninterrupted run, and the no-resize bit-identity guarantee.

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "obs/report.h"
#include "partition/transform.h"
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

DistTrainOptions SmallOptions(uint32_t trees = 8, uint32_t layers = 5) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

// ---------------------------------------------------------------------------
// Resizing membership mapping.
// ---------------------------------------------------------------------------

TEST(ResizeMembershipTest, ZeroDeltaMatchesTwoArgumentForm) {
  const Membership m0 = InitialMembership(4);
  for (bool elastic : {false, true}) {
    const Membership a = NextMembership(m0, {1}, elastic);
    const Membership b = NextMembership(m0, {1}, elastic, /*resize_delta=*/0);
    EXPECT_EQ(a.world, b.world);
    EXPECT_EQ(a.prev_rank, b.prev_rank);
    EXPECT_EQ(a.rejoined, b.rejoined);
    EXPECT_TRUE(b.admitted.empty());
    EXPECT_TRUE(b.retired.empty());
  }
}

TEST(ResizeMembershipTest, ScaleUpAdmitsNewTopRanks) {
  const Membership m =
      NextMembership(InitialMembership(3), {}, /*elastic=*/true, +2);
  EXPECT_EQ(m.world, 5);
  EXPECT_EQ(m.prev_rank,
            (std::vector<int>{0, 1, 2, Membership::kPrevNone,
                              Membership::kPrevNone}));
  EXPECT_TRUE(m.rejoined.empty());
  EXPECT_EQ(m.admitted, (std::vector<int>{3, 4}));
  EXPECT_TRUE(m.retired.empty());
}

TEST(ResizeMembershipTest, ScaleDownRetiresLiveTopRanks) {
  const Membership m =
      NextMembership(InitialMembership(4), {}, /*elastic=*/true, -2);
  EXPECT_EQ(m.world, 2);
  EXPECT_EQ(m.prev_rank, (std::vector<int>{0, 1}));
  EXPECT_TRUE(m.rejoined.empty());
  EXPECT_TRUE(m.admitted.empty());
  EXPECT_EQ(m.retired, (std::vector<int>{2, 3}));
  EXPECT_NE(m.ToString().find("retired"), std::string::npos);
}

TEST(ResizeMembershipTest, DeadCommonRankBecomesRejoinDeadTopRankNotRetired) {
  // Rank 1 (kept) is dead -> rejoined replacement; rank 3 (dropped) is dead
  // -> simply gone, never listed as retired (nothing to ship from it).
  const Membership m =
      NextMembership(InitialMembership(4), {1, 3}, /*elastic=*/true, -1);
  EXPECT_EQ(m.world, 3);
  EXPECT_EQ(m.prev_rank,
            (std::vector<int>{0, Membership::kPrevNone, 2}));
  EXPECT_EQ(m.rejoined, (std::vector<int>{1}));
  EXPECT_TRUE(m.admitted.empty());
  EXPECT_TRUE(m.retired.empty());
}

TEST(ResizeMembershipTest, ScaleUpWithDeadRanksRefillsAndAdmits) {
  const Membership m =
      NextMembership(InitialMembership(3), {0, 2}, /*elastic=*/true, +1);
  EXPECT_EQ(m.world, 4);
  EXPECT_EQ(m.prev_rank,
            (std::vector<int>{Membership::kPrevNone, 1, Membership::kPrevNone,
                              Membership::kPrevNone}));
  EXPECT_EQ(m.rejoined, (std::vector<int>{0, 2}));
  EXPECT_EQ(m.admitted, (std::vector<int>{3}));
}

// ---------------------------------------------------------------------------
// PlanReshard: the common refinement of two HorizontalRange partitions.
// ---------------------------------------------------------------------------

// Old owner of `row` under a w-way HorizontalRange partition.
int OwnerOf(uint32_t row, uint32_t n, int world) {
  for (int r = 0; r < world; ++r) {
    const auto [begin, end] = HorizontalRange(n, world, r);
    if (row >= begin && row < end) return r;
  }
  ADD_FAILURE() << "row " << row << " unowned at world " << world;
  return -1;
}

// Every row whose owner changes is covered by exactly one move with the
// right endpoints; rows that stay put are covered by none.
void CheckPlanAgainstOwners(uint32_t n, int old_world, int new_world) {
  const std::vector<ShardMove> plan = PlanReshard(n, old_world, new_world);
  uint32_t prev_end = 0;
  for (const ShardMove& move : plan) {
    ASSERT_LT(move.row_begin, move.row_end);
    ASSERT_GE(move.row_begin, prev_end) << "segments overlap or unsorted";
    prev_end = move.row_end;
    ASSERT_GE(move.from_rank, 0);
    ASSERT_LT(move.from_rank, old_world);
    ASSERT_GE(move.to_rank, 0);
    ASSERT_LT(move.to_rank, new_world);
    ASSERT_NE(move.from_rank, move.to_rank);
  }
  ASSERT_LE(prev_end, n);
  for (uint32_t row = 0; row < n; ++row) {
    const int from = OwnerOf(row, n, old_world);
    const int to = OwnerOf(row, n, new_world);
    int covering = 0;
    for (const ShardMove& move : plan) {
      if (row >= move.row_begin && row < move.row_end) {
        ++covering;
        EXPECT_EQ(move.from_rank, from) << "row " << row;
        EXPECT_EQ(move.to_rank, to) << "row " << row;
      }
    }
    EXPECT_EQ(covering, from != to ? 1 : 0)
        << "row " << row << " covered by " << covering << " moves";
  }
}

TEST(PlanReshardTest, AgreesWithHorizontalRangeOwnership) {
  CheckPlanAgainstOwners(100, 3, 4);
  CheckPlanAgainstOwners(100, 4, 3);
  CheckPlanAgainstOwners(97, 5, 2);   // Uneven boundaries both ways.
  CheckPlanAgainstOwners(97, 2, 5);
  CheckPlanAgainstOwners(7, 4, 8);    // More workers than a full block each.
  CheckPlanAgainstOwners(3, 8, 1);    // Collapse to one worker.
}

TEST(PlanReshardTest, IdentityResizeMovesNothing) {
  EXPECT_TRUE(PlanReshard(1000, 4, 4).empty());
  EXPECT_TRUE(PlanReshard(0, 3, 5).empty());
}

TEST(PlanReshardTest, DeterministicAcrossCalls) {
  const std::vector<ShardMove> a = PlanReshard(12345, 6, 9);
  const std::vector<ShardMove> b = PlanReshard(12345, 6, 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row_begin, b[i].row_begin);
    EXPECT_EQ(a[i].row_end, b[i].row_end);
    EXPECT_EQ(a[i].from_rank, b[i].from_rank);
    EXPECT_EQ(a[i].to_rank, b[i].to_rank);
  }
}

// ---------------------------------------------------------------------------
// Seeded property sweep: random fail / rejoin / scale sequences preserve
// membership and shard-coverage invariants at every step.
// ---------------------------------------------------------------------------

void CheckMembershipInvariants(const Membership& prev, const Membership& m,
                               const std::vector<int>& dead) {
  ASSERT_EQ(static_cast<int>(m.prev_rank.size()), m.world);
  ASSERT_GE(m.world, 1);

  // Non-kPrevNone sources are unique, valid previous ranks, and never dead.
  std::set<int> sources;
  for (int r = 0; r < m.world; ++r) {
    const int src = m.prev_rank[r];
    if (src == Membership::kPrevNone) continue;
    EXPECT_GE(src, 0);
    EXPECT_LT(src, prev.world);
    EXPECT_TRUE(sources.insert(src).second) << "source " << src << " reused";
    EXPECT_FALSE(std::binary_search(dead.begin(), dead.end(), src))
        << "dead rank " << src << " carried over";
  }

  // rejoined + admitted = exactly the kPrevNone slots, disjoint and sorted.
  std::set<int> fresh;
  for (int r : m.rejoined) EXPECT_TRUE(fresh.insert(r).second);
  for (int r : m.admitted) EXPECT_TRUE(fresh.insert(r).second);
  EXPECT_TRUE(std::is_sorted(m.rejoined.begin(), m.rejoined.end()));
  EXPECT_TRUE(std::is_sorted(m.admitted.begin(), m.admitted.end()));
  for (int r = 0; r < m.world; ++r) {
    EXPECT_EQ(fresh.count(r) == 1, m.prev_rank[r] == Membership::kPrevNone)
        << "rank " << r;
  }

  // Retired ranks were live previous ranks and are not carried forward.
  EXPECT_TRUE(std::is_sorted(m.retired.begin(), m.retired.end()));
  for (int r : m.retired) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, prev.world);
    EXPECT_FALSE(std::binary_search(dead.begin(), dead.end(), r))
        << "dead rank " << r << " listed as retired";
    EXPECT_EQ(sources.count(r), 0u) << "retired rank " << r << " survived";
  }

  // At least one survivor links the incarnations.
  EXPECT_FALSE(sources.empty());
}

TEST(MembershipPropertyTest, RandomFailRejoinScaleSequencesKeepInvariants) {
  const uint32_t n = 911;  // Prime: every partition boundary is uneven.
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    Membership m = InitialMembership(1 + static_cast<int>(rng() % 6));
    for (int step = 0; step < 12; ++step) {
      const Membership prev = m;

      // Random dead set that keeps at least one survivor.
      std::vector<int> dead;
      for (int r = 0; r < prev.world; ++r) {
        if (rng() % 4 == 0 && static_cast<int>(dead.size()) + 1 < prev.world) {
          dead.push_back(r);
        }
      }

      // Random transition: recovery (elastic or degraded) or a resize.
      const int kind = static_cast<int>(rng() % 3);
      int delta = 0;
      bool elastic = true;
      if (kind == 0) {
        elastic = false;
      } else if (kind == 2) {
        delta = 1 + static_cast<int>(rng() % 2);
        if (rng() % 2 == 0) delta = -delta;
        const int survivors = prev.world - static_cast<int>(dead.size());
        if (prev.world + delta < 1 ||
            std::min(prev.world + delta, prev.world) <=
                static_cast<int>(dead.size()) ||
            survivors < 1) {
          delta = 0;  // Keep the transition legal; still exercises delta=0.
        }
      }
      m = NextMembership(prev, dead, elastic, delta);
      CheckMembershipInvariants(prev, m, dead);

      // Shard coverage across the transition: the reshard plan plus the
      // unmoved rows own every block exactly once (checked row-wise).
      if (prev.world != m.world) {
        CheckPlanAgainstOwners(n, prev.world, m.world);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Elasticity knob validation.
// ---------------------------------------------------------------------------

TEST(ElasticityKnobTest, ValidatesResizeSchedule) {
  DistTrainOptions options;
  options.params.num_trees = 10;
  ASSERT_TRUE(options.Validate().ok());

  options.elastic_resize_after_trees = 5;
  options.elastic_resize_delta = 1;
  EXPECT_TRUE(options.Validate().ok());
  options.elastic_resize_delta = -2;
  EXPECT_TRUE(options.Validate().ok());

  // A scheduled boundary with no delta is meaningless.
  options.elastic_resize_delta = 0;
  EXPECT_FALSE(options.Validate().ok());

  // A delta with no boundary is equally meaningless.
  options.elastic_resize_after_trees = 0;
  options.elastic_resize_delta = 1;
  EXPECT_FALSE(options.Validate().ok());

  // The boundary must leave post-resize rounds to train.
  options.elastic_resize_after_trees = 10;
  EXPECT_FALSE(options.Validate().ok());
  options.elastic_resize_after_trees = 11;
  EXPECT_FALSE(options.Validate().ok());
  options.elastic_resize_after_trees = 9;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ElasticityKnobTest, ScaleDownBelowOneWorkerIsRejectedAtRuntime) {
  const Dataset data = MakeData(600, 16, 401);
  DistTrainOptions options = SmallOptions(6, 4);
  options.elastic_resize_after_trees = 3;
  options.elastic_resize_delta = -3;  // 3 - 3 = 0 workers: invalid.
  ASSERT_TRUE(options.Validate().ok());  // Validate can't know W.

  Cluster cluster(3);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.elasticity.resizes, 0);
  EXPECT_EQ(result.recovery.final_world_size, 3);
}

// ---------------------------------------------------------------------------
// End-to-end resizes.
// ---------------------------------------------------------------------------

struct ResizeCase {
  Quadrant quadrant;
  int delta;
};

class ResizeE2ETest : public ::testing::TestWithParam<ResizeCase> {};

TEST_P(ResizeE2ETest, MidTrainingResizeCompletesWithCommittedPrefix) {
  const auto [quadrant, delta] = GetParam();
  const Dataset data = MakeData(1400, 30, 419);
  const auto [train, valid] = data.SplitTail(0.25);
  const uint32_t trees = 8;
  const uint32_t boundary = 4;
  const int w = 4;

  // Uninterrupted W-wide reference.
  const DistTrainOptions base_options = SmallOptions(trees);
  Cluster clean(w);
  const DistResult base =
      TrainDistributed(clean, train, quadrant, base_options, &valid);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();

  DistTrainOptions options = base_options;
  options.elastic_resize_after_trees = boundary;
  options.elastic_resize_delta = delta;
  Cluster cluster(w);
  const DistResult result =
      TrainDistributed(cluster, train, quadrant, options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), trees);
  EXPECT_EQ(result.tree_costs.size(), trees);
  EXPECT_EQ(result.curve.size(), trees);
  EXPECT_EQ(result.elasticity.resizes, 1);
  EXPECT_EQ(result.recovery.final_world_size, w + delta);
  EXPECT_EQ(result.recovery.recovery_attempts, 0);
  // A resize is not a recovery: the recovered/retrained counts stay zero.
  EXPECT_EQ(result.recovery.trees_recovered, 0u);
  EXPECT_EQ(result.recovery.trees_retrained, 0u);
  if (delta > 0) {
    EXPECT_EQ(result.elasticity.admitted_workers, delta);
    EXPECT_EQ(result.elasticity.retired_workers, 0);
  } else {
    EXPECT_EQ(result.elasticity.admitted_workers, 0);
    EXPECT_EQ(result.elasticity.retired_workers, -delta);
  }
  // The transition moved real state (rows across owners, or a full copy to
  // an admitted feature-parallel worker) — except FP scale-down, where the
  // replicated store means retirement ships nothing.
  const bool fp_down = quadrant == Quadrant::kFeatureParallel && delta < 0;
  if (!fp_down) {
    EXPECT_GT(result.elasticity.reshard_bytes, 0u);
  } else {
    EXPECT_EQ(result.elasticity.reshard_bytes, 0u);
  }
  EXPECT_GT(result.elasticity.reshard_seconds, 0.0);

  // Committed-prefix semantics: the boundary forest is exactly the
  // uninterrupted run's first `boundary` trees.
  for (uint32_t t = 0; t < boundary; ++t) {
    EXPECT_TRUE(result.model.tree(t) == base.model.tree(t)) << "tree " << t;
  }
  // Post-resize rounds ran at the new width; quality stays at baseline.
  const double auc = EvaluateModel(result.model, valid).value;
  const double auc_base = EvaluateModel(base.model, valid).value;
  EXPECT_NEAR(auc, auc_base, 0.01 * auc_base);
}

INSTANTIATE_TEST_SUITE_P(
    QuadrantsAndDirections, ResizeE2ETest,
    ::testing::Values(ResizeCase{Quadrant::kQD1, +1},
                      ResizeCase{Quadrant::kQD1, -1},
                      ResizeCase{Quadrant::kQD2, +2},
                      ResizeCase{Quadrant::kQD3, +1},
                      ResizeCase{Quadrant::kQD4, -1},
                      ResizeCase{Quadrant::kFeatureParallel, +1},
                      ResizeCase{Quadrant::kFeatureParallel, -1}));

// A crash before the boundary composes with the scheduled resize: recovery
// refills the slot at the old width, the boundary still fires, and the run
// finishes at the new width.
TEST(ResizeE2ETest, CrashBeforeBoundaryThenResizeUp) {
  const Dataset data = MakeData(1200, 25, 421);
  const auto [train, valid] = data.SplitTail(0.25);
  DistTrainOptions options = SmallOptions();
  options.checkpoint.interval = 1;
  options.elastic_rejoin = true;
  options.elastic_resize_after_trees = 4;
  options.elastic_resize_delta = 1;

  Cluster clean(4);
  const DistResult probe =
      TrainDistributed(clean, train, Quadrant::kQD2, SmallOptions(), &valid);
  ASSERT_TRUE(probe.status.ok());
  const uint64_t total_ops = clean.worker_stats(2).num_ops;

  auto run_crashed = [&](const DistTrainOptions& opts) {
    Cluster faulted(4);
    faulted.InstallFaultPlan(
        FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 4));
    return TrainDistributed(faulted, train, Quadrant::kQD2, opts, &valid);
  };
  const DistResult result = run_crashed(options);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.rejoined_workers, 1);
  EXPECT_EQ(result.elasticity.resizes, 1);
  EXPECT_EQ(result.elasticity.admitted_workers, 1);
  EXPECT_EQ(result.recovery.final_world_size, 5);
  EXPECT_EQ(result.tree_costs.size(), 8u);
  const double auc = EvaluateModel(result.model, valid).value;
  const double auc_probe = EvaluateModel(probe.model, valid).value;
  EXPECT_NEAR(auc, auc_probe, 0.01 * auc_probe);

  // The resize leaves the recovery's numbers alone: the same crash without
  // a resize schedule reports the same resume point.
  DistTrainOptions no_resize = options;
  no_resize.elastic_resize_after_trees = 0;
  no_resize.elastic_resize_delta = 0;
  const DistResult plain = run_crashed(no_resize);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(plain.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.trees_recovered, plain.recovery.trees_recovered);
  EXPECT_EQ(result.recovery.trees_recovered +
                result.recovery.trees_retrained,
            8u);
}

// A crash during the reshard rendezvous itself: the resize is already
// applied, so the repair refills the dead slot at the NEW width.
TEST(ResizeE2ETest, CrashDuringReshardRendezvousRecoversAtNewWidth) {
  const Dataset data = MakeData(1000, 22, 431);
  DistTrainOptions options = SmallOptions(6, 4);
  options.checkpoint.interval = 1;
  options.elastic_rejoin = true;
  options.max_recovery_attempts = 2;
  options.elastic_resize_after_trees = 3;
  options.elastic_resize_delta = 1;

  Cluster faulted(3);
  // First recovery-phase collective is the reshard rendezvous barrier.
  faulted.InstallFaultPlan(
      FaultPlan().Crash(1, CollectiveOp::kAny, 0, FaultPhase::kRecovery));
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD1, options);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 6u);
  EXPECT_EQ(result.elasticity.resizes, 1);
  EXPECT_EQ(result.recovery.rendezvous_failures, 1);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.rejoined_workers, 1);
  EXPECT_EQ(result.recovery.final_world_size, 4);
}

// ---------------------------------------------------------------------------
// No-resize bit-identity: with elasticity disabled and full checkpoints the
// training + recovery pipeline is deterministic — two independent runs of
// every quadrant x fault-phase cell produce byte-identical forests, and
// carrying the (unscheduled) elasticity knobs changes nothing.
// ---------------------------------------------------------------------------

struct IdentityCase {
  Quadrant quadrant;
  FaultPhase phase;  // kAnyPhase = mid-training crash; kSetup = setup crash.
};

class NoResizeIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(NoResizeIdentityTest, RecoveredForestIsBitIdenticalAcrossRuns) {
  const auto [quadrant, phase] = GetParam();
  const Dataset data = MakeData(1000, 24, 433);
  DistTrainOptions options = SmallOptions(6, 4);
  options.checkpoint.interval = 1;
  options.elastic_rejoin = true;

  auto run = [&]() {
    Cluster cluster(4);
    cluster.InstallFaultPlan(
        FaultPlan().Crash(1, CollectiveOp::kAny, phase == FaultPhase::kSetup
                                                     ? 1
                                                     : 30,
                          phase));
    const DistResult result =
        TrainDistributed(cluster, data, quadrant, options);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return ModelToText(result.model);
  };

  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

INSTANTIATE_TEST_SUITE_P(
    QuadrantByPhase, NoResizeIdentityTest,
    ::testing::Values(IdentityCase{Quadrant::kQD1, FaultPhase::kAnyPhase},
                      IdentityCase{Quadrant::kQD2, FaultPhase::kAnyPhase},
                      IdentityCase{Quadrant::kQD3, FaultPhase::kAnyPhase},
                      IdentityCase{Quadrant::kQD4, FaultPhase::kAnyPhase},
                      IdentityCase{Quadrant::kQD1, FaultPhase::kSetup},
                      IdentityCase{Quadrant::kQD3, FaultPhase::kSetup}));

// ---------------------------------------------------------------------------
// Observability: elasticity.* metric family and the report block.
// ---------------------------------------------------------------------------

TEST(ElasticityObsTest, ResizeEmitsMetricsAndReportBlock) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(900, 20, 439);
  DistTrainOptions options = SmallOptions(6, 4);
  options.elastic_resize_after_trees = 3;
  options.elastic_resize_delta = 1;

  obs::RunObserver observer;
  Cluster cluster(3);
  cluster.AttachObserver(&observer);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const obs::RunReport& report = result.report;

  const obs::MetricsSnapshot snapshot = observer.metrics().Merged();
  EXPECT_EQ(snapshot.CounterValue("elasticity.resizes"), 1u);
  EXPECT_EQ(snapshot.CounterValue("elasticity.admitted_workers"), 1u);
  EXPECT_GT(snapshot.CounterValue("elasticity.reshard_bytes"), 0u);
  const obs::MetricsSnapshot::Entry* seconds =
      snapshot.Find("elasticity.reshard_seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->count, 1u);

  ASSERT_TRUE(report.enabled);
  EXPECT_EQ(report.elasticity.resizes, 1);
  EXPECT_EQ(report.elasticity.admitted_workers, 1);
  EXPECT_GT(report.elasticity.reshard_bytes, 0u);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"elasticity\""), std::string::npos);
  EXPECT_NE(json.find("\"reshard_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace vero
