// Straggler mitigation: bounded-staleness aggregation and speculative
// re-execution. Covers the deterministic classifier, the mitigation layer's
// exact accounting (staleness.* / speculation.* locked to the network cost
// model), a property-based staleness-bound/mass-conservation sweep, and the
// end-to-end fault-grid contract: strict mode stays bit-identical to seed
// under any delay plan, speculative mode reproduces the strict model exactly,
// and bounded mode beats strict wall time within an asserted loss tolerance.

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "cluster/communicator.h"
#include "cluster/staleness.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "partition/transform.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

using obs::MetricsSnapshot;
using obs::RunObserver;

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 4, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

MitigationOptions Bounded(double deadline = 0.01, uint32_t bound = 2,
                          uint32_t max_stale = 1) {
  MitigationOptions opts;
  opts.mode = MitigationMode::kBoundedStaleness;
  opts.deadline_seconds = deadline;
  opts.staleness_bound = bound;
  opts.max_stale_ranks = max_stale;
  return opts;
}

MitigationOptions Speculative(double threshold = 0.01) {
  MitigationOptions opts;
  opts.mode = MitigationMode::kSpeculative;
  opts.speculation_threshold_seconds = threshold;
  return opts;
}

// ---------------------------------------------------------------------------
// ClassifyStragglers: the pure, replicated decision procedure.
// ---------------------------------------------------------------------------

TEST(ClassifyStragglersTest, StrictModeNeverMitigates) {
  std::vector<double> delays = {0.0, 5.0, 0.0, 9.0};
  std::vector<uint32_t> streaks = {0, 0, 0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  ClassifyStragglers(MitigationOptions{}, delays, streaks, &klass, &backup);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(klass[r], RankClass::kOnTime);
    EXPECT_EQ(backup[r], -1);
  }
}

TEST(ClassifyStragglersTest, BoundedDefersWorstLateRankOnly) {
  std::vector<double> delays = {0.0, 0.3, 0.0, 0.8};
  std::vector<uint32_t> streaks = {0, 0, 0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  ClassifyStragglers(Bounded(/*deadline=*/0.05), delays, streaks, &klass,
                     &backup);
  // Budget is max_stale_ranks = 1: the worst straggler is deferred, the
  // second-worst falls back to strict behavior.
  EXPECT_EQ(klass[3], RankClass::kDeferred);
  EXPECT_EQ(klass[1], RankClass::kOnTime);
  EXPECT_EQ(klass[0], RankClass::kOnTime);
  EXPECT_EQ(klass[2], RankClass::kOnTime);
}

TEST(ClassifyStragglersTest, BudgetNeverExceedsWorldMinusOne) {
  std::vector<double> delays = {1.0, 1.0, 1.0, 1.0};
  std::vector<uint32_t> streaks = {0, 0, 0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  ClassifyStragglers(Bounded(0.05, 2, /*max_stale=*/8), delays, streaks,
                     &klass, &backup);
  int deferred = 0;
  for (RankClass k : klass) deferred += k == RankClass::kDeferred ? 1 : 0;
  EXPECT_EQ(deferred, 3);  // At least one rank must stay on time.
  EXPECT_EQ(klass[3], RankClass::kOnTime);  // Ties break toward low ranks.
}

TEST(ClassifyStragglersTest, StreakAtBoundForcesSync) {
  std::vector<double> delays = {0.0, 0.7, 0.0, 0.0};
  std::vector<uint32_t> streaks = {0, 2, 0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  ClassifyStragglers(Bounded(0.05, /*bound=*/2), delays, streaks, &klass,
                     &backup);
  EXPECT_EQ(klass[1], RankClass::kForced);
  // A forced sync consumes no budget: another late rank may still defer.
  std::vector<double> two_late = {0.0, 0.7, 0.4, 0.0};
  ClassifyStragglers(Bounded(0.05, 2), two_late, streaks, &klass, &backup);
  EXPECT_EQ(klass[1], RankClass::kForced);
  EXPECT_EQ(klass[2], RankClass::kDeferred);
}

TEST(ClassifyStragglersTest, SpeculativeAssignsDistinctLowestBackups) {
  std::vector<double> delays = {0.0, 0.7, 0.0, 0.9};
  std::vector<uint32_t> streaks = {0, 0, 0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  MitigationOptions opts = Speculative(0.05);
  opts.max_stale_ranks = 2;
  ClassifyStragglers(opts, delays, streaks, &klass, &backup);
  EXPECT_EQ(klass[1], RankClass::kSpeculated);
  EXPECT_EQ(klass[3], RankClass::kSpeculated);
  // Backups are the lowest on-time ranks, assigned in rank order, distinct.
  EXPECT_EQ(backup[1], 0);
  EXPECT_EQ(backup[3], 2);
  EXPECT_EQ(backup[0], -1);
  EXPECT_EQ(backup[2], -1);
}

TEST(ClassifyStragglersTest, SpeculationWithoutBackupFallsBackToStrict) {
  // Two workers, one late: the only on-time rank backs it up. But if every
  // candidate would leave no on-time backup, the rank reverts to strict.
  std::vector<double> delays = {0.9, 0.8};
  std::vector<uint32_t> streaks = {0, 0};
  std::vector<RankClass> klass;
  std::vector<int> backup;
  MitigationOptions opts = Speculative(0.05);
  opts.max_stale_ranks = 2;
  ClassifyStragglers(opts, delays, streaks, &klass, &backup);
  // Budget w-1 = 1: only the worst (rank 0) is speculated, rank 1 serves.
  EXPECT_EQ(klass[0], RankClass::kSpeculated);
  EXPECT_EQ(backup[0], 1);
  EXPECT_EQ(klass[1], RankClass::kOnTime);
}

// ---------------------------------------------------------------------------
// Bounded collective semantics + exact accounting against the cost model.
// ---------------------------------------------------------------------------

TEST(BoundedCollectiveTest, BoundedAccountingLockedToCostModel) {
  const int w = 4;
  const size_t n = 16;
  const double kDelay = 0.5;
  const double kDeadline = 0.05;
  RunObserver observer;
  Cluster cluster(w);
  cluster.AttachObserver(&observer);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(2, CollectiveOp::kAllReduceSum, 0, kDelay));
  cluster.Run([&](WorkerContext& ctx) {
    std::vector<double> data(n, static_cast<double>(ctx.rank() + 1));
    MitigationOutcome outcome;
    VERO_COMM_OK(ctx.AllReduceSum(data, {.mitigation = Bounded(kDeadline)},
                                  &outcome));
    EXPECT_EQ(outcome.deferred_ranks, 1);
    EXPECT_EQ(outcome.self_deferred, ctx.rank() == 2);
    EXPECT_EQ(outcome.contributed[2], 0);
    // Rank 2's payload (all 3.0) is excluded identically on every rank.
    for (double v : data) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 4.0);
  });

  const uint64_t wire = 2 * (n * sizeof(double)) * (w - 1) / w;  // 192
  const double op_s = cluster.network_model().OpSeconds(wire, wire);
  for (int r = 0; r < w; ++r) {
    const CommStats& s = cluster.worker_stats(r);
    // The late payload still crossed the wire: volume is charged as strict.
    EXPECT_EQ(s.bytes_sent, wire) << "rank " << r;
    EXPECT_EQ(s.bytes_received, wire) << "rank " << r;
    if (r == 2) {
      // Deferred: injected delay absorbed off the critical path.
      EXPECT_DOUBLE_EQ(s.sim_seconds, op_s);
      EXPECT_DOUBLE_EQ(s.absorbed_delay_seconds, kDelay);
      EXPECT_DOUBLE_EQ(s.fault_delay_seconds, 0.0);
      EXPECT_EQ(s.deferred_contributions, 1u);
      EXPECT_DOUBLE_EQ(s.deadline_wait_seconds, 0.0);
    } else {
      // On-time ranks pay exactly the deadline on top of the op.
      EXPECT_DOUBLE_EQ(s.sim_seconds, op_s + kDeadline) << "rank " << r;
      EXPECT_DOUBLE_EQ(s.deadline_wait_seconds, kDeadline) << "rank " << r;
      EXPECT_DOUBLE_EQ(s.absorbed_delay_seconds, 0.0) << "rank " << r;
      EXPECT_EQ(s.deferred_contributions, 0u) << "rank " << r;
    }
    EXPECT_EQ(s.speculative_bytes, 0u) << "rank " << r;
  }

  const MetricsSnapshot metrics = observer.metrics().Merged();
  EXPECT_EQ(metrics.CounterValue("staleness.deferred_contributions"), 1u);
  EXPECT_EQ(metrics.CounterValue("staleness.forced_syncs"), 0u);
  const MetricsSnapshot::Entry* deferred_s =
      metrics.Find("staleness.deferred_seconds");
  ASSERT_NE(deferred_s, nullptr);
  EXPECT_EQ(deferred_s->count, 1u);
  EXPECT_DOUBLE_EQ(deferred_s->sum, kDelay);
  const MetricsSnapshot::Entry* mass = metrics.Find("staleness.deferred_mass");
  ASSERT_NE(mass, nullptr);
  EXPECT_DOUBLE_EQ(mass->sum, 3.0 * n);  // Rank 2's dropped (g,h) mass.
  const MetricsSnapshot::Entry* wait =
      metrics.Find("staleness.deadline_wait_seconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 3u);
  EXPECT_DOUBLE_EQ(wait->sum, 3 * kDeadline);
  // Exact accounting: per-op counters still decompose CommStats totals.
  EXPECT_EQ(metrics.CounterValue("comm.AllReduceSum.bytes_sent"),
            cluster.TotalStats().bytes_sent);
}

TEST(BoundedCollectiveTest, SpeculativeAccountingLockedToCostModel) {
  const int w = 4;
  const size_t n = 256;
  const double kDelay = 0.5;
  RunObserver observer;
  Cluster cluster(w);
  cluster.AttachObserver(&observer);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(3, CollectiveOp::kAllReduceSum, 0, kDelay));
  cluster.Run([&](WorkerContext& ctx) {
    std::vector<double> data(n, static_cast<double>(ctx.rank() + 1));
    MitigationOutcome outcome;
    VERO_COMM_OK(
        ctx.AllReduceSum(data, {.mitigation = Speculative()}, &outcome));
    EXPECT_EQ(outcome.speculated_ranks, 1);
    EXPECT_EQ(outcome.self_speculated, ctx.rank() == 3);
    // Speculation keeps the data exact: every rank contributes.
    EXPECT_EQ(outcome.contributed, std::vector<uint8_t>(4, 1));
    for (double v : data) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 3.0 + 4.0);
  });

  const uint64_t wire = 2 * (n * sizeof(double)) * (w - 1) / w;  // 3072
  const double op_s = cluster.network_model().OpSeconds(wire, wire);
  // Rank 0 (lowest on-time) re-served rank 3's share: double volume/time.
  const CommStats& backup = cluster.worker_stats(0);
  EXPECT_EQ(backup.bytes_sent, 2 * wire);
  EXPECT_EQ(backup.speculative_bytes, wire);
  EXPECT_DOUBLE_EQ(backup.speculative_seconds, op_s);
  EXPECT_DOUBLE_EQ(backup.sim_seconds, 2 * op_s);
  // The speculated rank's delay is absorbed; no deadline charges anywhere.
  const CommStats& slow = cluster.worker_stats(3);
  EXPECT_DOUBLE_EQ(slow.absorbed_delay_seconds, kDelay);
  EXPECT_DOUBLE_EQ(slow.fault_delay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(slow.sim_seconds, op_s);
  EXPECT_EQ(cluster.worker_stats(1).bytes_sent, wire);
  EXPECT_DOUBLE_EQ(cluster.TotalStats().deadline_wait_seconds, 0.0);

  const MetricsSnapshot metrics = observer.metrics().Merged();
  EXPECT_EQ(metrics.CounterValue("speculation.launched"), 1u);
  EXPECT_EQ(metrics.CounterValue("speculation.wasted_bytes"), wire);
  const MetricsSnapshot::Entry* wasted_s =
      metrics.Find("speculation.wasted_seconds");
  ASSERT_NE(wasted_s, nullptr);
  EXPECT_EQ(wasted_s->count, 1u);
  EXPECT_DOUBLE_EQ(wasted_s->sum, op_s);
  const MetricsSnapshot::Entry* absorbed =
      metrics.Find("speculation.absorbed_seconds");
  ASSERT_NE(absorbed, nullptr);
  EXPECT_DOUBLE_EQ(absorbed->sum, kDelay);
  // Exact accounting: the duplicated volume is mirrored into the per-op
  // counters, so they still decompose CommStats totals to the byte.
  EXPECT_EQ(metrics.CounterValue("comm.AllReduceSum.bytes_sent"),
            cluster.TotalStats().bytes_sent);
  EXPECT_EQ(metrics.CounterValue("comm.AllReduceSum.ops"),
            cluster.TotalStats().num_ops);
}

TEST(BoundedCollectiveTest, ForcedSyncAtStalenessBound) {
  RunObserver observer;
  Cluster cluster(4);
  cluster.AttachObserver(&observer);
  cluster.InstallFaultPlan(FaultPlan()
                               .Delay(1, CollectiveOp::kAllReduceSum, 0, 0.5)
                               .Delay(1, CollectiveOp::kAllReduceSum, 1, 0.5));
  cluster.Run([&](WorkerContext& ctx) {
    const MitigationOptions opts = Bounded(0.01, /*bound=*/1);
    std::vector<double> data(8, static_cast<double>(ctx.rank() + 1));
    MitigationOutcome outcome;
    VERO_COMM_OK(ctx.AllReduceSum(data, {.mitigation = opts}, &outcome));
    EXPECT_EQ(outcome.self_deferred, ctx.rank() == 1);
    for (double v : data) EXPECT_DOUBLE_EQ(v, 1.0 + 3.0 + 4.0);
    // Second late call: rank 1's streak hit the bound, so it is forced to
    // contribute (full strict price) instead of going stale again.
    std::vector<double> data2(8, static_cast<double>(ctx.rank() + 1));
    VERO_COMM_OK(ctx.AllReduceSum(data2, {.mitigation = opts}, &outcome));
    EXPECT_FALSE(outcome.self_deferred);
    EXPECT_EQ(outcome.self_forced, ctx.rank() == 1);
    for (double v : data2) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 3.0 + 4.0);
  });
  const CommStats& slow = cluster.worker_stats(1);
  EXPECT_DOUBLE_EQ(slow.absorbed_delay_seconds, 0.5);  // Call 1 absorbed.
  EXPECT_DOUBLE_EQ(slow.fault_delay_seconds, 0.5);     // Call 2 paid in full.
  EXPECT_EQ(observer.metrics().Merged().CounterValue("staleness.forced_syncs"),
            1u);
}

TEST(BoundedCollectiveTest, AllGatherBoundedDropsDeferredSlotEverywhere) {
  Cluster cluster(4);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(2, CollectiveOp::kAllGather, 0, 0.5));
  cluster.Run([&](WorkerContext& ctx) {
    const std::vector<uint8_t> mine(
        static_cast<size_t>(ctx.rank() + 1) * 10,
        static_cast<uint8_t>(ctx.rank()));
    std::vector<std::vector<uint8_t>> all;
    MitigationOutcome outcome;
    VERO_COMM_OK(ctx.AllGather(mine, &all, Bounded(0.01), &outcome));
    EXPECT_EQ(outcome.contributed[2], 0);
    // The deferred slot is empty on EVERY rank, including rank 2 itself.
    EXPECT_TRUE(all[2].empty());
    for (int r = 0; r < 4; ++r) {
      if (r == 2) continue;
      EXPECT_EQ(all[r].size(), static_cast<size_t>(r + 1) * 10);
    }
  });
  // Bytes are still charged as strict: rank 2's 30-byte payload crossed the
  // wire to its 3 peers before being dropped.
  EXPECT_EQ(cluster.worker_stats(2).bytes_sent, 30u * 3);
  EXPECT_EQ(cluster.worker_stats(0).bytes_received, 20u + 30 + 40);
}

// The summing exchange drops everything a deferred sender sent on every
// rank, its self-share included, is charged like the AllToAll of the packed
// slices, and records the dropped (g, h) value mass as AllReduceSum does,
// not payload bytes.
TEST(BoundedCollectiveTest, AllToAllSumDropsDeferredSenderAndRecordsValueMass) {
  constexpr size_t kUnits = 5;  // Slices of 1, 2 and 2 units.
  constexpr size_t kUnitLen = 2;
  RunObserver observer;
  Cluster cluster(3);
  cluster.AttachObserver(&observer);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(0, CollectiveOp::kAllToAll, 0, 0.5));
  cluster.Run([&](WorkerContext& ctx) {
    const int r = ctx.rank();
    std::vector<double> a(kUnits * kUnitLen, r + 1.0);
    std::vector<double> b(kUnits * kUnitLen, 10.0 * (r + 1));
    const std::vector<const double*> mine = {a.data(), b.data()};
    const size_t len =
        (ctx.SliceEnd(kUnits, r) - ctx.SliceBegin(kUnits, r)) * kUnitLen;
    std::vector<double> sum_a(len), sum_b(len);
    const std::vector<double*> out = {sum_a.data(), sum_b.data()};
    MitigationOutcome outcome;
    VERO_COMM_OK(ctx.AllToAllSum(mine, kUnits, kUnitLen, out,
                                 {.mitigation = Bounded(0.01)}, &outcome));
    EXPECT_EQ(outcome.contributed[0], 0);
    for (double v : sum_a) EXPECT_EQ(v, 2.0 + 3.0);
    for (double v : sum_b) EXPECT_EQ(v, 20.0 + 30.0);
  });
  // Rank 1 sends 2 nodes x (1 + 2) units x 2 doubles and receives 2 peers x
  // 2 nodes x 2 units x 2 doubles.
  EXPECT_EQ(cluster.worker_stats(1).bytes_sent, 96u);
  EXPECT_EQ(cluster.worker_stats(1).bytes_received, 128u);
  const MetricsSnapshot metrics = observer.metrics().Merged();
  const MetricsSnapshot::Entry* mass = metrics.Find("staleness.deferred_mass");
  ASSERT_NE(mass, nullptr);
  EXPECT_EQ(mass->count, 1u);
  EXPECT_DOUBLE_EQ(mass->sum, 10 * 1.0 + 10 * 10.0);  // Rank 0's values.
}

TEST(BoundedCollectiveTest, SpeculativeAllGatherChargesBackupReexecution) {
  Cluster cluster(4);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(3, CollectiveOp::kAllGather, 0, 0.7));
  cluster.Run([&](WorkerContext& ctx) {
    const std::vector<uint8_t> mine(100, static_cast<uint8_t>(ctx.rank()));
    std::vector<std::vector<uint8_t>> all;
    MitigationOutcome outcome;
    VERO_COMM_OK(ctx.AllGather(mine, &all, Speculative(), &outcome));
    // Exact delivery: every slot filled.
    for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r].size(), 100u);
  });
  // Backup rank 0 re-sent rank 3's 100-byte payload to w-1 peers.
  EXPECT_EQ(cluster.worker_stats(0).speculative_bytes, 300u);
  EXPECT_EQ(cluster.worker_stats(0).bytes_sent, 300u + 300u);
  EXPECT_DOUBLE_EQ(cluster.worker_stats(3).absorbed_delay_seconds, 0.7);
}

// ---------------------------------------------------------------------------
// Property-based sweep: staleness bound and mass conservation under random
// seeded delay schedules.
// ---------------------------------------------------------------------------

TEST(StalenessPropertyTest, BoundHeldAndMassConservedUnderRandomDelays) {
  const int w = 4;
  const int kCalls = 24;
  const size_t n = 8;
  const uint32_t kBound = 2;
  for (uint64_t seed : {7ull, 41ull, 1234ull}) {
    // Seeded random delay schedule: each call delays each rank with
    // probability ~1/3 by 0.1..1.0 simulated seconds.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> delay_dist(0.1, 1.0);
    FaultPlan plan;
    for (int call = 0; call < kCalls; ++call) {
      for (int r = 0; r < w; ++r) {
        if (rng() % 3 == 0) {
          plan.Delay(r, CollectiveOp::kAllReduceSum,
                     static_cast<uint64_t>(call), delay_dist(rng));
        }
      }
    }
    Cluster cluster(w);
    cluster.InstallFaultPlan(plan);

    // Per-call, per-rank records (each worker writes only its own slots).
    std::vector<std::vector<MitigationOutcome>> outcomes(
        kCalls, std::vector<MitigationOutcome>(w));
    std::vector<std::vector<double>> results(kCalls);
    std::mutex results_mu;

    const MitigationOptions opts = Bounded(0.05, kBound);
    cluster.Run([&](WorkerContext& ctx) {
      const int rank = ctx.rank();
      uint32_t streak = 0;
      for (int call = 0; call < kCalls; ++call) {
        std::vector<double> data(n);
        for (size_t i = 0; i < n; ++i) {
          // Deterministic, rank- and call-unique values.
          data[i] = (rank + 1) * 100.0 + call + static_cast<double>(i) * 0.5;
        }
        MitigationOutcome outcome;
        VERO_COMM_OK(ctx.AllReduceSum(data, {.mitigation = opts}, &outcome));
        outcomes[call][rank] = outcome;
        if (rank == 0) {
          std::lock_guard<std::mutex> lock(results_mu);
          results[call] = data;
        }
        // Property 1: no contribution is ever deferred more than
        // staleness_bound consecutive mitigated calls.
        if (outcome.self_deferred) {
          ++streak;
          EXPECT_LE(streak, kBound) << "seed " << seed << " call " << call;
        } else {
          streak = 0;
        }
      }
    });

    auto value = [n](int rank, int call, size_t i) {
      return (rank + 1) * 100.0 + call + static_cast<double>(i) * 0.5;
    };
    int total_deferrals = 0;
    for (int call = 0; call < kCalls; ++call) {
      // All ranks observed the identical plan.
      for (int r = 1; r < w; ++r) {
        EXPECT_EQ(outcomes[call][r].contributed,
                  outcomes[call][0].contributed);
      }
      const std::vector<uint8_t>& mask = outcomes[call][0].contributed;
      // Property 2: the result is exactly the rank-ascending sum of the
      // contributing ranks from 0.0 (bitwise — every slice owner adds its
      // elements in that order).
      for (size_t i = 0; i < n; ++i) {
        double expect = 0.0;
        for (int r = 0; r < w; ++r) {
          if (mask[r]) expect += value(r, call, i);
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(results[call][i]),
                  std::bit_cast<uint64_t>(expect))
            << "seed " << seed << " call " << call << " elem " << i << ": "
            << results[call][i] << " vs " << expect;
      }
      // Property 3: mass conservation — aggregated mass plus the deferred
      // ranks' held-back mass equals the full-cohort mass.
      double result_mass = 0.0, deferred_mass = 0.0, total_mass = 0.0;
      for (size_t i = 0; i < n; ++i) {
        result_mass += results[call][i];
        for (int r = 0; r < w; ++r) {
          total_mass += value(r, call, i);
          if (!mask[r]) deferred_mass += value(r, call, i);
        }
      }
      EXPECT_NEAR(result_mass + deferred_mass, total_mass,
                  1e-9 * total_mass);
      for (int r = 0; r < w; ++r) {
        total_deferrals += mask[r] ? 0 : 1;
      }
    }
    // The schedule is dense enough that mitigation actually engaged.
    EXPECT_GT(total_deferrals, 0) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// End-to-end fault grid: strict bit-identity, speculative exactness, bounded
// tolerance + speedup, across the quadrants.
// ---------------------------------------------------------------------------

struct GridCell {
  FaultPhase phase;
  int rank;
  double delay;
};

TEST(StragglerGridTest, StrictModeBitIdenticalToSeedUnderDelayGrid) {
  const Dataset train = MakeData(600, 20, 11);
  const DistTrainOptions options = SmallOptions();

  Cluster clean(4);
  const DistResult base = TrainDistributed(clean, train, Quadrant::kQD1,
                                           options);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  const std::string base_text = ModelToText(base.model);

  const GridCell kGrid[] = {
      {FaultPhase::kTrain, 1, 0.25},
      {FaultPhase::kTrain, 1, 1.0},
      {FaultPhase::kTrain, 2, 1.0},
      {FaultPhase::kSetup, 1, 1.0},
  };
  for (const GridCell& cell : kGrid) {
    Cluster faulted(4);
    faulted.InstallFaultPlan(FaultPlan()
                                 .Delay(cell.rank, CollectiveOp::kAny, 0,
                                        cell.delay, cell.phase)
                                 .Delay(cell.rank, CollectiveOp::kAny, 3,
                                        cell.delay, cell.phase));
    const DistResult result =
        TrainDistributed(faulted, train, Quadrant::kQD1, options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    // Strict mode: delays cost time but the model must stay bit-identical,
    // and no mitigation accounting may appear.
    EXPECT_EQ(ModelToText(result.model), base_text)
        << "phase " << FaultPhaseToString(cell.phase) << " rank "
        << cell.rank << " delay " << cell.delay;
    const CommStats total = faulted.TotalStats();
    EXPECT_EQ(total.deferred_contributions, 0u);
    EXPECT_DOUBLE_EQ(total.absorbed_delay_seconds, 0.0);
    EXPECT_DOUBLE_EQ(total.deadline_wait_seconds, 0.0);
    EXPECT_EQ(total.speculative_bytes, 0u);
    EXPECT_GE(total.fault_delay_seconds, cell.delay);
  }
}

TEST(StragglerGridTest, StrictModeBitIdenticalAcrossQuadrants) {
  const Dataset train = MakeData(500, 16, 13);
  const DistTrainOptions options = SmallOptions();
  const Quadrant kQuadrants[] = {Quadrant::kQD1, Quadrant::kQD2,
                                 Quadrant::kQD3, Quadrant::kQD4,
                                 Quadrant::kFeatureParallel};
  for (Quadrant q : kQuadrants) {
    Cluster clean(3);
    const DistResult base = TrainDistributed(clean, train, q, options);
    ASSERT_TRUE(base.status.ok()) << QuadrantToString(q);

    Cluster faulted(3);
    faulted.InstallFaultPlan(FaultPlan().Delay(
        1, CollectiveOp::kAny, 5, 0.8, FaultPhase::kTrain));
    const DistResult result = TrainDistributed(faulted, train, q, options);
    ASSERT_TRUE(result.status.ok()) << QuadrantToString(q);
    EXPECT_EQ(ModelToText(result.model), ModelToText(base.model))
        << QuadrantToString(q);
    EXPECT_GT(result.TrainSeconds(), base.TrainSeconds())
        << QuadrantToString(q);
  }
}

// One slow rank dominating the QD1 histogram aggregations: both mitigation
// modes must beat strict time; speculation must reproduce the model exactly;
// bounded staleness must converge within tolerance.
TEST(StragglerGridTest, MitigationBeatsStrictUnderDominantStraggler) {
  const Dataset train = MakeData(600, 20, 17);
  const DistTrainOptions options = SmallOptions();
  // Tree 0's histogram aggregations sit at kTrain kAllReduceSum occurrences
  // 1, 3, 5 (occ 0 is the gradient all-reduce, even occs are node counts)
  // with 4 layers; repeat for tree 1 at 7, 9, 11.
  const auto make_plan = [] {
    FaultPlan plan;
    for (uint64_t occ : {1, 3, 5, 7, 9, 11}) {
      plan.Delay(1, CollectiveOp::kAllReduceSum, occ, 0.8, FaultPhase::kTrain);
    }
    return plan;
  };

  Cluster strict_cluster(4);
  strict_cluster.InstallFaultPlan(make_plan());
  const DistResult strict =
      TrainDistributed(strict_cluster, train, Quadrant::kQD1, options);
  ASSERT_TRUE(strict.status.ok()) << strict.status.ToString();
  ASSERT_FALSE(strict.curve.empty());

  // Speculative: bit-identical model, faster, waste surfaced.
  DistTrainOptions spec_options = options;
  spec_options.mitigation.mode = MitigationMode::kSpeculative;
  spec_options.mitigation.speculation_threshold_seconds = 0.01;
  Cluster spec_cluster(4);
  spec_cluster.InstallFaultPlan(make_plan());
  const DistResult spec = TrainDistributed(spec_cluster, train,
                                           Quadrant::kQD1, spec_options);
  ASSERT_TRUE(spec.status.ok()) << spec.status.ToString();
  EXPECT_EQ(ModelToText(spec.model), ModelToText(strict.model));
  EXPECT_LT(spec.TrainSeconds(), strict.TrainSeconds());
  const CommStats spec_total = spec_cluster.TotalStats();
  EXPECT_EQ(spec_total.speculative_bytes > 0, true);
  EXPECT_EQ(spec.wasted_bytes, spec_total.speculative_bytes);
  EXPECT_DOUBLE_EQ(spec.wasted_seconds, spec_total.speculative_seconds);

  // Bounded staleness: faster, mitigation engaged, loss within tolerance.
  DistTrainOptions bounded_options = options;
  bounded_options.mitigation.mode = MitigationMode::kBoundedStaleness;
  bounded_options.mitigation.deadline_seconds = 0.01;
  Cluster bounded_cluster(4);
  bounded_cluster.InstallFaultPlan(make_plan());
  const DistResult bounded = TrainDistributed(bounded_cluster, train,
                                              Quadrant::kQD1, bounded_options);
  ASSERT_TRUE(bounded.status.ok()) << bounded.status.ToString();
  EXPECT_LT(bounded.TrainSeconds(), strict.TrainSeconds());
  EXPECT_GT(bounded_cluster.TotalStats().deferred_contributions, 0u);
  ASSERT_FALSE(bounded.curve.empty());
  const double strict_loss = strict.curve.back().train_loss;
  const double bounded_loss = bounded.curve.back().train_loss;
  // Dropping one rank's histogram for a layer perturbs split choice but must
  // not derail convergence on this workload.
  EXPECT_NEAR(bounded_loss, strict_loss, 0.1 * std::abs(strict_loss) + 0.01);
}

// Bounded staleness engages (and converges) on every quadrant's exchange
// pattern, not just QD1's all-reduce.
TEST(StragglerGridTest, BoundedModeEngagesOnEveryQuadrant) {
  const Dataset train = MakeData(500, 16, 19);
  struct QuadCell {
    Quadrant quadrant;
    CollectiveOp op;
  };
  // The op each quadrant's mitigated split exchange reports: QD2 exchanges
  // feature slices via all-to-all; QD3 (Yggdrasil), feature-parallel, and
  // the mitigated QD4 flow exchange local bests via all-gather.
  const QuadCell kCells[] = {
      {Quadrant::kQD2, CollectiveOp::kAllToAll},
      {Quadrant::kQD3, CollectiveOp::kAllGather},
      {Quadrant::kQD4, CollectiveOp::kAllGather},
      {Quadrant::kFeatureParallel, CollectiveOp::kAllGather},
  };
  for (const QuadCell& cell : kCells) {
    Cluster clean(3);
    DistTrainOptions options = SmallOptions();
    const DistResult base =
        TrainDistributed(clean, train, cell.quadrant, options);
    ASSERT_TRUE(base.status.ok()) << QuadrantToString(cell.quadrant);

    options.mitigation.mode = MitigationMode::kBoundedStaleness;
    options.mitigation.deadline_seconds = 0.01;
    Cluster faulted(3);
    faulted.InstallFaultPlan(FaultPlan()
                                 .Delay(1, cell.op, 0, 0.8, FaultPhase::kTrain)
                                 .Delay(1, cell.op, 4, 0.8,
                                        FaultPhase::kTrain));
    const DistResult result =
        TrainDistributed(faulted, train, cell.quadrant, options);
    ASSERT_TRUE(result.status.ok()) << QuadrantToString(cell.quadrant);
    EXPECT_GT(faulted.TotalStats().deferred_contributions, 0u)
        << QuadrantToString(cell.quadrant);
    ASSERT_FALSE(result.curve.empty());
    const double base_loss = base.curve.back().train_loss;
    EXPECT_NEAR(result.curve.back().train_loss, base_loss,
                0.1 * std::abs(base_loss) + 0.01)
        << QuadrantToString(cell.quadrant);
  }
}

// QD2's bounded exchange records the deferred rank's dropped (g, h) mass.
// At tree 0's root every margin is 0, so every entry of row i adds
// g + h = (0.5 - y_i) + 0.25 to its shard's root histogram.
TEST(StragglerGridTest, Qd2DeferredMassIsTheDroppedRootHistogramMass) {
  const Dataset train = MakeData(500, 16, 19);
  DistTrainOptions options = SmallOptions();
  options.mitigation = Bounded();
  RunObserver observer;
  Cluster cluster(3);
  cluster.AttachObserver(&observer);
  cluster.InstallFaultPlan(FaultPlan().Delay(1, CollectiveOp::kAllToAll, 0,
                                             0.8, FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, train, Quadrant::kQD2, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(cluster.TotalStats().deferred_contributions, 1u);
  double expected = 0.0;
  const auto [begin, end] = HorizontalRange(train.num_instances(), 3, 1);
  for (InstanceId i = begin; i < end; ++i) {
    expected += static_cast<double>(train.matrix().RowFeatures(i).size()) *
                (0.75 - train.labels()[i]);
  }
  const MetricsSnapshot metrics = observer.metrics().Merged();
  const MetricsSnapshot::Entry* mass = metrics.Find("staleness.deferred_mass");
  ASSERT_NE(mass, nullptr);
  EXPECT_EQ(mass->count, 1u);
  EXPECT_EQ(mass->sum, expected);
}

TEST(StragglerGridTest, EndToEndStalenessBoundForcesSync) {
  const Dataset train = MakeData(500, 16, 23);
  DistTrainOptions options = SmallOptions();
  options.mitigation.mode = MitigationMode::kBoundedStaleness;
  options.mitigation.deadline_seconds = 0.01;
  options.mitigation.staleness_bound = 1;

  RunObserver observer;
  Cluster cluster(4);
  cluster.AttachObserver(&observer);
  // Two consecutive late histogram aggregations on rank 1: the second must
  // be a forced sync under staleness_bound = 1.
  cluster.InstallFaultPlan(
      FaultPlan()
          .Delay(1, CollectiveOp::kAllReduceSum, 1, 0.8, FaultPhase::kTrain)
          .Delay(1, CollectiveOp::kAllReduceSum, 3, 0.8, FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, train, Quadrant::kQD1, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const MetricsSnapshot metrics = observer.metrics().Merged();
  EXPECT_EQ(metrics.CounterValue("staleness.deferred_contributions"), 1u);
  EXPECT_EQ(metrics.CounterValue("staleness.forced_syncs"), 1u);
  // The forced call paid its delay on the critical path.
  EXPECT_DOUBLE_EQ(cluster.worker_stats(1).fault_delay_seconds, 0.8);
  EXPECT_DOUBLE_EQ(cluster.worker_stats(1).absorbed_delay_seconds, 0.8);
}

// ---------------------------------------------------------------------------
// Parameter plumbing.
// ---------------------------------------------------------------------------

TEST(StragglerParamsTest, ValidationRejectsBadKnobs) {
  DistTrainOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.mitigation.deadline_seconds = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = DistTrainOptions{};
  options.mitigation.speculation_threshold_seconds = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = DistTrainOptions{};
  options.mitigation.staleness_bound = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = DistTrainOptions{};
  options.mitigation.max_stale_ranks = 0;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace vero
