// Randomized stress tests of the cluster substrate: arbitrary buffer sizes
// (including empty and odd), varying worker counts, and long mixed op
// sequences, cross-checked against locally computed expectations.

#include <gtest/gtest.h>

#include "cluster/communicator.h"
#include "common/random.h"

namespace vero {
namespace {

class CommStressTest : public ::testing::TestWithParam<int> {};

TEST_P(CommStressTest, AllReduceRandomSizes) {
  const int w = GetParam();
  Cluster cluster(w);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17}, size_t{1000},
                   size_t{4097}}) {
    cluster.Run([&](WorkerContext& ctx) {
      std::vector<double> data(n);
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<double>(i % 7) * (ctx.rank() + 1);
      }
      ctx.AllReduceSum(data);
      const double rank_sum = w * (w + 1) / 2.0;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_DOUBLE_EQ(data[i], static_cast<double>(i % 7) * rank_sum)
            << "n=" << n << " i=" << i;
      }
    });
  }
}

TEST_P(CommStressTest, AllToAllVariableSizes) {
  const int w = GetParam();
  Cluster cluster(w);
  cluster.Run([&](WorkerContext& ctx) {
    Rng rng(1000 + ctx.rank());
    for (int round = 0; round < 10; ++round) {
      std::vector<std::vector<uint8_t>> to(w);
      for (int dest = 0; dest < w; ++dest) {
        // Deterministic per (src, dest, round) so receivers can verify.
        const size_t len = (ctx.rank() * 31 + dest * 7 + round) % 20;
        to[dest].assign(len, static_cast<uint8_t>(ctx.rank() * 16 + dest));
      }
      std::vector<std::vector<uint8_t>> from;
      ctx.AllToAll(std::move(to), &from);
      for (int src = 0; src < w; ++src) {
        const size_t expect_len = (src * 31 + ctx.rank() * 7 + round) % 20;
        ASSERT_EQ(from[src].size(), expect_len);
        for (uint8_t b : from[src]) {
          ASSERT_EQ(b, static_cast<uint8_t>(src * 16 + ctx.rank()));
        }
      }
    }
  });
}

TEST_P(CommStressTest, EmptyBroadcastAndGather) {
  const int w = GetParam();
  Cluster cluster(w);
  cluster.Run([&](WorkerContext& ctx) {
    std::vector<uint8_t> empty;
    ctx.Broadcast(&empty, w - 1);
    EXPECT_TRUE(empty.empty());
    std::vector<std::vector<uint8_t>> all;
    ctx.Gather(empty, 0, &all);
    if (ctx.rank() == 0) {
      EXPECT_EQ(all.size(), static_cast<size_t>(w));
    }
  });
}

TEST_P(CommStressTest, LongMixedSequenceRemainsConsistent) {
  const int w = GetParam();
  Cluster cluster(w);
  cluster.Run([&](WorkerContext& ctx) {
    Rng rng(42);  // Same seed everywhere: identical op sequence (SPMD).
    for (int step = 0; step < 60; ++step) {
      switch (rng.Uniform(5)) {
        case 0: {
          std::vector<double> data(1 + rng.Uniform(64), 1.0);
          ctx.AllReduceSum(data);
          ASSERT_DOUBLE_EQ(data[0], static_cast<double>(w));
          break;
        }
        case 1: {
          std::vector<std::vector<uint8_t>> to(w);
          for (int dest = 0; dest < w; ++dest) {
            to[dest].assign(1 + rng.Uniform(16), static_cast<uint8_t>(dest));
          }
          std::vector<std::vector<uint8_t>> from;
          ctx.AllToAll(std::move(to), &from);
          ASSERT_EQ(from[w - 1].back(), ctx.rank());
          break;
        }
        case 2: {
          const int root = static_cast<int>(rng.Uniform(w));
          std::vector<uint8_t> payload;
          if (ctx.rank() == root) payload.assign(5, 9);
          ctx.Broadcast(&payload, root);
          ASSERT_EQ(payload.size(), 5u);
          break;
        }
        case 3: {
          std::vector<uint8_t> mine = {static_cast<uint8_t>(ctx.rank())};
          std::vector<std::vector<uint8_t>> all;
          ctx.AllGather(mine, &all);
          ASSERT_EQ(all[w - 1][0], w - 1);
          break;
        }
        case 4: {
          const double m = ctx.InstrumentMax(ctx.rank() * 1.0);
          ASSERT_DOUBLE_EQ(m, w - 1.0);
          break;
        }
      }
    }
  });
  // Stats are internally consistent: sum of sent == sum of received for the
  // symmetric ops is not guaranteed op-by-op, but totals must be nonzero
  // and finite.
  const CommStats total = cluster.TotalStats();
  if (w > 1) {
    EXPECT_GT(total.num_ops, 0u);
    EXPECT_GT(total.sim_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CommStressTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Fault-injection: scheduled crashes, stragglers, corrupt transfers, and
// SPMD violations must surface as Statuses under the watchdog, never as a
// deadlock.
// ---------------------------------------------------------------------------

// Invokes one collective of the given type (with a tiny payload) so the
// crash matrix below can iterate over every op kind uniformly.
Status CallCollective(WorkerContext& ctx, CollectiveOp op) {
  const int w = ctx.world_size();
  switch (op) {
    case CollectiveOp::kAllReduceSum: {
      std::vector<double> data(8, 1.0);
      return ctx.AllReduceSum(data);
    }
    case CollectiveOp::kAllGather: {
      std::vector<uint8_t> mine(4, static_cast<uint8_t>(ctx.rank()));
      std::vector<std::vector<uint8_t>> all;
      return ctx.AllGather(mine, &all);
    }
    case CollectiveOp::kBroadcast: {
      std::vector<uint8_t> payload;
      if (ctx.rank() == 0) payload.assign(6, 7);
      return ctx.Broadcast(&payload, 0);
    }
    case CollectiveOp::kGather: {
      std::vector<uint8_t> mine(3, 1);
      std::vector<std::vector<uint8_t>> all;
      return ctx.Gather(mine, 0, &all);
    }
    case CollectiveOp::kAllToAll: {
      std::vector<std::vector<uint8_t>> to(w);
      for (int dest = 0; dest < w; ++dest) to[dest].assign(2, 5);
      std::vector<std::vector<uint8_t>> from;
      return ctx.AllToAll(std::move(to), &from);
    }
    case CollectiveOp::kBarrier:
      return ctx.Barrier();
    case CollectiveOp::kAny:
      break;
  }
  return Status::InvalidArgument("not a concrete collective");
}

// Crashing any rank at any collective type must terminate promptly: the
// crashed rank reports kUnavailable and every survivor fails its rendezvous
// (kUnavailable from the broken group, or kDeadlineExceeded if its watchdog
// fired first) instead of hanging.
TEST(CommFaultTest, CrashMatrixNeverDeadlocks) {
  constexpr CollectiveOp kOps[] = {
      CollectiveOp::kAllReduceSum, CollectiveOp::kAllGather,
      CollectiveOp::kBroadcast,    CollectiveOp::kGather,
      CollectiveOp::kAllToAll,     CollectiveOp::kBarrier,
  };
  const int w = 3;
  for (CollectiveOp op : kOps) {
    for (int victim = 0; victim < w; ++victim) {
      SCOPED_TRACE(std::string(CollectiveOpToString(op)) +
                   " victim=" + std::to_string(victim));
      Cluster cluster(w);
      cluster.set_collective_timeout_seconds(2.0);
      cluster.InstallFaultPlan(FaultPlan().Crash(victim, op, 0));
      const std::vector<Status> statuses = cluster.TryRun(
          [&](WorkerContext& ctx) { VERO_COMM_OK(CallCollective(ctx, op)); });
      ASSERT_EQ(statuses.size(), static_cast<size_t>(w));
      EXPECT_EQ(statuses[victim].code(), StatusCode::kUnavailable);
      for (int r = 0; r < w; ++r) {
        if (r == victim) continue;
        EXPECT_TRUE(statuses[r].code() == StatusCode::kUnavailable ||
                    statuses[r].code() == StatusCode::kDeadlineExceeded)
            << "rank " << r << ": " << statuses[r].ToString();
      }
      EXPECT_EQ(cluster.dead_ranks(), std::vector<int>{victim});
    }
  }
}

// A scheduled delay is charged to the straggler's simulated clock only; the
// data and every peer's accounting are untouched.
TEST(CommFaultTest, DelayChargesOnlyTheStraggler) {
  Cluster cluster(2);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(1, CollectiveOp::kAllReduceSum, 0, 0.5));
  const std::vector<Status> statuses = cluster.TryRun([](WorkerContext& ctx) {
    std::vector<double> data(16, 1.0);
    VERO_COMM_OK(ctx.AllReduceSum(data));
    ASSERT_DOUBLE_EQ(data[0], 2.0);
  });
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_DOUBLE_EQ(cluster.worker_stats(1).fault_delay_seconds, 0.5);
  EXPECT_DOUBLE_EQ(cluster.worker_stats(0).fault_delay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cluster.worker_stats(1).sim_seconds,
                   cluster.worker_stats(0).sim_seconds + 0.5);
  EXPECT_TRUE(cluster.dead_ranks().empty());
}

// Corrupt transfers within the retry budget are retransmitted (counted in
// num_retries / retransmitted_bytes and recharged) and the op still
// delivers correct data.
TEST(CommFaultTest, CorruptTransferRetriesAndSucceeds) {
  Cluster clean(2);
  Cluster faulty(2);
  faulty.InstallFaultPlan(
      FaultPlan().Corrupt(0, CollectiveOp::kAllReduceSum, 0, /*attempts=*/2));
  const auto body = [](WorkerContext& ctx) {
    std::vector<double> data(64, 1.5);
    VERO_COMM_OK(ctx.AllReduceSum(data));
    ASSERT_DOUBLE_EQ(data[17], 3.0);
  };
  clean.Run(body);
  const std::vector<Status> statuses = faulty.TryRun(body);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(faulty.dead_ranks().empty());

  const CommStats& f0 = faulty.worker_stats(0);
  const CommStats& c0 = clean.worker_stats(0);
  EXPECT_EQ(f0.num_retries, 2u);
  EXPECT_EQ(f0.retransmitted_bytes, 2 * c0.bytes_sent);
  EXPECT_EQ(f0.bytes_sent, 3 * c0.bytes_sent);  // original + 2 retransmits
  EXPECT_GT(f0.sim_seconds, c0.sim_seconds);    // backoff + recharges
  // The retry is local to rank 0's link; rank 1 pays nothing extra.
  EXPECT_EQ(faulty.worker_stats(1).bytes_sent, clean.worker_stats(1).bytes_sent);
  EXPECT_EQ(f0.num_ops, c0.num_ops);  // retries are not new ops
}

// Exceeding the retry budget escalates to a worker failure: the faulted
// rank dies with kUnavailable and survivors fail at their next rendezvous.
TEST(CommFaultTest, RetryExhaustionEscalatesToFailure) {
  Cluster cluster(3);
  cluster.set_collective_timeout_seconds(2.0);
  FaultPlan plan;
  plan.Corrupt(0, CollectiveOp::kAllReduceSum, 0, /*attempts=*/5);
  plan.set_retry_policy({/*max_attempts=*/3, /*backoff_seconds=*/1e-3,
                         /*backoff_multiplier=*/2.0});
  cluster.InstallFaultPlan(plan);
  const std::vector<Status> statuses = cluster.TryRun([](WorkerContext& ctx) {
    std::vector<double> data(8, 1.0);
    VERO_COMM_OK(ctx.AllReduceSum(data));
    VERO_COMM_OK(ctx.Barrier());
  });
  EXPECT_EQ(statuses[0].code(), StatusCode::kUnavailable);
  for (int r = 1; r < 3; ++r) {
    EXPECT_TRUE(statuses[r].code() == StatusCode::kUnavailable ||
                statuses[r].code() == StatusCode::kDeadlineExceeded)
        << statuses[r].ToString();
  }
  EXPECT_EQ(cluster.dead_ranks(), std::vector<int>{0});
  EXPECT_GE(cluster.worker_stats(0).num_retries, 3u);
}

// A worker that silently skips a collective (SPMD violation) must not hang
// its peers: their watchdog expires and surfaces kDeadlineExceeded (or
// kUnavailable once the first timeout breaks the group).
TEST(CommFaultTest, WatchdogCatchesSpmdViolation) {
  Cluster cluster(3);
  cluster.set_collective_timeout_seconds(0.5);
  const std::vector<Status> statuses = cluster.TryRun([](WorkerContext& ctx) {
    if (ctx.rank() == 0) return;  // Deserts the barrier below.
    VERO_COMM_OK(ctx.Barrier());
  });
  EXPECT_TRUE(statuses[0].ok());
  bool saw_deadline = false;
  for (int r = 1; r < 3; ++r) {
    EXPECT_TRUE(statuses[r].code() == StatusCode::kDeadlineExceeded ||
                statuses[r].code() == StatusCode::kUnavailable)
        << statuses[r].ToString();
    saw_deadline |= statuses[r].code() == StatusCode::kDeadlineExceeded;
  }
  EXPECT_TRUE(saw_deadline);
}

// Instrumentation reductions degrade to the local value once the group is
// broken instead of erroring, so measurement code needs no special casing.
TEST(CommFaultTest, InstrumentsDegradeAfterFailure) {
  Cluster cluster(2);
  cluster.set_collective_timeout_seconds(2.0);
  cluster.InstallFaultPlan(FaultPlan().Crash(1, CollectiveOp::kBarrier, 0));
  const std::vector<Status> statuses = cluster.TryRun([](WorkerContext& ctx) {
    (void)ctx.Barrier();  // Rank 1 dies here; rank 0's rendezvous breaks.
    const double m = ctx.InstrumentMax(3.0 + ctx.rank());
    EXPECT_DOUBLE_EQ(m, 3.0 + ctx.rank());  // Local value, no hang.
  });
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
}

// Satellite: an exception escaping a worker thread is rethrown by Run() on
// the caller thread instead of killing the process.
TEST(CommFaultTest, RunRethrowsWorkerException) {
  Cluster cluster(3);
  cluster.set_collective_timeout_seconds(2.0);
  EXPECT_THROW(cluster.Run([](WorkerContext& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("worker blew up");
    (void)ctx.Barrier();  // Fails fast once the thrower breaks the group.
  }),
               std::runtime_error);
}

// TryRun maps non-ClusterAbort exceptions to kInternal with the message.
TEST(CommFaultTest, TryRunMapsForeignExceptionsToInternal) {
  Cluster cluster(2);
  cluster.set_collective_timeout_seconds(2.0);
  const std::vector<Status> statuses = cluster.TryRun([](WorkerContext& ctx) {
    if (ctx.rank() == 0) throw std::runtime_error("oops");
  });
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_NE(statuses[0].message().find("oops"), std::string::npos);
  EXPECT_TRUE(statuses[1].ok());
}

// Installing an *empty* FaultPlan must leave the byte and simulated-time
// accounting bit-identical to a cluster with no plan at all.
TEST(CommFaultTest, EmptyFaultPlanIsBitIdentical) {
  const auto body = [](WorkerContext& ctx) {
    std::vector<double> data(257, 1.0 + ctx.rank());
    ctx.AllReduceSum(data);
    std::vector<uint8_t> mine(13, static_cast<uint8_t>(ctx.rank()));
    std::vector<std::vector<uint8_t>> all;
    ctx.AllGather(mine, &all);
    std::vector<uint8_t> payload(99, 3);
    ctx.Broadcast(&payload, 1);
    ctx.Barrier();
  };
  Cluster plain(3);
  plain.Run(body);
  Cluster with_empty_plan(3);
  with_empty_plan.InstallFaultPlan(FaultPlan());
  with_empty_plan.Run(body);
  for (int r = 0; r < 3; ++r) {
    const CommStats& a = plain.worker_stats(r);
    const CommStats& b = with_empty_plan.worker_stats(r);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.bytes_received, b.bytes_received);
    EXPECT_EQ(a.num_ops, b.num_ops);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // Exact, not approximate.
    EXPECT_EQ(a.retransmitted_bytes, 0u);
    EXPECT_EQ(b.retransmitted_bytes, 0u);
  }
}

}  // namespace
}  // namespace vero
