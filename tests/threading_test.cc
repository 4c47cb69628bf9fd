#include "common/threading.h"

#include <atomic>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

namespace vero {
namespace {

TEST(BarrierTest, ExactlyOneSerialParticipantPerCycle) {
  const size_t n = 4;
  Barrier barrier(n);
  std::atomic<int> serial_count{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (int cycle = 0; cycle < 50; ++cycle) {
        if (barrier.ArriveAndWaitFor(0) == BarrierWait::kSerial) {
          serial_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(serial_count.load(), 50);
}

TEST(BarrierTest, SynchronizesPhases) {
  const size_t n = 3;
  Barrier barrier(n);
  std::atomic<int> phase_sum{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (int cycle = 0; cycle < 100; ++cycle) {
        phase_sum.fetch_add(1);
        barrier.ArriveAndWaitFor(0);
        // Between barriers every thread must have incremented.
        if (phase_sum.load() < static_cast<int>(n) * (cycle + 1)) {
          violated.store(true);
        }
        barrier.ArriveAndWaitFor(0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

// One thread is the plain loop on the caller; it never reaches the pool.
TEST(ParallelForTest, SingleThreadFallback) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool all_on_caller = true;
  ParallelFor(5, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));
    all_on_caller &= std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
}

// More threads than the host has cores: the pool grows to the request.
TEST(ParallelForTest, ThreadCountAboveHardwareConcurrency) {
  const size_t threads = std::thread::hardware_concurrency() + 3;
  std::vector<std::atomic<int>> hits(4 * threads);
  ParallelFor(hits.size(), threads, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The simulated cluster's workers share the one pool: calls from several
// threads at once each run every one of their indices exactly once.
TEST(ParallelForTest, ConcurrentCallersShareThePool) {
  const size_t callers = 6;
  const size_t n = 500;
  std::vector<std::vector<std::atomic<int>>> hits(callers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(n);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        ParallelFor(n, 1 + c % 4, [&](size_t i) { hits[c][i].fetch_add(1); });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& h : hits) {
    for (const auto& cell : h) EXPECT_EQ(cell.load(), 20);
  }
}

// fn may itself call ParallelFor (nested calls run on the same pool, or on
// the calling helper when the pool is busy) without deadlocking.
TEST(ParallelForTest, NestedCallsCompleteAndCoverEveryIndex) {
  const size_t outer = 8;
  const size_t inner = 100;
  std::vector<std::atomic<int>> hits(outer * inner);
  ParallelFor(outer, 4, [&](size_t o) {
    ParallelFor(inner, 3, [&](size_t i) { hits[o * inner + i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Per-call state lives on the caller's stack: back-to-back tiny calls must
// not let a late helper reach a finished call (ASan/TSan catch a violation).
TEST(ParallelForTest, ManyShortCallsReuseThePool) {
  for (int round = 0; round < 2000; ++round) {
    std::vector<int> out(3, 0);
    ParallelFor(out.size(), 3, [&](size_t i) { out[i] = static_cast<int>(i); });
    ASSERT_EQ(out, (std::vector<int>{0, 1, 2}));
  }
}

}  // namespace
}  // namespace vero
