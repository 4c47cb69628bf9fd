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

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) pool.Submit([&] { counter.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace vero
