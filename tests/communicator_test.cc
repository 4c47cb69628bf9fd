#include "cluster/communicator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace vero {
namespace {

TEST(CommunicatorTest, AllReduceSumsAcrossWorkers) {
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<double> data = {static_cast<double>(ctx.rank()), 1.0};
    ctx.AllReduceSum(data);
    EXPECT_DOUBLE_EQ(data[0], 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(data[1], 4.0);
  });
}

TEST(CommunicatorTest, AllReduceRepeatedCalls) {
  Cluster cluster(3);
  cluster.Run([](WorkerContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      std::vector<double> data = {1.0 * round, -1.0};
      ctx.AllReduceSum(data);
      ASSERT_DOUBLE_EQ(data[0], 3.0 * round);
      ASSERT_DOUBLE_EQ(data[1], -3.0);
    }
  });
}

TEST(CommunicatorTest, SlicesTileTheRange) {
  Cluster cluster(3);
  cluster.Run([](WorkerContext& ctx) {
    size_t covered = 0;
    for (int r = 0; r < ctx.world_size(); ++r) {
      EXPECT_EQ(ctx.SliceBegin(11, r), covered);
      covered = ctx.SliceEnd(11, r);
    }
    EXPECT_EQ(covered, 11u);
  });
}

TEST(CommunicatorTest, AllGatherDeliversEveryContribution) {
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<uint8_t> mine(ctx.rank() + 1,
                              static_cast<uint8_t>(ctx.rank()));
    std::vector<std::vector<uint8_t>> all;
    ctx.AllGather(mine, &all);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all[r].size(), static_cast<size_t>(r + 1));
      EXPECT_EQ(all[r][0], r);
    }
  });
}

TEST(CommunicatorTest, BroadcastFromEveryRoot) {
  Cluster cluster(3);
  cluster.Run([](WorkerContext& ctx) {
    for (int root = 0; root < 3; ++root) {
      std::vector<uint8_t> data;
      if (ctx.rank() == root) data = {1, 2, 3, static_cast<uint8_t>(root)};
      ctx.Broadcast(&data, root);
      ASSERT_EQ(data.size(), 4u);
      EXPECT_EQ(data[3], root);
    }
  });
}

TEST(CommunicatorTest, GatherOnlyRootReceives) {
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<uint8_t> mine = {static_cast<uint8_t>(ctx.rank() * 10)};
    std::vector<std::vector<uint8_t>> all;
    ctx.Gather(mine, 2, &all);
    if (ctx.rank() == 2) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r][0], r * 10);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(CommunicatorTest, AllToAllPersonalizedExchange) {
  Cluster cluster(3);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<std::vector<uint8_t>> to(3);
    for (int dest = 0; dest < 3; ++dest) {
      to[dest] = {static_cast<uint8_t>(ctx.rank()),
                  static_cast<uint8_t>(dest)};
    }
    std::vector<std::vector<uint8_t>> from;
    ctx.AllToAll(std::move(to), &from);
    ASSERT_EQ(from.size(), 3u);
    for (int src = 0; src < 3; ++src) {
      ASSERT_EQ(from[src].size(), 2u);
      EXPECT_EQ(from[src][0], src);
      EXPECT_EQ(from[src][1], ctx.rank());
    }
  });
}

TEST(CommunicatorTest, ByteAccountingMatchesRingFormulas) {
  const size_t n = 1000;
  Cluster cluster(4);
  cluster.Run([&](WorkerContext& ctx) {
    std::vector<double> data(n, 1.0);
    ctx.AllReduceSum(data);
  });
  const uint64_t bytes = n * sizeof(double);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.worker_stats(r).bytes_sent, 2 * bytes * 3 / 4);
    EXPECT_EQ(cluster.worker_stats(r).num_ops, 1u);
  }
}

TEST(CommunicatorTest, BroadcastChargesRootTimesWMinus1) {
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<uint8_t> data;
    if (ctx.rank() == 1) data.assign(100, 7);
    ctx.Broadcast(&data, 1);
  });
  EXPECT_EQ(cluster.worker_stats(1).bytes_sent, 300u);
  EXPECT_EQ(cluster.worker_stats(0).bytes_received, 100u);
  EXPECT_EQ(cluster.worker_stats(0).bytes_sent, 0u);
}

TEST(CommunicatorTest, SimulatedTimeFollowsModel) {
  NetworkModel model;
  model.latency_seconds = 0.5;
  model.bandwidth_bytes_per_second = 1000.0;
  Cluster cluster(2, model);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<uint8_t> data;
    if (ctx.rank() == 0) data.assign(2000, 1);
    ctx.Broadcast(&data, 0);
  });
  // Root sends 2000 bytes to 1 peer: 0.5 + 2000/1000 = 2.5s.
  EXPECT_NEAR(cluster.worker_stats(0).sim_seconds, 2.5, 1e-9);
  EXPECT_NEAR(cluster.worker_stats(1).sim_seconds, 2.5, 1e-9);
  EXPECT_NEAR(cluster.MaxSimSeconds(), 2.5, 1e-9);
}

TEST(CommunicatorTest, SingleWorkerOpsAreFreeAndCorrect) {
  Cluster cluster(1);
  cluster.Run([](WorkerContext& ctx) {
    std::vector<double> data = {5.0};
    ctx.AllReduceSum(data);
    EXPECT_DOUBLE_EQ(data[0], 5.0);
    std::vector<uint8_t> payload = {9};
    ctx.Broadcast(&payload, 0);
    EXPECT_EQ(payload[0], 9);
    std::vector<std::vector<uint8_t>> all;
    ctx.AllGather(payload, &all);
    EXPECT_EQ(all.size(), 1u);
  });
  EXPECT_EQ(cluster.TotalStats().bytes_sent, 0u);
  EXPECT_DOUBLE_EQ(cluster.TotalStats().sim_seconds, 0.0);
}

TEST(CommunicatorTest, InstrumentMaxAndSumAreUncharged) {
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    const double m = ctx.InstrumentMax(static_cast<double>(ctx.rank()));
    EXPECT_DOUBLE_EQ(m, 3.0);
    const double s = ctx.InstrumentSum(1.5);
    EXPECT_DOUBLE_EQ(s, 6.0);
  });
  EXPECT_EQ(cluster.TotalStats().bytes_sent, 0u);
  EXPECT_EQ(cluster.TotalStats().num_ops, 0u);
}

TEST(CommunicatorTest, MixedSequenceStaysConsistent) {
  // Interleave different collectives repeatedly to shake out rendezvous
  // reuse bugs.
  Cluster cluster(4);
  cluster.Run([](WorkerContext& ctx) {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> sums = {1.0};
      ctx.AllReduceSum(sums);
      ASSERT_DOUBLE_EQ(sums[0], 4.0);

      std::vector<uint8_t> payload = {static_cast<uint8_t>(round)};
      ctx.Broadcast(&payload, round % 4);
      ASSERT_EQ(payload[0], round);

      std::vector<std::vector<uint8_t>> all;
      ctx.AllGather(payload, &all);
      ASSERT_EQ(all.size(), 4u);

      ctx.Barrier();
    }
  });
}

// Per-element payload of the slice-edge sweep: signed zeros, an
// order-sensitive 1e300 cancellation, Inf + -Inf, NaN and cancelling pairs
// up front, then a mostly-zero tail so the sparse codec takes sparse blocks.
double EdgeValue(int rank, int w, size_t i) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (i >= 16 && i % 5 != 0) return (rank % 2 == 0) ? 0.0 : -0.0;
  switch (i % 8) {
    case 0:
      return -0.0;
    case 1:
      // Rank order gives (1e300 + 1 + ...) - 1e300 == 0; any other order
      // that adds -1e300 first keeps the small terms.
      return rank == 0 ? 1e300 : (rank == w - 1 ? -1e300 : 1.0);
    case 2:
      return rank == 0 ? kInf : (rank == 1 ? -kInf : 0.0);
    case 3:
      return rank == w - 1 ? std::numeric_limits<double>::quiet_NaN() : 2.5;
    case 4:
      return (rank % 2 == 0 ? 0.1 : -0.1) * static_cast<double>(i + 1);
    case 5:
      return rank == 1 ? kInf : -3.0;
    case 6:
      return 0.0;
    default:
      return (rank + 1) * 0.1 + static_cast<double>(i) * 1e-3;
  }
}

// Bitwise equality; memcmp alone is undefined on an empty vector's data().
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<size_t> EdgeLengths(int w) {
  // Empty, shorter than W (some ranks own an empty slice), W - 1, W + 1 and
  // an odd bulk length that no W divides.
  return {0, 1, static_cast<size_t>(w - 1), static_cast<size_t>(w + 1), 1001};
}

// One all-reduce call of a slice-edge run: `parts` separately allocated
// parts of `part_len` doubles each.
struct EdgeShape {
  size_t parts;
  size_t part_len;
};

// Segmented shapes: zero parts, part_len 1 with n < W (the delayed call),
// zero-length parts, part_len 1 with n > W, parts whose slice boundaries
// fall inside them, and an odd bulk length no W divides.
std::vector<EdgeShape> PartShapes(int w) {
  const size_t u = static_cast<size_t>(w);
  return {{0, 3}, {u - 1, 1}, {2, 0}, {u + 1, 1}, {3, u + 1}, {7, 143}};
}

// Per call and rank: the reduced concatenation, the contribution mask and
// this rank's CommStats after the call.
struct EdgeRun {
  std::vector<std::vector<std::vector<double>>> results;
  std::vector<std::vector<std::vector<uint8_t>>> masks;
  std::vector<std::vector<CommStats>> stats;
};

// Runs one all-reduce per shape over EdgeValue payloads. `segmented` passes
// the shape's parts; otherwise one span over their concatenation. With
// `bounded`, the last rank is late on call 1, so bounded mode closes that
// round without it while some ranks own no element at all.
EdgeRun RunEdgeCalls(int w, bool coded, bool bounded,
                     const std::vector<EdgeShape>& shapes, bool segmented) {
  Cluster cluster(w);
  CollectiveOptions opts;
  if (coded) {
    opts.codec.mode = CollectiveCompression::kSparseDelta;
    opts.codec.block_values = 64;
  }
  if (bounded) {
    opts.mitigation.mode = MitigationMode::kBoundedStaleness;
    opts.mitigation.deadline_seconds = 0.01;
    cluster.InstallFaultPlan(FaultPlan().Delay(
        w - 1, CollectiveOp::kAllReduceSum, /*occurrence=*/1, 5.0));
  }
  const size_t calls = shapes.size();
  EdgeRun run;
  run.results.assign(calls, std::vector<std::vector<double>>(w));
  run.masks.assign(calls, std::vector<std::vector<uint8_t>>(w));
  run.stats.assign(calls, std::vector<CommStats>(w));
  cluster.Run([&](WorkerContext& ctx) {
    for (size_t call = 0; call < calls; ++call) {
      const auto [num_parts, part_len] = shapes[call];
      std::vector<double> data(num_parts * part_len);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = EdgeValue(ctx.rank(), w, i);
      }
      MitigationOutcome outcome;
      if (segmented) {
        std::vector<std::vector<double>> parts(num_parts);
        std::vector<double*> ptrs;
        for (size_t p = 0; p < num_parts; ++p) {
          parts[p].assign(data.begin() + p * part_len,
                          data.begin() + (p + 1) * part_len);
          ptrs.push_back(parts[p].data());
        }
        VERO_COMM_OK(ctx.AllReduceSum(ptrs, part_len, opts, &outcome));
        for (size_t p = 0; p < num_parts; ++p) {
          std::copy(parts[p].begin(), parts[p].end(),
                    data.begin() + p * part_len);
        }
      } else {
        VERO_COMM_OK(ctx.AllReduceSum(data, opts, &outcome));
      }
      run.results[call][ctx.rank()] = std::move(data);
      run.masks[call][ctx.rank()] = outcome.contributed;
      run.stats[call][ctx.rank()] = ctx.stats();
    }
  });
  return run;
}

// Every call's result is the rank-order sum of the contributors the mask
// names, bit for bit on every rank, and only the delayed call defers.
void ExpectRankOrderSums(const EdgeRun& run, int w, bool bounded) {
  for (size_t call = 0; call < run.results.size(); ++call) {
    const std::vector<uint8_t>& mask = run.masks[call][0];
    std::vector<uint8_t> expected_mask(w, 1);
    if (bounded && call == 1) expected_mask[w - 1] = 0;
    EXPECT_EQ(mask, expected_mask) << "call " << call;
    std::vector<double> sum(run.results[call][0].size(), 0.0);
    for (int s = 0; s < w; ++s) {
      if (!mask[s]) continue;
      for (size_t i = 0; i < sum.size(); ++i) sum[i] += EdgeValue(s, w, i);
    }
    for (int r = 0; r < w; ++r) {
      EXPECT_EQ(run.masks[call][r], mask) << "call " << call;
      EXPECT_TRUE(SameBits(run.results[call][r], sum))
          << "call " << call << " (n=" << sum.size() << ") rank " << r;
    }
  }
}

void ExpectSameStats(const CommStats& a, const CommStats& b) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.num_ops, b.num_ops);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.absorbed_delay_seconds, b.absorbed_delay_seconds);
  EXPECT_EQ(a.deadline_wait_seconds, b.deadline_wait_seconds);
  EXPECT_EQ(a.deferred_contributions, b.deferred_contributions);
  EXPECT_EQ(a.codec_raw_bytes, b.codec_raw_bytes);
  EXPECT_EQ(a.codec_wire_bytes, b.codec_wire_bytes);
}

TEST(CommunicatorTest, AllReduceSliceEdgesMatchRankOrderSum) {
  for (const int w : {2, 3, 4}) {
    for (const bool coded : {false, true}) {
      for (const bool bounded : {false, true}) {
        SCOPED_TRACE("W=" + std::to_string(w) + " codec=" +
                     std::to_string(coded) + " bounded=" +
                     std::to_string(bounded));
        std::vector<EdgeShape> spans;
        for (size_t n : EdgeLengths(w)) spans.push_back({1, n});
        ExpectRankOrderSums(
            RunEdgeCalls(w, coded, bounded, spans, /*segmented=*/false), w,
            bounded);

        // The parts form is the one-part call over the concatenation: same
        // sums, masks, bytes and codec volume, bit for bit.
        const std::vector<EdgeShape> shapes = PartShapes(w);
        const EdgeRun parts =
            RunEdgeCalls(w, coded, bounded, shapes, /*segmented=*/true);
        const EdgeRun whole =
            RunEdgeCalls(w, coded, bounded, shapes, /*segmented=*/false);
        ExpectRankOrderSums(parts, w, bounded);
        for (size_t call = 0; call < shapes.size(); ++call) {
          for (int r = 0; r < w; ++r) {
            SCOPED_TRACE("parts call " + std::to_string(call) + " rank " +
                         std::to_string(r));
            EXPECT_TRUE(
                SameBits(parts.results[call][r], whole.results[call][r]));
            EXPECT_EQ(parts.masks[call][r], whole.masks[call][r]);
            ExpectSameStats(parts.stats[call][r], whole.stats[call][r]);
          }
        }
      }
    }
  }
}

// A silent corruption is this rank's receive-side damage: whichever slice
// the flipped element falls in, every other rank must still hold the clean
// sum bit for bit (no peer may copy a slice after its owner corrupted it).
// The parts form flips the element the one-part call over the concatenation
// flips.
TEST(CommunicatorTest, SilentCorruptionStaysOnTheCorruptedRank) {
  const int w = 4;
  const size_t n = 103;
  // The parts run: 7 parts of 15, so slice boundaries fall inside parts.
  const size_t num_parts = 7, part_len = 15;
  auto value = [](int rank, size_t i) {
    return (rank + 1) * 1.25 + static_cast<double>(i) * 0.01;
  };
  auto clean_sum = [&](size_t len) {
    std::vector<double> clean(len, 0.0);
    for (int s = 0; s < w; ++s) {
      for (size_t i = 0; i < len; ++i) clean[i] += value(s, i);
    }
    return clean;
  };
  const std::vector<double> clean = clean_sum(n);
  const std::vector<double> clean_parts = clean_sum(num_parts * part_len);
  // Every rank's concatenated result of one all-reduce of `count` parts of
  // `len` doubles, as parts or as one span, with `victim` corrupted.
  auto run = [&](int victim, uint64_t seed, size_t count, size_t len,
                 bool segmented) {
    Cluster cluster(w);
    cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
        victim, CollectiveOp::kAllReduceSum, /*occurrence=*/0, seed));
    std::vector<std::vector<double>> results(w);
    cluster.Run([&](WorkerContext& ctx) {
      std::vector<double> data(count * len);
      for (size_t i = 0; i < data.size(); ++i) data[i] = value(ctx.rank(), i);
      if (segmented) {
        std::vector<double*> ptrs;
        for (size_t p = 0; p < count; ++p) ptrs.push_back(&data[p * len]);
        VERO_COMM_OK(ctx.AllReduceSum(ptrs, len));
      } else {
        VERO_COMM_OK(ctx.AllReduceSum(data));
      }
      results[ctx.rank()] = std::move(data);
    });
    return results;
  };
  for (int victim = 0; victim < w; ++victim) {
    std::set<int> slices_hit;
    for (uint64_t seed = 1;
         seed <= 64 && slices_hit.size() < static_cast<size_t>(w); ++seed) {
      const std::vector<std::vector<double>> results =
          run(victim, seed, 1, n, /*segmented=*/false);
      for (int r = 0; r < w; ++r) {
        if (r == victim) continue;
        EXPECT_TRUE(SameBits(results[r], clean))
            << "victim " << victim << " seed " << seed << " leaked to rank "
            << r;
      }
      std::vector<size_t> flipped;
      for (size_t i = 0; i < n; ++i) {
        if (std::memcmp(&results[victim][i], &clean[i], sizeof(double)) != 0) {
          flipped.push_back(i);
        }
      }
      ASSERT_EQ(flipped.size(), 1u) << "victim " << victim << " seed " << seed;
      // Slice r of an n-element reduce-scatter is [n*r/W, n*(r+1)/W).
      for (int r = 0; r < w; ++r) {
        if (flipped[0] >= n * r / w && flipped[0] < n * (r + 1) / w) {
          slices_hit.insert(r);
        }
      }

      const std::vector<std::vector<double>> parts =
          run(victim, seed, num_parts, part_len, /*segmented=*/true);
      const std::vector<std::vector<double>> whole =
          run(victim, seed, 1, num_parts * part_len, /*segmented=*/false);
      EXPECT_FALSE(SameBits(parts[victim], clean_parts))
          << "victim " << victim << " seed " << seed;
      for (int r = 0; r < w; ++r) {
        EXPECT_TRUE(SameBits(parts[r], whole[r]))
            << "victim " << victim << " seed " << seed << " rank " << r;
        if (r != victim) {
          EXPECT_TRUE(SameBits(parts[r], clean_parts))
              << "victim " << victim << " seed " << seed << " leaked to rank "
              << r;
        }
      }
    }
    EXPECT_EQ(slices_hit.size(), static_cast<size_t>(w))
        << "seed sweep missed a slice for victim " << victim;
  }
}

TEST(CommStatsTest, Arithmetic) {
  CommStats a{100, 50, 2, 1.0};
  CommStats b{10, 5, 1, 0.25};
  a += b;
  EXPECT_EQ(a.bytes_sent, 110u);
  const CommStats d = a - b;
  EXPECT_EQ(d.bytes_sent, 100u);
  EXPECT_DOUBLE_EQ(d.sim_seconds, 1.0);
}

TEST(NetworkModelTest, PresetsAndOpSeconds) {
  const NetworkModel lab = NetworkModel::Lab1Gbps();
  EXPECT_DOUBLE_EQ(lab.bandwidth_bytes_per_second, 125e6);
  const NetworkModel prod = NetworkModel::Production10Gbps();
  EXPECT_GT(prod.bandwidth_bytes_per_second,
            lab.bandwidth_bytes_per_second);
  // max(sent, received) drives the wire time.
  EXPECT_DOUBLE_EQ(lab.OpSeconds(125000000, 0), lab.latency_seconds + 1.0);
  EXPECT_DOUBLE_EQ(lab.OpSeconds(0, 125000000), lab.latency_seconds + 1.0);
}

}  // namespace
}  // namespace vero
