// CollectiveCompression codec layer: frame round-trips (lossless modes are
// bit-exact across the full density range, quantized stays within its
// documented per-block bound), corrupt/truncated-frame rejection, the
// dense/sparse density switch, wire-byte accounting under the codec
// collectives, FaultPlan replay identity across modes (op-id lockstep), and
// end-to-end model identity: compression=off is bit-identical to seed and
// the lossless modes train bit-identical models with fewer bytes on the
// wire. See docs/wire_formats.md for the frame layout.

#include "cluster/codec.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/communicator.h"
#include "common/random.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "integrity/auditor.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

// Seeded histogram-like payload: `density` fraction of nonzeros, clustered
// in runs (like real per-feature histograms, where populated bins neighbor
// each other).
std::vector<double> MakeHistogram(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n, 0.0);
  size_t i = 0;
  while (i < n) {
    if (rng.NextDouble() < density) {
      const size_t run = 1 + static_cast<size_t>(rng.Uniform(4));
      for (size_t k = 0; k < run && i < n; ++k, ++i) {
        values[i] = rng.UniformDouble(-100.0, 100.0);
      }
    } else {
      ++i;
    }
  }
  return values;
}

CodecSpec Spec(CollectiveCompression mode, uint64_t block = 0,
               double threshold = 0.5) {
  CodecSpec spec;
  spec.mode = mode;
  spec.block_values = block;
  spec.density_threshold = threshold;
  return spec;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Frame round-trips.
// ---------------------------------------------------------------------------

TEST(CodecFrameTest, LosslessModesAreBitExactAcrossDensities) {
  const double densities[] = {0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0};
  const size_t sizes[] = {1, 7, 64, 640, 1000};  // incl. non-multiples of block
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    for (double density : densities) {
      for (size_t n : sizes) {
        const std::vector<double> values =
            MakeHistogram(n, density, 1000 + n + static_cast<uint64_t>(density * 100));
        std::vector<uint8_t> frame;
        CodecStats stats;
        CodecEncode(values, Spec(mode, 64), &frame, &stats);
        std::vector<double> decoded;
        ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
        EXPECT_TRUE(BitIdentical(values, decoded))
            << CollectiveCompressionToString(mode) << " density=" << density
            << " n=" << n;
        EXPECT_EQ(stats.raw_bytes, n * sizeof(double));
        EXPECT_EQ(stats.encoded_bytes, frame.size());
      }
    }
  }
}

TEST(CodecFrameTest, SpecialValuesSurviveLossless) {
  std::vector<double> values(64, 0.0);
  values[0] = -0.0;
  values[3] = std::numeric_limits<double>::denorm_min();
  values[7] = std::numeric_limits<double>::quiet_NaN();
  values[11] = std::numeric_limits<double>::infinity();
  values[13] = -std::numeric_limits<double>::infinity();
  values[63] = 1e-300;
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    std::vector<uint8_t> frame;
    CodecEncode(values, Spec(mode, 32), &frame);
    std::vector<double> decoded;
    ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
    EXPECT_TRUE(BitIdentical(values, decoded))
        << CollectiveCompressionToString(mode);
  }
}

TEST(CodecFrameTest, QuantizedStaysWithinDocumentedBound) {
  for (double density : {0.05, 0.5, 1.0}) {
    const size_t block = 80;
    const std::vector<double> values = MakeHistogram(800, density, 99);
    std::vector<uint8_t> frame;
    CodecStats stats;
    CodecEncode(values, Spec(CollectiveCompression::kQuantized, block), &frame,
                &stats);
    std::vector<double> decoded;
    ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t start = 0; start < values.size(); start += block) {
      double lo = 0.0, hi = 0.0;
      for (size_t i = start; i < start + block; ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
      }
      // Documented bound: half a quantization step per block, with a hair of
      // slack for the scale's own rounding.
      const double bound = (hi - lo) / 65535.0 * 0.5000001 + 1e-12;
      for (size_t i = start; i < start + block; ++i) {
        EXPECT_LE(std::abs(decoded[i] - values[i]), bound)
            << "density=" << density << " i=" << i;
      }
    }
    EXPECT_GT(stats.quantized_blocks, 0u);
    // Encoding is deterministic: same input, same frame.
    std::vector<uint8_t> again;
    CodecEncode(values, Spec(CollectiveCompression::kQuantized, block), &again);
    EXPECT_EQ(frame, again);
  }
}

TEST(CodecFrameTest, QuantizedNonFiniteBlocksFallBackLossless) {
  std::vector<double> values = MakeHistogram(128, 1.0, 5);
  values[17] = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint8_t> frame;
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kQuantized, 64), &frame,
              &stats);
  std::vector<double> decoded;
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  ASSERT_EQ(decoded.size(), values.size());
  // Block 0 (holding the NaN) is bit-exact; block 1 is quantized.
  EXPECT_EQ(std::memcmp(values.data(), decoded.data(), 64 * sizeof(double)),
            0);
  EXPECT_EQ(stats.dense_blocks, 1u);
  EXPECT_EQ(stats.quantized_blocks, 1u);
}

TEST(CodecFrameTest, DensitySwitchPicksSparseAndDensePerBlock) {
  // Block 0: 2/64 nonzero (sparse). Block 1: all nonzero (dense).
  std::vector<double> values(128, 0.0);
  values[3] = 1.5;
  values[40] = -2.5;
  for (size_t i = 64; i < 128; ++i) values[i] = 1.0 + i;
  std::vector<uint8_t> frame;
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64), &frame,
              &stats);
  EXPECT_EQ(stats.sparse_blocks, 1u);
  EXPECT_EQ(stats.dense_blocks, 1u);
  std::vector<double> decoded;
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(BitIdentical(values, decoded));

  // threshold=1.0 forces everything sparse; threshold tiny forces dense.
  CodecStats all_sparse, all_dense;
  std::vector<uint8_t> f2;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64, 1.0), &f2,
              &all_sparse);
  EXPECT_EQ(all_sparse.sparse_blocks, 2u);
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64, 1e-9), &f2,
              &all_dense);
  EXPECT_EQ(all_dense.dense_blocks, 2u);
}

TEST(CodecFrameTest, SparseBeatsRawAndDeltaBeatsSparseAtLowDensity) {
  const std::vector<double> values = MakeHistogram(4096, 0.05, 7);
  std::vector<uint8_t> sparse, delta;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 128), &sparse);
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 128), &delta);
  const size_t raw = values.size() * sizeof(double);
  EXPECT_LE(sparse.size() * 2, raw) << "expected >=2x reduction at 5% density";
  EXPECT_LE(delta.size(), sparse.size());
}

TEST(CodecFrameTest, EmptyAndWholePayloadBlocks) {
  const std::vector<double> empty;
  std::vector<uint8_t> frame;
  CodecEncode(empty, Spec(CollectiveCompression::kSparse), &frame);
  std::vector<double> decoded{1.0};
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());

  // block_values=0 = one block over the whole payload.
  const std::vector<double> values = MakeHistogram(100, 0.2, 3);
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 0), &frame,
              &stats);
  EXPECT_EQ(stats.sparse_blocks + stats.dense_blocks, 1u);
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(BitIdentical(values, decoded));
}

// ---------------------------------------------------------------------------
// Corrupt / truncated frame rejection.
// ---------------------------------------------------------------------------

TEST(CodecFrameTest, EveryTruncationIsRejected) {
  const std::vector<double> values = MakeHistogram(96, 0.3, 21);
  std::vector<uint8_t> frame;
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 32), &frame);
  std::vector<double> decoded;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        CodecDecode(std::span<const uint8_t>(frame.data(), len), &decoded)
            .ok())
        << "prefix of length " << len << " decoded";
  }
  // Trailing garbage is rejected too (the CRC no longer trails the body).
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_FALSE(CodecDecode(longer, &decoded).ok());
}

TEST(CodecFrameTest, EveryByteFlipIsRejected) {
  const std::vector<double> values = MakeHistogram(64, 0.2, 22);
  std::vector<uint8_t> frame;
  CodecEncode(values, Spec(CollectiveCompression::kQuantized, 32), &frame);
  std::vector<double> decoded;
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[i] ^= 0x80;  // the kCorrupt injector's high-bit flip
    EXPECT_FALSE(CodecDecode(corrupt, &decoded).ok()) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Codec collectives: results, accounting, and replay identity.
// ---------------------------------------------------------------------------

TEST(CodecCollectiveTest, LosslessAllReduceMatchesStrictBitwise) {
  const int w = 4;
  const std::vector<double> base = MakeHistogram(1280, 0.08, 31);
  std::vector<std::vector<double>> strict(w), coded(w);
  for (int r = 0; r < w; ++r) {
    strict[r] = MakeHistogram(1280, 0.08, 31 + r);
    coded[r] = strict[r];
  }

  Cluster strict_cluster(w);
  strict_cluster.Run(
      [&](WorkerContext& ctx) { VERO_COMM_OK(ctx.AllReduceSum(strict[ctx.rank()])); });
  const uint64_t strict_bytes = strict_cluster.TotalStats().bytes_sent;

  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    std::vector<std::vector<double>> data = coded;
    Cluster cluster(w);
    cluster.Run([&](WorkerContext& ctx) {
      VERO_COMM_OK(
          ctx.AllReduceSum(data[ctx.rank()], {.codec = Spec(mode, 64)}));
    });
    for (int r = 0; r < w; ++r) {
      EXPECT_TRUE(BitIdentical(strict[r], data[r]))
          << CollectiveCompressionToString(mode) << " rank " << r;
    }
    const CommStats total = cluster.TotalStats();
    EXPECT_LE(total.bytes_sent * 2, strict_bytes)
        << CollectiveCompressionToString(mode)
        << ": expected >=2x fewer bytes at 8% density";
    EXPECT_GT(total.codec_raw_bytes, total.codec_wire_bytes);
  }
}

TEST(CodecCollectiveTest, QuantizedAllReduceIsReplicatedDeterministic) {
  const int w = 4;
  std::vector<std::vector<double>> data(w);
  for (int r = 0; r < w; ++r) data[r] = MakeHistogram(512, 0.6, 51 + r);
  Cluster cluster(w);
  cluster.Run([&](WorkerContext& ctx) {
    VERO_COMM_OK(ctx.AllReduceSum(
        data[ctx.rank()],
        {.codec = Spec(CollectiveCompression::kQuantized, 64)}));
  });
  for (int r = 1; r < w; ++r) {
    EXPECT_TRUE(BitIdentical(data[0], data[r])) << "rank " << r;
  }
}

// One FaultPlan must replay identically across modes: the codec collectives
// report the same CollectiveOp stream, so occurrence matching is unchanged —
// a kCorrupt retry recharges the (smaller) encoded volume, a kDelay lands on
// the same op, and a kSilentCorrupt lands in the decoded payload.
TEST(CodecCollectiveTest, FaultPlanReplaysIdenticallyAcrossModes) {
  const int w = 3;
  const auto plan = [] {
    return FaultPlan()
        .Delay(1, CollectiveOp::kAllReduceSum, /*occurrence=*/1, 0.25)
        .Corrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/2,
                 /*attempts=*/1);
  };

  struct Outcome {
    double delay = 0.0;
    uint64_t retransmitted = 0;
    uint64_t retries = 0;
  };
  auto run = [&](CollectiveCompression mode) {
    Cluster cluster(w);
    cluster.InstallFaultPlan(plan());
    std::vector<std::vector<double>> data(w);
    for (int r = 0; r < w; ++r) data[r] = MakeHistogram(640, 0.05, 71 + r);
    cluster.Run([&](WorkerContext& ctx) {
      for (int round = 0; round < 3; ++round) {
        CodecSpec spec = Spec(mode, 64);
        VERO_COMM_OK(ctx.AllReduceSum(data[ctx.rank()], {.codec = spec}));
      }
    });
    Outcome out;
    const CommStats total = cluster.TotalStats();
    out.delay = total.fault_delay_seconds;
    out.retransmitted = total.retransmitted_bytes;
    out.retries = total.num_retries;
    return out;
  };

  const Outcome off = run(CollectiveCompression::kOff);
  const Outcome sparse = run(CollectiveCompression::kSparse);
  // Same events fire in both modes (same op stream)...
  EXPECT_EQ(off.delay, sparse.delay);
  EXPECT_EQ(off.retries, sparse.retries);
  EXPECT_GT(sparse.retries, 0u);
  // ...but the retransmission re-ships the encoded frames, which are
  // smaller at 5% density.
  EXPECT_LT(sparse.retransmitted, off.retransmitted);
  EXPECT_GT(sparse.retransmitted, 0u);
}

TEST(CodecCollectiveTest, ComposesWithBoundedStaleness) {
  const int w = 3;
  Cluster cluster(w);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(2, CollectiveOp::kAllReduceSum, 0, /*seconds=*/5.0));
  MitigationOptions opts;
  opts.mode = MitigationMode::kBoundedStaleness;
  opts.deadline_seconds = 0.01;
  std::vector<std::vector<double>> data(w);
  for (int r = 0; r < w; ++r) data[r] = MakeHistogram(640, 0.05, 81 + r);
  std::vector<MitigationOutcome> outcomes(w);
  cluster.Run([&](WorkerContext& ctx) {
    VERO_COMM_OK(ctx.AllReduceSum(
        data[ctx.rank()], {Spec(CollectiveCompression::kSparseDelta, 64), opts},
        &outcomes[ctx.rank()]));
  });
  // Rank 2's contribution was deferred — identically on every rank — and
  // its delay was absorbed off the critical path.
  for (int r = 0; r < w; ++r) {
    ASSERT_EQ(outcomes[r].contributed.size(), static_cast<size_t>(w));
    EXPECT_EQ(outcomes[r].contributed[2], 0) << "rank " << r;
  }
  EXPECT_TRUE(BitIdentical(data[0], data[1]));
  EXPECT_TRUE(BitIdentical(data[0], data[2]));
  EXPECT_GT(cluster.TotalStats().absorbed_delay_seconds, 4.9);
  EXPECT_GT(cluster.TotalStats().codec_wire_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Layer grids: the summing ops x codec x mitigation x W, and AllGather (the
// one byte op with a layer) x mitigation x W. Codec and mitigation are
// layers of one collective, so every cell must report the same
// CollectiveOp stream as the strict/off cell, lossless cells must deliver
// the same bytes (minus deferred slots), and each layer's metrics appear
// only when it is on.
// ---------------------------------------------------------------------------

enum class GridOp {
  kAllReduceSum,
  kAllGather,
  kAllToAllSum,
  kAllReduceSumParts
};

using GridParam =
    std::tuple<GridOp, CollectiveCompression, MitigationMode, int>;

constexpr int kGridCalls = 6;
// AllToAllSum cells: nodes per call, and doubles per unit (GridLength
// counts units there, so calls 1-3 leave some ranks an empty slice).
// AllReduceSumParts cells reduce kGridSumNodes parts of GridLength doubles
// each (so call 2 has part_len 1 and n < W for W > 2).
constexpr int kGridSumNodes = 2;
constexpr size_t kGridUnitLen = 3;
constexpr double kGridDelaySeconds = 5.0;
// Calls on which the last rank is late: a bulk payload, and one shorter
// than W so bounded mode defers a rank while some ranks own no slice.
constexpr int kGridDelayedCalls[] = {0, 2};

bool GridCallDelayed(int call) {
  for (int c : kGridDelayedCalls) {
    if (c == call) return true;
  }
  return false;
}

// Payload length of each call: a bulk shape, then the reduce-scatter slice
// edges of a W-rank all-reduce (empty, shorter than W, W - 1, W + 1) and an
// odd bulk length no W divides.
size_t GridLength(int call, int w) {
  switch (call) {
    case 0:
      return 192;
    case 1:
      return 0;
    case 2:
      return 1;
    case 3:
      return static_cast<size_t>(w - 1);
    case 4:
      return static_cast<size_t>(w + 1);
    default:
      return 1001;
  }
}

CollectiveOp GridCollectiveOp(GridOp op) {
  switch (op) {
    case GridOp::kAllReduceSum:
    case GridOp::kAllReduceSumParts:
      return CollectiveOp::kAllReduceSum;
    case GridOp::kAllGather:
      return CollectiveOp::kAllGather;
    case GridOp::kAllToAllSum:
      return CollectiveOp::kAllToAll;
  }
  return CollectiveOp::kAny;
}

std::vector<double> GridValues(int call, int w, int sender, int dest,
                               size_t unit_len = 1) {
  std::vector<double> values =
      MakeHistogram(GridLength(call, w) * unit_len, 0.1,
                    9000 + 100 * call + 10 * sender + dest);
  // Leading specials: signed zeros, an order-sensitive 1e300 cancellation,
  // Inf + -Inf, NaN and a cancelling pair.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {
      -0.0,
      sender == 0 ? 1e300 : (sender == w - 1 ? -1e300 : 1.0),
      sender == 0 ? kInf : (sender == 1 ? -kInf : 0.0),
      sender == w - 1 ? std::numeric_limits<double>::quiet_NaN() : 0.5,
      sender % 2 == 0 ? 0.3 : -0.3,
  };
  for (size_t i = 0; i < values.size() && i < std::size(specials); ++i) {
    values[i] = specials[i];
  }
  return values;
}

std::vector<uint8_t> GridBytes(const std::vector<double>& values) {
  const auto* first = reinterpret_cast<const uint8_t*>(values.data());
  // Not memcpy: an empty payload may have a null data().
  return std::vector<uint8_t>(first, first + values.size() * sizeof(double));
}

// Issues one call of the cell's op. All-reduce results come back as a
// single packed-double slot so every op compares the same way.
Status IssueGridOp(WorkerContext& ctx, GridOp op, int call,
                   const CodecSpec& codec, const MitigationOptions& mitigation,
                   std::vector<std::vector<uint8_t>>* slots,
                   MitigationOutcome* outcome) {
  const int r = ctx.rank();
  switch (op) {
    case GridOp::kAllReduceSum: {
      std::vector<double> data = GridValues(call, ctx.world_size(), r, 0);
      const Status status =
          ctx.AllReduceSum(data, {codec, mitigation}, outcome);
      slots->assign(1, GridBytes(data));
      return status;
    }
    case GridOp::kAllGather:
      return ctx.AllGather(
          GridBytes(GridValues(call, ctx.world_size(), r, 0)), slots,
          mitigation, outcome);
    case GridOp::kAllToAllSum: {
      const size_t units = GridLength(call, ctx.world_size());
      const size_t len =
          (ctx.SliceEnd(units, r) - ctx.SliceBegin(units, r)) * kGridUnitLen;
      std::vector<std::vector<double>> nodes;
      std::vector<const double*> mine;
      std::vector<double> sums(kGridSumNodes * len);
      std::vector<double*> out;
      for (int i = 0; i < kGridSumNodes; ++i) {
        nodes.push_back(
            GridValues(call, ctx.world_size(), r, i, kGridUnitLen));
        mine.push_back(nodes.back().data());
        out.push_back(sums.data() + i * len);
      }
      const Status status = ctx.AllToAllSum(mine, units, kGridUnitLen, out,
                                            {codec, mitigation}, outcome);
      slots->assign(1, GridBytes(sums));
      return status;
    }
    case GridOp::kAllReduceSumParts: {
      std::vector<std::vector<double>> nodes;
      std::vector<double*> parts;
      for (int i = 0; i < kGridSumNodes; ++i) {
        nodes.push_back(GridValues(call, ctx.world_size(), r, i));
        parts.push_back(nodes.back().data());
      }
      const Status status =
          ctx.AllReduceSum(parts, GridLength(call, ctx.world_size()),
                           {codec, mitigation}, outcome);
      std::vector<double> concat;
      for (const std::vector<double>& node : nodes) {
        concat.insert(concat.end(), node.begin(), node.end());
      }
      slots->assign(1, GridBytes(concat));
      return status;
    }
  }
  return Status::Internal("unknown grid op");
}

// Rank r's AllToAllSum result: its slice of every node, summed over the
// contributors in `mask` in rank order from 0.0. Each contributor's share
// is packed node after node and, with the codec on, passed through its
// frame, as a receiver reconstructs it.
std::vector<double> GridSumOracle(int call, int w, int r,
                                  const std::vector<uint8_t>& mask,
                                  const CodecSpec& codec) {
  const size_t units = GridLength(call, w);
  const size_t b = units * r / w * kGridUnitLen;
  const size_t e = units * (r + 1) / w * kGridUnitLen;
  std::vector<double> sum(kGridSumNodes * (e - b), 0.0);
  for (int s = 0; s < w; ++s) {
    if (!mask[s]) continue;
    std::vector<double> share;
    for (int i = 0; i < kGridSumNodes; ++i) {
      const std::vector<double> v = GridValues(call, w, s, i, kGridUnitLen);
      share.insert(share.end(), v.begin() + b, v.begin() + e);
    }
    if (codec.enabled() && w > 1) {
      std::vector<uint8_t> frame;
      CodecEncode(share, codec, &frame);
      EXPECT_TRUE(CodecDecode(frame, &share).ok());
    }
    for (size_t j = 0; j < sum.size(); ++j) sum[j] += share[j];
  }
  return sum;
}

struct GridRun {
  // slots[call][rank], outcomes[call][rank].
  std::vector<std::vector<std::vector<std::vector<uint8_t>>>> slots;
  std::vector<std::vector<MitigationOutcome>> outcomes;
  std::vector<uint64_t> num_ops;
  // Per rank: (collective name, op_id) of every collective span.
  std::vector<std::vector<std::pair<std::string, int64_t>>> op_ids;
  // comm.<Op>.ops counter values.
  std::map<std::string, uint64_t> op_counts;
  std::vector<std::string> metric_names;
};

CodecSpec GridCodec(CollectiveCompression compression) {
  return Spec(compression, 64);
}

GridRun RunGridCell(GridOp op, CollectiveCompression compression,
                    MitigationMode mode, int w) {
  obs::ObsOptions obs_options;
  obs_options.trace = true;
  obs::RunObserver observer(obs_options);
  Cluster cluster(w);
  cluster.AttachObserver(&observer);
  FaultPlan plan;
  for (int call : kGridDelayedCalls) {
    plan.Delay(w - 1, GridCollectiveOp(op), static_cast<uint64_t>(call),
               kGridDelaySeconds);
  }
  cluster.InstallFaultPlan(plan);
  const CodecSpec codec = GridCodec(compression);
  MitigationOptions mitigation;
  mitigation.mode = mode;
  mitigation.deadline_seconds = 0.01;

  GridRun run;
  run.slots.assign(kGridCalls,
                   std::vector<std::vector<std::vector<uint8_t>>>(w));
  run.outcomes.assign(kGridCalls, std::vector<MitigationOutcome>(w));
  cluster.Run([&](WorkerContext& ctx) {
    for (int call = 0; call < kGridCalls; ++call) {
      VERO_COMM_OK(IssueGridOp(ctx, op, call, codec, mitigation,
                               &run.slots[call][ctx.rank()],
                               &run.outcomes[call][ctx.rank()]));
    }
  });
  for (int r = 0; r < w; ++r) {
    run.num_ops.push_back(cluster.worker_stats(r).num_ops);
  }
  run.op_ids.resize(w);
  for (const obs::TraceEvent& ev : observer.trace().MergedEvents()) {
    if (std::string(ev.category) != "collective") continue;
    run.op_ids[ev.rank].emplace_back(ev.name, ev.op_id);
  }
  for (const auto& entry : observer.metrics().Merged().entries) {
    run.metric_names.push_back(entry.name);
    if (entry.name.starts_with("comm.") && entry.name.ends_with(".ops")) {
      run.op_counts[entry.name] = entry.counter;
    }
  }
  return run;
}

bool IsCodecMetric(const std::string& name) {
  return name.starts_with("codec.") || name.ends_with(".raw_bytes") ||
         name.ends_with(".compressed_bytes");
}

bool IsMitigationMetric(const std::string& name) {
  return name.starts_with("staleness.") || name.starts_with("speculation.");
}

class CollectiveLayerGridTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(CollectiveLayerGridTest, LayersKeepOpStreamAndPayloads) {
  const auto [op, compression, mode, w] = GetParam();
  const GridRun ref = RunGridCell(op, CollectiveCompression::kOff,
                                  MitigationMode::kStrict, w);
  const GridRun run = RunGridCell(op, compression, mode, w);

  // One CollectiveOp stream in every cell: same per-op counts, same
  // per-rank op count, same (name, op_id) sequence on every rank.
  EXPECT_EQ(run.op_counts, ref.op_counts);
  EXPECT_EQ(run.num_ops, ref.num_ops);
  EXPECT_EQ(run.op_ids, ref.op_ids);
  for (int r = 0; r < w; ++r) {
    ASSERT_EQ(run.op_ids[r].size(), static_cast<size_t>(kGridCalls));
    for (int call = 0; call < kGridCalls; ++call) {
      EXPECT_EQ(run.op_ids[r][call].second, call);
    }
  }

  // A rank is deferred only by bounded mode with a peer to close without
  // it, and only on the delayed calls; every rank sees the same mask.
  const bool defers = mode == MitigationMode::kBoundedStaleness && w > 1;
  for (int call = 0; call < kGridCalls; ++call) {
    for (int r = 0; r < w; ++r) {
      std::vector<uint8_t> expected(w, 1);
      if (defers && GridCallDelayed(call)) expected[w - 1] = 0;
      EXPECT_EQ(run.outcomes[call][r].contributed, expected)
          << "call " << call << " rank " << r;
    }
  }

  const bool lossless = compression != CollectiveCompression::kQuantized;
  for (int call = 0; call < kGridCalls; ++call) {
    const std::vector<uint8_t>& mask = run.outcomes[call][0].contributed;
    for (int r = 0; r < w; ++r) {
      const auto& got = run.slots[call][r];
      const auto& want = ref.slots[call][r];
      ASSERT_EQ(got.size(), want.size()) << "call " << call << " rank " << r;
      if (op == GridOp::kAllReduceSum || op == GridOp::kAllReduceSumParts) {
        // Each element sums the contributors in rank order from 0.0,
        // whichever rank owns its slice of the reduce-scatter and whichever
        // part it sits in. W=1 returns the buffer untouched (a -0.0 stays
        // -0.0).
        const int parts = op == GridOp::kAllReduceSum ? 1 : kGridSumNodes;
        std::vector<double> sum;
        for (int i = 0; i < parts; ++i) {
          std::vector<double> part;
          if (w == 1) {
            part = GridValues(call, w, 0, i);
          } else {
            part.assign(GridLength(call, w), 0.0);
            for (int s = 0; s < w; ++s) {
              if (!mask[s]) continue;
              const std::vector<double> v = GridValues(call, w, s, i);
              for (size_t j = 0; j < part.size(); ++j) part[j] += v[j];
            }
          }
          sum.insert(sum.end(), part.begin(), part.end());
        }
        if (lossless) {
          EXPECT_EQ(got[0], GridBytes(sum)) << "call " << call << " rank " << r;
          if (mask == std::vector<uint8_t>(w, 1)) {
            EXPECT_EQ(got[0], want[0]);
          }
        } else {
          EXPECT_EQ(got[0], run.slots[call][0][0]) << "replicated, rank " << r;
        }
        continue;
      }
      if (op == GridOp::kAllToAllSum) {
        // The oracle covers lossy codecs too: it sums the decoded frames.
        EXPECT_EQ(got[0], GridBytes(GridSumOracle(call, w, r, mask,
                                                  GridCodec(compression))))
            << "call " << call << " rank " << r;
        if (lossless && mask == std::vector<uint8_t>(w, 1)) {
          EXPECT_EQ(got[0], want[0]);
        }
        continue;
      }
      // AllGather: no codec, so every contributed slot is the strict one.
      for (int s = 0; s < w; ++s) {
        if (!mask[s]) {
          EXPECT_TRUE(got[s].empty()) << "deferred slot " << s;
        } else {
          EXPECT_EQ(got[s], want[s]) << "call " << call << " rank " << r
                                     << " slot " << s;
        }
      }
    }
  }

  // Each layer's metric names exist only when that layer ran (never at
  // W=1, where the op short-circuits before either layer).
  const bool codec_on = compression != CollectiveCompression::kOff && w > 1;
  const bool mitigation_on = mode != MitigationMode::kStrict && w > 1;
  bool saw_codec = false, saw_mitigation = false;
  for (const std::string& name : run.metric_names) {
    if (IsCodecMetric(name)) {
      saw_codec = true;
      EXPECT_TRUE(codec_on) << name;
    }
    if (IsMitigationMetric(name)) {
      saw_mitigation = true;
      EXPECT_TRUE(mitigation_on) << name;
    }
  }
  EXPECT_EQ(saw_codec, codec_on);
  EXPECT_EQ(saw_mitigation, mitigation_on);
}

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  static const char* const kOpNames[] = {"AllReduceSum", "AllGather",
                                         "AllToAllSum", "AllReduceSumParts"};
  const auto [op, compression, mode, w] = info.param;
  std::string name = kOpNames[static_cast<int>(op)];
  name += "_";
  name += CollectiveCompressionToString(compression);
  name += "_";
  name += MitigationModeToString(mode);
  name += "_W" + std::to_string(w);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollectiveLayerGridTest,
    ::testing::Combine(
        ::testing::Values(GridOp::kAllReduceSum, GridOp::kAllToAllSum,
                          GridOp::kAllReduceSumParts),
        ::testing::Values(CollectiveCompression::kOff,
                          CollectiveCompression::kSparseDelta,
                          CollectiveCompression::kQuantized),
        ::testing::Values(MitigationMode::kStrict,
                          MitigationMode::kBoundedStaleness,
                          MitigationMode::kSpeculative),
        ::testing::Values(1, 2, 3, 4)),
    GridName);

INSTANTIATE_TEST_SUITE_P(
    GatherGrid, CollectiveLayerGridTest,
    ::testing::Combine(::testing::Values(GridOp::kAllGather),
                       ::testing::Values(CollectiveCompression::kOff),
                       ::testing::Values(MitigationMode::kStrict,
                                         MitigationMode::kBoundedStaleness,
                                         MitigationMode::kSpeculative),
                       ::testing::Values(1, 2, 3, 4)),
    GridName);

// A silent corruption of the summing exchange flips the word the byte
// AllToAll flips in the same received shares, so the sum matches a
// byte-AllToAll-then-sum reference bit for bit, with the codec off or
// lossless (a lossless decode returns the raw bits, so the flip lands on
// the same word). As in
// SilentCorruptTest.Qd2AllToAllEscapesOffBlamesReceiverOn, the op itself
// succeeds with a wrong sum, and the pairwise audit blames the receiver.
TEST(AllToAllSumTest, SilentCorruptFlipsTheByteAllToAllWord) {
  constexpr int kW = 3;
  constexpr int kVictim = 2;
  constexpr size_t kUnits = 7;  // Slices of 2, 2 and 3 units.
  constexpr size_t kUnitLen = 2;
  const auto node_values = [](int sender, int node) {
    std::vector<double> v(kUnits * kUnitLen);
    for (size_t j = 0; j < v.size(); ++j) {
      v[j] = 1.0 + sender + 0.25 * node + 0.125 * static_cast<double>(j);
    }
    return v;
  };
  // Per run: [rank] the shares as received (node after node) and the sum.
  struct Run {
    std::vector<std::vector<std::vector<double>>> shares;
    std::vector<std::vector<double>> sums;
    std::vector<int> blamed;
  };
  const auto run = [&](bool summing, bool corrupt,
                       CollectiveCompression compression) {
    Cluster cluster(kW);
    if (corrupt) {
      cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
          kVictim, CollectiveOp::kAllToAll, /*occurrence=*/0, /*seed=*/5));
    }
    const CollectiveOptions opts{.codec = Spec(compression, 4)};
    Run out;
    out.shares.assign(kW, std::vector<std::vector<double>>(kW));
    out.sums.resize(kW);
    out.blamed.assign(kW, -2);
    cluster.Run([&](WorkerContext& ctx) {
      const int r = ctx.rank();
      const auto slice = [&](int g) {
        return std::pair<size_t, size_t>{ctx.SliceBegin(kUnits, g) * kUnitLen,
                                         ctx.SliceEnd(kUnits, g) * kUnitLen};
      };
      const auto [mb, me] = slice(r);
      std::vector<std::vector<double>> nodes;
      std::vector<const double*> mine;
      for (int i = 0; i < 2; ++i) {
        nodes.push_back(node_values(r, i));
        mine.push_back(nodes.back().data());
      }
      IntegrityAuditor auditor(ctx, IntegrityLevel::kChecksum);
      IntegrityAuditor::PairEvidence sent(kW), recv(kW);
      std::vector<double>& sum = out.sums[r];
      sum.assign(2 * (me - mb), 0.0);
      if (summing) {
        const WorkerContext::SliceVisitor visit =
            [&](bool outgoing, int peer, std::span<const double* const> parts,
                size_t len) {
              auditor.RecordShare(outgoing ? &sent : &recv, peer, parts, len);
              if (outgoing) return;
              for (const double* part : parts) {
                out.shares[r][peer].insert(out.shares[r][peer].end(), part,
                                           part + len);
              }
            };
        const std::vector<double*> sums = {sum.data(),
                                           sum.data() + (me - mb)};
        VERO_COMM_OK(ctx.AllToAllSum(mine, kUnits, kUnitLen, sums, opts,
                                     nullptr, &visit));
      } else {
        std::vector<std::vector<uint8_t>> to_each(kW);
        for (int g = 0; g < kW; ++g) {
          std::vector<double> share;
          for (const std::vector<double>& node : nodes) {
            share.insert(share.end(), node.begin() + slice(g).first,
                         node.begin() + slice(g).second);
          }
          to_each[g] = GridBytes(share);
          const double* part = share.data();
          if (g != r) auditor.RecordShare(&sent, g, {&part, 1}, share.size());
        }
        std::vector<std::vector<uint8_t>> from_each;
        VERO_COMM_OK(ctx.AllToAll(std::move(to_each), &from_each));
        for (int s = 0; s < kW; ++s) {
          std::vector<double> share(from_each[s].size() / sizeof(double));
          if (!share.empty()) {
            std::memcpy(share.data(), from_each[s].data(),
                        from_each[s].size());
          }
          for (size_t j = 0; j < sum.size(); ++j) sum[j] += share[j];
          if (s == r) continue;
          const double* part = share.data();
          auditor.RecordShare(&recv, s, {&part, 1}, share.size());
          out.shares[r][s] = std::move(share);
        }
      }
      auditor.PushPairwise("exchange", sent.digest, recv.digest,
                           /*exact=*/true);
      out.blamed[r] = auditor.Exchange("test").blamed_rank;
    });
    return out;
  };

  // The byte AllToAll carries no codec: one reference serves both cells.
  const Run reference = run(/*summing=*/false, /*corrupt=*/true,
                            CollectiveCompression::kOff);
  for (const CollectiveCompression compression :
       {CollectiveCompression::kOff, CollectiveCompression::kSparseDelta}) {
    const Run clean = run(/*summing=*/true, /*corrupt=*/false, compression);
    const Run summed = run(/*summing=*/true, /*corrupt=*/true, compression);
    EXPECT_EQ(summed.shares, reference.shares);
    EXPECT_EQ(summed.sums, reference.sums);
    // Exactly one received word differs from the clean exchange, on the
    // victim, and the op still handed the victim a wrong sum.
    int flipped = 0;
    for (int r = 0; r < kW; ++r) {
      for (int s = 0; s < kW; ++s) {
        for (size_t j = 0; j < summed.shares[r][s].size(); ++j) {
          if (summed.shares[r][s][j] != clean.shares[r][s][j]) {
            ++flipped;
            EXPECT_EQ(r, kVictim);
            EXPECT_EQ(summed.shares[r][s][j], -clean.shares[r][s][j]);
          }
        }
      }
    }
    EXPECT_EQ(flipped, 1);
    EXPECT_NE(summed.sums[kVictim], clean.sums[kVictim]);
    for (int r = 0; r < kW; ++r) {
      EXPECT_EQ(clean.blamed[r], -1);
      EXPECT_EQ(reference.blamed[r], kVictim);
      EXPECT_EQ(summed.blamed[r], kVictim);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: distributed training under compression.
// ---------------------------------------------------------------------------

Dataset MakeData(uint32_t n, uint32_t d, double density, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = density;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(CollectiveCompression compression,
                              uint32_t trees = 5, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  options.compression = compression;
  return options;
}

class QuadrantCodecTest : public ::testing::TestWithParam<Quadrant> {};

// compression=off must be bit-identical to seed (same code path), and the
// lossless modes must train the exact same model while moving fewer bytes.
TEST_P(QuadrantCodecTest, LosslessModesTrainBitIdenticalModels) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(800, 24, 0.1, 411);

  Cluster off_cluster(3);
  const DistResult off = TrainDistributed(
      off_cluster, data, quadrant, SmallOptions(CollectiveCompression::kOff));
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();
  const std::string off_text = ModelToText(off.model);
  EXPECT_EQ(off_cluster.TotalStats().codec_wire_bytes, 0u);

  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    Cluster cluster(3);
    const DistResult result =
        TrainDistributed(cluster, data, quadrant, SmallOptions(mode));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(ModelToText(result.model), off_text);
    EXPECT_LT(result.train_bytes_sent, off.train_bytes_sent);
    const CommStats total = cluster.TotalStats();
    EXPECT_GT(total.codec_raw_bytes, total.codec_wire_bytes);
  }
}

// Quantized training must complete and produce a valid (finite-leaf) model;
// it is allowed to differ from the lossless model.
TEST_P(QuadrantCodecTest, QuantizedTrainsAValidModel) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(800, 24, 0.1, 413);
  Cluster cluster(3);
  const DistResult result = TrainDistributed(
      cluster, data, quadrant, SmallOptions(CollectiveCompression::kQuantized));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 5u);
  EXPECT_GT(cluster.TotalStats().codec_wire_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Quadrants, QuadrantCodecTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2));

// Integrity digests operate on *decoded* payloads, so compression must not
// break blame attribution: a clean quantized run reports zero violations
// (sender digests the round-tripped bytes), and an injected silent
// corruption of the decoded QD2 exchange still convicts the receiver.
TEST(CodecIntegrityTest, QuantizedCleanRunHasNoViolations) {
  const Dataset data = MakeData(800, 24, 0.1, 421);
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kQuantized}) {
    DistTrainOptions options = SmallOptions(mode);
    options.integrity = IntegrityLevel::kFull;
    Cluster cluster(3);
    const DistResult result =
        TrainDistributed(cluster, data, Quadrant::kQD2, options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_GT(result.integrity.checks, 0u);
    EXPECT_EQ(result.integrity.violations, 0u);
    EXPECT_EQ(result.integrity.last_blamed_rank, -1);
  }
}

TEST(CodecIntegrityTest, SilentCorruptionStillBlamedUnderCompression) {
  const Dataset data = MakeData(800, 24, 0.1, 423);
  DistTrainOptions options = SmallOptions(CollectiveCompression::kSparseDelta);
  options.integrity = IntegrityLevel::kChecksum;
  Cluster cluster(3);
  cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
      2, CollectiveOp::kAllToAll, /*occurrence=*/0, /*seed=*/77,
      FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD2, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
}

}  // namespace
}  // namespace vero
