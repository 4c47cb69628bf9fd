#include "partition/transform.h"

#include <array>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "core/binned.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeData(uint32_t n = 500, uint32_t d = 40, uint32_t c = 2,
                 uint64_t seed = 51) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = c;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

std::vector<Dataset> ShardRows(const Dataset& data, int w) {
  std::vector<Dataset> shards;
  for (int r = 0; r < w; ++r) {
    const auto [begin, end] = HorizontalRange(data.num_instances(), w, r);
    shards.emplace_back(
        data.matrix().SliceRows(begin, end),
        std::vector<float>(data.labels().begin() + begin,
                           data.labels().begin() + end),
        data.task(), data.num_classes());
  }
  return shards;
}

TEST(HorizontalRangeTest, TilesInstanceSpace) {
  uint32_t covered = 0;
  for (int r = 0; r < 4; ++r) {
    const auto [begin, end] = HorizontalRange(103, 4, r);
    EXPECT_EQ(begin, covered);
    covered = end;
    EXPECT_GE(end, begin);
  }
  EXPECT_EQ(covered, 103u);
}

TEST(DistributedSplitsTest, MatchSingleNodePipelineAtW1) {
  const Dataset data = MakeData();
  Cluster cluster(1);
  CandidateSplits dist;
  cluster.Run([&](WorkerContext& ctx) {
    dist = BuildDistributedCandidateSplits(ctx, data, 16, 256, nullptr);
  });
  const CandidateSplits local = ProposeCandidateSplits(data, 16, 256);
  EXPECT_TRUE(dist == local);
}

TEST(DistributedSplitsTest, AllWorkersAgreeAndCountsAreExact) {
  const Dataset data = MakeData();
  const int w = 4;
  const auto shards = ShardRows(data, w);
  Cluster cluster(w);
  std::vector<CandidateSplits> splits(w);
  std::vector<std::vector<uint64_t>> counts(w);
  cluster.Run([&](WorkerContext& ctx) {
    splits[ctx.rank()] = BuildDistributedCandidateSplits(
        ctx, shards[ctx.rank()], 16, 256, &counts[ctx.rank()]);
  });
  for (int r = 1; r < w; ++r) {
    EXPECT_TRUE(splits[r] == splits[0]) << "worker " << r;
    EXPECT_EQ(counts[r], counts[0]);
  }
  // Counts must be the exact per-feature nonzero totals.
  std::vector<uint64_t> expected(data.num_features(), 0);
  for (FeatureId f : data.matrix().features()) ++expected[f];
  EXPECT_EQ(counts[0], expected);
}

class TransformEncodingTest
    : public ::testing::TestWithParam<TransformEncoding> {};

TEST_P(TransformEncodingTest, VerticalShardMatchesDirectBinning) {
  const Dataset data = MakeData();
  const int w = 3;
  const auto shards = ShardRows(data, w);
  Cluster cluster(w);
  std::vector<VerticalShard> verticals(w);
  TransformOptions options;
  options.num_candidate_splits = 16;
  options.encoding = GetParam();
  cluster.Run([&](WorkerContext& ctx) {
    verticals[ctx.rank()] =
        HorizontalToVertical(ctx, shards[ctx.rank()], options);
  });

  // Reference binning of the full dataset under the shared split table.
  const CandidateSplits& splits = verticals[0].splits;
  const BinnedRowStore reference =
      BinnedRowStore::FromCsr(data.matrix(), splits);

  // Ownership covers every feature exactly once.
  std::vector<int> seen(data.num_features(), 0);
  for (int r = 0; r < w; ++r) {
    EXPECT_EQ(verticals[r].feature_owner, verticals[0].feature_owner);
    for (FeatureId f : verticals[r].owned_features) {
      EXPECT_EQ(verticals[r].feature_owner[f], r);
      ++seen[f];
    }
    EXPECT_EQ(verticals[r].num_instances, data.num_instances());
    EXPECT_EQ(verticals[r].labels, data.labels());
    EXPECT_LE(verticals[r].data.num_blocks(), options.max_blocks);
  }
  for (FeatureId f = 0; f < data.num_features(); ++f) {
    EXPECT_EQ(seen[f], 1) << "feature " << f;
  }

  // Every (instance, feature, bin) triple must survive the transform.
  for (int r = 0; r < w; ++r) {
    const VerticalShard& v = verticals[r];
    uint64_t checked = 0;
    for (InstanceId i = 0; i < data.num_instances(); ++i) {
      auto local_features = v.data.RowFeatures(i);
      auto local_bins = v.data.RowBins(i);
      for (size_t k = 0; k < local_features.size(); ++k) {
        const FeatureId global_f = v.owned_features[local_features[k]];
        const auto expected = reference.FindBin(i, global_f);
        ASSERT_TRUE(expected.has_value())
            << "instance " << i << " feature " << global_f;
        EXPECT_EQ(local_bins[k], *expected);
        ++checked;
      }
    }
    // Entry conservation: worker r holds exactly the entries of its
    // features.
    uint64_t expected_entries = 0;
    for (FeatureId f : data.matrix().features()) {
      if (v.feature_owner[f] == r) ++expected_entries;
    }
    EXPECT_EQ(checked, expected_entries);
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, TransformEncodingTest,
                         ::testing::Values(TransformEncoding::kNaive,
                                           TransformEncoding::kCompressed,
                                           TransformEncoding::kBlockified));

TEST(TransformTest, CompressionShrinksRepartitionBytes) {
  const Dataset data = MakeData(800, 60);
  const int w = 4;
  const auto shards = ShardRows(data, w);
  std::map<TransformEncoding, uint64_t> bytes;
  for (TransformEncoding e :
       {TransformEncoding::kNaive, TransformEncoding::kCompressed,
        TransformEncoding::kBlockified}) {
    Cluster cluster(w);
    TransformOptions options;
    options.encoding = e;
    std::vector<uint64_t> sent(w, 0);
    cluster.Run([&](WorkerContext& ctx) {
      const VerticalShard v =
          HorizontalToVertical(ctx, shards[ctx.rank()], options);
      sent[ctx.rank()] = v.stats.repartition_bytes_sent;
    });
    uint64_t total = 0;
    for (uint64_t s : sent) total += s;
    bytes[e] = total;
  }
  // Naive (12 B/entry + per-row overhead) > compressed (2 B/entry +
  // per-row overhead) > blockified (2 B/entry + flat arrays).
  EXPECT_GT(bytes[TransformEncoding::kNaive],
            2 * bytes[TransformEncoding::kCompressed]);
  EXPECT_GT(bytes[TransformEncoding::kCompressed],
            bytes[TransformEncoding::kBlockified]);
}

TEST(TransformTest, GroupingStrategiesAllProduceValidShards) {
  const Dataset data = MakeData(300, 30);
  const int w = 3;
  const auto shards = ShardRows(data, w);
  for (auto strategy :
       {ColumnGroupingStrategy::kGreedyBalance,
        ColumnGroupingStrategy::kRoundRobin, ColumnGroupingStrategy::kRange}) {
    Cluster cluster(w);
    TransformOptions options;
    options.grouping = strategy;
    std::vector<uint64_t> entries(w, 0);
    cluster.Run([&](WorkerContext& ctx) {
      const VerticalShard v =
          HorizontalToVertical(ctx, shards[ctx.rank()], options);
      entries[ctx.rank()] = v.data.num_entries();
    });
    uint64_t total = 0;
    for (uint64_t e : entries) total += e;
    EXPECT_EQ(total, data.num_nonzeros())
        << ColumnGroupingStrategyToString(strategy);
  }
}

TEST(TransformTest, GreedyGroupingBalancesEntries) {
  const Dataset data = MakeData(2000, 100, 2, 77);
  const int w = 4;
  const auto shards = ShardRows(data, w);
  Cluster cluster(w);
  TransformOptions options;
  options.grouping = ColumnGroupingStrategy::kGreedyBalance;
  std::vector<uint64_t> entries(w, 0);
  cluster.Run([&](WorkerContext& ctx) {
    entries[ctx.rank()] =
        HorizontalToVertical(ctx, shards[ctx.rank()], options)
            .data.num_entries();
  });
  const uint64_t mean = data.num_nonzeros() / w;
  for (uint64_t e : entries) {
    EXPECT_NEAR(static_cast<double>(e), static_cast<double>(mean),
                0.1 * mean);
  }
}

TEST(TransformTest, StatsArePopulated) {
  const Dataset data = MakeData(400, 20);
  const auto shards = ShardRows(data, 2);
  Cluster cluster(2);
  TransformOptions options;
  std::vector<TransformStats> stats(2);
  cluster.Run([&](WorkerContext& ctx) {
    stats[ctx.rank()] =
        HorizontalToVertical(ctx, shards[ctx.rank()], options).stats;
  });
  for (const TransformStats& s : stats) {
    EXPECT_GT(s.repartition_bytes_sent, 0u);
    EXPECT_GT(s.sim_comm_seconds, 0.0);
    EXPECT_GE(s.sim_comm_seconds, s.label_broadcast_sim_seconds);
  }
}

TEST(TransformTest, SingleWorkerTransformKeepsEverything) {
  const Dataset data = MakeData(200, 10);
  Cluster cluster(1);
  TransformOptions options;
  cluster.Run([&](WorkerContext& ctx) {
    const VerticalShard v = HorizontalToVertical(ctx, data, options);
    EXPECT_EQ(v.owned_features.size(), data.num_features());
    EXPECT_EQ(v.data.num_entries(), data.num_nonzeros());
    EXPECT_EQ(v.labels, data.labels());
  });
}

// A blockified message as HorizontalToVertical sends it: u32 rows, the
// u64-prefixed row lengths, then the u64-prefixed entry array. Groups of up
// to 256 features and tables of up to 256 splits store each (local id, bin)
// entry in two bytes.
std::vector<uint8_t> BlockMessage(
    const std::vector<uint32_t>& lens,
    const std::vector<std::pair<uint8_t, uint8_t>>& entries) {
  ByteWriter writer;
  writer.WriteU32(static_cast<uint32_t>(lens.size()));
  writer.WriteVector(lens);
  writer.WriteU64(2 * entries.size());
  for (const auto& [id, bin] : entries) {
    writer.WriteU8(id);
    writer.WriteU8(bin);
  }
  return writer.TakeData();
}

// Two full rows of three features, and a sparse block of three rows.
std::vector<uint8_t> DenseMessage() {
  return BlockMessage({3, 3}, {{0, 4}, {1, 5}, {2, 6}, {0, 7}, {1, 8}, {2, 9}});
}
std::vector<uint8_t> SparseMessage() {
  return BlockMessage({2, 0, 1}, {{0, 5}, {2, 7}, {1, 9}});
}

// Header bytes before the entries: u32 rows, u64 count, lens, u64 size.
size_t HeaderBytes(uint32_t rows) { return 4 + 8 + 4 * size_t{rows} + 8; }

Status Decode(const std::vector<uint8_t>& message, uint32_t rows,
              BinnedRowStore::Block* block) {
  return DecodeBlockifiedGroup(message, rows, /*num_features=*/3,
                               /*num_candidate_splits=*/20, block);
}

TEST(BlockDecodeTest, DecodesDenseAndSparseBlocks) {
  BinnedRowStore::Block dense;
  dense.row_offset = 40;
  ASSERT_TRUE(Decode(DenseMessage(), 2, &dense).ok());
  EXPECT_EQ(dense.row_offset, 40u);
  EXPECT_EQ(dense.dense_width, 3u);
  EXPECT_EQ(dense.bins, (std::vector<BinId>{4, 5, 6, 7, 8, 9}));

  BinnedRowStore::Block sparse;
  ASSERT_TRUE(Decode(SparseMessage(), 3, &sparse).ok());
  EXPECT_EQ(sparse.dense_width, 0u);
  EXPECT_EQ(sparse.row_ptr, (std::vector<uint32_t>{0, 2, 2, 3}));
  EXPECT_EQ(sparse.features, (std::vector<uint32_t>{0, 2, 1}));
  EXPECT_EQ(sparse.bins, (std::vector<BinId>{5, 7, 9}));

  // Two-byte ids and bins: 300 features, 1000 splits.
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteVector(std::vector<uint32_t>{1});
  writer.WriteU64(4);
  writer.WriteU16(299);
  writer.WriteU16(999);
  BinnedRowStore::Block wide;
  ASSERT_TRUE(DecodeBlockifiedGroup(writer.data(), 1, 300, 1000, &wide).ok());
  EXPECT_EQ(wide.features, (std::vector<uint32_t>{299}));
  EXPECT_EQ(wide.bins, (std::vector<BinId>{999}));
}

TEST(BlockDecodeTest, NamesEachCorruption) {
  BinnedRowStore::Block block;
  auto expect_corruption = [&](const std::vector<uint8_t>& message,
                               uint32_t rows, const std::string& cause) {
    const Status status = Decode(message, rows, &block);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << cause;
    EXPECT_NE(status.message().find(cause), std::string::npos)
        << status.ToString();
  };
  const std::vector<uint8_t> dense = DenseMessage();
  expect_corruption({dense.begin(), dense.begin() + 5}, 2, "short header");
  expect_corruption(dense, 3, "header holds 2 rows, want 3");

  std::vector<uint8_t> lens_count = dense;
  lens_count[4] = 3;  // the lens vector's u64 count
  expect_corruption(lens_count, 2, "3 row lengths for 2 rows");

  std::vector<uint8_t> payload_size = dense;
  payload_size[HeaderBytes(2) - 8] = 10;
  expect_corruption(payload_size, 2, "payload of 10 bytes for 6 entries");

  std::vector<uint8_t> trailing = dense;
  trailing.push_back(0);
  expect_corruption(trailing, 2, "payload of 12 bytes, message holds 13");

  expect_corruption(
      BlockMessage({3, 3}, {{0, 4}, {2, 5}, {1, 6}, {0, 7}, {1, 8}, {2, 9}}),
      2, "ids are not 0..w-1");
  // A sparse id of 3 in a three-feature group would index past the
  // histogram's features.
  expect_corruption(BlockMessage({2, 1}, {{0, 5}, {1, 7}, {3, 9}}), 2,
                    "a local feature id is not below 3");
  // So would a bin of 20 against a 20-split table, dense or sparse.
  expect_corruption(
      BlockMessage({3, 3}, {{0, 4}, {1, 5}, {2, 6}, {0, 7}, {1, 8}, {2, 20}}),
      2, "a bin is not below 20");
  expect_corruption(BlockMessage({2, 1}, {{0, 5}, {1, 20}, {2, 9}}), 2,
                    "a bin is not below 20");
}

TEST(BlockDecodeTest, EveryTruncationAndFieldFlipIsCorruption) {
  // Each message lives in a buffer of its exact size, so under ASan a read
  // past it fails the test.
  for (const bool dense : {true, false}) {
    const std::vector<uint8_t> good = dense ? DenseMessage() : SparseMessage();
    const uint32_t rows = dense ? 2 : 3;
    BinnedRowStore::Block block;
    ASSERT_TRUE(Decode(good, rows, &block).ok());
    for (size_t len = 0; len < good.size(); ++len) {
      const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
      EXPECT_EQ(Decode(bad, rows, &block).code(), StatusCode::kCorruption)
          << "dense " << dense << " len " << len;
    }
    // Every header bit (row count, lens count, row lengths, payload size),
    // every id bit that leaves 0..w-1 in a sparse block or breaks a full
    // row's order, and every bin bit that lifts a bin (4..9 here) to 20 or
    // more.
    const size_t header = HeaderBytes(rows);
    for (size_t offset = 0; offset < good.size(); ++offset) {
      const bool entry = offset >= header;
      const bool id_byte = entry && (offset - header) % 2 == 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (id_byte && !dense && bit < 2) continue;  // 0..2 may stay < 3
        if (entry && !id_byte && bit < 4) continue;  // may stay below 20
        std::vector<uint8_t> bad = good;
        bad[offset] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_EQ(Decode(bad, rows, &block).code(), StatusCode::kCorruption)
            << "dense " << dense << " offset " << offset << " bit " << bit;
      }
    }
  }
}

// Step 1b's message to rank 1 of four workers over 16 features: feature 1
// (four distinct values, each of weight 1) and feature 5 (1.125 twice, then
// 1.875). Every value lies in [1, 2) and every rank below 8, so bit 62 of
// any f64 field lifts it to inf or NaN, or drops it below the rank it
// must keep.
std::vector<uint8_t> SketchMessage() {
  ByteWriter writer;
  writer.WriteU32(1);
  QuantileSummary::FromValues({1.25f, 1.5f, 1.625f, 1.75f})
      .SerializeTo(&writer);
  writer.WriteU32(5);
  QuantileSummary::FromValues({1.125f, 1.875f, 1.125f}).SerializeTo(&writer);
  return writer.TakeData();
}

// Reads every record of a step-1b message as rank 1 of 4 over 16 features.
Status ReadSketchMessage(const std::vector<uint8_t>& message,
                         std::vector<uint32_t>* features) {
  ByteReader reader(message.data(), message.size());
  features->clear();
  uint32_t min_feature = 0;
  QuantileSummary summary;
  while (!reader.AtEnd()) {
    uint32_t f = 0;
    VERO_RETURN_IF_ERROR(
        ReadSketchRecord(&reader, 16, 4, 1, min_feature, &f, &summary));
    features->push_back(f);
    min_feature = f + 1;
  }
  return Status::OK();
}

TEST(SketchRecordTest, NamesEachCorruption) {
  const std::vector<uint8_t> good = SketchMessage();
  std::vector<uint32_t> features;
  ASSERT_TRUE(ReadSketchMessage(good, &features).ok());
  EXPECT_EQ(features, (std::vector<uint32_t>{1, 5}));
  auto expect_corruption = [&](std::vector<uint8_t> message,
                               const std::string& cause) {
    const Status status = ReadSketchMessage(message, &features);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << cause;
    EXPECT_NE(status.message().find(cause), std::string::npos)
        << status.ToString();
  };
  const size_t second = 4 + 8 + 4 * 32;  // offset of feature 5's id
  auto with_id = [&](size_t offset, uint32_t id) {
    std::vector<uint8_t> message = good;
    std::memcpy(message.data() + offset, &id, sizeof(id));
    return message;
  };
  // Bit 31 of an id keeps f % 4 == 1 and must not index past the table.
  expect_corruption(with_id(0, 1u | 1u << 31),
                    "feature id 2147483649 is not below 16");
  expect_corruption(with_id(0, 2), "feature id 2 is not owned by rank 1");
  expect_corruption(with_id(second, 1), "feature id 1 does not ascend");
  expect_corruption({good.begin(), good.begin() + 3},
                    "sketch record: short feature id");
  expect_corruption({good.begin(), good.begin() + second - 1},
                    "feature 1: summary: 4 entries exceed the 127 bytes left");
  std::vector<uint8_t> nan_value = good;
  nan_value[4 + 8 + 32 + 7] ^= 0x40;  // bit 62 of entry 1's value
  expect_corruption(nan_value, "feature 1: summary entry 1: value is not");
}

TEST(SketchRecordTest, EveryTruncationAndFieldFlipIsCorruption) {
  // Each message lives in a buffer of its exact size, so under ASan a read
  // past it fails the test.
  const std::vector<uint8_t> good = SketchMessage();
  const size_t second = 4 + 8 + 4 * 32;
  std::vector<uint32_t> features;
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    const Status status = ReadSketchMessage(bad, &features);
    if (len == 0 || len == second) {
      EXPECT_TRUE(status.ok()) << "record boundary " << len;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << "len " << len;
    }
  }
  // Every id bit but 2 and 3 (which keep 1 and 5 owned, ascending and below
  // 16), every entry-count bit, and bit 62 of every f64 field.
  for (const size_t record : {size_t{0}, second}) {
    const size_t entries = record == 0 ? 4 : 2;
    std::vector<std::pair<size_t, int>> flips;
    for (int bit = 0; bit < 32; ++bit) {
      if (bit != 2 && bit != 3) flips.emplace_back(record, bit);
    }
    for (int bit = 0; bit < 64; ++bit) flips.emplace_back(record + 4, bit);
    for (size_t field = 0; field < 4 * entries; ++field) {
      flips.emplace_back(record + 12 + 8 * field, 62);
    }
    for (const auto& [offset, bit] : flips) {
      std::vector<uint8_t> bad = good;
      bad[offset + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_EQ(ReadSketchMessage(bad, &features).code(),
                StatusCode::kCorruption)
          << "offset " << offset << " bit " << bit;
    }
  }
}

// Step 2a's message from rank 1 of four workers over 16 features.
std::vector<uint8_t> SplitMessage() {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU64(4);
  writer.WriteVector(std::vector<float>{1.5f, 1.75f});
  writer.WriteU32(5);
  writer.WriteU64(3);
  writer.WriteVector(std::vector<float>{1.875f});
  return writer.TakeData();
}

Status ReadSplitMessage(const std::vector<uint8_t>& message,
                        std::vector<uint32_t>* features) {
  ByteReader reader(message.data(), message.size());
  features->clear();
  uint32_t min_feature = 0;
  while (!reader.AtEnd()) {
    uint32_t f = 0;
    uint64_t count = 0;
    std::vector<float> splits;
    VERO_RETURN_IF_ERROR(ReadSplitRecord(&reader, 16, 4, 1, min_feature, &f,
                                         &count, &splits));
    features->push_back(f);
    min_feature = f + 1;
  }
  return Status::OK();
}

TEST(SplitRecordTest, EveryTruncationAndIdFlipIsCorruption) {
  const std::vector<uint8_t> good = SplitMessage();
  const size_t second = 4 + 8 + 8 + 2 * 4;
  std::vector<uint32_t> features;
  ASSERT_TRUE(ReadSplitMessage(good, &features).ok());
  EXPECT_EQ(features, (std::vector<uint32_t>{1, 5}));
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    const Status status = ReadSplitMessage(bad, &features);
    if (len == 0 || len == second) {
      EXPECT_TRUE(status.ok()) << "record boundary " << len;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << "len " << len;
    }
  }
  // Every id bit but 2 and 3, and every split-count bit from 8 up.
  for (const size_t record : {size_t{0}, second}) {
    for (int bit = 0; bit < 32; ++bit) {
      if (bit == 2 || bit == 3) continue;
      std::vector<uint8_t> bad = good;
      bad[record + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_EQ(ReadSplitMessage(bad, &features).code(),
                StatusCode::kCorruption)
          << "record " << record << " id bit " << bit;
    }
    for (int bit = 8; bit < 64; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[record + 12 + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_EQ(ReadSplitMessage(bad, &features).code(),
                StatusCode::kCorruption)
          << "record " << record << " count bit " << bit;
    }
  }
  // The master names a stray id before indexing its tables with it.
  std::vector<uint8_t> stray = good;
  stray[3] ^= 0x80;
  const Status status = ReadSplitMessage(stray, &features);
  EXPECT_NE(status.message().find("feature id 2147483649 is not below 16"),
            std::string::npos)
      << status.ToString();
}

// Digest of everything a transform produces on every rank: the split
// table's wire bytes, the ownership, each decoded column-group block and
// the repartition byte count. The decoder reads every payload byte (row
// lengths, ids, bins) and checks dense rows' ids, so equal digests mean
// equal payloads.
uint32_t TransformDigest(const std::vector<VerticalShard>& verticals) {
  uint32_t crc = 0;
  auto add = [&crc](const void* data, size_t size) {
    crc = Crc32Extend(crc, data, size);
  };
  auto add_vector = [&add](const auto& v) {
    add(v.data(), v.size() * sizeof(v[0]));
  };
  ByteWriter splits;
  verticals[0].splits.SerializeTo(&splits);
  add_vector(splits.data());
  for (const VerticalShard& v : verticals) {
    add_vector(v.feature_owner);
    add_vector(v.owned_features);
    add(&v.stats.repartition_bytes_sent, sizeof(uint64_t));
    for (size_t b = 0; b < v.data.num_blocks(); ++b) {
      const BinnedRowStore::Block& block = v.data.block(b);
      add(&block.row_offset, sizeof(block.row_offset));
      add(&block.dense_width, sizeof(block.dense_width));
      add_vector(block.row_ptr);
      add_vector(block.features);
      add_vector(block.bins);
    }
  }
  return crc;
}

// Transform digests of every synthetic profile (about 1500 rows each, four
// workers) under each encoding, pinned from the comparison-sort sketch and
// std::lower_bound binning that the radix flush and the branch-free
// BinForValue replaced: both must reproduce every split and payload byte.
TEST(TransformTest, PayloadsMatchPinnedDigestsOnEveryProfile) {
  // {naive, compressed, blockified}
  const std::map<std::string, std::array<uint32_t, 3>> expected = {
      {"SUSY", {0x2018344au, 0xd85285b0u, 0x7d0df3e8u}},
      {"Higgs", {0xe062847u, 0x71c6b3e8u, 0x5eb942c0u}},
      {"Criteo", {0xfce400c9u, 0xe507897au, 0x3bb56e89u}},
      {"Epsilon", {0x20592528u, 0x8b86f102u, 0x6f527623u}},
      {"RCV1", {0xcf4f507au, 0x1d32a650u, 0xc09cd244u}},
      {"Synthesis", {0x4e780250u, 0x830ab4b5u, 0xd7a20de9u}},
      {"RCV1-multi", {0xae182cf5u, 0x15a23befu, 0xa2ad1e43u}},
      {"Synthesis-multi", {0x4c76c51eu, 0xc4962f92u, 0x972aae84u}},
      {"Gender", {0x33678a96u, 0x82bcb410u, 0xa2fa7563u}},
      {"Age", {0x34bb1fafu, 0x453be3d6u, 0xdc2ad05au}},
      {"Taste", {0xb6d93618u, 0xdcedc26fu, 0x99cbeebbu}},
  };
  std::vector<DatasetProfile> profiles = PublicDatasetProfiles();
  for (const DatasetProfile& p : IndustrialDatasetProfiles()) {
    profiles.push_back(p);
  }
  const int w = 4;
  for (const DatasetProfile& profile : profiles) {
    const Dataset data =
        GenerateFromProfile(profile, 1500.0 / profile.scaled_instances);
    const auto shards = ShardRows(data, w);
    std::array<uint32_t, 3> digests{};
    const TransformEncoding encodings[3] = {TransformEncoding::kNaive,
                                            TransformEncoding::kCompressed,
                                            TransformEncoding::kBlockified};
    for (int e = 0; e < 3; ++e) {
      Cluster cluster(w);
      std::vector<VerticalShard> verticals(w);
      TransformOptions options;
      options.num_candidate_splits = 20;
      options.encoding = encodings[e];
      cluster.Run([&](WorkerContext& ctx) {
        verticals[ctx.rank()] =
            HorizontalToVertical(ctx, shards[ctx.rank()], options);
      });
      digests[e] = TransformDigest(verticals);
    }
    const auto it = expected.find(profile.name);
    const std::array<uint32_t, 3> want =
        it == expected.end() ? std::array<uint32_t, 3>{} : it->second;
    EXPECT_EQ(digests, want)
        << "{\"" << profile.name << "\", {0x" << std::hex << digests[0]
        << "u, 0x" << digests[1] << "u, 0x" << digests[2] << "u}},";
  }
}

}  // namespace
}  // namespace vero
