#include "sketch/quantile_summary.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"

namespace vero {
namespace {

// One feature's summary through a single-feature ShardSummaryBuilder.
QuantileSummary BuildSummary(const std::vector<float>& values,
                             size_t max_entries) {
  const std::vector<uint32_t> features(values.size(), 0);
  ShardSummaryBuilder builder(features, values, 1, max_entries);
  return builder.Summarize(0);
}

TEST(QuantileSummaryTest, ExactFromValues) {
  QuantileSummary s = QuantileSummary::FromValues({3.0f, 1.0f, 2.0f, 1.0f});
  EXPECT_EQ(s.num_entries(), 3u);  // Distinct values 1, 2, 3.
  EXPECT_DOUBLE_EQ(s.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(s.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 3.0);
  ASSERT_TRUE(s.CheckInvariants().ok());
  // value 1 has rmin 0, rmax 2 (two copies); value 2 rmin 2 rmax 3.
  EXPECT_DOUBLE_EQ(s.entries()[0].rmin, 0.0);
  EXPECT_DOUBLE_EQ(s.entries()[0].rmax, 2.0);
  EXPECT_DOUBLE_EQ(s.entries()[1].rmin, 2.0);
  EXPECT_DOUBLE_EQ(s.entries()[1].rmax, 3.0);
}

TEST(QuantileSummaryTest, EmptySummary) {
  QuantileSummary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.ProposeSplits(10).size(), 0u);
  EXPECT_TRUE(s.Merge(QuantileSummary()).empty());
}

TEST(QuantileSummaryTest, RepeatedValues) {
  QuantileSummary s = QuantileSummary::FromValues({1, 1, 1, 2});
  EXPECT_DOUBLE_EQ(s.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(s.entries()[0].w, 3.0);
  ASSERT_TRUE(s.CheckInvariants().ok());
}

TEST(QuantileSummaryTest, MergeOfExactSummariesIsExact) {
  QuantileSummary a = QuantileSummary::FromValues({1, 3, 5, 7});
  QuantileSummary b = QuantileSummary::FromValues({2, 3, 6});
  QuantileSummary m = a.Merge(b);
  ASSERT_TRUE(m.CheckInvariants().ok());
  EXPECT_DOUBLE_EQ(m.total_weight(), 7.0);
  // Merged exact summaries keep exact ranks: rmin(x) == #values < x.
  const std::vector<float> all = {1, 2, 3, 3, 5, 6, 7};
  for (const SummaryEntry& e : m.entries()) {
    const double below = std::count_if(all.begin(), all.end(), [&](float v) {
      return v < e.value;
    });
    const double below_or_eq = std::count_if(
        all.begin(), all.end(), [&](float v) { return v <= e.value; });
    EXPECT_DOUBLE_EQ(e.rmin, below) << "value " << e.value;
    EXPECT_DOUBLE_EQ(e.rmax, below_or_eq) << "value " << e.value;
  }
}

TEST(QuantileSummaryTest, MergeWithEmpty) {
  QuantileSummary a = QuantileSummary::FromValues({1, 2});
  EXPECT_EQ(a.Merge(QuantileSummary()).num_entries(), 2u);
  EXPECT_EQ(QuantileSummary().Merge(a).num_entries(), 2u);
}

TEST(QuantileSummaryTest, PruneKeepsExtremesAndBounds) {
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<float>(i));
  QuantileSummary s = QuantileSummary::FromValues(values).Prune(20);
  ASSERT_TRUE(s.CheckInvariants().ok());
  EXPECT_LE(s.num_entries(), 20u);
  EXPECT_DOUBLE_EQ(s.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 999.0);
}

TEST(QuantileSummaryTest, QueryOnExactSummaryIsExact) {
  std::vector<float> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<float>(i));
  QuantileSummary s = QuantileSummary::FromValues(values);
  EXPECT_NEAR(s.Query(50), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(s.Query(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Query(1000), 100.0);
}

TEST(QuantileSummaryTest, ProposeSplitsCoversMaxAndIsSorted) {
  std::vector<float> values;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<float>(rng.NextDouble()));
  }
  const float max_v = *std::max_element(values.begin(), values.end());
  QuantileSummary s = QuantileSummary::FromValues(values);
  const std::vector<float> splits = s.ProposeSplits(20);
  ASSERT_FALSE(splits.empty());
  EXPECT_LE(splits.size(), 20u);
  EXPECT_TRUE(std::is_sorted(splits.begin(), splits.end()));
  EXPECT_EQ(splits.back(), max_v);
}

TEST(QuantileSummaryTest, ProposeSplitsOnConstantFeature) {
  QuantileSummary s = QuantileSummary::FromValues({2.5f, 2.5f, 2.5f});
  const std::vector<float> splits = s.ProposeSplits(20);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0], 2.5f);
}

TEST(QuantileSummaryTest, SerializeRoundTrip) {
  QuantileSummary s = QuantileSummary::FromValues({1, 2, 2, 3, 10});
  ByteWriter w;
  s.SerializeTo(&w);
  ByteReader r(w.data());
  QuantileSummary t;
  ASSERT_TRUE(QuantileSummary::Deserialize(&r, &t).ok());
  EXPECT_EQ(t.num_entries(), s.num_entries());
  EXPECT_DOUBLE_EQ(t.total_weight(), s.total_weight());
  EXPECT_DOUBLE_EQ(t.Query(2.0), s.Query(2.0));
}

// Property: pruned sketch rank error stays within total_weight/(b-1) plus
// merge slack, across distributions and sketch budgets.
class SketchErrorTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(SketchErrorTest, QuantileErrorBounded) {
  const auto [distribution, max_entries] = GetParam();
  Rng rng(distribution * 100 + max_entries);
  const int n = 20000;
  std::vector<float> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    double v = 0;
    switch (distribution) {
      case 0:
        v = rng.NextDouble();
        break;
      case 1:
        v = rng.NextGaussian();
        break;
      case 2:
        v = std::exp(3 * rng.NextDouble());
        break;
      case 3:
        v = rng.Uniform(50);  // Heavy ties.
        break;
    }
    values.push_back(static_cast<float>(v));
  }
  const QuantileSummary summary = BuildSummary(values, max_entries);
  ASSERT_TRUE(summary.CheckInvariants().ok());
  EXPECT_DOUBLE_EQ(summary.total_weight(), n);

  std::vector<float> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Allow a few batch-merge rounds' worth of slack on top of 1/(b-1).
  const double tolerance = 8.0 * n / static_cast<double>(max_entries - 1);
  for (double q = 0.1; q < 1.0; q += 0.1) {
    const double rank = q * n;
    const float estimate = static_cast<float>(summary.Query(rank));
    // True rank range of the estimate in the sorted data.
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), estimate);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), estimate);
    const double rank_lo = lo - sorted.begin();
    const double rank_hi = hi - sorted.begin();
    const double error = std::max(
        0.0, std::max(rank_lo - rank, rank - rank_hi));
    EXPECT_LE(error, tolerance)
        << "distribution " << distribution << " q " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndBudgets, SketchErrorTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(size_t{64}, size_t{256},
                                         size_t{1024})));

TEST(ShardSummaryBuilderTest, MergedShardsMatchSingleStream) {
  // The distributed pipeline builds per-worker summaries and merges them;
  // the merged result must approximate the same quantiles.
  Rng rng(77);
  std::vector<float> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<float>(rng.NextGaussian()));
  }
  std::vector<float> shards[3];
  for (size_t i = 0; i < values.size(); ++i) shards[i % 3].push_back(values[i]);
  QuantileSummary merged = BuildSummary(shards[0], 256)
                               .Merge(BuildSummary(shards[1], 256))
                               .Merge(BuildSummary(shards[2], 256))
                               .Prune(256);
  ASSERT_TRUE(merged.CheckInvariants().ok());
  EXPECT_DOUBLE_EQ(merged.total_weight(), 10000.0);

  const QuantileSummary single = BuildSummary(values, 256);
  for (double q = 0.1; q < 1.0; q += 0.2) {
    EXPECT_NEAR(merged.Query(q * 10000), single.Query(q * 10000), 0.25)
        << "quantile " << q;
  }
}

// Exact summary of `values` by comparison sort: the reference the radix
// flush must reproduce bit for bit. A run of zeros is stored as +0.0.
QuantileSummary ReferenceSummary(std::vector<float> values) {
  std::sort(values.begin(), values.end());
  ByteWriter writer;
  std::vector<SummaryEntry> entries;
  double cum = 0.0;
  for (size_t i = 0; i < values.size();) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    SummaryEntry e;
    e.value = values[i] == 0.0f ? 0.0f : values[i];
    e.rmin = cum;
    e.w = static_cast<double>(j - i);
    cum += e.w;
    e.rmax = cum;
    entries.push_back(e);
    i = j;
  }
  writer.WriteU64(entries.size());
  for (const SummaryEntry& e : entries) {
    writer.WriteF64(e.value);
    writer.WriteF64(e.rmin);
    writer.WriteF64(e.rmax);
    writer.WriteF64(e.w);
  }
  ByteReader reader(writer.data());
  QuantileSummary out;
  EXPECT_TRUE(QuantileSummary::Deserialize(&reader, &out).ok());
  return out;
}

// Bitwise equality, so -0.0 and +0.0 differ.
void ExpectSameBits(const QuantileSummary& got, const QuantileSummary& want,
                    const std::string& where) {
  ASSERT_EQ(got.num_entries(), want.num_entries()) << where;
  for (size_t i = 0; i < got.num_entries(); ++i) {
    const SummaryEntry& a = got.entries()[i];
    const SummaryEntry& b = want.entries()[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(a.value), std::bit_cast<uint64_t>(b.value))
        << where << " entry " << i << ": " << a.value << " vs " << b.value;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.rmin), std::bit_cast<uint64_t>(b.rmin))
        << where << " entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.rmax), std::bit_cast<uint64_t>(b.rmax))
        << where << " entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.w), std::bit_cast<uint64_t>(b.w))
        << where << " entry " << i;
  }
  EXPECT_EQ(got.total_weight(), want.total_weight()) << where;
}

// Finite test values of five shapes: uniform, heavy duplicates with both
// zeros, IEEE edge values (denormals, FLT_MIN, ±FLT_MAX), only zeros, and
// random bit patterns that exercise every radix digit.
float SampleValue(int shape, Rng& rng) {
  static const float kEdges[] = {
      0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      3 * std::numeric_limits<float>::denorm_min(),
      -7 * std::numeric_limits<float>::denorm_min(), FLT_MIN, -FLT_MIN,
      FLT_MAX, -FLT_MAX, 1.0f, -1.0f};
  switch (shape) {
    case 0:
      return static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    case 1: {
      const float v = static_cast<float>(rng.Uniform(7)) - 3.0f;
      return (v == 0.0f && rng.Uniform(2) == 0) ? -0.0f : v;
    }
    case 2:
      return rng.Uniform(3) == 0
                 ? static_cast<float>(rng.NextGaussian())
                 : kEdges[rng.Uniform(sizeof(kEdges) / sizeof(kEdges[0]))];
    case 3:
      return rng.Uniform(2) == 0 ? -0.0f : 0.0f;
    default: {
      float v = 0.0f;
      do {
        v = std::bit_cast<float>(static_cast<uint32_t>(rng.Next()));
      } while (!std::isfinite(v));
      return v;
    }
  }
}

TEST(QuantileSummaryTest, RadixBuildMatchesComparisonSortReference) {
  Rng rng(2024);
  for (size_t n : {1, 2, 3, 100, 255, 256, 257, 1000, 4095, 4096, 9000}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<float> values(n);
      for (float& v : values) v = SampleValue(shape, rng);
      const std::string where =
          "n=" + std::to_string(n) + " shape=" + std::to_string(shape);
      const QuantileSummary got = QuantileSummary::FromValues(values);
      ExpectSameBits(got, ReferenceSummary(values), where);
      ASSERT_TRUE(got.CheckInvariants().ok()) << where;
    }
  }
}

TEST(ShardSummaryBuilderTest, BatchesMatchComparisonSortReference) {
  // The builder against the fold it implements: per batch of kBatchSize
  // values in row order, the exact batch summary merged into the running
  // summary and pruned. Feature 1's run crosses three batch boundaries;
  // feature 0's values are interleaved with it.
  constexpr size_t kBatch = ShardSummaryBuilder::kBatchSize;
  Rng rng(99);
  for (size_t max_entries : {8, 64, 256}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<uint32_t> features;
      std::vector<float> values;
      QuantileSummary reference;
      std::vector<float> batch;
      const size_t n = 3 * kBatch + 17;
      for (size_t i = 0; i < n; ++i) {
        if (i % 5 == 0) {
          features.push_back(0);
          values.push_back(SampleValue(shape, rng));
        }
        const float v = SampleValue(shape, rng);
        features.push_back(1);
        values.push_back(v);
        batch.push_back(v);
        if (batch.size() == kBatch || i + 1 == n) {
          reference =
              reference.Merge(ReferenceSummary(batch)).Prune(max_entries);
          batch.clear();
        }
      }
      ShardSummaryBuilder builder(features, values, 2, max_entries);
      ExpectSameBits(builder.Summarize(1), reference,
                     "max=" + std::to_string(max_entries) +
                         " shape=" + std::to_string(shape));
    }
  }
}

TEST(QuantileSummaryTest, RunOfZerosIsStoredAsPositiveZero) {
  const QuantileSummary s =
      QuantileSummary::FromValues({-0.0f, 0.0f, -0.0f, 1.0f, -1.0f});
  ASSERT_EQ(s.num_entries(), 3u);
  EXPECT_EQ(s.entries()[1].value, 0.0);
  EXPECT_FALSE(std::signbit(s.entries()[1].value));
  EXPECT_DOUBLE_EQ(s.entries()[1].w, 3.0);

  // Only negative zeros, through the builder's radix path.
  const QuantileSummary summary =
      BuildSummary(std::vector<float>(1000, -0.0f), 16);
  ASSERT_EQ(summary.num_entries(), 1u);
  EXPECT_FALSE(std::signbit(summary.entries()[0].value));
  EXPECT_DOUBLE_EQ(summary.total_weight(), 1000.0);
  const std::vector<float> splits = summary.ProposeSplits(4);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_FALSE(std::signbit(splits[0]));
}

// The per-feature streaming sketch the builder replaced, kept verbatim as
// its oracle (FromValues is the flush's key sort and FromSortedKeys): values
// buffered in arrival order, each full buffer's exact summary merged into
// the running one and pruned, the partial buffer folded at Finalize.
class StreamingSketch {
 public:
  explicit StreamingSketch(size_t max_entries = 256,
                           size_t buffer_size = 4096)
      : max_entries_(std::max<size_t>(max_entries, 4)),
        buffer_size_(std::max<size_t>(buffer_size, 16)) {}

  void Add(float value) {
    buffer_.push_back(value);
    if (buffer_.size() >= buffer_size_) Flush();
  }

  const QuantileSummary& Finalize() {
    Flush();
    return summary_;
  }

 private:
  void Flush() {
    if (buffer_.empty()) return;
    const QuantileSummary batch = QuantileSummary::FromValues(buffer_);
    buffer_.clear();
    if (summary_.empty()) {
      batch.PruneInto(max_entries_, &summary_);
    } else {
      QuantileSummary::MergeInto(summary_, batch, &merged_);
      merged_.PruneInto(max_entries_, &summary_);
    }
  }

  size_t max_entries_;
  size_t buffer_size_;
  std::vector<float> buffer_;
  QuantileSummary summary_, merged_;
};

// The sketch exchange's summary bytes as the streaming sketch's sender wrote
// them: the entry count, then four WriteF64 calls per entry.
std::vector<uint8_t> EntryByEntryBytes(const QuantileSummary& summary) {
  ByteWriter writer;
  writer.WriteU64(summary.num_entries());
  for (const SummaryEntry& e : summary.entries()) {
    writer.WriteF64(e.value);
    writer.WriteF64(e.rmin);
    writer.WriteF64(e.rmax);
    writer.WriteF64(e.w);
  }
  return writer.TakeData();
}

TEST(ShardSummaryBuilderTest, MatchesStreamingSketchBitForBit) {
  // One feature per run length, at and around the radix cut (256) and the
  // batch size (4096); rows visit the features in a shuffled order, so
  // every run is spread over the stream. The shapes bring duplicates, both
  // zeros, denormals, +-FLT_MAX and random bit patterns.
  const std::vector<size_t> kRuns = {0,    1,    255,  256,
                                     4095, 4096, 4097, 3 * 4096 + 5};
  const uint32_t d = static_cast<uint32_t>(kRuns.size());
  Rng rng(31);
  for (size_t max_entries : {2, 8, 256}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<uint32_t> features;
      for (uint32_t f = 0; f < d; ++f) features.insert(features.end(), kRuns[f], f);
      rng.Shuffle(&features);
      std::vector<float> values(features.size());
      std::vector<StreamingSketch> sketches(d, StreamingSketch(max_entries));
      for (size_t k = 0; k < features.size(); ++k) {
        values[k] = SampleValue(shape, rng);
        sketches[features[k]].Add(values[k]);
      }
      ShardSummaryBuilder builder(features, values, d, max_entries);
      for (uint32_t f = 0; f < d; ++f) {
        const std::string where = "max=" + std::to_string(max_entries) +
                                  " shape=" + std::to_string(shape) +
                                  " run=" + std::to_string(kRuns[f]);
        ASSERT_EQ(builder.count(f), kRuns[f]) << where;
        const QuantileSummary& got = builder.Summarize(f);
        const QuantileSummary& want = sketches[f].Finalize();
        ExpectSameBits(got, want, where);
        ByteWriter writer;
        got.SerializeTo(&writer);
        EXPECT_EQ(writer.data(), EntryByEntryBytes(want)) << where;
        // What the builder sends, a receiver accepts.
        ByteReader reader(writer.data());
        QuantileSummary decoded;
        ASSERT_TRUE(QuantileSummary::Deserialize(&reader, &decoded).ok())
            << where;
        ExpectSameBits(decoded, want, where + " decoded");
      }
    }
  }
}

// The q full Query scans ProposeSplits' forward walk replaced.
std::vector<float> QueryLoopSplits(const QuantileSummary& s, uint32_t q) {
  std::vector<float> splits;
  if (s.empty() || q == 0) return splits;
  for (uint32_t k = 1; k <= q; ++k) {
    const double rank = s.total_weight() * static_cast<double>(k) / q;
    const float v = static_cast<float>(s.Query(rank));
    if (splits.empty() || v > splits.back()) splits.push_back(v);
  }
  const float max_v = static_cast<float>(s.max_value());
  if (splits.empty() || splits.back() < max_v) {
    if (!splits.empty() && splits.size() >= q) {
      splits.back() = max_v;
    } else {
      splits.push_back(max_v);
    }
  }
  return splits;
}

TEST(QuantileSummaryTest, ProposeSplitsMatchesQueryLoop) {
  // Exact summaries of random and heavily tied values, their prunes, and
  // merges of pruned shards (inexact ranks), against every q shape: fewer
  // splits than entries, more, and q = 1.
  Rng rng(404);
  std::vector<QuantileSummary> summaries;
  for (size_t n : {1, 2, 5, 100, 1000, 20000}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<float> values(n);
      for (float& v : values) v = SampleValue(shape, rng);
      const QuantileSummary exact = QuantileSummary::FromValues(values);
      summaries.push_back(exact);
      for (size_t b : {4, 16, 256}) summaries.push_back(exact.Prune(b));
      std::vector<float> other(n / 2 + 1);
      for (float& v : other) v = SampleValue(shape, rng);
      summaries.push_back(
          exact.Prune(64).Merge(BuildSummary(other, 32)).Prune(48));
    }
  }
  for (const QuantileSummary& s : summaries) {
    ASSERT_TRUE(s.CheckInvariants().ok());
    for (uint32_t q : {1, 2, 3, 4, 7, 20, 64, 255, 256, 1000}) {
      const std::vector<float> got = s.ProposeSplits(q);
      const std::vector<float> want = QueryLoopSplits(s, q);
      ASSERT_EQ(got.size(), want.size())
          << "entries " << s.num_entries() << " q " << q;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(std::bit_cast<uint32_t>(got[k]),
                  std::bit_cast<uint32_t>(want[k]))
            << "entries " << s.num_entries() << " q " << q << " split " << k;
      }
    }
  }
}

// Bytes of a summary whose entries are given field by field.
std::vector<uint8_t> SummaryBytes(const std::vector<SummaryEntry>& entries) {
  ByteWriter writer;
  writer.WriteU64(entries.size());
  for (const SummaryEntry& e : entries) {
    writer.WriteF64(e.value);
    writer.WriteF64(e.rmin);
    writer.WriteF64(e.rmax);
    writer.WriteF64(e.w);
  }
  return writer.TakeData();
}

TEST(QuantileSummaryTest, DeserializeNamesEachCorruption) {
  auto expect_corruption = [](const std::vector<uint8_t>& bytes,
                              const std::string& cause) {
    ByteReader reader(bytes);
    QuantileSummary out;
    const Status status = QuantileSummary::Deserialize(&reader, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << cause;
    EXPECT_NE(status.message().find(cause), std::string::npos)
        << status.ToString();
  };
  // {value, rmin, rmax, w}: 1 twice, then 2 and 3 once.
  const std::vector<SummaryEntry> good = {
      {1.0, 0, 2, 2}, {2.0, 2, 3, 1}, {3.0, 3, 4, 1}};
  {
    const std::vector<uint8_t> bytes = SummaryBytes(good);
    ByteReader reader(bytes);
    QuantileSummary out;
    ASSERT_TRUE(QuantileSummary::Deserialize(&reader, &out).ok());
    EXPECT_EQ(out.total_weight(), 4.0);
  }
  expect_corruption({1, 0, 0}, "short entry count");
  // A count of 2^60 is rejected before anything is allocated for it.
  std::vector<uint8_t> huge = SummaryBytes(good);
  huge[7] = 0x10;
  expect_corruption(huge, "entries exceed the 96 bytes left");
  std::vector<uint8_t> short_entries = SummaryBytes(good);
  short_entries.pop_back();
  expect_corruption(short_entries, "3 entries exceed the 95 bytes left");

  auto broken = [&good](size_t i, auto edit) {
    std::vector<SummaryEntry> entries = good;
    edit(entries[i]);
    return SummaryBytes(entries);
  };
  expect_corruption(broken(1, [](SummaryEntry& e) { e.value = NAN; }),
                    "entry 1: value is not finite");
  expect_corruption(broken(2, [](SummaryEntry& e) { e.value = INFINITY; }),
                    "entry 2: value is not finite");
  expect_corruption(broken(1, [](SummaryEntry& e) { e.value = 1.0; }),
                    "entry 1: values not strictly ascending");
  expect_corruption(broken(1, [](SummaryEntry& e) { e.rmin = -1; }),
                    "entry 1: rank bounds broken");
  expect_corruption(broken(1, [](SummaryEntry& e) { e.rmax = NAN; }),
                    "entry 1: rank bounds broken");
  expect_corruption(broken(2, [](SummaryEntry& e) { e.rmax = 1e300; }),
                    "entry 2: rank bounds broken");
  expect_corruption(broken(1, [](SummaryEntry& e) { e.rmin = 1; }),
                    "entry 1: rank bounds broken: ranks fall");
  expect_corruption(broken(0, [](SummaryEntry& e) { e.rmax = 2.5; }),
                    "entry 0: first entry's ranks are not exact");
  expect_corruption(broken(2, [](SummaryEntry& e) { e.rmax = 5; }),
                    "entry 2: last entry's ranks are not exact");
}

}  // namespace
}  // namespace vero
