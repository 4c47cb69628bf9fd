#include "sketch/quantile_summary.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>

#include "common/random.h"
#include "common/serialize.h"

namespace vero {
namespace {

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
  QuantileSketch sketch(max_entries, 1024);
  for (float v : values) sketch.Add(v);
  const QuantileSummary& summary =
      const_cast<QuantileSketch&>(sketch).Finalize();
  ASSERT_TRUE(summary.CheckInvariants().ok());
  EXPECT_DOUBLE_EQ(summary.total_weight(), n);

  std::vector<float> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Allow a few buffer-merge rounds' worth of slack on top of 1/(b-1).
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

TEST(QuantileSketchTest, MergedShardsMatchSingleStream) {
  // The distributed pipeline builds per-worker sketches and merges them;
  // the merged result must approximate the same quantiles.
  Rng rng(77);
  std::vector<float> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<float>(rng.NextGaussian()));
  }
  QuantileSketch shard_a(256), shard_b(256), shard_c(256);
  for (size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? shard_a : i % 3 == 1 ? shard_b : shard_c).Add(values[i]);
  }
  QuantileSummary merged = shard_a.Finalize()
                               .Merge(shard_b.Finalize())
                               .Merge(shard_c.Finalize())
                               .Prune(256);
  ASSERT_TRUE(merged.CheckInvariants().ok());
  EXPECT_DOUBLE_EQ(merged.total_weight(), 10000.0);

  QuantileSketch single(256);
  for (float v : values) single.Add(v);
  const QuantileSummary& single_summary = single.Finalize();
  for (double q = 0.1; q < 1.0; q += 0.2) {
    EXPECT_NEAR(merged.Query(q * 10000), single_summary.Query(q * 10000),
                0.25)
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

TEST(QuantileSketchTest, FlushesMatchComparisonSortReference) {
  // The sketch against the fold it implements: per full buffer, the exact
  // batch summary merged into the running summary and pruned.
  Rng rng(99);
  for (size_t buffer : {16, 255, 256, 300, 4096}) {
    for (size_t max_entries : {8, 64, 256}) {
      for (int shape = 0; shape < 5; ++shape) {
        QuantileSketch sketch(max_entries, buffer);
        QuantileSummary reference;
        std::vector<float> batch;
        const size_t n = 3 * buffer + 17;
        for (size_t i = 0; i < n; ++i) {
          const float v = SampleValue(shape, rng);
          sketch.Add(v);
          batch.push_back(v);
          if (batch.size() == buffer || i + 1 == n) {
            reference =
                reference.Merge(ReferenceSummary(batch)).Prune(max_entries);
            batch.clear();
          }
        }
        ExpectSameBits(sketch.Finalize(), reference,
                       "buffer=" + std::to_string(buffer) + " max=" +
                           std::to_string(max_entries) +
                           " shape=" + std::to_string(shape));
      }
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

  // Only negative zeros, through the sketch's radix path.
  QuantileSketch sketch(16, 512);
  for (int i = 0; i < 1000; ++i) sketch.Add(-0.0f);
  const QuantileSummary& summary = sketch.Finalize();
  ASSERT_EQ(summary.num_entries(), 1u);
  EXPECT_FALSE(std::signbit(summary.entries()[0].value));
  EXPECT_DOUBLE_EQ(summary.total_weight(), 1000.0);
  const std::vector<float> splits = summary.ProposeSplits(4);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_FALSE(std::signbit(splits[0]));
}

TEST(QuantileSummaryTest, PruneAndMergeOfRvaluesMatchCopies) {
  std::vector<float> values;
  for (int i = 0; i < 500; ++i) values.push_back(static_cast<float>(i % 97));
  const QuantileSummary a = QuantileSummary::FromValues(values);
  const QuantileSummary b = QuantileSummary::FromValues({3, 5, 1000});
  ExpectSameBits(QuantileSummary(a).Prune(200), a, "prune fits");
  ExpectSameBits(QuantileSummary(a).Prune(20), a.Prune(20), "prune");
  ExpectSameBits(QuantileSummary().Merge(QuantileSummary(b)), b,
                 "merge into empty");
  ExpectSameBits(a.Merge(QuantileSummary(b)), a.Merge(b), "merge");
}

}  // namespace
}  // namespace vero
