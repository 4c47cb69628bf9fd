#include "sketch/candidate_splits.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <string>

#include "common/random.h"
#include "common/serialize.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeSimple() {
  // Feature 0: values 1..10 across rows; feature 1: constant 5; feature 2:
  // present only on even rows.
  CsrMatrix m;
  m.set_num_cols(3);
  std::vector<float> labels;
  for (int i = 0; i < 10; ++i) {
    m.StartRow();
    m.PushEntry(0, static_cast<float>(i + 1));
    m.PushEntry(1, 5.0f);
    if (i % 2 == 0) m.PushEntry(2, static_cast<float>(i));
    labels.push_back(static_cast<float>(i % 2));
  }
  return Dataset(std::move(m), std::move(labels), Task::kBinary, 2);
}

TEST(CandidateSplitsTest, ProposesPerFeature) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 5);
  EXPECT_EQ(splits.num_features(), 3u);
  EXPECT_EQ(splits.max_bins(), 5u);
  EXPECT_GE(splits.NumBins(0), 2u);
  EXPECT_LE(splits.NumBins(0), 5u);
  EXPECT_EQ(splits.NumBins(1), 1u);  // Constant feature: single split.
  EXPECT_GE(splits.NumBins(2), 2u);
}

TEST(CandidateSplitsTest, SplitsAreSortedAndCoverMax) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 4);
  for (FeatureId f = 0; f < 3; ++f) {
    const auto& s = splits.FeatureSplits(f);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
  EXPECT_EQ(splits.FeatureSplits(0).back(), 10.0f);
  EXPECT_EQ(splits.FeatureSplits(1).back(), 5.0f);
}

TEST(CandidateSplitsTest, BinForValueIsLowerBound) {
  CandidateSplits splits(4, {{1.0f, 2.0f, 4.0f, 8.0f}});
  EXPECT_EQ(splits.BinForValue(0, 0.5f), 0);
  EXPECT_EQ(splits.BinForValue(0, 1.0f), 0);
  EXPECT_EQ(splits.BinForValue(0, 1.5f), 1);
  EXPECT_EQ(splits.BinForValue(0, 4.0f), 2);
  EXPECT_EQ(splits.BinForValue(0, 8.0f), 3);
  // Values above the max clamp to the top bin.
  EXPECT_EQ(splits.BinForValue(0, 100.0f), 3);
}

TEST(CandidateSplitsTest, BinForValueMatchesLowerBound) {
  // BinForValue against std::lower_bound clamped to the last bin. Sizes
  // 1-40 cover every counted window and the first halving steps; 256 and
  // 4096 take the halving down from large tables. Tables hold ordinary
  // values, a zero of either sign, or denormals.
  Rng rng(17);
  EXPECT_EQ(CandidateSplits(4, {{}}).BinForValue(0, 1.0f), 0);
  const float kDenormals[] = {FLT_TRUE_MIN, -FLT_TRUE_MIN, 1e-40f, -1e-40f,
                              FLT_MIN / 2};
  std::vector<size_t> sizes = {256, 4096};
  for (size_t size = 1; size <= 40; ++size) sizes.push_back(size);
  for (size_t size : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      std::set<float> distinct;
      if (trial == 1) distinct.insert(0.0f);
      if (trial == 2) distinct.insert(-0.0f);
      if (trial == 3) {
        for (float d : kDenormals) {
          if (distinct.size() < size) distinct.insert(d);
        }
      }
      while (distinct.size() < size) {
        distinct.insert(static_cast<float>(rng.UniformDouble(-2.0, 2.0)));
      }
      const std::vector<float> table(distinct.begin(), distinct.end());
      const CandidateSplits splits(static_cast<uint32_t>(size), {table});
      std::vector<float> probes = {-FLT_MAX, FLT_MAX, -0.0f, 0.0f,
                                   table.front() - 1.0f,
                                   std::nextafter(table.front(), -FLT_MAX),
                                   std::nextafter(table.back(), FLT_MAX),
                                   table.back() + 1.0f};
      for (float d : kDenormals) probes.push_back(d);
      for (float s : table) {
        probes.push_back(s);
        probes.push_back(std::nextafter(s, -FLT_MAX));
        probes.push_back(std::nextafter(s, FLT_MAX));
      }
      for (int k = 0; k < 20; ++k) {
        probes.push_back(static_cast<float>(rng.UniformDouble(-3.0, 3.0)));
      }
      for (float v : probes) {
        const size_t lower = static_cast<size_t>(
            std::lower_bound(table.begin(), table.end(), v) - table.begin());
        ASSERT_EQ(splits.BinForValue(0, v), std::min(lower, size - 1))
            << "size " << size << " trial " << trial << " value " << v;
      }
    }
  }
}

TEST(CandidateSplitsTest, BinningPropertyHolds) {
  // Property: value <= splits[bin], and bin is the smallest such index.
  SyntheticConfig config;
  config.num_instances = 2000;
  config.num_features = 20;
  config.density = 0.5;
  const Dataset d = GenerateSynthetic(config);
  const CandidateSplits splits = ProposeCandidateSplits(d, 16);
  const std::vector<BinId> bins = BinValues(d.matrix(), splits);
  const auto& features = d.matrix().features();
  const auto& values = d.matrix().values();
  for (size_t k = 0; k < features.size(); ++k) {
    const auto& s = splits.FeatureSplits(features[k]);
    ASSERT_LT(bins[k], s.size());
    EXPECT_LE(values[k], s[bins[k]]);
    if (bins[k] > 0) {
      EXPECT_GT(values[k], s[bins[k] - 1]);
    }
  }
}

TEST(CandidateSplitsTest, TotalBins) {
  CandidateSplits splits(4, {{1.0f, 2.0f}, {}, {3.0f}});
  EXPECT_EQ(splits.TotalBins(), 3u);
}

TEST(CandidateSplitsTest, SerializeRoundTrip) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  ByteWriter w;
  splits.SerializeTo(&w);
  ByteReader r(w.data());
  CandidateSplits loaded;
  ASSERT_TRUE(CandidateSplits::Deserialize(&r, &loaded).ok());
  EXPECT_TRUE(loaded == splits);
}

// Serializes `table` unchecked and reads it back.
Status LoadTable(uint32_t max_bins, std::vector<std::vector<float>> table) {
  ByteWriter w;
  CandidateSplits(max_bins, std::move(table)).SerializeTo(&w);
  ByteReader r(w.data());
  CandidateSplits loaded;
  return CandidateSplits::Deserialize(&r, &loaded);
}

TEST(CandidateSplitsTest, DeserializeRejectsNonCanonicalTables) {
  EXPECT_TRUE(LoadTable(3, {{1.0f, 2.0f, 3.0f}, {}, {-0.0f}}).ok());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const struct {
    uint32_t max_bins;
    std::vector<std::vector<float>> table;
    const char* cause;
  } cases[] = {
      {4, {{1.0f, 2.0f}, {3.0f, 2.0f}}, "feature 1: splits not strictly"},
      {4, {{}, {}, {1.0f, 1.0f}}, "feature 2: splits not strictly"},
      {4, {{-0.0f, 0.0f}}, "feature 0: splits not strictly"},
      {4, {{1.0f, nan}}, "feature 0: split 1 is not finite"},
      {4, {{inf}}, "feature 0: split 0 is not finite"},
      {4, {{1.0f}, {-inf, 1.0f}}, "feature 1: split 0 is not finite"},
      {2, {{1.0f, 2.0f}, {1.0f, 2.0f, 3.0f}}, "feature 1: 3 splits exceed"},
  };
  for (const auto& c : cases) {
    const Status status = LoadTable(c.max_bins, c.table);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << c.cause;
    EXPECT_NE(status.message().find(c.cause), std::string::npos)
        << status.ToString();
  }
  // A feature count the buffer cannot hold fails before allocating.
  ByteWriter w;
  w.WriteU32(4);
  w.WriteU32(0xFFFFFFFFu);
  ByteReader r(w.data());
  CandidateSplits loaded;
  EXPECT_EQ(CandidateSplits::Deserialize(&r, &loaded).code(),
            StatusCode::kCorruption);
}

TEST(CandidateSplitsTest, UnseenFeatureHasNoBins) {
  CsrMatrix m;
  m.set_num_cols(5);
  m.StartRow();
  m.PushEntry(1, 1.0f);
  Dataset d(std::move(m), {0.0f}, Task::kBinary, 2);
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  EXPECT_EQ(splits.NumBins(0), 0u);
  EXPECT_EQ(splits.NumBins(4), 0u);
  EXPECT_GE(splits.NumBins(1), 1u);
}

TEST(CandidateSplitsTest, QuantileSplitsRoughlyBalanceMass) {
  // With uniform data and q bins, each bin should hold ~N/q values.
  Rng rng(3);
  CsrMatrix m;
  m.set_num_cols(1);
  const int n = 10000;
  std::vector<float> labels(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    m.StartRow();
    m.PushEntry(0, static_cast<float>(rng.NextDouble()));
  }
  Dataset d(std::move(m), std::move(labels), Task::kBinary, 2);
  const uint32_t q = 10;
  const CandidateSplits splits = ProposeCandidateSplits(d, q);
  const std::vector<BinId> bins = BinValues(d.matrix(), splits);
  std::vector<int> counts(splits.NumBins(0), 0);
  for (BinId b : bins) ++counts[b];
  for (int c : counts) {
    EXPECT_NEAR(c, n / static_cast<int>(q), n / q * 0.5);
  }
}

}  // namespace
}  // namespace vero
