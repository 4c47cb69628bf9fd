#include "core/binned.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeData() {
  SyntheticConfig config;
  config.num_instances = 300;
  config.num_features = 15;
  config.density = 0.4;
  config.seed = 21;
  return GenerateSynthetic(config);
}

TEST(BinnedRowStoreTest, FromCsrPreservesStructure) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedRowStore store = BinnedRowStore::FromCsr(d.matrix(), splits);
  EXPECT_EQ(store.num_rows(), d.num_instances());
  EXPECT_EQ(store.num_features(), d.num_features());
  EXPECT_EQ(store.num_entries(), d.num_nonzeros());
  for (InstanceId i = 0; i < d.num_instances(); ++i) {
    auto orig = d.matrix().RowFeatures(i);
    auto binned = store.RowFeatures(i);
    ASSERT_EQ(orig.size(), binned.size());
    for (size_t k = 0; k < orig.size(); ++k) EXPECT_EQ(orig[k], binned[k]);
  }
}

TEST(BinnedRowStoreTest, BinsMatchDirectBinning) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedRowStore store = BinnedRowStore::FromCsr(d.matrix(), splits);
  const std::vector<BinId> expected = BinValues(d.matrix(), splits);
  size_t k = 0;
  for (InstanceId i = 0; i < d.num_instances(); ++i) {
    for (BinId b : store.RowBins(i)) {
      EXPECT_EQ(b, expected[k]);
      ++k;
    }
  }
}

TEST(BinnedRowStoreTest, FindBinLocatesPresentFeatures) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedRowStore store = BinnedRowStore::FromCsr(d.matrix(), splits);
  for (InstanceId i = 0; i < 50; ++i) {
    auto features = store.RowFeatures(i);
    auto bins = store.RowBins(i);
    for (size_t k = 0; k < features.size(); ++k) {
      const auto found = store.FindBin(i, features[k]);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(*found, bins[k]);
    }
    // A feature not in the row must return nullopt.
    for (FeatureId f = 0; f < d.num_features(); ++f) {
      const bool present =
          std::find(features.begin(), features.end(), f) != features.end();
      EXPECT_EQ(store.FindBin(i, f).has_value(), present);
    }
  }
}

TEST(BinnedColumnStoreTest, FromCsrTransposes) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(d.matrix(), splits);
  EXPECT_EQ(store.num_rows(), d.num_instances());
  EXPECT_EQ(store.num_features(), d.num_features());
  EXPECT_EQ(store.num_entries(), d.num_nonzeros());
  // Column lengths match the transpose.
  const CscMatrix csc = d.matrix().ToCsc();
  for (FeatureId f = 0; f < d.num_features(); ++f) {
    EXPECT_EQ(store.ColumnLength(f), csc.ColumnLength(f));
    auto rows = store.ColumnRows(f);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
}

TEST(BinnedColumnStoreTest, RowAndColumnStoresAgreeOnEveryBin) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedRowStore rows = BinnedRowStore::FromCsr(d.matrix(), splits);
  const BinnedColumnStore cols =
      BinnedColumnStore::FromCsr(d.matrix(), splits);
  for (InstanceId i = 0; i < d.num_instances(); ++i) {
    auto features = rows.RowFeatures(i);
    auto bins = rows.RowBins(i);
    for (size_t k = 0; k < features.size(); ++k) {
      const auto found = cols.FindBin(features[k], i);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(*found, bins[k]);
    }
  }
}

TEST(BinnedColumnStoreTest, FromRowsMatchesFromCsr) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedColumnStore want =
      BinnedColumnStore::FromCsr(d.matrix(), splits);
  const BinnedColumnStore got = BinnedColumnStore::FromRows(
      BinnedRowStore::FromCsr(d.matrix(), splits), d.num_instances(),
      d.num_features());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_features(), want.num_features());
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
  for (FeatureId f = 0; f < d.num_features(); ++f) {
    auto got_rows = got.ColumnRows(f);
    auto want_rows = want.ColumnRows(f);
    auto got_bins = got.ColumnBins(f);
    auto want_bins = want.ColumnBins(f);
    EXPECT_TRUE(std::equal(got_rows.begin(), got_rows.end(),
                           want_rows.begin(), want_rows.end()));
    EXPECT_TRUE(std::equal(got_bins.begin(), got_bins.end(),
                           want_bins.begin(), want_bins.end()));
  }
}

TEST(BinnedColumnStoreTest, FindBinMissAndIncremental) {
  BinnedColumnStore store;
  store.set_num_rows(10);
  store.StartColumn();
  store.PushEntry(2, 1);
  store.PushEntry(7, 3);
  EXPECT_FALSE(store.FindBin(0, 3).has_value());
  ASSERT_TRUE(store.FindBin(0, 7).has_value());
  EXPECT_EQ(*store.FindBin(0, 7), 3);
}

TEST(BinnedColumnStoreTest, FillGoLeftMatchesFindBin) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedColumnStore store = BinnedColumnStore::FromCsr(d.matrix(), splits);
  Rng rng(17);
  // Lists of each length: an ascending sample of every row, an ascending
  // sample of the upper half only (the forward search starts past a
  // stretch of the column), and each of those shuffled.
  std::vector<std::vector<InstanceId>> lists;
  const uint32_t n = d.num_instances();
  for (uint32_t len : {0u, 1u, 63u, 64u, 65u, 129u}) {
    for (const uint32_t start : {0u, n / 2}) {
      std::vector<InstanceId> picked =
          rng.SampleWithoutReplacement(n - start, len);
      for (InstanceId& i : picked) i += start;
      lists.push_back(picked);
      rng.Shuffle(&picked);
      lists.push_back(std::move(picked));
    }
  }
  for (const std::vector<InstanceId>& instances : lists) {
    for (const bool default_left : {true, false}) {
      const FeatureId f = static_cast<FeatureId>(rng.Uniform(15));
      const BinId split_bin = static_cast<BinId>(rng.Uniform(8));
      Bitmap go_left(instances.size());
      for (size_t j = 0; j < instances.size(); ++j) go_left.Set(j);
      store.FillGoLeft(instances, f, split_bin, default_left, &go_left);
      Bitmap expected(instances.size());
      for (size_t j = 0; j < instances.size(); ++j) {
        const auto bin = store.FindBin(f, instances[j]);
        expected.Assign(j, bin.has_value() ? *bin <= split_bin
                                           : default_left);
        EXPECT_EQ(go_left.Get(j), expected.Get(j))
            << "j=" << j << " n=" << instances.size();
      }
      EXPECT_TRUE(go_left == expected) << "n=" << instances.size();
    }
  }
}

TEST(BinnedStoresTest, MemoryBytesSmallerThanRawMatrix) {
  const Dataset d = MakeData();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  const BinnedRowStore store = BinnedRowStore::FromCsr(d.matrix(), splits);
  // BinId is 2 bytes vs 4-byte float values.
  EXPECT_LT(store.MemoryBytes(), d.matrix().MemoryBytes());
}

}  // namespace
}  // namespace vero
