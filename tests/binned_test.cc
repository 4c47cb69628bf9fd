#include "core/binned.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeData(double density = 0.4) {
  SyntheticConfig config;
  config.num_instances = 300;
  config.num_features = 15;
  config.density = density;
  config.seed = 21;
  return GenerateSynthetic(config);
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

// From a sparse row store and from a dense one.
TEST(BinnedColumnStoreTest, FromRowsMatchesFromCsr) {
  for (const double density : {0.4, 1.0}) {
    const Dataset d = MakeData(density);
    const CandidateSplits splits = ProposeCandidateSplits(d, 8);
    const BinnedColumnStore want =
        BinnedColumnStore::FromCsr(d.matrix(), splits);
    const BinnedColumnStore got = BinnedColumnStore::FromRows(
        BinnedRowStore::FromCsr(d.matrix(), splits));
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
}

TEST(BinnedColumnStoreTest, FindBinMiss) {
  // Ten rows; feature 0 is present in rows 2 (bin 1) and 7 (bin 3) only.
  BinnedRowStore::Block block;
  for (InstanceId i = 0; i < 10; ++i) {
    if (i == 2 || i == 7) {
      block.features.push_back(0);
      block.bins.push_back(i == 2 ? 1 : 3);
    }
    block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
  }
  BinnedRowStore rows(1);
  rows.AppendBlock(std::move(block));
  const BinnedColumnStore store = BinnedColumnStore::FromRows(rows);
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
