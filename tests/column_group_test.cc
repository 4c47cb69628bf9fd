#include "partition/column_group.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace vero {
namespace {

ColumnGroupBlock MakeBlock(InstanceId offset,
                           const std::vector<std::vector<std::pair<uint32_t, BinId>>>& rows) {
  ColumnGroupBlock block;
  block.row_offset = offset;
  for (const auto& row : rows) {
    for (const auto& [f, b] : row) {
      block.features.push_back(f);
      block.bins.push_back(b);
    }
    block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
  }
  return block;
}

TEST(ColumnGroupTest, SingleBlockAccess) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}, {2, 3}}, {}, {{1, 4}}}));
  EXPECT_EQ(group.num_instances(), 3u);
  EXPECT_EQ(group.num_blocks(), 1u);
  EXPECT_EQ(group.num_entries(), 3u);
  auto f0 = group.RowFeatures(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[1], 2u);
  EXPECT_EQ(group.RowBins(0)[1], 3);
  EXPECT_EQ(group.RowFeatures(1).size(), 0u);
  EXPECT_EQ(group.RowFeatures(2)[0], 1u);
}

TEST(ColumnGroupTest, TwoPhaseIndexAcrossBlocks) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}, {{1, 2}}}));
  group.AppendBlock(MakeBlock(2, {{{2, 3}}}));
  group.AppendBlock(MakeBlock(3, {{{3, 4}}, {{4, 5}}}));
  EXPECT_EQ(group.num_instances(), 5u);
  EXPECT_EQ(group.num_blocks(), 3u);
  // Phase 1 must find the right block for each global instance id.
  EXPECT_EQ(group.RowFeatures(1)[0], 1u);
  EXPECT_EQ(group.RowFeatures(2)[0], 2u);
  EXPECT_EQ(group.RowFeatures(3)[0], 3u);
  EXPECT_EQ(group.RowFeatures(4)[0], 4u);
}

TEST(ColumnGroupTest, FindBin) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{1, 7}, {5, 9}}}));
  ASSERT_TRUE(group.FindBin(0, 5).has_value());
  EXPECT_EQ(*group.FindBin(0, 5), 9);
  EXPECT_FALSE(group.FindBin(0, 3).has_value());
}

TEST(ColumnGroupTest, MergeBlocksPreservesEveryRow) {
  Rng rng(3);
  ColumnGroup group;
  std::vector<std::vector<std::pair<uint32_t, BinId>>> all_rows;
  InstanceId offset = 0;
  for (int b = 0; b < 8; ++b) {
    std::vector<std::vector<std::pair<uint32_t, BinId>>> rows;
    const int nrows = 1 + static_cast<int>(rng.Uniform(5));
    for (int r = 0; r < nrows; ++r) {
      std::vector<std::pair<uint32_t, BinId>> row;
      uint32_t f = 0;
      const int len = static_cast<int>(rng.Uniform(4));
      for (int k = 0; k < len; ++k) {
        f += 1 + static_cast<uint32_t>(rng.Uniform(3));
        row.emplace_back(f, static_cast<BinId>(rng.Uniform(16)));
      }
      rows.push_back(row);
      all_rows.push_back(row);
    }
    group.AppendBlock(MakeBlock(offset, rows));
    offset += nrows;
  }
  ASSERT_EQ(group.num_blocks(), 8u);
  group.MergeBlocks(3);
  EXPECT_LE(group.num_blocks(), 3u);
  ASSERT_EQ(group.num_instances(), all_rows.size());
  for (InstanceId i = 0; i < all_rows.size(); ++i) {
    auto features = group.RowFeatures(i);
    auto bins = group.RowBins(i);
    ASSERT_EQ(features.size(), all_rows[i].size()) << "row " << i;
    for (size_t k = 0; k < features.size(); ++k) {
      EXPECT_EQ(features[k], all_rows[i][k].first);
      EXPECT_EQ(bins[k], all_rows[i][k].second);
    }
  }
}

TEST(ColumnGroupTest, MergeToSingleBlock) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  group.AppendBlock(MakeBlock(1, {{{1, 2}}}));
  group.MergeBlocks(1);
  EXPECT_EQ(group.num_blocks(), 1u);
  EXPECT_EQ(group.RowFeatures(1)[0], 1u);
}

TEST(ColumnGroupTest, MergeNoopWhenFewBlocks) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  group.MergeBlocks(5);
  EXPECT_EQ(group.num_blocks(), 1u);
}

TEST(ColumnGroupTest, MemoryBytesPositive) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  EXPECT_GT(group.MemoryBytes(), 0u);
}

// Index lists of the given lengths drawn from `pool` (sorted ascending):
// sampled subsets in ascending order, plus each one shuffled.
std::vector<std::vector<InstanceId>> PlacementLists(
    const std::vector<InstanceId>& pool, Rng* rng) {
  std::vector<std::vector<InstanceId>> lists;
  for (uint32_t len : {0u, 1u, 63u, 64u, 65u, 129u}) {
    std::vector<InstanceId> picked;
    for (uint32_t k : rng->SampleWithoutReplacement(
             static_cast<uint32_t>(pool.size()), len)) {
      picked.push_back(pool[k]);
    }
    lists.push_back(picked);
    rng->Shuffle(&picked);
    lists.push_back(std::move(picked));
  }
  return lists;
}

TEST(ColumnGroupTest, FillGoLeftMatchesFindBin) {
  constexpr uint32_t kFeatures = 7;
  Rng rng(41);
  // Uneven blocks, one of them empty; rows may be empty or miss features.
  ColumnGroup group;
  std::vector<std::vector<InstanceId>> block_rows;
  InstanceId offset = 0;
  for (uint32_t nrows : {37u, 0u, 90u, 5u, 120u, 64u}) {
    std::vector<std::vector<std::pair<uint32_t, BinId>>> rows(nrows);
    block_rows.emplace_back();
    for (uint32_t r = 0; r < nrows; ++r) {
      block_rows.back().push_back(offset + r);
      if (rng.Bernoulli(0.1)) continue;
      for (uint32_t f = 0; f < kFeatures; ++f) {
        if (rng.Bernoulli(0.6)) {
          rows[r].emplace_back(f, static_cast<BinId>(rng.Uniform(16)));
        }
      }
    }
    group.AppendBlock(MakeBlock(offset, rows));
    offset += nrows;
  }

  // Pools: every row, and only the rows of blocks 0 and 4 (so ascending
  // lists jump over whole blocks).
  std::vector<InstanceId> all_rows(group.num_instances());
  for (InstanceId i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  std::vector<InstanceId> skipping = block_rows[0];
  skipping.insert(skipping.end(), block_rows[4].begin(), block_rows[4].end());

  for (const auto* pool : {&all_rows, &skipping}) {
    for (const std::vector<InstanceId>& instances :
         PlacementLists(*pool, &rng)) {
      for (const bool default_left : {true, false}) {
        const uint32_t feature = static_cast<uint32_t>(rng.Uniform(kFeatures));
        const BinId split_bin = static_cast<BinId>(rng.Uniform(16));
        // Stale set bits must be overwritten, not OR-ed into.
        Bitmap go_left(instances.size());
        for (size_t j = 0; j < instances.size(); ++j) go_left.Set(j);
        group.FillGoLeft(instances, feature, split_bin, default_left,
                         &go_left);
        Bitmap expected(instances.size());
        for (size_t j = 0; j < instances.size(); ++j) {
          const auto bin = group.FindBin(instances[j], feature);
          expected.Assign(j, bin.has_value() ? *bin <= split_bin
                                             : default_left);
          EXPECT_EQ(go_left.Get(j), expected.Get(j))
              << "j=" << j << " n=" << instances.size();
        }
        EXPECT_TRUE(go_left == expected) << "n=" << instances.size();
      }
    }
  }
}

TEST(ColumnGroupDeathTest, NonContiguousBlocksDie) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  EXPECT_DEATH(group.AppendBlock(MakeBlock(5, {{{0, 1}}})), "contiguous");
}

}  // namespace
}  // namespace vero
