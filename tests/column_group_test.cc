#include "partition/column_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

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

// Rows of `width` local features per block, one vector per block; a block
// whose `full` flag is false misses some entries (so it can only be sparse).
using Rows = std::vector<std::vector<std::pair<uint32_t, BinId>>>;

std::vector<Rows> RandomBlockRows(const std::vector<uint32_t>& sizes,
                                  const std::vector<bool>& full,
                                  uint32_t width, Rng* rng) {
  std::vector<Rows> blocks;
  for (size_t b = 0; b < sizes.size(); ++b) {
    Rows rows(sizes[b]);
    for (uint32_t r = 0; r < sizes[b]; ++r) {
      for (uint32_t f = 0; f < width; ++f) {
        if (full[b] || rng->Bernoulli(0.7)) {
          rows[r].emplace_back(f, static_cast<BinId>(rng->Uniform(16)));
        }
      }
    }
    if (!full[b] && sizes[b] > 0) rows[0].clear();  // Surely not full.
    blocks.push_back(std::move(rows));
  }
  return blocks;
}

// The dense form of full rows: bins only, w per row.
ColumnGroupBlock MakeDenseBlock(InstanceId offset, uint32_t width,
                                const Rows& rows) {
  std::vector<BinId> bins;
  bins.reserve(rows.size() * width);
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), width);
    for (const auto& [f, b] : row) bins.push_back(b);
  }
  return ColumnGroupBlock::Dense(offset, width, std::move(bins));
}

// The same rows as an all-sparse group and as a group storing every full
// block dense.
std::pair<ColumnGroup, ColumnGroup> SparseAndDense(
    const std::vector<Rows>& blocks, const std::vector<bool>& full,
    uint32_t width) {
  ColumnGroup sparse(width), dense(width);
  InstanceId offset = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    sparse.AppendBlock(MakeBlock(offset, blocks[b]));
    dense.AppendBlock(full[b] ? MakeDenseBlock(offset, width, blocks[b])
                              : MakeBlock(offset, blocks[b]));
    offset += static_cast<InstanceId>(blocks[b].size());
  }
  return {std::move(sparse), std::move(dense)};
}

// Instance orders that stress the block cursor: ascending, descending, and
// shuffled (every step may leave the block), over all rows and over a
// subset that skips whole blocks.
std::vector<std::vector<InstanceId>> CursorOrders(uint32_t n, Rng* rng) {
  std::vector<InstanceId> ascending(n);
  for (InstanceId i = 0; i < n; ++i) ascending[i] = i;
  std::vector<InstanceId> sampled;
  for (InstanceId i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.3)) sampled.push_back(i);
  }
  std::vector<std::vector<InstanceId>> orders;
  for (const auto& base : {ascending, sampled}) {
    orders.push_back(base);
    orders.emplace_back(base.rbegin(), base.rend());
    std::vector<InstanceId> shuffled = base;
    rng->Shuffle(&shuffled);
    orders.push_back(std::move(shuffled));
  }
  return orders;
}

// Every read of `got` must match `want` on every instance and order.
void ExpectSameRows(const ColumnGroup& want, const ColumnGroup& got,
                    Rng* rng) {
  ASSERT_EQ(got.num_instances(), want.num_instances());
  ASSERT_EQ(got.num_entries(), want.num_entries());
  const uint32_t w = want.num_features();
  for (InstanceId i = 0; i < want.num_instances(); ++i) {
    const auto wf = want.RowFeatures(i), gf = got.RowFeatures(i);
    const auto wb = want.RowBins(i), gb = got.RowBins(i);
    ASSERT_TRUE(std::equal(wf.begin(), wf.end(), gf.begin(), gf.end()))
        << "row " << i;
    ASSERT_TRUE(std::equal(wb.begin(), wb.end(), gb.begin(), gb.end()))
        << "row " << i;
    for (uint32_t f = 0; f <= w; ++f) {
      EXPECT_EQ(got.FindBin(i, f), want.FindBin(i, f))
          << "row " << i << " feature " << f;
    }
  }
  for (const std::vector<InstanceId>& order :
       CursorOrders(want.num_instances(), rng)) {
    // ForEachRow visits `order` in order with RowFeatures/RowBins spans.
    size_t j = 0;
    got.ForEachRow(order, [&](InstanceId i, auto features, auto bins) {
      ASSERT_LT(j, order.size());
      EXPECT_EQ(i, order[j]);
      const auto wf = want.RowFeatures(i);
      const auto wb = want.RowBins(i);
      EXPECT_TRUE(std::equal(wf.begin(), wf.end(), features.begin(),
                             features.end()))
          << "row " << i;
      EXPECT_TRUE(
          std::equal(wb.begin(), wb.end(), bins.begin(), bins.end()))
          << "row " << i;
      ++j;
    });
    EXPECT_EQ(j, order.size());
    for (uint32_t f = 0; f <= w; ++f) {
      for (const bool default_left : {true, false}) {
        const BinId split_bin = static_cast<BinId>(rng->Uniform(16));
        Bitmap want_bits(order.size()), got_bits(order.size());
        want.FillGoLeft(order, f, split_bin, default_left, &want_bits);
        got.FillGoLeft(order, f, split_bin, default_left, &got_bits);
        EXPECT_TRUE(got_bits == want_bits)
            << "feature " << f << " n=" << order.size();
      }
    }
  }
}

TEST(ColumnGroupTest, DenseBlocksReadLikeSparseBlocks) {
  constexpr uint32_t kWidth = 5;
  Rng rng(53);
  const std::vector<uint32_t> sizes = {37, 0, 90, 5, 64};
  for (const std::vector<bool>& full :
       {std::vector<bool>(sizes.size(), true),
        std::vector<bool>{true, true, false, true, false}}) {
    const std::vector<Rows> blocks =
        RandomBlockRows(sizes, full, kWidth, &rng);
    const auto [sparse, dense] = SparseAndDense(blocks, full, kWidth);
    for (size_t b = 0; b < sizes.size(); ++b) {
      EXPECT_EQ(dense.block(b).dense(), full[b]) << "block " << b;
      EXPECT_FALSE(sparse.block(b).dense()) << "block " << b;
    }
    ExpectSameRows(sparse, dense, &rng);
  }
}

TEST(ColumnGroupTest, DenseRowFeaturesAreTheSharedIota) {
  ColumnGroup group(3);
  group.AppendBlock(ColumnGroupBlock::Dense(0, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(group.num_instances(), 2u);
  EXPECT_EQ(group.num_entries(), 6u);
  EXPECT_EQ(group.RowFeatures(0).data(), group.RowFeatures(1).data());
  EXPECT_EQ(group.RowFeatures(1)[2], 2u);
  EXPECT_EQ(group.RowBins(1)[0], 4);
  EXPECT_EQ(group.FindBin(1, 2), std::optional<BinId>(6));
  EXPECT_FALSE(group.FindBin(1, 3).has_value());
}

TEST(ColumnGroupTest, MergeKeepsDenseRunsDenseAndExpandsMixedOnes) {
  constexpr uint32_t kWidth = 4;
  Rng rng(59);
  const std::vector<uint32_t> sizes = {20, 33, 0, 17, 41, 9};
  // Merged into 3 runs of 2: dense+dense, dense+dense (one empty), and
  // dense+sparse.
  const std::vector<bool> full = {true, true, true, true, true, false};
  const std::vector<Rows> blocks = RandomBlockRows(sizes, full, kWidth, &rng);
  auto [sparse, dense] = SparseAndDense(blocks, full, kWidth);
  sparse.MergeBlocks(3);
  dense.MergeBlocks(3);
  ASSERT_EQ(dense.num_blocks(), 3u);
  EXPECT_TRUE(dense.block(0).dense());
  EXPECT_TRUE(dense.block(1).dense());
  EXPECT_FALSE(dense.block(2).dense());
  ExpectSameRows(sparse, dense, &rng);
  // Merging everything with the sparse block expands every dense row.
  dense.MergeBlocks(1);
  ASSERT_EQ(dense.num_blocks(), 1u);
  EXPECT_FALSE(dense.block(0).dense());
  ExpectSameRows(sparse, dense, &rng);
}

TEST(ColumnGroupTest, DenseBlocksHoldOnlyTheirBins) {
  constexpr uint32_t kWidth = 7;
  Rng rng(61);
  const std::vector<uint32_t> sizes = {300, 200};
  const std::vector<bool> full = {true, true};
  const std::vector<Rows> blocks = RandomBlockRows(sizes, full, kWidth, &rng);
  auto [sparse, dense] = SparseAndDense(blocks, full, kWidth);
  const uint64_t entries = 500 * kWidth;
  // Bins, the shared iota, and the block offsets: no row_ptr, no ids.
  EXPECT_EQ(dense.MemoryBytes(), entries * sizeof(BinId) +
                                     kWidth * sizeof(uint32_t) +
                                     2 * sizeof(InstanceId));
  EXPECT_GE(sparse.MemoryBytes(),
            entries * (sizeof(BinId) + sizeof(uint32_t)) +
                500 * sizeof(uint32_t));
  // A merged dense run stays bins-only.
  dense.MergeBlocks(1);
  EXPECT_EQ(dense.MemoryBytes(), entries * sizeof(BinId) +
                                     kWidth * sizeof(uint32_t) +
                                     sizeof(InstanceId));
}

TEST(ColumnGroupDeathTest, DenseBlockMustSpanTheGroup) {
  ColumnGroup group(3);
  EXPECT_DEATH(group.AppendBlock(ColumnGroupBlock::Dense(0, 2, {1, 2})),
               "every local feature");
}

TEST(ColumnGroupDeathTest, NonContiguousBlocksDie) {
  ColumnGroup group;
  group.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  EXPECT_DEATH(group.AppendBlock(MakeBlock(5, {{{0, 1}}})), "contiguous");
}

}  // namespace
}  // namespace vero
