// Tests of the one row store, BinnedRowStore: its blocks, two-phase index
// and block cursor, the dense and sparse block forms of QD4's column groups,
// and FromCsr, which builds the store of QD2, feature-parallel and the
// reference trainer.
#include "core/binned.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gradients.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "data/synthetic.h"

namespace vero {
namespace {

BinnedRowStore::Block MakeBlock(
    InstanceId offset,
    const std::vector<std::vector<std::pair<uint32_t, BinId>>>& rows) {
  BinnedRowStore::Block block;
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

// FromCsr inputs over 300 rows x 15 features: a sparse matrix (40% of the
// entries) and a fully present one.
Dataset CsrData(double density) {
  SyntheticConfig config;
  config.num_instances = 300;
  config.num_features = 15;
  config.density = density;
  config.seed = 21;
  return GenerateSynthetic(config);
}

std::vector<InstanceId> AllRows(uint32_t n) {
  std::vector<InstanceId> rows(n);
  for (InstanceId i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

TEST(BinnedRowStoreTest, SingleBlockAccess) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}, {2, 3}}, {}, {{1, 4}}}));
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.num_blocks(), 1u);
  EXPECT_EQ(store.num_entries(), 3u);
  auto f0 = store.RowFeatures(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[1], 2u);
  EXPECT_EQ(store.RowBins(0)[1], 3);
  EXPECT_EQ(store.RowFeatures(1).size(), 0u);
  EXPECT_EQ(store.RowFeatures(2)[0], 1u);
}

TEST(BinnedRowStoreTest, TwoPhaseIndexAcrossBlocks) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}}, {{1, 2}}}));
  store.AppendBlock(MakeBlock(2, {{{2, 3}}}));
  store.AppendBlock(MakeBlock(3, {{{3, 4}}, {{4, 5}}}));
  EXPECT_EQ(store.num_rows(), 5u);
  EXPECT_EQ(store.num_blocks(), 3u);
  // Phase 1 must find the right block for each global instance id.
  EXPECT_EQ(store.RowFeatures(1)[0], 1u);
  EXPECT_EQ(store.RowFeatures(2)[0], 2u);
  EXPECT_EQ(store.RowFeatures(3)[0], 3u);
  EXPECT_EQ(store.RowFeatures(4)[0], 4u);
}

TEST(BinnedRowStoreTest, FindBin) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{1, 7}, {5, 9}}}));
  ASSERT_TRUE(store.FindBin(0, 5).has_value());
  EXPECT_EQ(*store.FindBin(0, 5), 9);
  EXPECT_FALSE(store.FindBin(0, 3).has_value());

  // FromCsr's stores: a present feature is found with its bin, an absent
  // one is not.
  for (const double density : {0.4, 1.0}) {
    const Dataset d = CsrData(density);
    const BinnedRowStore csr =
        BinnedRowStore::FromCsr(d.matrix(), ProposeCandidateSplits(d, 8));
    for (InstanceId i = 0; i < d.num_instances(); ++i) {
      const auto features = csr.RowFeatures(i);
      const auto bins = csr.RowBins(i);
      for (size_t k = 0; k < features.size(); ++k) {
        EXPECT_EQ(csr.FindBin(i, features[k]), std::optional<BinId>(bins[k]));
      }
      for (FeatureId f = 0; f <= d.num_features(); ++f) {
        const bool present =
            std::find(features.begin(), features.end(), f) != features.end();
        EXPECT_EQ(csr.FindBin(i, f).has_value(), present)
            << "density " << density << " row " << i << " feature " << f;
      }
    }
  }
}

TEST(BinnedRowStoreTest, FromCsrMatchesTheMatrix) {
  for (const double density : {0.4, 1.0}) {
    const Dataset d = CsrData(density);
    const CandidateSplits splits = ProposeCandidateSplits(d, 8);
    const BinnedRowStore store = BinnedRowStore::FromCsr(d.matrix(), splits);
    EXPECT_EQ(store.num_rows(), d.num_instances());
    EXPECT_EQ(store.num_features(), d.num_features());
    EXPECT_EQ(store.num_entries(), d.num_nonzeros());
    ASSERT_EQ(store.num_blocks(), 1u);
    EXPECT_EQ(store.block(0).dense(), density == 1.0);
    const uint64_t nnz = d.num_nonzeros();
    if (density < 1.0) {
      // Exact-size u32 row pointers, ids and bins, one block offset, and no
      // 0..d-1 array.
      EXPECT_EQ(store.MemoryBytes(),
                (d.num_instances() + 1) * sizeof(uint32_t) +
                    nnz * (sizeof(FeatureId) + sizeof(BinId)) +
                    sizeof(InstanceId));
    } else {
      EXPECT_EQ(store.MemoryBytes(),
                nnz * sizeof(BinId) + d.num_features() * sizeof(FeatureId) +
                    sizeof(InstanceId));
    }
    // Rows keep the matrix's feature ids; each value is binned as the
    // splits bin it directly.
    const std::vector<BinId> expected = BinValues(d.matrix(), splits);
    size_t k = 0;
    for (InstanceId i = 0; i < d.num_instances(); ++i) {
      const auto want = d.matrix().RowFeatures(i);
      const auto got = store.RowFeatures(i);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
          << "density " << density << " row " << i;
      for (const BinId b : store.RowBins(i)) {
        ASSERT_LT(k, expected.size());
        EXPECT_EQ(b, expected[k++]);
      }
    }
    EXPECT_EQ(k, expected.size());
  }
}

TEST(BinnedRowStoreTest, FromCsrOfEmptyShapes) {
  const CandidateSplits splits;
  // No rows, and rows over no features: one empty-rowed sparse block each.
  const BinnedRowStore none = BinnedRowStore::FromCsr(CsrMatrix(), splits);
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_EQ(none.num_blocks(), 1u);
  const BinnedRowStore no_features =
      BinnedRowStore::FromCsr(CsrMatrix(0, {0, 0, 0}, {}, {}), splits);
  EXPECT_EQ(no_features.num_rows(), 2u);
  ASSERT_EQ(no_features.num_blocks(), 1u);
  EXPECT_FALSE(no_features.block(0).dense());
  EXPECT_TRUE(no_features.RowFeatures(1).empty());
  EXPECT_FALSE(no_features.FindBin(1, 0).has_value());
}

bool SameBits(const Histogram& a, const Histogram& b) {
  return a.raw_size() == b.raw_size() &&
         std::memcmp(a.raw_data(), b.raw_data(),
                     a.raw_size() * sizeof(double)) == 0;
}

// A fully present CSR is stored as one dense block, and the same CSR less
// one entry as a sparse block. Apart from that entry both read alike, bit
// for bit: rows, FindBin, FillGoLeft, and the row-layer histograms, full
// width and over a feature-parallel window.
TEST(BinnedRowStoreTest, FromCsrDenseAndSparseFormsAgree) {
  const Dataset data = CsrData(1.0);
  const CsrMatrix& full = data.matrix();
  const CandidateSplits splits = ProposeCandidateSplits(data, 8);
  constexpr InstanceId kRow = 7;
  constexpr FeatureId kFeature = 4;
  std::vector<uint64_t> row_ptr = full.row_ptr();
  std::vector<FeatureId> features = full.features();
  std::vector<float> values = full.values();
  features.erase(features.begin() + row_ptr[kRow] + kFeature);
  values.erase(values.begin() + row_ptr[kRow] + kFeature);
  for (size_t i = kRow + 1; i < row_ptr.size(); ++i) --row_ptr[i];
  const CsrMatrix missing(full.num_cols(), std::move(row_ptr),
                          std::move(features), std::move(values));

  const BinnedRowStore dense = BinnedRowStore::FromCsr(full, splits);
  const BinnedRowStore sparse = BinnedRowStore::FromCsr(missing, splits);
  ASSERT_EQ(dense.num_blocks(), 1u);
  ASSERT_EQ(sparse.num_blocks(), 1u);
  EXPECT_TRUE(dense.block(0).dense());
  EXPECT_FALSE(sparse.block(0).dense());
  const uint32_t n = dense.num_rows();
  const uint32_t d = dense.num_features();
  ASSERT_EQ(sparse.num_rows(), n);
  ASSERT_EQ(sparse.num_features(), d);
  EXPECT_EQ(sparse.num_entries() + 1, dense.num_entries());

  for (InstanceId i = 0; i < n; ++i) {
    const auto dense_features = dense.RowFeatures(i);
    const auto dense_bins = dense.RowBins(i);
    std::vector<FeatureId> want_features(dense_features.begin(),
                                         dense_features.end());
    std::vector<BinId> want_bins(dense_bins.begin(), dense_bins.end());
    if (i == kRow) {
      want_features.erase(want_features.begin() + kFeature);
      want_bins.erase(want_bins.begin() + kFeature);
    }
    const auto got_features = sparse.RowFeatures(i);
    const auto got_bins = sparse.RowBins(i);
    EXPECT_TRUE(std::equal(want_features.begin(), want_features.end(),
                           got_features.begin(), got_features.end()))
        << "row " << i;
    EXPECT_TRUE(std::equal(want_bins.begin(), want_bins.end(),
                           got_bins.begin(), got_bins.end()))
        << "row " << i;
    for (FeatureId f = 0; f <= d; ++f) {
      const std::optional<BinId> want =
          i == kRow && f == kFeature ? std::nullopt : dense.FindBin(i, f);
      EXPECT_EQ(sparse.FindBin(i, f), want) << "row " << i << " feature " << f;
    }
  }

  // Only the dropped entry's bit may differ: it takes default_left.
  const std::vector<InstanceId> all = AllRows(n);
  for (FeatureId f = 0; f <= d; ++f) {
    for (const bool default_left : {true, false}) {
      Bitmap want(n), got(n);
      dense.FillGoLeft(all, f, 3, default_left, &want);
      sparse.FillGoLeft(all, f, 3, default_left, &got);
      if (f == kFeature) want.Assign(kRow, default_left);
      EXPECT_TRUE(got == want) << "feature " << f;
    }
  }

  // Histograms over every row but kRow.
  std::vector<InstanceId> others;
  for (const InstanceId i : all) {
    if (i != kRow) others.push_back(i);
  }
  Rng rng(67);
  GradientBuffer grads(n, 1);
  for (InstanceId i = 0; i < n; ++i) {
    grads.at(i, 0) = {rng.NextGaussian(), rng.NextDouble() + 0.1};
  }
  for (const auto& [fb, fe] : {std::pair(0u, d), std::pair(3u, 11u)}) {
    for (const uint32_t threads : {1u, 3u}) {
      auto build = [&](const BinnedRowStore& store) {
        Histogram hist(fe - fb, 8, 1);
        const HistogramBuilder::NodeRows task{&hist, others};
        HistogramBuilder builder(threads);
        builder.BuildRowStoreLayer(store, grads, {&task, 1}, fb, fe, d);
        return hist;
      };
      EXPECT_TRUE(SameBits(build(dense), build(sparse)))
          << "window [" << fb << "," << fe << ") threads " << threads;
    }
  }
}

TEST(BinnedRowStoreTest, MergeBlocksPreservesEveryRow) {
  Rng rng(3);
  BinnedRowStore store;
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
    store.AppendBlock(MakeBlock(offset, rows));
    offset += nrows;
  }
  ASSERT_EQ(store.num_blocks(), 8u);
  store.MergeBlocks(3);
  EXPECT_LE(store.num_blocks(), 3u);
  ASSERT_EQ(store.num_rows(), all_rows.size());
  for (InstanceId i = 0; i < all_rows.size(); ++i) {
    auto features = store.RowFeatures(i);
    auto bins = store.RowBins(i);
    ASSERT_EQ(features.size(), all_rows[i].size()) << "row " << i;
    for (size_t k = 0; k < features.size(); ++k) {
      EXPECT_EQ(features[k], all_rows[i][k].first);
      EXPECT_EQ(bins[k], all_rows[i][k].second);
    }
  }
}

TEST(BinnedRowStoreTest, MergeToSingleBlock) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  store.AppendBlock(MakeBlock(1, {{{1, 2}}}));
  store.MergeBlocks(1);
  EXPECT_EQ(store.num_blocks(), 1u);
  EXPECT_EQ(store.RowFeatures(1)[0], 1u);
}

TEST(BinnedRowStoreTest, MergeNoopWhenFewBlocks) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  store.MergeBlocks(5);
  EXPECT_EQ(store.num_blocks(), 1u);
}

TEST(BinnedRowStoreTest, MemoryBytesPositive) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  EXPECT_GT(store.MemoryBytes(), 0u);
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

// FillGoLeft over every list PlacementLists draws from `pool` matches a
// per-row FindBin, for a random feature below `num_features` and split bin
// below `num_bins`.
void ExpectFillGoLeftMatchesFindBin(const BinnedRowStore& store,
                                    const std::vector<InstanceId>& pool,
                                    uint32_t num_features, uint32_t num_bins,
                                    Rng* rng) {
  for (const std::vector<InstanceId>& instances : PlacementLists(pool, rng)) {
    for (const bool default_left : {true, false}) {
      const FeatureId feature =
          static_cast<FeatureId>(rng->Uniform(num_features));
      const BinId split_bin = static_cast<BinId>(rng->Uniform(num_bins));
      // Stale set bits must be overwritten, not OR-ed into.
      Bitmap go_left(instances.size());
      for (size_t j = 0; j < instances.size(); ++j) go_left.Set(j);
      store.FillGoLeft(instances, feature, split_bin, default_left, &go_left);
      Bitmap expected(instances.size());
      for (size_t j = 0; j < instances.size(); ++j) {
        const auto bin = store.FindBin(instances[j], feature);
        expected.Assign(j, bin.has_value() ? *bin <= split_bin
                                           : default_left);
        EXPECT_EQ(go_left.Get(j), expected.Get(j))
            << "j=" << j << " n=" << instances.size();
      }
      EXPECT_TRUE(go_left == expected) << "n=" << instances.size();
    }
  }
}

TEST(BinnedRowStoreTest, FillGoLeftMatchesFindBin) {
  constexpr uint32_t kFeatures = 7;
  Rng rng(41);
  // Uneven blocks, one of them empty; rows may be empty or miss features.
  BinnedRowStore store;
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
    store.AppendBlock(MakeBlock(offset, rows));
    offset += nrows;
  }

  // Pools: every row, and only the rows of blocks 0 and 4 (so ascending
  // lists jump over whole blocks).
  std::vector<InstanceId> skipping = block_rows[0];
  skipping.insert(skipping.end(), block_rows[4].begin(), block_rows[4].end());
  for (const auto& pool : {AllRows(store.num_rows()), skipping}) {
    ExpectFillGoLeftMatchesFindBin(store, pool, kFeatures, 16, &rng);
  }

  // FromCsr's sparse and dense stores over global feature ids.
  for (const double density : {0.4, 1.0}) {
    const Dataset d = CsrData(density);
    const BinnedRowStore csr =
        BinnedRowStore::FromCsr(d.matrix(), ProposeCandidateSplits(d, 8));
    ExpectFillGoLeftMatchesFindBin(csr, AllRows(d.num_instances()),
                                   d.num_features(), 8, &rng);
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
BinnedRowStore::Block MakeDenseBlock(InstanceId offset, uint32_t width,
                                const Rows& rows) {
  std::vector<BinId> bins;
  bins.reserve(rows.size() * width);
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), width);
    for (const auto& [f, b] : row) bins.push_back(b);
  }
  return BinnedRowStore::Block::Dense(offset, width, std::move(bins));
}

// The same rows as an all-sparse store and as a store keeping every full
// block dense.
std::pair<BinnedRowStore, BinnedRowStore> SparseAndDense(
    const std::vector<Rows>& blocks, const std::vector<bool>& full,
    uint32_t width) {
  BinnedRowStore sparse(width), dense(width);
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
void ExpectSameRows(const BinnedRowStore& want, const BinnedRowStore& got,
                    Rng* rng) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_entries(), want.num_entries());
  const uint32_t w = want.num_features();
  for (InstanceId i = 0; i < want.num_rows(); ++i) {
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
       CursorOrders(want.num_rows(), rng)) {
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

TEST(BinnedRowStoreTest, DenseBlocksReadLikeSparseBlocks) {
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

TEST(BinnedRowStoreTest, DenseRowFeaturesAreTheSharedIota) {
  BinnedRowStore store(3);
  store.AppendBlock(BinnedRowStore::Block::Dense(0, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(store.num_entries(), 6u);
  EXPECT_EQ(store.RowFeatures(0).data(), store.RowFeatures(1).data());
  EXPECT_EQ(store.RowFeatures(1)[2], 2u);
  EXPECT_EQ(store.RowBins(1)[0], 4);
  EXPECT_EQ(store.FindBin(1, 2), std::optional<BinId>(6));
  EXPECT_FALSE(store.FindBin(1, 3).has_value());
}

TEST(BinnedRowStoreTest, MergeKeepsDenseRunsDenseAndExpandsMixedOnes) {
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

TEST(BinnedRowStoreTest, DenseBlocksHoldOnlyTheirBins) {
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

TEST(BinnedRowStoreDeathTest, DenseBlockMustSpanTheStore) {
  BinnedRowStore store(3);
  EXPECT_DEATH(store.AppendBlock(BinnedRowStore::Block::Dense(0, 2, {1, 2})),
               "every feature");
}

TEST(BinnedRowStoreDeathTest, NonContiguousBlocksDie) {
  BinnedRowStore store;
  store.AppendBlock(MakeBlock(0, {{{0, 1}}}));
  EXPECT_DEATH(store.AppendBlock(MakeBlock(5, {{{0, 1}}})), "contiguous");
}

}  // namespace
}  // namespace vero
