#include "core/binned.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace vero {

BinnedRowStore::Block BinnedRowStore::Block::Dense(InstanceId row_offset,
                                                   uint32_t width,
                                                   std::vector<BinId> bins) {
  VERO_CHECK_GT(width, 0u);
  Block block;
  block.row_offset = row_offset;
  block.dense_width = width;
  block.row_ptr.clear();
  block.row_ptr.shrink_to_fit();
  block.bins = std::move(bins);
  return block;
}

BinnedRowStore::BinnedRowStore(uint32_t num_features)
    : num_features_(num_features) {}

BinnedRowStore BinnedRowStore::FromCsr(const CsrMatrix& matrix,
                                       const CandidateSplits& splits) {
  const uint32_t d = matrix.num_cols();
  const uint32_t n = matrix.num_rows();
  const std::vector<uint64_t>& row_ptr = matrix.row_ptr();
  const FeatureId* features = matrix.features().data();
  const float* values = matrix.values().data();
  auto bins_of = [&](uint64_t begin, uint64_t end) {
    std::vector<BinId> bins(end - begin);
    for (uint64_t k = begin; k < end; ++k) {
      bins[k - begin] = splits.BinForValue(features[k], values[k]);
    }
    return bins;
  };
  BinnedRowStore store(d);
  if (n > 0 && d > 0 && matrix.num_nonzeros() == uint64_t{n} * d) {
    store.AppendBlock(Block::Dense(0, d, bins_of(0, matrix.num_nonzeros())));
    return store;
  }
  InstanceId begin = 0;
  do {
    // A row holds at most d <= kMaxBlockEntries entries, so every block
    // takes at least one row.
    InstanceId end = begin;
    while (end < n && row_ptr[end + 1] - row_ptr[begin] <= kMaxBlockEntries) {
      ++end;
    }
    Block block;
    block.row_offset = begin;
    block.row_ptr.resize(size_t{end - begin} + 1);
    for (InstanceId i = begin; i <= end; ++i) {
      block.row_ptr[i - begin] =
          static_cast<uint32_t>(row_ptr[i] - row_ptr[begin]);
    }
    block.features.assign(features + row_ptr[begin], features + row_ptr[end]);
    block.bins = bins_of(row_ptr[begin], row_ptr[end]);
    store.AppendBlock(std::move(block));
    begin = end;
  } while (begin < n);
  return store;
}

void BinnedRowStore::AppendBlock(Block block) {
  if (block.dense()) {
    VERO_CHECK_EQ(block.dense_width, num_features())
        << "a dense block spans every feature of its store";
    VERO_CHECK(block.row_ptr.empty() && block.features.empty());
    VERO_CHECK_EQ(block.bins.size() % block.dense_width, 0u);
    if (iota_.empty()) {
      iota_.resize(num_features_);
      std::iota(iota_.begin(), iota_.end(), FeatureId{0});
    }
  } else {
    VERO_CHECK_EQ(block.row_ptr.front(), 0u);
    VERO_CHECK_EQ(block.row_ptr.back(), block.features.size());
    VERO_CHECK_EQ(block.features.size(), block.bins.size());
  }
  VERO_CHECK_EQ(block.row_offset, num_rows_)
      << "blocks must tile the instance space contiguously";
  num_rows_ += block.num_rows();
  block_offsets_.push_back(block.row_offset);
  blocks_.push_back(std::move(block));
}

void BinnedRowStore::MergeBlocks(size_t max_blocks) {
  if (blocks_.size() <= max_blocks || blocks_.empty()) return;
  max_blocks = std::max<size_t>(max_blocks, 1);
  // Greedily coalesce runs of consecutive blocks into ceil(n/max) groups of
  // near-equal count.
  const size_t n = blocks_.size();
  const uint32_t w = num_features();
  std::vector<Block> merged;
  std::vector<InstanceId> offsets;
  merged.reserve(max_blocks);
  size_t begin = 0;
  for (size_t g = 0; g < max_blocks && begin < n; ++g) {
    const size_t remaining_groups = max_blocks - g;
    const size_t take = (n - begin + remaining_groups - 1) / remaining_groups;
    const auto run_begin = blocks_.begin() + begin;
    const auto run_end = run_begin + take;
    const bool all_dense = std::all_of(
        run_begin, run_end, [](const auto& b) { return b.dense(); });
    uint64_t total_entries = 0;
    uint64_t total_rows = 0;
    for (auto b = run_begin; b != run_end; ++b) {
      total_entries += b->num_entries();
      total_rows += b->num_rows();
    }
    Block out;
    if (all_dense) {
      out = Block::Dense(run_begin->row_offset, w, {});
    } else {
      VERO_CHECK_LE(total_entries, kMaxBlockEntries)
          << "a merged sparse block overflows its 32-bit row pointers";
      out.row_offset = run_begin->row_offset;
      out.row_ptr.reserve(total_rows + 1);
      out.features.reserve(total_entries);
    }
    out.bins.reserve(total_entries);
    for (auto b = run_begin; b != run_end; ++b) {
      const Block& src = *b;
      out.bins.insert(out.bins.end(), src.bins.begin(), src.bins.end());
      if (all_dense) continue;
      const uint32_t base = out.row_ptr.back();
      if (src.dense()) {
        // Expand: every row is the full 0..w-1 run.
        for (uint32_t r = 1; r <= src.num_rows(); ++r) {
          out.row_ptr.push_back(base + r * w);
          out.features.insert(out.features.end(), iota_.begin(), iota_.end());
        }
      } else {
        for (size_t r = 1; r < src.row_ptr.size(); ++r) {
          out.row_ptr.push_back(base + src.row_ptr[r]);
        }
        out.features.insert(out.features.end(), src.features.begin(),
                            src.features.end());
      }
    }
    offsets.push_back(out.row_offset);
    merged.push_back(std::move(out));
    begin += take;
  }
  blocks_ = std::move(merged);
  block_offsets_ = std::move(offsets);
}

uint64_t BinnedRowStore::num_entries() const {
  uint64_t total = 0;
  for (const auto& b : blocks_) total += b.num_entries();
  return total;
}

std::pair<size_t, uint32_t> BinnedRowStore::Locate(InstanceId instance) const {
  VERO_DCHECK_LT(instance, num_rows_);
  // Phase 1: binary-search the block.
  const auto it = std::upper_bound(block_offsets_.begin(),
                                   block_offsets_.end(), instance);
  const size_t b = static_cast<size_t>(it - block_offsets_.begin()) - 1;
  // Phase 2: offset subtraction gives the row inside the block.
  return {b, instance - blocks_[b].row_offset};
}

std::span<const FeatureId> BinnedRowStore::RowFeatures(
    InstanceId instance) const {
  const auto [b, r] = Locate(instance);
  const Block& blk = blocks_[b];
  if (blk.dense()) return {iota_.data(), blk.dense_width};
  return {blk.features.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::span<const BinId> BinnedRowStore::RowBins(InstanceId instance) const {
  const auto [b, r] = Locate(instance);
  const Block& blk = blocks_[b];
  if (blk.dense()) {
    return {blk.bins.data() + static_cast<size_t>(r) * blk.dense_width,
            blk.dense_width};
  }
  return {blk.bins.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::optional<BinId> BinnedRowStore::FindBin(InstanceId instance,
                                             FeatureId feature) const {
  const auto [b, r] = Locate(instance);
  const Block& blk = blocks_[b];
  if (blk.dense()) {
    if (feature >= blk.dense_width) return std::nullopt;
    return blk.bins[static_cast<size_t>(r) * blk.dense_width + feature];
  }
  const FeatureId* begin = blk.features.data() + blk.row_ptr[r];
  const FeatureId* end = blk.features.data() + blk.row_ptr[r + 1];
  const FeatureId* it = std::lower_bound(begin, end, feature);
  if (it == end || *it != feature) return std::nullopt;
  return blk.bins[blk.row_ptr[r] + (it - begin)];
}

void BinnedRowStore::FillGoLeft(std::span<const InstanceId> instances,
                                FeatureId feature, BinId split_bin,
                                bool default_left, Bitmap* go_left) const {
  const bool in_dense_rows = feature < num_features();
  Cursor cursor;
  go_left->Fill([&](size_t j) {
    const uint32_t r = Seek(&cursor, instances[j]);
    const Block& blk = *cursor.block;
    if (blk.dense()) {
      return in_dense_rows
                 ? blk.bins[static_cast<size_t>(r) * blk.dense_width +
                            feature] <= split_bin
                 : default_left;
    }
    const FeatureId* features = blk.features.data();
    const FeatureId* begin = features + blk.row_ptr[r];
    const FeatureId* end = features + blk.row_ptr[r + 1];
    const FeatureId* it = std::lower_bound(begin, end, feature);
    return (it != end && *it == feature) ? blk.bins[it - features] <= split_bin
                                         : default_left;
  });
}

uint64_t BinnedRowStore::MemoryBytes() const {
  uint64_t total = block_offsets_.capacity() * sizeof(InstanceId) +
                   iota_.capacity() * sizeof(FeatureId);
  for (const auto& b : blocks_) {
    total += b.row_ptr.capacity() * sizeof(uint32_t) +
             b.features.capacity() * sizeof(FeatureId) +
             b.bins.capacity() * sizeof(BinId);
  }
  return total;
}

template <typename WalkRows, typename ToBin>
BinnedColumnStore BinnedColumnStore::Transpose(uint32_t num_rows,
                                               uint32_t num_cols,
                                               const WalkRows& walk_rows,
                                               const ToBin& to_bin) {
  BinnedColumnStore store;
  store.num_rows_ = num_rows;
  store.col_ptr_.assign(num_cols + 1, 0);
  walk_rows([&](InstanceId, auto features, auto) {
    for (const FeatureId f : features) ++store.col_ptr_[f + 1];
  });
  for (uint32_t c = 0; c < num_cols; ++c) {
    store.col_ptr_[c + 1] += store.col_ptr_[c];
  }
  store.rows_.resize(store.col_ptr_.back());
  store.bins_.resize(store.col_ptr_.back());
  std::vector<uint64_t> cursor(store.col_ptr_.begin(),
                               store.col_ptr_.end() - 1);
  walk_rows([&](InstanceId i, auto features, auto values) {
    for (size_t k = 0; k < features.size(); ++k) {
      const uint64_t pos = cursor[features[k]]++;
      store.rows_[pos] = i;
      store.bins_[pos] = to_bin(features[k], values[k]);
    }
  });
  return store;
}

BinnedColumnStore BinnedColumnStore::FromCsr(const CsrMatrix& matrix,
                                             const CandidateSplits& splits) {
  return Transpose(
      matrix.num_rows(), matrix.num_cols(),
      [&](const auto& fn) {
        for (InstanceId i = 0; i < matrix.num_rows(); ++i) {
          fn(i, matrix.RowFeatures(i), matrix.RowValues(i));
        }
      },
      [&](FeatureId f, float value) { return splits.BinForValue(f, value); });
}

BinnedColumnStore BinnedColumnStore::FromRows(const BinnedRowStore& rows) {
  std::vector<InstanceId> all(rows.num_rows());
  std::iota(all.begin(), all.end(), InstanceId{0});
  return Transpose(
      rows.num_rows(), rows.num_features(),
      [&](const auto& fn) { rows.ForEachRow(all, fn); },
      [](FeatureId, BinId bin) { return bin; });
}

std::optional<BinId> BinnedColumnStore::FindBin(FeatureId f,
                                                InstanceId instance) const {
  auto rows = ColumnRows(f);
  const auto it = std::lower_bound(rows.begin(), rows.end(), instance);
  if (it == rows.end() || *it != instance) return std::nullopt;
  return bins_[col_ptr_[f] + (it - rows.begin())];
}

void BinnedColumnStore::FillGoLeft(std::span<const InstanceId> instances,
                                   FeatureId feature, BinId split_bin,
                                   bool default_left, Bitmap* go_left) const {
  const InstanceId* begin = rows_.data() + col_ptr_[feature];
  const InstanceId* end = rows_.data() + col_ptr_[feature + 1];
  const BinId* bins = bins_.data() + col_ptr_[feature];
  // Every column entry before `from` is below `prev`, so while instance ids
  // ascend each search starts at the previous hit; a descent restarts at
  // the column start.
  const InstanceId* from = begin;
  InstanceId prev = 0;
  go_left->Fill([&](size_t j) {
    const InstanceId inst = instances[j];
    if (inst < prev) from = begin;
    prev = inst;
    from = std::lower_bound(from, end, inst);
    return (from != end && *from == inst) ? bins[from - begin] <= split_bin
                                          : default_left;
  });
}

}  // namespace vero
