#include "partition/column_group.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace vero {

ColumnGroupBlock ColumnGroupBlock::Dense(InstanceId row_offset,
                                         uint32_t width,
                                         std::vector<BinId> bins) {
  VERO_CHECK_GT(width, 0u);
  ColumnGroupBlock block;
  block.row_offset = row_offset;
  block.dense_width = width;
  block.row_ptr.clear();
  block.row_ptr.shrink_to_fit();
  block.bins = std::move(bins);
  return block;
}

ColumnGroup::ColumnGroup(uint32_t num_features) : iota_(num_features) {
  std::iota(iota_.begin(), iota_.end(), 0u);
}

void ColumnGroup::AppendBlock(ColumnGroupBlock block) {
  if (block.dense()) {
    VERO_CHECK_EQ(block.dense_width, num_features())
        << "a dense block spans every local feature of its group";
    VERO_CHECK(block.row_ptr.empty() && block.features.empty());
    VERO_CHECK_EQ(block.bins.size() % block.dense_width, 0u);
  } else {
    VERO_CHECK_EQ(block.row_ptr.front(), 0u);
    VERO_CHECK_EQ(block.row_ptr.back(), block.features.size());
    VERO_CHECK_EQ(block.features.size(), block.bins.size());
  }
  VERO_CHECK_EQ(block.row_offset, num_instances_)
      << "blocks must tile the instance space contiguously";
  num_instances_ += block.num_rows();
  block_offsets_.push_back(block.row_offset);
  blocks_.push_back(std::move(block));
}

void ColumnGroup::MergeBlocks(size_t max_blocks) {
  if (blocks_.size() <= max_blocks || blocks_.empty()) return;
  max_blocks = std::max<size_t>(max_blocks, 1);
  // Greedily coalesce runs of consecutive blocks into ceil(n/max) groups of
  // near-equal count.
  const size_t n = blocks_.size();
  const uint32_t w = num_features();
  std::vector<ColumnGroupBlock> merged;
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
    ColumnGroupBlock out;
    if (all_dense) {
      out = ColumnGroupBlock::Dense(run_begin->row_offset, w, {});
    } else {
      out.row_offset = run_begin->row_offset;
      out.row_ptr.reserve(total_rows + 1);
      out.features.reserve(total_entries);
    }
    out.bins.reserve(total_entries);
    for (auto b = run_begin; b != run_end; ++b) {
      const ColumnGroupBlock& src = *b;
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

uint64_t ColumnGroup::num_entries() const {
  uint64_t total = 0;
  for (const auto& b : blocks_) total += b.num_entries();
  return total;
}

std::pair<size_t, uint32_t> ColumnGroup::Locate(InstanceId instance) const {
  VERO_DCHECK_LT(instance, num_instances_);
  // Phase 1: binary-search the block.
  const auto it = std::upper_bound(block_offsets_.begin(),
                                   block_offsets_.end(), instance);
  const size_t b = static_cast<size_t>(it - block_offsets_.begin()) - 1;
  // Phase 2: offset subtraction gives the row inside the block.
  return {b, instance - blocks_[b].row_offset};
}

std::span<const uint32_t> ColumnGroup::RowFeatures(InstanceId instance) const {
  const auto [b, r] = Locate(instance);
  const ColumnGroupBlock& blk = blocks_[b];
  if (blk.dense()) return {iota_.data(), blk.dense_width};
  return {blk.features.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::span<const BinId> ColumnGroup::RowBins(InstanceId instance) const {
  const auto [b, r] = Locate(instance);
  const ColumnGroupBlock& blk = blocks_[b];
  if (blk.dense()) {
    return {blk.bins.data() + static_cast<size_t>(r) * blk.dense_width,
            blk.dense_width};
  }
  return {blk.bins.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::optional<BinId> ColumnGroup::FindBin(InstanceId instance,
                                          uint32_t local_feature) const {
  const auto [b, r] = Locate(instance);
  const ColumnGroupBlock& blk = blocks_[b];
  if (blk.dense()) {
    if (local_feature >= blk.dense_width) return std::nullopt;
    return blk.bins[static_cast<size_t>(r) * blk.dense_width + local_feature];
  }
  const uint32_t* begin = blk.features.data() + blk.row_ptr[r];
  const uint32_t* end = blk.features.data() + blk.row_ptr[r + 1];
  const uint32_t* it = std::lower_bound(begin, end, local_feature);
  if (it == end || *it != local_feature) return std::nullopt;
  return blk.bins[blk.row_ptr[r] + (it - begin)];
}

void ColumnGroup::FillGoLeft(std::span<const InstanceId> instances,
                             uint32_t local_feature, BinId split_bin,
                             bool default_left, Bitmap* go_left) const {
  const bool in_dense_rows = local_feature < num_features();
  Cursor cursor;
  go_left->Fill([&](size_t j) {
    const uint32_t r = Seek(&cursor, instances[j]);
    const ColumnGroupBlock& blk = *cursor.block;
    if (blk.dense()) {
      return in_dense_rows
                 ? blk.bins[static_cast<size_t>(r) * blk.dense_width +
                            local_feature] <= split_bin
                 : default_left;
    }
    const uint32_t* features = blk.features.data();
    const uint32_t* begin = features + blk.row_ptr[r];
    const uint32_t* end = features + blk.row_ptr[r + 1];
    const uint32_t* it = std::lower_bound(begin, end, local_feature);
    return (it != end && *it == local_feature)
               ? blk.bins[it - features] <= split_bin
               : default_left;
  });
}

uint64_t ColumnGroup::MemoryBytes() const {
  uint64_t total = block_offsets_.capacity() * sizeof(InstanceId) +
                   iota_.capacity() * sizeof(uint32_t);
  for (const auto& b : blocks_) {
    total += b.row_ptr.capacity() * sizeof(uint32_t) +
             b.features.capacity() * sizeof(uint32_t) +
             b.bins.capacity() * sizeof(BinId);
  }
  return total;
}

}  // namespace vero
