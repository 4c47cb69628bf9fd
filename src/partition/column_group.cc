#include "partition/column_group.h"

#include <algorithm>

#include "common/logging.h"

namespace vero {

void ColumnGroup::AppendBlock(ColumnGroupBlock block) {
  VERO_CHECK_EQ(block.row_ptr.front(), 0u);
  VERO_CHECK_EQ(block.row_ptr.back(), block.features.size());
  VERO_CHECK_EQ(block.features.size(), block.bins.size());
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
  std::vector<ColumnGroupBlock> merged;
  std::vector<InstanceId> offsets;
  merged.reserve(max_blocks);
  size_t begin = 0;
  for (size_t g = 0; g < max_blocks && begin < n; ++g) {
    const size_t remaining_groups = max_blocks - g;
    const size_t take = (n - begin + remaining_groups - 1) / remaining_groups;
    ColumnGroupBlock out;
    out.row_offset = blocks_[begin].row_offset;
    uint64_t total_entries = 0;
    uint64_t total_rows = 0;
    for (size_t b = begin; b < begin + take; ++b) {
      total_entries += blocks_[b].num_entries();
      total_rows += blocks_[b].num_rows();
    }
    out.row_ptr.reserve(total_rows + 1);
    out.features.reserve(total_entries);
    out.bins.reserve(total_entries);
    for (size_t b = begin; b < begin + take; ++b) {
      const ColumnGroupBlock& src = blocks_[b];
      const uint32_t base = out.row_ptr.back();
      for (size_t r = 1; r < src.row_ptr.size(); ++r) {
        out.row_ptr.push_back(base + src.row_ptr[r]);
      }
      out.features.insert(out.features.end(), src.features.begin(),
                          src.features.end());
      out.bins.insert(out.bins.end(), src.bins.begin(), src.bins.end());
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
  return {blk.features.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::span<const BinId> ColumnGroup::RowBins(InstanceId instance) const {
  const auto [b, r] = Locate(instance);
  const ColumnGroupBlock& blk = blocks_[b];
  return {blk.bins.data() + blk.row_ptr[r],
          static_cast<size_t>(blk.row_ptr[r + 1] - blk.row_ptr[r])};
}

std::optional<BinId> ColumnGroup::FindBin(InstanceId instance,
                                          uint32_t local_feature) const {
  const auto [b, r] = Locate(instance);
  const ColumnGroupBlock& blk = blocks_[b];
  const uint32_t* begin = blk.features.data() + blk.row_ptr[r];
  const uint32_t* end = blk.features.data() + blk.row_ptr[r + 1];
  const uint32_t* it = std::lower_bound(begin, end, local_feature);
  if (it == end || *it != local_feature) return std::nullopt;
  return blk.bins[blk.row_ptr[r] + (it - begin)];
}

void ColumnGroup::FillGoLeft(std::span<const InstanceId> instances,
                             uint32_t local_feature, BinId split_bin,
                             bool default_left, Bitmap* go_left) const {
  // Cursor over the current block: its rows are instances [lo, lo + rows).
  // The empty initial range sends the first instance through Locate.
  const ColumnGroupBlock* blk = nullptr;
  InstanceId lo = 0;
  uint32_t rows = 0;
  go_left->Fill([&](size_t j) {
    const InstanceId inst = instances[j];
    // Unsigned wrap-around folds inst < lo into the out-of-range test.
    if (inst - lo >= rows) {
      blk = &blocks_[Locate(inst).first];
      lo = blk->row_offset;
      rows = blk->num_rows();
    }
    const uint32_t r = inst - lo;
    const uint32_t* features = blk->features.data();
    const uint32_t* begin = features + blk->row_ptr[r];
    const uint32_t* end = features + blk->row_ptr[r + 1];
    const uint32_t* it = std::lower_bound(begin, end, local_feature);
    return (it != end && *it == local_feature)
               ? blk->bins[it - features] <= split_bin
               : default_left;
  });
}

uint64_t ColumnGroup::MemoryBytes() const {
  uint64_t total = block_offsets_.capacity() * sizeof(InstanceId);
  for (const auto& b : blocks_) {
    total += b.row_ptr.capacity() * sizeof(uint32_t) +
             b.features.capacity() * sizeof(uint32_t) +
             b.bins.capacity() * sizeof(BinId);
  }
  return total;
}

}  // namespace vero
