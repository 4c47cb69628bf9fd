#ifndef VERO_PARTITION_COLUMN_GROUP_H_
#define VERO_PARTITION_COLUMN_GROUP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitmap.h"
#include "data/types.h"

namespace vero {

/// One block of a vertically partitioned, row-stored column group
/// (Figure 9 of the paper). A block holds the rows contributed by one file
/// split (in our simulation: one source worker), as three arrays —
/// instance pointers, local feature ids, and histogram bin indexes.
struct ColumnGroupBlock {
  /// Global instance id of this block's first row.
  InstanceId row_offset = 0;
  /// Instance pointers: entries of block-row r live at
  /// [row_ptr[r], row_ptr[r+1]).
  std::vector<uint32_t> row_ptr = {0};
  /// Local feature ids (position within the owning worker's feature list).
  std::vector<uint32_t> features;
  /// Quantized values.
  std::vector<BinId> bins;

  uint32_t num_rows() const {
    return static_cast<uint32_t>(row_ptr.size() - 1);
  }
  uint64_t num_entries() const { return features.size(); }
};

/// A worker's vertical data shard in Vero: all N instances restricted to the
/// worker's feature subset, stored row-wise as a handful of blocks with a
/// two-phase index (binary-search the block by instance id, then index the
/// row inside the block — §4.2.3).
class ColumnGroup {
 public:
  ColumnGroup() = default;

  /// Blocks must be appended in increasing row_offset order and tile the
  /// instance space contiguously.
  void AppendBlock(ColumnGroupBlock block);

  /// Coalesces adjacent blocks until at most `max_blocks` remain (the
  /// paper's block-merge optimization; it reports < 5 blocks in practice).
  void MergeBlocks(size_t max_blocks);

  uint32_t num_instances() const { return num_instances_; }
  size_t num_blocks() const { return blocks_.size(); }
  const ColumnGroupBlock& block(size_t b) const { return blocks_[b]; }
  uint64_t num_entries() const;

  /// Two-phase lookup of one instance's row.
  std::span<const uint32_t> RowFeatures(InstanceId instance) const;
  std::span<const BinId> RowBins(InstanceId instance) const;

  /// Bin of (instance, local feature) via two-phase index plus binary search
  /// within the row; nullopt if the instance misses the feature.
  std::optional<BinId> FindBin(InstanceId instance, uint32_t local_feature) const;

  /// Batched split placement (the QD4 owner's side of §4.2.2): bit j of
  /// `go_left` (sized instances.size()) becomes
  /// bin(instances[j], local_feature) <= split_bin, or default_left when the
  /// instance misses the feature. A block cursor keeps the current block's
  /// row range and locates a block only when an instance falls outside it,
  /// so ascending instances (a RowPartition node's order) cost one Locate
  /// per block; any order is answered correctly.
  void FillGoLeft(std::span<const InstanceId> instances,
                  uint32_t local_feature, BinId split_bin, bool default_left,
                  Bitmap* go_left) const;

  uint64_t MemoryBytes() const;

 private:
  // Resolves (block index, row-within-block) for a global instance id.
  std::pair<size_t, uint32_t> Locate(InstanceId instance) const;

  std::vector<ColumnGroupBlock> blocks_;
  std::vector<InstanceId> block_offsets_;  // row_offset per block, ascending.
  uint32_t num_instances_ = 0;
};

}  // namespace vero

#endif  // VERO_PARTITION_COLUMN_GROUP_H_
