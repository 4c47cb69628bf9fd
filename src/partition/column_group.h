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
/// split (in our simulation: one source worker) in one of two forms:
///  - sparse: three arrays — instance pointers, local feature ids, and
///    histogram bin indexes;
///  - dense (dense_width = w > 0): every row holds all w local features in
///    order, so only the bins are kept, row r at [r*w, (r+1)*w); row_ptr
///    and features stay empty.
struct ColumnGroupBlock {
  /// Global instance id of this block's first row.
  InstanceId row_offset = 0;
  /// Local features per row of a dense block; 0 marks a sparse block.
  uint32_t dense_width = 0;
  /// Instance pointers (sparse only): entries of block-row r live at
  /// [row_ptr[r], row_ptr[r+1]).
  std::vector<uint32_t> row_ptr = {0};
  /// Local feature ids (position within the owning worker's feature list;
  /// sparse only).
  std::vector<uint32_t> features;
  /// Quantized values.
  std::vector<BinId> bins;

  bool dense() const { return dense_width != 0; }
  uint32_t num_rows() const {
    return dense() ? static_cast<uint32_t>(bins.size() / dense_width)
                   : static_cast<uint32_t>(row_ptr.size() - 1);
  }
  uint64_t num_entries() const { return bins.size(); }

  /// A dense block of width `width` over `bins` (row-major, w per row).
  static ColumnGroupBlock Dense(InstanceId row_offset, uint32_t width,
                                std::vector<BinId> bins);
};

/// A worker's vertical data shard in Vero: all N instances restricted to the
/// worker's feature subset, stored row-wise as a handful of blocks with a
/// two-phase index (binary-search the block by instance id, then index the
/// row inside the block — §4.2.3).
class ColumnGroup {
 public:
  ColumnGroup() = default;
  /// A group over `num_features` local features: the width of its dense
  /// blocks.
  explicit ColumnGroup(uint32_t num_features);

  /// Blocks must be appended in increasing row_offset order and tile the
  /// instance space contiguously. A dense block's width must equal
  /// num_features().
  void AppendBlock(ColumnGroupBlock block);

  /// Coalesces adjacent blocks until at most `max_blocks` remain (the
  /// paper's block-merge optimization; it reports < 5 blocks in practice).
  /// A merged run of dense blocks stays dense; a dense block merged with a
  /// sparse one is expanded to the sparse form.
  void MergeBlocks(size_t max_blocks);

  uint32_t num_features() const {
    return static_cast<uint32_t>(iota_.size());
  }
  uint32_t num_instances() const { return num_instances_; }
  size_t num_blocks() const { return blocks_.size(); }
  const ColumnGroupBlock& block(size_t b) const { return blocks_[b]; }
  uint64_t num_entries() const;

  /// Two-phase lookup of one instance's row. A dense row's features are a
  /// span over the shared 0..w-1 array.
  std::span<const uint32_t> RowFeatures(InstanceId instance) const;
  std::span<const BinId> RowBins(InstanceId instance) const;

  /// Bin of (instance, local feature) via two-phase index plus binary search
  /// within a sparse row (direct indexing in a dense one); nullopt if the
  /// instance misses the feature.
  std::optional<BinId> FindBin(InstanceId instance, uint32_t local_feature) const;

  /// Calls fn(instance, features, bins) for every instance of `rows`, in
  /// order, with that instance's RowFeatures / RowBins spans. A block
  /// cursor keeps the current block's row range and locates a block only
  /// when an instance falls outside it, so ascending instances (a
  /// RowPartition node's order) cost one Locate per block; any order is
  /// visited correctly.
  template <typename Fn>
  void ForEachRow(std::span<const InstanceId> rows, Fn&& fn) const;

  /// Batched split placement (the QD4 owner's side of §4.2.2): bit j of
  /// `go_left` (sized instances.size()) becomes
  /// bin(instances[j], local_feature) <= split_bin, or default_left when the
  /// instance misses the feature. Walks `instances` with ForEachRow's block
  /// cursor; any order is answered correctly.
  void FillGoLeft(std::span<const InstanceId> instances,
                  uint32_t local_feature, BinId split_bin, bool default_left,
                  Bitmap* go_left) const;

  uint64_t MemoryBytes() const;

 private:
  // The block holding the instances [lo, lo + rows); an empty initial range
  // sends the first instance through Locate.
  struct Cursor {
    const ColumnGroupBlock* block = nullptr;
    InstanceId lo = 0;
    uint32_t rows = 0;
  };

  // Resolves (block index, row-within-block) for a global instance id.
  std::pair<size_t, uint32_t> Locate(InstanceId instance) const;

  // Row of `instance` inside cursor->block, first moving the cursor to
  // the instance's block if it lies outside the current one.
  uint32_t Seek(Cursor* cursor, InstanceId instance) const {
    // Unsigned wrap-around folds instance < lo into the out-of-range test.
    if (instance - cursor->lo >= cursor->rows) {
      cursor->block = &blocks_[Locate(instance).first];
      cursor->lo = cursor->block->row_offset;
      cursor->rows = cursor->block->num_rows();
    }
    return instance - cursor->lo;
  }

  std::vector<ColumnGroupBlock> blocks_;
  std::vector<InstanceId> block_offsets_;  // row_offset per block, ascending.
  std::vector<uint32_t> iota_;  // 0..num_features-1: every dense row's ids.
  uint32_t num_instances_ = 0;
};

template <typename Fn>
void ColumnGroup::ForEachRow(std::span<const InstanceId> rows,
                             Fn&& fn) const {
  const size_t n = rows.size();
  size_t j = 0;
  Cursor cursor;
  while (j < n) {
    // One block per pass: the dense/sparse choice is made once per run of
    // rows that stay inside the cursor's block.
    Seek(&cursor, rows[j]);
    const ColumnGroupBlock& blk = *cursor.block;
    const InstanceId lo = cursor.lo;
    const uint32_t block_rows = cursor.rows;
    if (blk.dense()) {
      const uint32_t w = blk.dense_width;
      const std::span<const uint32_t> features(iota_.data(), w);
      const BinId* bins = blk.bins.data();
      for (; j < n && rows[j] - lo < block_rows; ++j) {
        const uint32_t r = rows[j] - lo;
        fn(rows[j], features,
           std::span<const BinId>(bins + static_cast<size_t>(r) * w, w));
      }
    } else {
      const uint32_t* row_ptr = blk.row_ptr.data();
      const uint32_t* features = blk.features.data();
      const BinId* bins = blk.bins.data();
      for (; j < n && rows[j] - lo < block_rows; ++j) {
        const uint32_t r = rows[j] - lo;
        const uint32_t begin = row_ptr[r];
        const size_t len = row_ptr[r + 1] - begin;
        fn(rows[j], std::span<const uint32_t>(features + begin, len),
           std::span<const BinId>(bins + begin, len));
      }
    }
  }
}

}  // namespace vero

#endif  // VERO_PARTITION_COLUMN_GROUP_H_
