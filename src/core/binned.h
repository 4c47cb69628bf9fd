#ifndef VERO_CORE_BINNED_H_
#define VERO_CORE_BINNED_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "data/sparse_matrix.h"
#include "data/types.h"
#include "sketch/candidate_splits.h"

namespace vero {

/// Row store of quantized feature values, the one layout of every
/// row-store trainer: QD2, feature-parallel and the reference Trainer over
/// global feature ids, and QD4's vertical column group (Figure 9 of the
/// paper) over the owner's local feature ids. Rows live in a handful of
/// blocks that tile the instance space, reached by a two-phase index:
/// binary-search the block by instance id, then index the row inside it
/// (§4.2.3). Row entries are sorted by feature id.
class BinnedRowStore {
 public:
  /// One block of rows (in QD4: the rows one source worker contributed), in
  /// one of two forms:
  ///  - sparse: three arrays — instance pointers, feature ids, and
  ///    histogram bin indexes;
  ///  - dense (dense_width = w > 0): every row holds all w features in
  ///    order, so only the bins are kept, row r at [r*w, (r+1)*w); row_ptr
  ///    and features stay empty.
  struct Block {
    /// Instance id of this block's first row.
    InstanceId row_offset = 0;
    /// Features per row of a dense block; 0 marks a sparse block.
    uint32_t dense_width = 0;
    /// Instance pointers (sparse only): entries of block-row r live at
    /// [row_ptr[r], row_ptr[r+1]).
    std::vector<uint32_t> row_ptr = {0};
    /// Feature ids (sparse only).
    std::vector<FeatureId> features;
    /// Quantized values.
    std::vector<BinId> bins;

    bool dense() const { return dense_width != 0; }
    uint32_t num_rows() const {
      return dense() ? static_cast<uint32_t>(bins.size() / dense_width)
                     : static_cast<uint32_t>(row_ptr.size() - 1);
    }
    uint64_t num_entries() const { return bins.size(); }

    /// A dense block of width `width` over `bins` (row-major, w per row).
    static Block Dense(InstanceId row_offset, uint32_t width,
                       std::vector<BinId> bins);
  };

  BinnedRowStore() = default;
  /// A store over feature ids [0, num_features): the width of its dense
  /// blocks.
  explicit BinnedRowStore(uint32_t num_features);

  /// Quantizes a CSR matrix against candidate splits, keeping its feature
  /// ids. A matrix holding every (row, feature) entry becomes one dense
  /// block (Dataset::Validate's strictly increasing ids make each such row
  /// 0..d-1); any other becomes sparse blocks, each cut before its entries
  /// pass kMaxBlockEntries.
  static BinnedRowStore FromCsr(const CsrMatrix& matrix,
                                const CandidateSplits& splits);

  /// Blocks must be appended in increasing row_offset order and tile the
  /// instance space contiguously. A dense block's width must equal
  /// num_features().
  void AppendBlock(Block block);

  /// Coalesces adjacent blocks until at most `max_blocks` remain (the
  /// paper's block-merge optimization; it reports < 5 blocks in practice).
  /// A merged run of dense blocks stays dense; a dense block merged with a
  /// sparse one is expanded to the sparse form, which must stay within
  /// kMaxBlockEntries.
  void MergeBlocks(size_t max_blocks);

  uint32_t num_features() const { return num_features_; }
  uint32_t num_rows() const { return num_rows_; }
  size_t num_blocks() const { return blocks_.size(); }
  const Block& block(size_t b) const { return blocks_[b]; }
  uint64_t num_entries() const;

  /// Two-phase lookup of one instance's row. A dense row's features are a
  /// span over the shared 0..w-1 array.
  std::span<const FeatureId> RowFeatures(InstanceId instance) const;
  std::span<const BinId> RowBins(InstanceId instance) const;

  /// Bin of (instance, feature) via two-phase index plus binary search
  /// within a sparse row (direct indexing in a dense one); nullopt if the
  /// instance misses the feature.
  std::optional<BinId> FindBin(InstanceId instance, FeatureId feature) const;

  /// Calls fn(instance, features, bins) for every instance of `rows`, in
  /// order, with that instance's RowFeatures / RowBins spans. A block
  /// cursor keeps the current block's row range and locates a block only
  /// when an instance falls outside it, so ascending instances (a
  /// RowPartition node's order) cost one Locate per block; any order is
  /// visited correctly.
  template <typename Fn>
  void ForEachRow(std::span<const InstanceId> rows, Fn&& fn) const;

  /// Batched split placement: bit j of `go_left` (sized instances.size())
  /// becomes bin(instances[j], feature) <= split_bin, or default_left when
  /// the instance misses the feature. Walks `instances` with ForEachRow's
  /// block cursor and writes the bits a word at a time (Bitmap::Fill); any
  /// order is answered correctly.
  void FillGoLeft(std::span<const InstanceId> instances, FeatureId feature,
                  BinId split_bin, bool default_left, Bitmap* go_left) const;

  uint64_t MemoryBytes() const;

 private:
  // Most entries a sparse block holds: its row pointers are 32-bit.
  static constexpr uint64_t kMaxBlockEntries = UINT32_MAX;

  // The block holding the instances [lo, lo + rows); an empty initial range
  // sends the first instance through Locate.
  struct Cursor {
    const Block* block = nullptr;
    InstanceId lo = 0;
    uint32_t rows = 0;
  };

  // Resolves (block index, row-within-block) for an instance id.
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

  std::vector<Block> blocks_;
  std::vector<InstanceId> block_offsets_;  // row_offset per block, ascending.
  // 0..num_features-1, every dense row's ids; built with the first dense
  // block, so an all-sparse store does not hold it.
  std::vector<FeatureId> iota_;
  uint32_t num_features_ = 0;
  uint32_t num_rows_ = 0;
};

template <typename Fn>
void BinnedRowStore::ForEachRow(std::span<const InstanceId> rows,
                                Fn&& fn) const {
  const size_t n = rows.size();
  size_t j = 0;
  Cursor cursor;
  while (j < n) {
    // One block per pass: the dense/sparse choice is made once per run of
    // rows that stay inside the cursor's block.
    Seek(&cursor, rows[j]);
    const Block& blk = *cursor.block;
    const InstanceId lo = cursor.lo;
    const uint32_t block_rows = cursor.rows;
    if (blk.dense()) {
      const uint32_t w = blk.dense_width;
      const std::span<const FeatureId> features(iota_.data(), w);
      const BinId* bins = blk.bins.data();
      for (; j < n && rows[j] - lo < block_rows; ++j) {
        const uint32_t r = rows[j] - lo;
        fn(rows[j], features,
           std::span<const BinId>(bins + static_cast<size_t>(r) * w, w));
      }
    } else {
      const uint32_t* row_ptr = blk.row_ptr.data();
      const FeatureId* features = blk.features.data();
      const BinId* bins = blk.bins.data();
      for (; j < n && rows[j] - lo < block_rows; ++j) {
        const uint32_t r = rows[j] - lo;
        const uint32_t begin = row_ptr[r];
        const size_t len = row_ptr[r + 1] - begin;
        fn(rows[j], std::span<const FeatureId>(features + begin, len),
           std::span<const BinId>(bins + begin, len));
      }
    }
  }
}

/// Column-store of quantized feature values: each feature is a run of
/// (instance id, bin id) pairs sorted by instance id. This is the
/// "column-store" layout of QD1 and QD3.
class BinnedColumnStore {
 public:
  BinnedColumnStore() : col_ptr_(1, 0) {}

  static BinnedColumnStore FromCsr(const CsrMatrix& matrix,
                                   const CandidateSplits& splits);

  /// Transposes a row store into columns with two ForEachRow walks over
  /// its rows: one counts each column's entries, one fills them.
  static BinnedColumnStore FromRows(const BinnedRowStore& rows);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_features() const {
    return static_cast<uint32_t>(col_ptr_.size() - 1);
  }
  uint64_t num_entries() const { return rows_.size(); }

  std::span<const InstanceId> ColumnRows(FeatureId f) const {
    return {rows_.data() + col_ptr_[f],
            static_cast<size_t>(col_ptr_[f + 1] - col_ptr_[f])};
  }
  std::span<const BinId> ColumnBins(FeatureId f) const {
    return {bins_.data() + col_ptr_[f],
            static_cast<size_t>(col_ptr_[f + 1] - col_ptr_[f])};
  }
  uint64_t ColumnLength(FeatureId f) const {
    return col_ptr_[f + 1] - col_ptr_[f];
  }

  /// Bin of (feature, instance) via binary search within the column — the
  /// log(N) lookup that §3.2.3 charges against column-store with a
  /// node-to-instance index.
  std::optional<BinId> FindBin(FeatureId f, InstanceId instance) const;

  /// Batched split placement over column `feature`, with the contract of
  /// BinnedRowStore::FillGoLeft. While `instances` ascend (a RowPartition
  /// node's order), each lookup searches the column forward from the
  /// previous hit instead of from its start; any order is answered
  /// correctly.
  void FillGoLeft(std::span<const InstanceId> instances, FeatureId feature,
                  BinId split_bin, bool default_left, Bitmap* go_left) const;

  uint64_t MemoryBytes() const {
    return col_ptr_.capacity() * sizeof(uint64_t) +
           rows_.capacity() * sizeof(InstanceId) +
           bins_.capacity() * sizeof(BinId);
  }

 private:
  /// Counting-sort transpose shared by FromCsr and FromRows.
  /// `walk_rows(fn)` calls fn(i, feature ids, entry values) for every
  /// row i in ascending order, so instance ids ascend within every column;
  /// `to_bin(f, value)` turns one entry value into its bin.
  template <typename WalkRows, typename ToBin>
  static BinnedColumnStore Transpose(uint32_t num_rows, uint32_t num_cols,
                                     const WalkRows& walk_rows,
                                     const ToBin& to_bin);

  uint32_t num_rows_ = 0;
  std::vector<uint64_t> col_ptr_;
  std::vector<InstanceId> rows_;
  std::vector<BinId> bins_;
};

}  // namespace vero

#endif  // VERO_CORE_BINNED_H_
