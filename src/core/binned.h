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

/// Row-store of quantized feature values: each instance is a run of
/// (feature id, bin id) pairs sorted by feature id. This is the
/// "row-store" data layout of QD2 (and, with local feature ids, QD4).
class BinnedRowStore {
 public:
  BinnedRowStore() : row_ptr_(1, 0) {}

  /// Quantizes a CSR matrix against candidate splits. Row entry order is
  /// preserved (rows must be sorted by feature id).
  static BinnedRowStore FromCsr(const CsrMatrix& matrix,
                                const CandidateSplits& splits);

  uint32_t num_rows() const {
    return static_cast<uint32_t>(row_ptr_.size() - 1);
  }
  uint32_t num_features() const { return num_features_; }
  uint64_t num_entries() const { return features_.size(); }

  void set_num_features(uint32_t n) { num_features_ = n; }
  void StartRow() { row_ptr_.push_back(row_ptr_.back()); }
  void PushEntry(FeatureId feature, BinId bin) {
    features_.push_back(feature);
    bins_.push_back(bin);
    ++row_ptr_.back();
  }

  std::span<const FeatureId> RowFeatures(InstanceId i) const {
    return {features_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  std::span<const BinId> RowBins(InstanceId i) const {
    return {bins_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }

  /// Calls fn(i, RowFeatures(i), RowBins(i)) for every i of `rows`, in
  /// order (the row-walk interface shared with ColumnGroup).
  template <typename Fn>
  void ForEachRow(std::span<const InstanceId> rows, Fn&& fn) const {
    for (const InstanceId i : rows) fn(i, RowFeatures(i), RowBins(i));
  }

  /// Bin of (instance, feature) via binary search within the row, or nullopt
  /// if the instance misses the feature.
  std::optional<BinId> FindBin(InstanceId i, FeatureId feature) const;

  /// Batched split placement: bit j of `go_left` (sized instances.size())
  /// becomes bin(instances[j], feature) <= split_bin, or default_left when
  /// the instance misses the feature. One call per split replaces a
  /// FindBin — span construction, optional, bounds re-derivation — per row,
  /// and the bits are written a word at a time (Bitmap::Fill).
  void FillGoLeft(std::span<const InstanceId> instances, FeatureId feature,
                  BinId split_bin, bool default_left, Bitmap* go_left) const;

  uint64_t MemoryBytes() const {
    return row_ptr_.capacity() * sizeof(uint64_t) +
           features_.capacity() * sizeof(FeatureId) +
           bins_.capacity() * sizeof(BinId);
  }

 private:
  uint32_t num_features_ = 0;
  std::vector<uint64_t> row_ptr_;
  std::vector<FeatureId> features_;
  std::vector<BinId> bins_;
};

/// Column-store of quantized feature values: each feature is a run of
/// (instance id, bin id) pairs sorted by instance id. This is the
/// "column-store" layout of QD1 and QD3.
class BinnedColumnStore {
 public:
  BinnedColumnStore() : col_ptr_(1, 0) {}

  static BinnedColumnStore FromCsr(const CsrMatrix& matrix,
                                   const CandidateSplits& splits);

  /// Transposes an already-binned row store (anything with RowFeatures /
  /// RowBins and rows sorted by feature id, e.g. a ColumnGroup) of
  /// `num_rows` rows over feature ids [0, num_features) into columns.
  template <typename RowStore>
  static BinnedColumnStore FromRows(const RowStore& store, uint32_t num_rows,
                                    uint32_t num_features) {
    return Transpose(
        num_rows, num_features,
        [&](InstanceId i) {
          return std::pair(store.RowFeatures(i), store.RowBins(i));
        },
        [](FeatureId, BinId bin) { return bin; });
  }

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_features() const {
    return static_cast<uint32_t>(col_ptr_.size() - 1);
  }
  uint64_t num_entries() const { return rows_.size(); }

  void set_num_rows(uint32_t n) { num_rows_ = n; }
  void StartColumn() { col_ptr_.push_back(col_ptr_.back()); }
  void PushEntry(InstanceId row, BinId bin) {
    rows_.push_back(row);
    bins_.push_back(bin);
    ++col_ptr_.back();
  }

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
  /// Counting-sort transpose shared by FromCsr and FromRows. `row_of(i)`
  /// returns row i's (feature ids, entry values) spans, and
  /// `to_bin(f, value)` turns one entry value into its bin. Instance ids
  /// ascend within every column because rows are visited in order.
  template <typename RowOf, typename ToBin>
  static BinnedColumnStore Transpose(uint32_t num_rows, uint32_t num_cols,
                                     RowOf row_of, ToBin to_bin) {
    BinnedColumnStore store;
    store.num_rows_ = num_rows;
    store.col_ptr_.assign(num_cols + 1, 0);
    for (InstanceId i = 0; i < num_rows; ++i) {
      for (FeatureId f : row_of(i).first) ++store.col_ptr_[f + 1];
    }
    for (uint32_t c = 0; c < num_cols; ++c) {
      store.col_ptr_[c + 1] += store.col_ptr_[c];
    }
    store.rows_.resize(store.col_ptr_.back());
    store.bins_.resize(store.col_ptr_.back());
    std::vector<uint64_t> cursor(store.col_ptr_.begin(),
                                 store.col_ptr_.end() - 1);
    for (InstanceId i = 0; i < num_rows; ++i) {
      const auto [features, values] = row_of(i);
      for (size_t k = 0; k < features.size(); ++k) {
        const uint64_t pos = cursor[features[k]]++;
        store.rows_[pos] = i;
        store.bins_[pos] = to_bin(features[k], values[k]);
      }
    }
    return store;
  }

  uint32_t num_rows_ = 0;
  std::vector<uint64_t> col_ptr_;
  std::vector<InstanceId> rows_;
  std::vector<BinId> bins_;
};

}  // namespace vero

#endif  // VERO_CORE_BINNED_H_
