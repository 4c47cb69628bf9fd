#ifndef VERO_DATA_SPARSE_MATRIX_H_
#define VERO_DATA_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/types.h"

namespace vero {

class CscMatrix;

/// Compressed Sparse Row matrix: each row is an instance stored as a run of
/// (feature, value) pairs. This is the "row-store" of the paper.
class CsrMatrix {
 public:
  CsrMatrix() : row_ptr_(1, 0) {}

  /// Constructs from prebuilt arrays. row_ptr must have num_rows + 1 entries,
  /// be non-decreasing, and end at features.size() == values.size().
  CsrMatrix(uint32_t num_cols, std::vector<uint64_t> row_ptr,
            std::vector<FeatureId> features, std::vector<float> values);

  uint32_t num_rows() const {
    return static_cast<uint32_t>(row_ptr_.size() - 1);
  }
  uint32_t num_cols() const { return num_cols_; }
  uint64_t num_nonzeros() const { return features_.size(); }

  /// Begins a new row; subsequent PushEntry calls append to it.
  void StartRow() { row_ptr_.push_back(row_ptr_.back()); }

  /// Appends an entry to the row opened by the latest StartRow().
  void PushEntry(FeatureId feature, float value) {
    features_.push_back(feature);
    values_.push_back(value);
    ++row_ptr_.back();
  }

  /// Grows the logical column count (features are allowed to be sparse in id
  /// space; callers set the bound explicitly).
  void set_num_cols(uint32_t num_cols) { num_cols_ = num_cols; }

  /// Feature ids of row i.
  std::span<const FeatureId> RowFeatures(InstanceId i) const {
    return {features_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  /// Values of row i, parallel to RowFeatures(i).
  std::span<const float> RowValues(InstanceId i) const {
    return {values_.data() + row_ptr_[i],
            static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  uint64_t RowLength(InstanceId i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<FeatureId>& features() const { return features_; }
  const std::vector<float>& values() const { return values_; }

  /// Bytes of heap memory held by this matrix (data-memory accounting).
  uint64_t MemoryBytes() const {
    return row_ptr_.capacity() * sizeof(uint64_t) +
           features_.capacity() * sizeof(FeatureId) +
           values_.capacity() * sizeof(float);
  }

  /// Transposes into column-major form.
  CscMatrix ToCsc() const;

  /// Returns the sub-matrix of rows [begin, end) (feature space unchanged).
  CsrMatrix SliceRows(InstanceId begin, InstanceId end) const;

 private:
  uint32_t num_cols_ = 0;
  std::vector<uint64_t> row_ptr_;
  std::vector<FeatureId> features_;
  std::vector<float> values_;
};

/// Compressed Sparse Column matrix: each column is a feature stored as a run
/// of (instance, value) pairs. This is the "column-store" of the paper. No
/// trainer reads it: it is the transpose oracle of binned_test.
class CscMatrix {
 public:
  CscMatrix() : col_ptr_(1, 0) {}

  CscMatrix(uint32_t num_rows, std::vector<uint64_t> col_ptr,
            std::vector<InstanceId> rows, std::vector<float> values);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const {
    return static_cast<uint32_t>(col_ptr_.size() - 1);
  }
  uint64_t num_nonzeros() const { return rows_.size(); }

  void set_num_rows(uint32_t num_rows) { num_rows_ = num_rows; }
  void StartColumn() { col_ptr_.push_back(col_ptr_.back()); }
  void PushEntry(InstanceId row, float value) {
    rows_.push_back(row);
    values_.push_back(value);
    ++col_ptr_.back();
  }

  /// Instance ids in column f, sorted ascending.
  std::span<const InstanceId> ColumnRows(FeatureId f) const {
    return {rows_.data() + col_ptr_[f],
            static_cast<size_t>(col_ptr_[f + 1] - col_ptr_[f])};
  }
  std::span<const float> ColumnValues(FeatureId f) const {
    return {values_.data() + col_ptr_[f],
            static_cast<size_t>(col_ptr_[f + 1] - col_ptr_[f])};
  }
  uint64_t ColumnLength(FeatureId f) const {
    return col_ptr_[f + 1] - col_ptr_[f];
  }

  const std::vector<uint64_t>& col_ptr() const { return col_ptr_; }
  const std::vector<InstanceId>& rows() const { return rows_; }
  const std::vector<float>& values() const { return values_; }

  uint64_t MemoryBytes() const {
    return col_ptr_.capacity() * sizeof(uint64_t) +
           rows_.capacity() * sizeof(InstanceId) +
           values_.capacity() * sizeof(float);
  }

  CsrMatrix ToCsr() const;

 private:
  uint32_t num_rows_ = 0;
  std::vector<uint64_t> col_ptr_;
  std::vector<InstanceId> rows_;
  std::vector<float> values_;
};

}  // namespace vero

#endif  // VERO_DATA_SPARSE_MATRIX_H_
