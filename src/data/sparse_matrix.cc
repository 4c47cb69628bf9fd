#include "data/sparse_matrix.h"

#include <utility>

#include "common/logging.h"

namespace vero {

CsrMatrix::CsrMatrix(uint32_t num_cols, std::vector<uint64_t> row_ptr,
                     std::vector<FeatureId> features, std::vector<float> values)
    : num_cols_(num_cols),
      row_ptr_(std::move(row_ptr)),
      features_(std::move(features)),
      values_(std::move(values)) {
  VERO_CHECK_GE(row_ptr_.size(), 1u);
  VERO_CHECK_EQ(row_ptr_.back(), features_.size());
  VERO_CHECK_EQ(features_.size(), values_.size());
}

CscMatrix CsrMatrix::ToCsc() const {
  const uint32_t rows = num_rows();
  const uint32_t cols = num_cols_;
  std::vector<uint64_t> col_counts(cols + 1, 0);
  for (FeatureId f : features_) {
    VERO_DCHECK_LT(f, cols);
    ++col_counts[f + 1];
  }
  for (uint32_t c = 0; c < cols; ++c) col_counts[c + 1] += col_counts[c];

  std::vector<InstanceId> out_rows(features_.size());
  std::vector<float> out_values(features_.size());
  std::vector<uint64_t> cursor = col_counts;
  for (InstanceId i = 0; i < rows; ++i) {
    for (uint64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const uint64_t pos = cursor[features_[k]]++;
      out_rows[pos] = i;
      out_values[pos] = values_[k];
    }
  }
  return CscMatrix(rows, std::move(col_counts), std::move(out_rows),
                   std::move(out_values));
}

CsrMatrix CsrMatrix::SliceRows(InstanceId begin, InstanceId end) const {
  VERO_CHECK_LE(begin, end);
  VERO_CHECK_LE(end, num_rows());
  const uint64_t first = row_ptr_[begin];
  const uint64_t last = row_ptr_[end];
  std::vector<uint64_t> row_ptr(end - begin + 1);
  for (InstanceId i = begin; i <= end; ++i) {
    row_ptr[i - begin] = row_ptr_[i] - first;
  }
  std::vector<FeatureId> features(features_.begin() + first,
                                  features_.begin() + last);
  std::vector<float> values(values_.begin() + first, values_.begin() + last);
  return CsrMatrix(num_cols_, std::move(row_ptr), std::move(features),
                   std::move(values));
}

CscMatrix::CscMatrix(uint32_t num_rows, std::vector<uint64_t> col_ptr,
                     std::vector<InstanceId> rows, std::vector<float> values)
    : num_rows_(num_rows),
      col_ptr_(std::move(col_ptr)),
      rows_(std::move(rows)),
      values_(std::move(values)) {
  VERO_CHECK_GE(col_ptr_.size(), 1u);
  VERO_CHECK_EQ(col_ptr_.back(), rows_.size());
  VERO_CHECK_EQ(rows_.size(), values_.size());
}

CsrMatrix CscMatrix::ToCsr() const {
  const uint32_t cols = num_cols();
  std::vector<uint64_t> row_counts(num_rows_ + 1, 0);
  for (InstanceId r : rows_) {
    VERO_DCHECK_LT(r, num_rows_);
    ++row_counts[r + 1];
  }
  for (uint32_t r = 0; r < num_rows_; ++r) row_counts[r + 1] += row_counts[r];

  std::vector<FeatureId> out_features(rows_.size());
  std::vector<float> out_values(rows_.size());
  std::vector<uint64_t> cursor = row_counts;
  for (FeatureId f = 0; f < cols; ++f) {
    for (uint64_t k = col_ptr_[f]; k < col_ptr_[f + 1]; ++k) {
      const uint64_t pos = cursor[rows_[k]]++;
      out_features[pos] = f;
      out_values[pos] = values_[k];
    }
  }
  return CsrMatrix(cols, std::move(row_counts), std::move(out_features),
                   std::move(out_values));
}

}  // namespace vero
