#include "data/dataset.h"

#include <cmath>
#include <span>
#include <string>

#include "common/logging.h"

namespace vero {

const char* TaskToString(Task task) {
  switch (task) {
    case Task::kRegression:
      return "regression";
    case Task::kBinary:
      return "binary";
    case Task::kMultiClass:
      return "multiclass";
  }
  return "unknown";
}

Dataset::Dataset(CsrMatrix matrix, std::vector<float> labels, Task task,
                 uint32_t num_classes)
    : matrix_(std::move(matrix)),
      labels_(std::move(labels)),
      task_(task),
      num_classes_(num_classes) {
  VERO_CHECK_EQ(matrix_.num_rows(), labels_.size());
  if (task_ == Task::kBinary) VERO_CHECK_EQ(num_classes_, 2u);
  if (task_ == Task::kMultiClass) VERO_CHECK_GE(num_classes_, 3u);
  if (task_ == Task::kRegression) num_classes_ = 1;
}

std::pair<Dataset, Dataset> Dataset::SplitTail(double fraction) const {
  VERO_CHECK(fraction > 0.0 && fraction < 1.0);
  const uint32_t n = num_instances();
  uint32_t n_valid = static_cast<uint32_t>(std::lround(n * fraction));
  if (n_valid == 0) n_valid = 1;
  if (n_valid >= n) n_valid = n - 1;
  const uint32_t n_train = n - n_valid;

  CsrMatrix train_m = matrix_.SliceRows(0, n_train);
  CsrMatrix valid_m = matrix_.SliceRows(n_train, n);
  std::vector<float> train_y(labels_.begin(), labels_.begin() + n_train);
  std::vector<float> valid_y(labels_.begin() + n_train, labels_.end());
  return {Dataset(std::move(train_m), std::move(train_y), task_, num_classes_),
          Dataset(std::move(valid_m), std::move(valid_y), task_,
                  num_classes_)};
}

Status Dataset::Validate() const {
  for (FeatureId f : matrix_.features()) {
    if (f >= matrix_.num_cols()) {
      return Status::Corruption("feature id out of range");
    }
  }
  if (task_ != Task::kRegression) {
    for (size_t i = 0; i < labels_.size(); ++i) {
      const double yi = static_cast<double>(labels_[i]);
      if (yi != std::floor(yi) || yi < 0 || yi >= num_classes_) {
        return Status::Corruption("label " + std::to_string(labels_[i]) +
                                  " at row " + std::to_string(i) +
                                  " not a class index in range");
      }
    }
  }
  // Walk the CSR rows (not the flat value array) so a rejection names the
  // exact cell: corruption reports are actionable only with coordinates.
  for (InstanceId i = 0; i < matrix_.num_rows(); ++i) {
    const std::span<const FeatureId> features = matrix_.RowFeatures(i);
    const std::span<const float> values = matrix_.RowValues(i);
    for (size_t k = 0; k < values.size(); ++k) {
      if (!std::isfinite(values[k])) {
        return Status::Corruption(
            "non-finite value " + std::to_string(values[k]) + " at row " +
            std::to_string(i) + ", feature " + std::to_string(features[k]));
      }
      // The row store assumes each row's feature ids are sorted and
      // unique: FindBin and FillGoLeft binary-search a row, and
      // BinnedRowStore::FromCsr stores a matrix with rows x cols entries
      // as one dense block whose every row is 0..d-1.
      if (k > 0 && features[k] <= features[k - 1]) {
        return Status::Corruption(
            "feature ids not strictly increasing at row " +
            std::to_string(i) + ", feature " + std::to_string(features[k]) +
            " after " + std::to_string(features[k - 1]));
      }
    }
  }
  return Status::OK();
}

}  // namespace vero
