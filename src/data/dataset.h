#ifndef VERO_DATA_DATASET_H_
#define VERO_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/sparse_matrix.h"
#include "data/types.h"

namespace vero {

/// Learning task kinds supported by the library.
enum class Task {
  kRegression,       ///< square loss, 1-dim gradient
  kBinary,           ///< logistic loss, 1-dim gradient
  kMultiClass,       ///< softmax loss, C-dim gradient
};

const char* TaskToString(Task task);

/// A labeled sparse dataset (row-major master copy).
///
/// Labels are class indices in [0, num_classes) for classification tasks and
/// real targets for regression.
class Dataset {
 public:
  Dataset() = default;
  Dataset(CsrMatrix matrix, std::vector<float> labels, Task task,
          uint32_t num_classes);

  uint32_t num_instances() const { return matrix_.num_rows(); }
  uint32_t num_features() const { return matrix_.num_cols(); }
  uint64_t num_nonzeros() const { return matrix_.num_nonzeros(); }
  Task task() const { return task_; }
  /// 1 for regression/binary, C >= 3 for multi-class.
  uint32_t num_classes() const { return num_classes_; }
  /// Gradient dimensionality: 1 except multi-class where it is num_classes.
  uint32_t gradient_dim() const {
    return task_ == Task::kMultiClass ? num_classes_ : 1;
  }

  const CsrMatrix& matrix() const { return matrix_; }
  const std::vector<float>& labels() const { return labels_; }

  /// Average nonzeros per instance.
  double density() const {
    const double cells =
        static_cast<double>(num_instances()) * num_features();
    return cells > 0 ? static_cast<double>(num_nonzeros()) / cells : 0.0;
  }

  uint64_t MemoryBytes() const {
    return matrix_.MemoryBytes() + labels_.capacity() * sizeof(float);
  }

  /// Splits off the last `fraction` of instances as a validation set,
  /// returning (train, valid). Instances keep their relative order.
  std::pair<Dataset, Dataset> SplitTail(double fraction) const;

  /// Validates internal consistency: label range, feature bounds, finite
  /// values, and strictly increasing feature ids within each row.
  Status Validate() const;

 private:
  CsrMatrix matrix_;
  std::vector<float> labels_;
  Task task_ = Task::kBinary;
  uint32_t num_classes_ = 2;
};

}  // namespace vero

#endif  // VERO_DATA_DATASET_H_
