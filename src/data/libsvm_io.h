#ifndef VERO_DATA_LIBSVM_IO_H_
#define VERO_DATA_LIBSVM_IO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace vero {

/// Bounds on the shape a LIBSVM file may imply. Per-feature and per-class
/// tables are sized from the largest index and multi-class label, so one
/// stray value (index 4294967295, label 1e9) would size them for billions of
/// entries; such entries are rejected as Corruption naming the line. Both
/// bounds sit above every profile in data/synthetic.cc (at most 330k
/// features at paper scale, 100 classes).
///
/// Feature indices, after the 1-based shift, must be below this.
inline constexpr uint32_t kMaxLibsvmFeatures = 1u << 20;
/// Multi-class labels must be below this.
inline constexpr uint32_t kMaxLibsvmClasses = 1u << 10;

/// Options for reading LIBSVM-format text files
/// (`<label> <feature>:<value> ...` per line, 1-based or 0-based indices).
struct LibsvmReadOptions {
  Task task = Task::kBinary;
  /// Number of classes; inferred from labels when 0.
  uint32_t num_classes = 0;
  /// Number of features; inferred as (max index + 1) when 0.
  uint32_t num_features = 0;
  /// Subtract 1 from feature indices (common for 1-based LIBSVM files).
  bool one_based_indices = true;
  /// Map labels {-1, +1} to {0, 1} for binary tasks.
  bool map_negative_labels = true;
};

/// Parses a LIBSVM file into a Dataset.
StatusOr<Dataset> ReadLibsvmFile(const std::string& path,
                                 const LibsvmReadOptions& options);

/// Parses LIBSVM content from an in-memory string (used by tests).
StatusOr<Dataset> ParseLibsvm(const std::string& content,
                              const LibsvmReadOptions& options);

/// Writes a dataset in LIBSVM format (1-based indices).
Status WriteLibsvmFile(const Dataset& dataset, const std::string& path);

}  // namespace vero

#endif  // VERO_DATA_LIBSVM_IO_H_
