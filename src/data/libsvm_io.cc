#include "data/libsvm_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace vero {
namespace {

// Parses one "<feature>:<value>" token. Returns false on malformed input.
bool ParseEntry(const char* begin, const char* end, FeatureId* feature,
                float* value) {
  const char* colon = begin;
  while (colon != end && *colon != ':') ++colon;
  if (colon == begin || colon == end) return false;
  uint32_t f = 0;
  auto [fp, fec] = std::from_chars(begin, colon, f);
  if (fec != std::errc() || fp != colon) return false;
  // std::from_chars for float is available in libstdc++ >= 11.
  float v = 0.0f;
  auto [vp, vec] = std::from_chars(colon + 1, end, v);
  if (vec != std::errc() || vp != end) return false;
  *feature = f;
  *value = v;
  return true;
}

}  // namespace

StatusOr<Dataset> ParseLibsvm(const std::string& content,
                              const LibsvmReadOptions& options) {
  CsrMatrix matrix;
  std::vector<float> labels;
  FeatureId max_feature = 0;
  bool any_entry = false;

  size_t line_start = 0;
  size_t line_no = 0;
  while (line_start <= content.size()) {
    size_t line_end = content.find('\n', line_start);
    if (line_end == std::string::npos) line_end = content.size();
    ++line_no;
    const char* p = content.data() + line_start;
    const char* end = content.data() + line_end;
    line_start = line_end + 1;

    // Skip blank lines and comments.
    while (p != end && (*p == ' ' || *p == '\t')) ++p;
    if (p == end || *p == '#') {
      if (line_start > content.size()) break;
      continue;
    }

    // Label token.
    const char* tok_end = p;
    while (tok_end != end && *tok_end != ' ' && *tok_end != '\t') ++tok_end;
    float label = 0.0f;
    auto [lp, lec] = std::from_chars(p, tok_end, label);
    if (lec != std::errc() || lp != tok_end) {
      return Status::Corruption("bad label at line " + std::to_string(line_no));
    }
    // Also rejects NaN; keeps the class-count cast below defined.
    if (options.task == Task::kMultiClass && !(label < kMaxLibsvmClasses)) {
      return Status::Corruption(
          "label " + std::string(p, tok_end) + " at line " +
          std::to_string(line_no) + " is not below the class limit " +
          std::to_string(kMaxLibsvmClasses));
    }
    if (options.task == Task::kBinary && options.map_negative_labels &&
        label < 0) {
      label = 0.0f;
    }
    labels.push_back(label);
    matrix.StartRow();

    p = tok_end;
    while (p != end) {
      while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
      if (p == end) break;
      tok_end = p;
      while (tok_end != end && *tok_end != ' ' && *tok_end != '\t' &&
             *tok_end != '\r') {
        ++tok_end;
      }
      FeatureId feature = 0;
      float value = 0.0f;
      if (!ParseEntry(p, tok_end, &feature, &value)) {
        return Status::Corruption("bad entry at line " +
                                  std::to_string(line_no));
      }
      if (options.one_based_indices) {
        if (feature == 0) {
          return Status::Corruption("feature index 0 in 1-based file, line " +
                                    std::to_string(line_no));
        }
        feature -= 1;
      }
      if (feature >= kMaxLibsvmFeatures) {
        return Status::Corruption(
            "entry " + std::string(p, tok_end) + " at line " +
            std::to_string(line_no) + " is not below the feature limit " +
            std::to_string(kMaxLibsvmFeatures));
      }
      matrix.PushEntry(feature, value);
      max_feature = std::max(max_feature, feature);
      any_entry = true;
      p = tok_end;
    }
  }

  uint32_t num_features = options.num_features;
  if (num_features == 0) num_features = any_entry ? max_feature + 1 : 0;
  matrix.set_num_cols(num_features);

  uint32_t num_classes = options.num_classes;
  if (options.task == Task::kMultiClass && num_classes == 0) {
    float max_label = 0.0f;
    for (float y : labels) max_label = std::max(max_label, y);
    num_classes = static_cast<uint32_t>(max_label) + 1;
  }
  if (options.task == Task::kBinary) num_classes = 2;
  if (options.task == Task::kRegression) num_classes = 1;
  if (options.task == Task::kMultiClass && num_classes < 3) {
    return Status::InvalidArgument(
        "multi-class data needs at least 3 classes, got " +
        std::to_string(num_classes) +
        (options.num_classes == 0 ? " from its largest label" : ""));
  }

  Dataset dataset(std::move(matrix), std::move(labels), options.task,
                  num_classes);
  VERO_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

StatusOr<Dataset> ReadLibsvmFile(const std::string& path,
                                 const LibsvmReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseLibsvm(buffer.str(), options);
}

Status WriteLibsvmFile(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const CsrMatrix& m = dataset.matrix();
  for (InstanceId i = 0; i < dataset.num_instances(); ++i) {
    const float y = dataset.labels()[i];
    if (dataset.task() == Task::kRegression) {
      out << y;
    } else {
      out << static_cast<int64_t>(y);
    }
    auto features = m.RowFeatures(i);
    auto values = m.RowValues(i);
    for (size_t k = 0; k < features.size(); ++k) {
      out << ' ' << (features[k] + 1) << ':' << values[k];
    }
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace vero
