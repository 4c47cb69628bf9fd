#ifndef VERO_SERVE_FLAT_FOREST_H_
#define VERO_SERVE_FLAT_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/tree.h"
#include "data/types.h"

namespace vero {
namespace serve {

/// A trained forest compiled into contiguous structure-of-arrays node
/// storage for serving (the LightGBM predictor layout).
///
/// Training trees live in heap layout (root 0, children 2i+1/2i+2) with one
/// TreeNode struct — including a heap-allocated leaf vector — per slot, most
/// of them unused. Serving walks millions of rows through the same few
/// thousand nodes, so prediction throughput is bounded by memory layout, not
/// FLOPs (paper §3.1). FromModel compacts every reachable node of every tree
/// into four parallel arrays (split feature, threshold, default-missing
/// direction, child links) plus one pooled leaf-weight array, in per-tree
/// breadth-first order so the hot upper levels of a tree share cache lines.
///
/// Child links are signed: a non-negative link is the forest-wide index of an
/// internal node; a negative link `r` addresses leaf `~r` in the leaf pool
/// (C = num_dims() weights per leaf). Tree roots use the same encoding, so a
/// single-leaf tree is just a negative root.
///
/// FromModel validates the forest structurally and returns Status errors —
/// never crashes — on malformed input (models deserialized from damaged
/// bytes): missing roots, internal nodes with absent children or children
/// beyond the node array, invalid split features, and leaf vectors of the
/// wrong dimension are all rejected as Corruption.
class FlatForest {
 public:
  FlatForest() = default;

  /// Compiles `model` into flat serving form. The model is not retained;
  /// the result is self-contained and immutable.
  static StatusOr<FlatForest> FromModel(const GbdtModel& model);

  Task task() const { return task_; }
  uint32_t num_trees() const { return static_cast<uint32_t>(roots_.size()); }
  /// C: leaf-vector dimensionality (matches GbdtModel::margin_dims()).
  uint32_t num_dims() const { return num_dims_; }
  double learning_rate() const { return learning_rate_; }
  uint32_t num_internal_nodes() const {
    return static_cast<uint32_t>(feature_.size());
  }
  uint32_t num_leaves() const {
    return static_cast<uint32_t>(leaf_values_.size() / num_dims_);
  }
  /// Largest split feature id used anywhere in the forest; 0 for a forest
  /// with no internal nodes. Sizes the batch predictor's scatter scratch.
  FeatureId max_feature() const { return max_feature_; }

  // Raw layout accessors (the batch predictor's hot loops index these).
  std::span<const FeatureId> feature() const { return feature_; }
  std::span<const float> threshold() const { return threshold_; }
  std::span<const uint8_t> default_left() const { return default_left_; }
  std::span<const int32_t> left() const { return left_; }
  std::span<const int32_t> right() const { return right_; }
  std::span<const int32_t> roots() const { return roots_; }
  std::span<const float> leaf_values() const { return leaf_values_; }

 private:
  Task task_ = Task::kBinary;
  uint32_t num_dims_ = 1;
  double learning_rate_ = 0.1;
  FeatureId max_feature_ = 0;

  // Internal nodes, forest-wide, per-tree BFS order.
  std::vector<FeatureId> feature_;
  std::vector<float> threshold_;
  std::vector<uint8_t> default_left_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  // Per tree: root link (negative = single-leaf tree).
  std::vector<int32_t> roots_;
  // Leaf pool: num_leaves x num_dims weights.
  std::vector<float> leaf_values_;
};

}  // namespace serve
}  // namespace vero

#endif  // VERO_SERVE_FLAT_FOREST_H_
