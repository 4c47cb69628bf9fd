#ifndef VERO_CORE_GBDT_PARAMS_H_
#define VERO_CORE_GBDT_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace vero {

/// How trees grow.
enum class GrowthPolicy {
  /// Layer by layer to L layers (the paper's protocol; all quadrants).
  kLevelWise,
  /// Best-first: always split the leaf with the highest gain, up to
  /// max_leaves (LightGBM-style; reference trainer only).
  kLeafWise,
};

/// Hyper-parameters for GBDT training, matching the paper's notation
/// (§3: T trees of L layers, q candidate splits; §2.1.1: eta, lambda, gamma).
struct GbdtParams {
  /// T: number of boosting rounds. Each round trains one tree (with C-dim
  /// leaf vectors in the multi-class case).
  uint32_t num_trees = 100;
  /// L: number of tree layers including the root (an L-layer tree has at
  /// most 2^(L-1) leaves). The paper's default is 8.
  uint32_t num_layers = 8;
  /// q: number of candidate splits (histogram bins) per feature.
  uint32_t num_candidate_splits = 20;
  /// eta: learning rate / shrinkage.
  double learning_rate = 0.1;
  /// lambda: L2 regularization on leaf weights.
  double reg_lambda = 1.0;
  /// gamma: complexity penalty per leaf.
  double reg_gamma = 0.0;
  /// Minimum gain required to split a node.
  double min_split_gain = 0.0;
  /// Minimum number of instances on each child of a split.
  uint32_t min_child_instances = 1;
  /// Retained entries per quantile sketch (split-proposal accuracy knob).
  uint32_t sketch_entries = 256;
  /// Enables the histogram subtraction technique (§2.1.2). Exposed so the
  /// ablation bench can quantify its effect.
  bool histogram_subtraction = true;
  /// Intra-worker threads for histogram builds and the gradient pass.
  /// 1 = fully serial (the default). Any value yields bit-identical models:
  /// HistogramBuilder partitions output cells, not input rows, so every
  /// accumulation order matches the serial build (docs/performance.md).
  uint32_t num_threads = 1;

  // ---- Extensions beyond the paper's protocol (reference trainer) -------

  /// Tree growth policy. Distributed quadrants always grow level-wise and
  /// never subsample, so DistTrainOptions::Validate rejects kLeafWise,
  /// max_leaves and row/column subsampling.
  GrowthPolicy growth = GrowthPolicy::kLevelWise;
  /// Leaf budget for leaf-wise growth; 0 means 2^(L-1) (the level-wise
  /// equivalent).
  uint32_t max_leaves = 0;
  /// Fraction of instances sampled (without replacement) per tree.
  double row_subsample = 1.0;
  /// Fraction of features eligible for splits per tree.
  double column_subsample = 1.0;
  /// Stop when the validation metric has not improved for this many rounds
  /// (0 disables; requires a validation set).
  uint32_t early_stopping_rounds = 0;
  /// Seed for subsampling.
  uint64_t seed = 42;

  /// Validates ranges; returns InvalidArgument with a reason on failure.
  Status Validate() const {
    if (num_trees == 0) return Status::InvalidArgument("num_trees == 0");
    if (num_layers < 2) return Status::InvalidArgument("num_layers < 2");
    if (num_layers > 24) return Status::InvalidArgument("num_layers > 24");
    if (num_candidate_splits == 0 || num_candidate_splits > 4096) {
      return Status::InvalidArgument("num_candidate_splits out of range");
    }
    if (learning_rate <= 0.0) {
      return Status::InvalidArgument("learning_rate <= 0");
    }
    if (reg_lambda < 0.0) return Status::InvalidArgument("reg_lambda < 0");
    if (reg_gamma < 0.0) return Status::InvalidArgument("reg_gamma < 0");
    if (row_subsample <= 0.0 || row_subsample > 1.0) {
      return Status::InvalidArgument("row_subsample not in (0, 1]");
    }
    if (column_subsample <= 0.0 || column_subsample > 1.0) {
      return Status::InvalidArgument("column_subsample not in (0, 1]");
    }
    if (max_leaves == 1) {
      return Status::InvalidArgument("max_leaves must be 0 or >= 2");
    }
    if (num_threads == 0 || num_threads > 256) {
      return Status::InvalidArgument("num_threads not in [1, 256]");
    }
    return Status::OK();
  }

  /// Effective leaf budget for leaf-wise growth.
  uint32_t EffectiveMaxLeaves() const {
    return max_leaves != 0 ? max_leaves : (1u << (num_layers - 1));
  }
};

}  // namespace vero

#endif  // VERO_CORE_GBDT_PARAMS_H_
