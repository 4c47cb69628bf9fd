#ifndef VERO_SERVE_BATCH_PREDICTOR_H_
#define VERO_SERVE_BATCH_PREDICTOR_H_

#include <cstdint>

#include "common/status.h"
#include "data/sparse_matrix.h"
#include "serve/flat_forest.h"

namespace vero {
namespace serve {

/// Knobs of the batched scoring path. Defaults suit a few-hundred-node
/// forest on one core; see docs/serving.md for how the tiles interact.
struct ServeOptions {
  /// Scoring threads. Rows are partitioned into `num_threads` contiguous
  /// output ranges (one per thread), so results are bit-identical to serial
  /// at any thread count — the HistogramBuilder determinism discipline.
  uint32_t num_threads = 1;
  /// Rows per cache tile: margins and scattered feature values of one tile
  /// stay resident while tree tiles sweep over it.
  uint32_t row_block = 256;
  /// Trees per pass over a row tile. Forests larger than this are swept in
  /// ascending chunks, keeping each chunk's node arrays cache-resident;
  /// per-row accumulation order stays t = 0..T-1 regardless.
  uint32_t tree_block = 64;

  Status Validate() const {
    if (num_threads == 0 || num_threads > 256) {
      return Status::InvalidArgument("num_threads not in [1, 256]");
    }
    if (row_block == 0) return Status::InvalidArgument("row_block == 0");
    if (tree_block == 0) return Status::InvalidArgument("tree_block == 0");
    return Status::OK();
  }
};

/// Scores row blocks against a FlatForest with cache tiling (rows x trees
/// blocking) and deterministic multi-threading.
///
/// The contract, enforced bitwise by tests/serve_test.cc: for every input,
/// batch size, tile shape, and thread count, margins are byte-identical to
/// routing each row through Tree::PredictInto tree by tree. Sparse rows are
/// scattered once per (row, tree-tile) into a dense per-thread scratch with
/// epoch stamps, turning each node probe into one array load instead of a
/// binary search over the row; forests whose feature space is too large to
/// scratch (> 2^22) fall back to per-node binary search, still batched and
/// still bit-identical.
class BatchPredictor {
 public:
  /// `forest` must outlive the predictor. Options are validated with CHECK
  /// semantics (serving configuration is a programming error, not data).
  explicit BatchPredictor(const FlatForest* forest, ServeOptions options = {});

  const ServeOptions& options() const { return options_; }

  /// Margins for rows [begin, end) of a sorted-sparse matrix into `out`
  /// (row-major (end - begin) x num_dims, overwritten).
  void PredictCsrMargins(const CsrMatrix& matrix, InstanceId begin,
                         InstanceId end, double* out) const;
  /// Whole-matrix convenience overload.
  void PredictCsrMargins(const CsrMatrix& matrix, double* out) const;

  /// Probabilities with the same link functions as GbdtModel::PredictProba
  /// (sigmoid for binary, softmax for multi-class, raw margin otherwise).
  void PredictCsrProba(const CsrMatrix& matrix, InstanceId begin,
                       InstanceId end, double* out) const;

 private:
  /// Scores rows [begin, end) serially (one thread's contiguous range).
  void ScoreCsrRange(const CsrMatrix& matrix, InstanceId begin,
                     InstanceId end, double* out) const;

  const FlatForest* forest_;
  ServeOptions options_;
  bool use_scratch_;  // Dense scatter scratch vs per-node binary search.
};

}  // namespace serve
}  // namespace vero

#endif  // VERO_SERVE_BATCH_PREDICTOR_H_
