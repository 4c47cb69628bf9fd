#include "serve/batch_predictor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/threading.h"
#include "core/loss.h"

namespace vero {
namespace serve {
namespace {

// Largest feature space the scatter scratch will allocate (floats + epoch
// stamps per thread). Beyond it the sparse path binary-searches rows
// instead.
constexpr FeatureId kScratchFeatureCap = 1u << 22;

}  // namespace

BatchPredictor::BatchPredictor(const FlatForest* forest, ServeOptions options)
    : forest_(forest), options_(options) {
  VERO_CHECK(forest != nullptr);
  VERO_CHECK_OK(options_.Validate());
  use_scratch_ = forest_->num_internal_nodes() == 0 ||
                 forest_->max_feature() < kScratchFeatureCap;
}

void BatchPredictor::ScoreCsrRange(const CsrMatrix& matrix, InstanceId begin,
                                   InstanceId end, double* out) const {
  const uint32_t dims = forest_->num_dims();
  const double lr = forest_->learning_rate();
  const auto feature = forest_->feature();
  const auto threshold = forest_->threshold();
  const auto default_left = forest_->default_left();
  const auto left = forest_->left();
  const auto right = forest_->right();
  const auto roots = forest_->roots();
  const auto leaves = forest_->leaf_values();
  const uint32_t num_trees = forest_->num_trees();

  // Scatter scratch: value + epoch stamp per feature id. A row is "present"
  // at feature f iff stamp[f] carries the row's epoch, so clearing between
  // rows is one counter increment, not a sweep.
  std::vector<float> value;
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  if (use_scratch_ && forest_->num_internal_nodes() > 0) {
    value.resize(static_cast<size_t>(forest_->max_feature()) + 1);
    stamp.resize(static_cast<size_t>(forest_->max_feature()) + 1, 0);
  }

  for (InstanceId tile = begin; tile < end;
       tile += options_.row_block) {
    const InstanceId tile_end =
        std::min<InstanceId>(tile + options_.row_block, end);
    std::fill(out + static_cast<size_t>(tile - begin) * dims,
              out + static_cast<size_t>(tile_end - begin) * dims, 0.0);
    for (uint32_t t0 = 0; t0 < num_trees; t0 += options_.tree_block) {
      const uint32_t t1 = std::min(t0 + options_.tree_block, num_trees);
      for (InstanceId i = tile; i < tile_end; ++i) {
        const auto row_features = matrix.RowFeatures(i);
        const auto row_values = matrix.RowValues(i);
        double* margins = out + static_cast<size_t>(i - begin) * dims;
        if (use_scratch_) {
          if (++epoch == 0) {  // Stamp wraparound: drop all stale epochs.
            std::fill(stamp.begin(), stamp.end(), 0u);
            epoch = 1;
          }
          for (size_t k = 0; k < row_features.size(); ++k) {
            const FeatureId f = row_features[k];
            if (f < value.size()) {
              value[f] = row_values[k];
              stamp[f] = epoch;
            }
          }
          for (uint32_t t = t0; t < t1; ++t) {
            int32_t ref = roots[t];
            while (ref >= 0) {
              const FeatureId f = feature[ref];
              // Branch-free select: the split direction is data-dependent
              // (~50% mispredict if branchy), so compute both the compare
              // and the missing-value default and pick with arithmetic.
              // value[f] is always a valid read; stale contents are masked
              // out by `present`.
              const bool present = stamp[f] == epoch;
              const bool cmp = value[f] <= threshold[ref];
              const bool dl = default_left[ref] != 0;
              const bool go_left = (present & cmp) | (!present & dl);
              const int32_t l = left[ref];
              const int32_t r = right[ref];
              ref = go_left ? l : r;
            }
            const float* w =
                leaves.data() + static_cast<size_t>(~ref) * dims;
            for (uint32_t k = 0; k < dims; ++k) margins[k] += lr * w[k];
          }
        } else {
          const FeatureId* fbegin = row_features.data();
          const FeatureId* fend = fbegin + row_features.size();
          for (uint32_t t = t0; t < t1; ++t) {
            int32_t ref = roots[t];
            while (ref >= 0) {
              const FeatureId f = feature[ref];
              const FeatureId* it = std::lower_bound(fbegin, fend, f);
              bool go_left;
              if (it == fend || *it != f) {
                go_left = default_left[ref] != 0;
              } else {
                go_left = row_values[it - fbegin] <= threshold[ref];
              }
              ref = go_left ? left[ref] : right[ref];
            }
            const float* w =
                leaves.data() + static_cast<size_t>(~ref) * dims;
            for (uint32_t k = 0; k < dims; ++k) margins[k] += lr * w[k];
          }
        }
      }
    }
  }
}

void BatchPredictor::PredictCsrMargins(const CsrMatrix& matrix,
                                       InstanceId begin, InstanceId end,
                                       double* out) const {
  VERO_CHECK_LE(begin, end);
  VERO_CHECK_LE(end, matrix.num_rows());
  const uint32_t n = end - begin;
  const uint32_t dims = forest_->num_dims();
  if (n == 0) return;
  const uint32_t threads =
      std::min<uint32_t>(options_.num_threads, std::max(1u, n));
  if (threads <= 1) {
    ScoreCsrRange(matrix, begin, end, out);
    return;
  }
  // Output-partitioned contiguous row ranges: thread t owns rows
  // [begin + t*n/threads, begin + (t+1)*n/threads) and only its slice of
  // `out`, so any thread count produces bit-identical results.
  ParallelFor(threads, threads, [&](size_t t) {
    const uint32_t lo = begin + static_cast<uint32_t>(
                                    static_cast<uint64_t>(n) * t / threads);
    const uint32_t hi = begin + static_cast<uint32_t>(
                                    static_cast<uint64_t>(n) * (t + 1) /
                                    threads);
    if (lo < hi) {
      ScoreCsrRange(matrix, lo, hi,
                    out + static_cast<size_t>(lo - begin) * dims);
    }
  });
}

void BatchPredictor::PredictCsrMargins(const CsrMatrix& matrix,
                                       double* out) const {
  PredictCsrMargins(matrix, 0, matrix.num_rows(), out);
}

void BatchPredictor::PredictCsrProba(const CsrMatrix& matrix, InstanceId begin,
                                     InstanceId end, double* out) const {
  PredictCsrMargins(matrix, begin, end, out);
  const uint32_t dims = forest_->num_dims();
  for (InstanceId i = begin; i < end; ++i) {
    double* row = out + static_cast<size_t>(i - begin) * dims;
    if (forest_->task() == Task::kBinary) {
      row[0] = Sigmoid(row[0]);
    } else if (forest_->task() == Task::kMultiClass) {
      SoftmaxInPlace(row, dims);
    }
  }
}

}  // namespace serve
}  // namespace vero
