#include "core/split.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace vero {
namespace {

// A side must carry some hessian mass to be a meaningful child.
constexpr double kMinSideHessian = 1e-10;

// Per-class sums of one scan. A compile-time class count gets fixed arrays,
// which the C = 1 scan keeps in registers; kDims == 0 sizes them at run time.
template <uint32_t kDims>
class ClassSums {
 public:
  explicit ClassSums(uint32_t /*dims*/) {}
  GradPair& operator[](uint32_t k) { return v_[k]; }

 private:
  GradPair v_[kDims] = {};
};

template <>
class ClassSums<0> {
 public:
  explicit ClassSums(uint32_t dims) : v_(dims) {}
  GradPair& operator[](uint32_t k) { return v_[k]; }

 private:
  GradStats v_;
};

}  // namespace

bool SplitCandidate::IsBetterThan(const SplitCandidate& other,
                                  double tol) const {
  if (!valid) return false;
  if (!other.valid) return true;
  if (gain > other.gain + tol) return true;
  if (other.gain > gain + tol) return false;
  if (feature != other.feature) return feature < other.feature;
  if (split_bin != other.split_bin) return split_bin < other.split_bin;
  return !default_left && other.default_left;
}

void SplitCandidate::SerializeTo(ByteWriter* writer) const {
  writer->WriteBool(valid);
  writer->WriteU32(feature);
  writer->WriteU16(split_bin);
  writer->WriteF32(split_value);
  writer->WriteBool(default_left);
  writer->WriteF64(gain);
  auto write_stats = [writer](const GradStats& stats) {
    writer->WriteU32(static_cast<uint32_t>(stats.size()));
    for (const GradPair& s : stats) {
      writer->WriteF64(s.g);
      writer->WriteF64(s.h);
    }
  };
  write_stats(left_stats);
  write_stats(right_stats);
}

Status SplitCandidate::Deserialize(ByteReader* reader, SplitCandidate* out) {
  VERO_RETURN_IF_ERROR(reader->ReadBool(&out->valid));
  VERO_RETURN_IF_ERROR(reader->ReadU32(&out->feature));
  VERO_RETURN_IF_ERROR(reader->ReadU16(&out->split_bin));
  VERO_RETURN_IF_ERROR(reader->ReadF32(&out->split_value));
  VERO_RETURN_IF_ERROR(reader->ReadBool(&out->default_left));
  VERO_RETURN_IF_ERROR(reader->ReadF64(&out->gain));
  auto read_stats = [reader](GradStats* stats) -> Status {
    uint32_t n = 0;
    VERO_RETURN_IF_ERROR(reader->ReadU32(&n));
    stats->resize(n);
    for (GradPair& s : *stats) {
      VERO_RETURN_IF_ERROR(reader->ReadF64(&s.g));
      VERO_RETURN_IF_ERROR(reader->ReadF64(&s.h));
    }
    return Status::OK();
  };
  VERO_RETURN_IF_ERROR(read_stats(&out->left_stats));
  VERO_RETURN_IF_ERROR(read_stats(&out->right_stats));
  return Status::OK();
}

SplitCandidate SplitFinder::FindBest(const Histogram& hist,
                                     const GradStats& node_stats,
                                     const std::vector<FeatureId>& global_ids,
                                     const CandidateSplits& splits,
                                     const std::vector<bool>* feature_mask)
    const {
  VERO_CHECK_EQ(global_ids.size(), hist.num_features());
  VERO_CHECK_EQ(node_stats.size(), hist.num_dims());
  return hist.num_dims() == 1
             ? Scan<1>(hist, node_stats, global_ids, splits, feature_mask)
             : Scan<0>(hist, node_stats, global_ids, splits, feature_mask);
}

template <uint32_t kDims>
SplitCandidate SplitFinder::Scan(const Histogram& hist,
                                 const GradStats& node_stats,
                                 const std::vector<FeatureId>& global_ids,
                                 const CandidateSplits& splits,
                                 const std::vector<bool>* feature_mask) const {
  const uint32_t dims = kDims != 0 ? kDims : hist.num_dims();
  const uint32_t num_bins = hist.num_bins();
  const double lambda = reg_lambda_;
  // GainTerm's operation order: 0.0 + g*g/(h+λ), class by class.
  auto gain_term = [dims, lambda](ClassSums<kDims>& side) {
    double total = 0.0;
    for (uint32_t k = 0; k < dims; ++k) {
      total += (side[k].g * side[k].g) / (side[k].h + lambda);
    }
    return total;
  };

  SplitCandidate best;
  const double parent_term = GainTerm(node_stats, lambda);
  // A feature whose bins all have h == 0 (in every dim) cannot split this
  // node: every candidate leaves one side with hessian exactly 0 — the
  // present side directly, the other as node.h - (0 + (node.h - 0)) — which
  // kMinSideHessian rejects. That identity needs finite node hessians, so
  // the skip (XGBoost's sparsity-aware scan) is off otherwise.
  bool finite_node = true;
  ClassSums<kDims> node(dims), present(dims), missing(dims), prefix(dims),
      left(dims), right(dims);
  for (uint32_t k = 0; k < dims; ++k) {
    node[k] = node_stats[k];
    finite_node = finite_node && std::isfinite(node[k].h);
  }

  // Scratch for the ordering test of a candidate that survives the early
  // rejection; SplitValue is read for the final winner only.
  SplitCandidate candidate;
  candidate.valid = true;
  // Evaluates the candidate "bin <= b, missing mass on the given side" of
  // feature `global_f`.
  auto consider = [&](FeatureId global_f, uint32_t b, bool missing_left) {
    double left_h = 0.0, right_h = 0.0;
    for (uint32_t k = 0; k < dims; ++k) {
      left[k] = prefix[k];
      if (missing_left) left[k] += missing[k];
      right[k] = node[k] - left[k];
      left_h += left[k].h;
      right_h += right[k].h;
    }
    if (left_h < kMinSideHessian || right_h < kMinSideHessian) return;
    const double gain =
        0.5 * (gain_term(left) + gain_term(right) - parent_term) - reg_gamma_;
    if (gain < min_split_gain_) return;
    // IsBetterThan's first losing test, without building the candidate.
    if (best.valid && best.gain > gain + SplitCandidate::kTieTolerance) return;
    candidate.feature = global_f;
    candidate.split_bin = static_cast<BinId>(b);
    candidate.default_left = missing_left;
    candidate.gain = gain;
    if (!candidate.IsBetterThan(best)) return;
    // The displaced best becomes the next scratch; the two stats buffers
    // circulate instead of being reallocated.
    std::swap(best, candidate);
    candidate.valid = true;
    best.left_stats.resize(dims);
    best.right_stats.resize(dims);
    for (uint32_t k = 0; k < dims; ++k) {
      best.left_stats[k] = left[k];
      best.right_stats[k] = right[k];
    }
  };
  for (uint32_t f = 0; f < hist.num_features(); ++f) {
    const FeatureId global_f = global_ids[f];
    if (feature_mask != nullptr && !(*feature_mask)[global_f]) continue;
    const uint32_t nbins = splits.NumBins(global_f);
    if (nbins < 2) continue;  // Constant or unseen feature: unsplittable.
    const GradPair* column = &hist.at(f, 0, 0);

    // Mass present in this feature's bins, summed like
    // Histogram::FeatureTotal; the node total minus it is the missing-value
    // bucket.
    bool any_hessian = false;
    for (uint32_t k = 0; k < dims; ++k) present[k] = GradPair{};
    for (uint32_t b = 0; b < num_bins; ++b) {
      const GradPair* cell = column + static_cast<size_t>(b) * dims;
      for (uint32_t k = 0; k < dims; ++k) {
        present[k] += cell[k];
        any_hessian = any_hessian || cell[k].h != 0.0;
      }
    }
    if (!any_hessian && finite_node) continue;
    for (uint32_t k = 0; k < dims; ++k) {
      missing[k] = node[k] - present[k];
      prefix[k] = GradPair{};
    }

    // Splitting at the last bin sends everything (present) left, which is
    // only meaningful when missing mass exists; enumerate bins
    // [0, nbins - 2] like standard histogram algorithms.
    for (uint32_t b = 0; b + 1 < nbins; ++b) {
      const GradPair* cell = column + static_cast<size_t>(b) * dims;
      // An empty bin b > 0 (every class's g and h ±0.0) leaves the prefix
      // bit-identical — it starts at +0.0, so it is never -0.0 — and its two
      // candidates repeat those of the last bin scanned. Equal gain, equal
      // feature and a higher bin lose IsBetterThan's tie-break to that bin's
      // candidates, and whatever beat those beats these too (DESIGN.md).
      if (b > 0) {
        bool empty = true;
        for (uint32_t k = 0; k < dims; ++k) {
          empty = empty && cell[k].g == 0.0 && cell[k].h == 0.0;
        }
        if (empty) continue;
      }
      for (uint32_t k = 0; k < dims; ++k) prefix[k] += cell[k];

      consider(global_f, b, /*missing_left=*/false);
      consider(global_f, b, /*missing_left=*/true);
    }
  }
  if (best.valid) {
    best.split_value = splits.SplitValue(best.feature, best.split_bin);
  }
  return best;
}

std::vector<float> SplitFinder::LeafWeights(const GradStats& node_stats) const {
  std::vector<float> weights(node_stats.size());
  for (size_t k = 0; k < node_stats.size(); ++k) {
    weights[k] = static_cast<float>(-node_stats[k].g /
                                    (node_stats[k].h + reg_lambda_));
  }
  return weights;
}

}  // namespace vero
