#include "core/split.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vero {
namespace {

// A side must carry some hessian mass to be a meaningful child.
constexpr double kMinSideHessian = 1e-10;

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
  const uint32_t dims = hist.num_dims();
  VERO_CHECK_EQ(node_stats.size(), dims);

  SplitCandidate best;
  const double parent_term = GainTerm(node_stats, reg_lambda_);
  // A feature whose bins all have h == 0 (in every dim) cannot split this
  // node: every candidate leaves one side with hessian exactly 0 — the
  // present side directly, the other as node.h - (0 + (node.h - 0)) — which
  // kMinSideHessian rejects. That identity needs finite node hessians, so
  // the skip (XGBoost's sparsity-aware scan) is off otherwise.
  bool finite_node = true;
  for (const GradPair& s : node_stats) {
    finite_node = finite_node && std::isfinite(s.h);
  }

  GradStats left(dims), right(dims), prefix(dims), missing(dims),
      present(dims);
  // Scratch for the per-candidate ordering test; its stats are only filled
  // when it becomes the best, and SplitValue is read for the final winner.
  SplitCandidate candidate;
  candidate.valid = true;
  for (uint32_t f = 0; f < hist.num_features(); ++f) {
    const FeatureId global_f = global_ids[f];
    if (feature_mask != nullptr && !(*feature_mask)[global_f]) continue;
    const uint32_t nbins = splits.NumBins(global_f);
    if (nbins < 2) continue;  // Constant or unseen feature: unsplittable.

    // Mass present in this feature's bins, summed like
    // Histogram::FeatureTotal; the node total minus it is the missing-value
    // bucket.
    std::fill(present.begin(), present.end(), GradPair{});
    bool any_hessian = false;
    for (uint32_t b = 0; b < hist.num_bins(); ++b) {
      const GradPair* cell = &hist.at(f, b, 0);
      for (uint32_t k = 0; k < dims; ++k) {
        present[k] += cell[k];
        any_hessian = any_hessian || cell[k].h != 0.0;
      }
    }
    if (!any_hessian && finite_node) continue;
    for (uint32_t k = 0; k < dims; ++k) {
      missing[k] = node_stats[k] - present[k];
    }

    std::fill(prefix.begin(), prefix.end(), GradPair{});
    // Splitting at the last bin sends everything (present) left, which is
    // only meaningful when missing mass exists; enumerate bins
    // [0, nbins - 2] like standard histogram algorithms.
    for (uint32_t b = 0; b + 1 < nbins; ++b) {
      const GradPair* cell = &hist.at(f, b, 0);
      for (uint32_t k = 0; k < dims; ++k) prefix[k] += cell[k];

      for (int missing_left = 0; missing_left <= 1; ++missing_left) {
        double left_h = 0.0, right_h = 0.0;
        for (uint32_t k = 0; k < dims; ++k) {
          left[k] = prefix[k];
          if (missing_left != 0) left[k] += missing[k];
          right[k] = node_stats[k] - left[k];
          left_h += left[k].h;
          right_h += right[k].h;
        }
        if (left_h < kMinSideHessian || right_h < kMinSideHessian) continue;
        const double gain =
            0.5 * (GainTerm(left, reg_lambda_) + GainTerm(right, reg_lambda_) -
                   parent_term) -
            reg_gamma_;
        if (gain < min_split_gain_) continue;
        candidate.feature = global_f;
        candidate.split_bin = static_cast<BinId>(b);
        candidate.default_left = (missing_left != 0);
        candidate.gain = gain;
        if (candidate.IsBetterThan(best)) {
          // The displaced best becomes the next scratch; the two stats
          // buffers circulate instead of being reallocated.
          std::swap(best, candidate);
          candidate.valid = true;
          best.left_stats.assign(left.begin(), left.end());
          best.right_stats.assign(right.begin(), right.end());
        }
      }
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
