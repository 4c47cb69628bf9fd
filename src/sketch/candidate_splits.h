#ifndef VERO_SKETCH_CANDIDATE_SPLITS_H_
#define VERO_SKETCH_CANDIDATE_SPLITS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/types.h"

namespace vero {

/// Per-feature candidate split values proposed from quantile sketches
/// (Figure 3 of the paper). Feature f has splits[f] ascending values; a raw
/// value v maps to the bin of the first split >= v. Features never observed
/// have an empty split list.
class CandidateSplits {
 public:
  CandidateSplits() = default;
  CandidateSplits(uint32_t max_bins, std::vector<std::vector<float>> splits)
      : max_bins_(max_bins), splits_(std::move(splits)) {}

  uint32_t num_features() const {
    return static_cast<uint32_t>(splits_.size());
  }
  /// Upper bound q on bins per feature.
  uint32_t max_bins() const { return max_bins_; }
  /// Number of bins actually used by feature f.
  uint32_t NumBins(FeatureId f) const {
    return static_cast<uint32_t>(splits_[f].size());
  }
  const std::vector<float>& FeatureSplits(FeatureId f) const {
    return splits_[f];
  }

  /// Bin of value v for feature f: first split >= v, clamped to the last
  /// bin (values above the observed max land in the top bin); bin 0 for a
  /// feature with no splits. Same result as std::lower_bound on the
  /// ascending table, but branch free: a conditional-add halving narrows
  /// the window to at most kCountWindow splits, and the splits below v are
  /// then counted over kCountWindow splits that hold the window, a
  /// fixed-length loop the compiler vectorizes (splits before the window
  /// are all below v, splits after it all at or above). A table smaller
  /// than the count is halved down to one split: a count of unknown
  /// length is not vectorized at -O2, and scalar it is slower.
  BinId BinForValue(FeatureId f, float v) const {
    const std::vector<float>& s = splits_[f];
    if (s.empty()) return 0;
    const float* base = s.data();
    size_t n = s.size();
    const size_t stop = n < kCountWindow ? 1 : kCountWindow;
    while (n > stop) {
      const size_t half = n / 2;
      base += (base[half] < v) ? half : 0;
      n -= half;
    }
    size_t bin = static_cast<size_t>(base - s.data()) + (*base < v);
    if (stop == kCountWindow) {
      const float* window =
          std::min(base, s.data() + s.size() - kCountWindow);
      uint32_t below = 0;
      // Capping the unroll keeps the loop for the vectorizer: GCC's -O3
      // fully unrolls it first, into 16 scalar compares.
#pragma GCC unroll 4
      for (size_t k = 0; k < kCountWindow; ++k) below += window[k] < v;
      bin = static_cast<size_t>(window - s.data()) + below;
    }
    return static_cast<BinId>(std::min(bin, s.size() - 1));
  }

  /// The raw split value represented by (feature, bin).
  float SplitValue(FeatureId f, BinId bin) const { return splits_[f][bin]; }

  /// Total candidate count, used for load-balanced column grouping.
  uint64_t TotalBins() const;

  void SerializeTo(ByteWriter* writer) const;
  /// Reads a table written by SerializeTo. Rejects with Corruption, naming
  /// the feature, a table ProposeSplits cannot emit: one that is not
  /// strictly ascending (BinForValue's search assumes ascending order),
  /// holds a non-finite value, or has more than max_bins() splits.
  static Status Deserialize(ByteReader* reader, CandidateSplits* out);

  bool operator==(const CandidateSplits& other) const {
    return max_bins_ == other.max_bins_ && splits_ == other.splits_;
  }

 private:
  /// BinForValue's halving stops at this many splits; counting them is
  /// four 4-wide vector compares.
  static constexpr size_t kCountWindow = 16;

  uint32_t max_bins_ = 0;
  std::vector<std::vector<float>> splits_;
};

/// Builds per-feature candidate splits from a full dataset through one
/// ShardSummaryBuilder (single-node path; the distributed path builds each
/// shard's summaries and merges them — see partition/transform).
CandidateSplits ProposeCandidateSplits(const Dataset& dataset, uint32_t q,
                                       size_t sketch_entries = 256);

/// Quantizes a CSR matrix into per-entry bin ids, parallel to
/// matrix.features().
std::vector<BinId> BinValues(const CsrMatrix& matrix,
                             const CandidateSplits& splits);

}  // namespace vero

#endif  // VERO_SKETCH_CANDIDATE_SPLITS_H_
