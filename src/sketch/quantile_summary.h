#ifndef VERO_SKETCH_QUANTILE_SUMMARY_H_
#define VERO_SKETCH_QUANTILE_SUMMARY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace vero {

/// One entry of a quantile summary: a value together with bounds on its rank
/// in the underlying multiset.
///
/// rmin = total weight of elements strictly smaller than `value` (lower
/// bound), rmax = total weight of elements <= `value` (upper bound),
/// w = total weight of elements equal to `value`. Invariant:
/// rmin + w <= rmax.
struct SummaryEntry {
  double value = 0.0;
  double rmin = 0.0;
  double rmax = 0.0;
  double w = 0.0;

  /// Upper bound on the rank of values strictly less than this entry.
  double RMinNext() const { return rmin + w; }
  /// Lower bound on the rank of values greater than this entry.
  double RMaxPrev() const { return rmax - w; }
};

/// Mergeable epsilon-approximate quantile summary over weighted values
/// (the structure behind histogram candidate-split proposal, following the
/// GK/WQSummary family the paper cites [15, 22]).
///
/// Summaries built exactly from sorted data have zero rank error; Merge is
/// exact given exact inputs; Prune(b) introduces at most total_weight/(b-1)
/// rank error. Distributed pipelines build exact local summaries, merge
/// them pairwise, and prune to bound memory.
class QuantileSummary {
 public:
  QuantileSummary() = default;

  /// Builds an exact summary from unsorted, unweighted values. Values that
  /// compare equal share one entry; a run of zeros (-0.0 and +0.0 alike) is
  /// stored as +0.0.
  static QuantileSummary FromValues(const std::vector<float>& values);

  /// Exact combination of two summaries (rank bounds add). The rvalue
  /// overload moves `other` out when this summary is empty.
  QuantileSummary Merge(const QuantileSummary& other) const;
  QuantileSummary Merge(QuantileSummary&& other) const;

  /// Reduces to at most `max_entries` entries, keeping extremes; adds at most
  /// total_weight/(max_entries-1) rank error. The rvalue overload moves this
  /// summary out when it already fits.
  QuantileSummary Prune(size_t max_entries) const&;
  QuantileSummary Prune(size_t max_entries) &&;

  /// Value whose estimated rank ((rmin+rmax)/2) is closest to `rank`.
  /// Requires a non-empty summary.
  double Query(double rank) const;

  /// Proposes up to `q` split values at quantiles 1/q .. q/q; deduplicated
  /// and ending at the maximum value so every observed value falls in a bin.
  std::vector<float> ProposeSplits(uint32_t q) const;

  double total_weight() const { return total_weight_; }
  size_t num_entries() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<SummaryEntry>& entries() const { return entries_; }
  double min_value() const;
  double max_value() const;

  /// Checks rank-bound invariants; used by tests and debug paths.
  Status CheckInvariants() const;

  /// Wire format used when repartitioning sketches across workers.
  void SerializeTo(ByteWriter* writer) const;
  static Status Deserialize(ByteReader* reader, QuantileSummary* out);

 private:
  friend class QuantileSketch;

  explicit QuantileSummary(std::vector<SummaryEntry> entries);

  // The builders below write into `out`'s storage (cleared, capacity kept),
  // so the sketch's flush allocates nothing once its scratch has grown.
  // `out` must not alias an input.

  /// Exact summary of ascending order keys (see OrderedKey in the .cc).
  static void FromSortedKeys(std::span<const uint32_t> keys,
                             QuantileSummary* out);
  static void MergeInto(const QuantileSummary& a, const QuantileSummary& b,
                        QuantileSummary* out);
  void PruneInto(size_t max_entries, QuantileSummary* out) const;
  bool FitsIn(size_t max_entries) const {
    return entries_.size() <= max_entries || max_entries < 2;
  }

  std::vector<SummaryEntry> entries_;  // sorted by value, distinct.
  double total_weight_ = 0.0;
};

/// Streaming sketch: buffers incoming values and folds them into a pruned
/// summary once the buffer fills, keeping memory bounded regardless of
/// stream length. Every value has weight 1.
class QuantileSketch {
 public:
  /// `max_entries` bounds the retained summary size (rank error ~ W/b);
  /// `buffer_size` controls the batching granularity.
  explicit QuantileSketch(size_t max_entries = 256, size_t buffer_size = 4096);

  void Add(float value) {
    buffer_.push_back(value);
    if (buffer_.size() >= buffer_size_) Flush();
  }

  /// Folds any buffered values and returns the current summary.
  const QuantileSummary& Finalize();

 private:
  /// Sorts the buffer (radix sort on order keys), folds its exact summary
  /// into summary_ and prunes; keeps the buffer's capacity.
  void Flush();

  size_t max_entries_;
  size_t buffer_size_;
  std::vector<float> buffer_;
  QuantileSummary summary_;
};

}  // namespace vero

#endif  // VERO_SKETCH_QUANTILE_SUMMARY_H_
