#ifndef VERO_SKETCH_QUANTILE_SUMMARY_H_
#define VERO_SKETCH_QUANTILE_SUMMARY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
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

  /// Exact combination of two summaries (rank bounds add).
  QuantileSummary Merge(const QuantileSummary& other) const;

  /// Reduces to at most `max_entries` entries, keeping extremes; adds at most
  /// total_weight/(max_entries-1) rank error.
  QuantileSummary Prune(size_t max_entries) const;

  /// Value whose estimated rank ((rmin+rmax)/2) is closest to `rank`, the
  /// first such entry on a tie. Requires a non-empty summary.
  double Query(double rank) const;

  /// Proposes up to `q` split values at quantiles 1/q .. q/q; deduplicated
  /// and ending at the maximum value so every observed value falls in a bin.
  /// Each quantile's value is Query's, found by one forward walk over the
  /// entries; requires midpoint ranks that never decrease along the
  /// entries, which every summary CheckInvariants accepts has.
  std::vector<float> ProposeSplits(uint32_t q) const;

  double total_weight() const { return total_weight_; }
  size_t num_entries() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<SummaryEntry>& entries() const { return entries_; }
  double min_value() const;
  double max_value() const;

  /// Checks what every summary built here satisfies, exactly (weights are
  /// counts, so rank arithmetic is exact): values finite and strictly
  /// ascending; per entry 0 <= rmin, 0 <= w, rmin + w <= rmax <= 2^53;
  /// between neighbours rmin + w <= next rmin and rmax <= next rmax - next
  /// w (so midpoint ranks never decrease); and exact extremes, the first
  /// entry with rmin 0 and rmax w, the last with rmin + w == rmax. Returns
  /// Corruption naming the entry and the broken bound.
  Status CheckInvariants() const;

  /// Wire format used when repartitioning sketches across workers: a u64
  /// entry count, then each entry's four f64 fields, written in one block.
  void SerializeTo(ByteWriter* writer) const;
  /// Reads a summary written by SerializeTo into `out`'s storage (capacity
  /// kept). Returns Corruption, reading no byte past the entries, for a
  /// short count, a count past the bytes left, or entries CheckInvariants
  /// rejects.
  static Status Deserialize(ByteReader* reader, QuantileSummary* out);

  // The builders below write into `out`'s storage (cleared, capacity kept),
  // so folds and merges allocate nothing once their scratch has grown.
  // `out` must not alias an input.

  /// Exact merge of two summaries (Merge without the allocation).
  static void MergeInto(const QuantileSummary& a, const QuantileSummary& b,
                        QuantileSummary* out);
  /// Prune without the allocation: a copy when this summary fits.
  void PruneInto(size_t max_entries, QuantileSummary* out) const;

 private:
  friend class ShardSummaryBuilder;

  /// Exact summary of ascending order keys (see OrderedKey in the .cc).
  static void FromSortedKeys(std::span<const uint32_t> keys,
                             QuantileSummary* out);
  bool FitsIn(size_t max_entries) const {
    return entries_.size() <= max_entries || max_entries < 2;
  }

  std::vector<SummaryEntry> entries_;  // sorted by value, distinct.
  double total_weight_ = 0.0;
};

/// Every feature's quantile summary over one shard, built in one grouped
/// pass (DESIGN.md §2). The constructor counts the values of each feature
/// and scatters their order keys into one array, so each feature's values
/// lie contiguous and in row order. Summarize folds a feature's run in
/// fixed batches of kBatchSize values: each batch is sorted in place, its
/// exact summary merged into the running one, and the result pruned to
/// `max_entries`, the fold of a streaming sketch fed the feature's values
/// in row order. Every value has weight 1.
class ShardSummaryBuilder {
 public:
  static constexpr size_t kBatchSize = 4096;

  /// Groups `values` by `features` (parallel arrays, ids below
  /// `num_features`). `max_entries` bounds each summary; a value below 4
  /// counts as 4.
  ShardSummaryBuilder(std::span<const uint32_t> features,
                      std::span<const float> values, uint32_t num_features,
                      size_t max_entries);

  /// Number of values of feature f.
  size_t count(uint32_t f) const { return offsets_[f + 1] - offsets_[f]; }
  /// Upper bound on the entries of feature f's summary, so a caller can size
  /// the message it serializes the summaries into once.
  size_t MaxEntries(uint32_t f) const {
    return std::min(count(f), max_entries_);
  }

  /// Folds feature f's values into its summary, empty when count(f) is 0.
  /// The summary stays valid until the next call. Sorts f's batches in
  /// place, so call it once per feature.
  const QuantileSummary& Summarize(uint32_t f);

 private:
  size_t max_entries_;
  std::vector<size_t> offsets_;  // feature f's keys: [offsets_[f], [f + 1])
  std::unique_ptr<uint32_t[]> keys_;  // every key is written before a read
  std::vector<uint32_t> tmp_;  // radix scratch, one batch long
  QuantileSummary batch_, merged_, summary_;
};

}  // namespace vero

#endif  // VERO_SKETCH_QUANTILE_SUMMARY_H_
