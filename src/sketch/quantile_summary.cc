#include "sketch/quantile_summary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"

namespace vero {

namespace {

// Batches below this size sort their keys with std::sort; the radix sort's
// three counting passes do not pay off on so few values.
constexpr size_t kRadixSortMinSize = 256;

// Order-preserving key: unsigned order on keys is the float order on
// finite values. -0.0 maps to +0.0's key first, so a run of zeros is one
// key and is stored as +0.0 whatever the input's signs.
uint32_t OrderedKey(float value) {
  const uint32_t u = std::bit_cast<uint32_t>(value == 0.0f ? 0.0f : value);
  return u ^ ((0u - (u >> 31)) | 0x80000000u);
}

float KeyValue(uint32_t key) {
  return std::bit_cast<float>(key ^ (((key >> 31) - 1u) | 0x80000000u));
}

// Stable LSD radix sort of `keys` in three passes of 11, 11 and 10 bits;
// `tmp` is scratch of the same length. A pass whose digit is the same for
// every key is skipped (it would be the identity).
void RadixSortKeys(std::span<uint32_t> keys, std::span<uint32_t> tmp) {
  constexpr int kShift[3] = {0, 11, 22};
  constexpr uint32_t kMask = (1u << 11) - 1;
  uint32_t counts[3][kMask + 1] = {};
  for (const uint32_t k : keys) {
    ++counts[0][k & kMask];
    ++counts[1][(k >> 11) & kMask];
    ++counts[2][k >> 22];
  }
  uint32_t* src = keys.data();
  uint32_t* dst = tmp.data();
  const size_t n = keys.size();
  for (int pass = 0; pass < 3; ++pass) {
    const int shift = kShift[pass];
    uint32_t* offsets = counts[pass];
    if (offsets[(src[0] >> shift) & kMask] == n) continue;
    uint32_t sum = 0;
    for (uint32_t d = 0; d <= kMask; ++d) {
      const uint32_t c = offsets[d];
      offsets[d] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k = src[i];
      dst[offsets[(k >> shift) & kMask]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

// Sorts `keys` in place: std::sort below kRadixSortMinSize, the radix sort
// (with `tmp` as scratch, capacity kept) from there.
void SortKeys(std::span<uint32_t> keys, std::vector<uint32_t>* tmp) {
  if (keys.size() < kRadixSortMinSize) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  tmp->resize(keys.size());
  RadixSortKeys(keys, std::span<uint32_t>(*tmp).first(keys.size()));
}

}  // namespace

QuantileSummary QuantileSummary::FromValues(const std::vector<float>& values) {
  std::vector<uint32_t> keys(values.size()), tmp;
  std::transform(values.begin(), values.end(), keys.begin(), OrderedKey);
  SortKeys(keys, &tmp);
  QuantileSummary out;
  FromSortedKeys(keys, &out);
  return out;
}

void QuantileSummary::FromSortedKeys(std::span<const uint32_t> keys,
                                     QuantileSummary* out) {
  std::vector<SummaryEntry>& entries = out->entries_;
  entries.clear();
  entries.reserve(keys.size());
  double cum = 0.0;
  size_t i = 0;
  while (i < keys.size()) {
    const uint32_t key = keys[i];
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == key) ++j;
    SummaryEntry e;
    e.value = KeyValue(key);
    e.rmin = cum;
    e.w = static_cast<double>(j - i);
    cum += e.w;
    e.rmax = cum;
    entries.push_back(e);
    i = j;
  }
  out->total_weight_ = cum;
}

QuantileSummary QuantileSummary::Merge(const QuantileSummary& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  QuantileSummary out;
  MergeInto(*this, other, &out);
  return out;
}

void QuantileSummary::MergeInto(const QuantileSummary& first,
                                const QuantileSummary& second,
                                QuantileSummary* result) {
  const auto& a = first.entries_;
  const auto& b = second.entries_;
  std::vector<SummaryEntry>& out = result->entries_;
  out.clear();
  out.reserve(a.size() + b.size());

  size_t i = 0, j = 0;
  // Rank contribution of the *other* list below the current position:
  // for an entry x taken from A, elements of B strictly below x contribute
  // at least b_prev.rmin + b_prev.w to rmin and at most b_next.rmax - b_next.w
  // to rmax (b_prev = last B entry < x, b_next = first B entry > x).
  while (i < a.size() || j < b.size()) {
    SummaryEntry e;
    if (j == b.size() || (i < a.size() && a[i].value < b[j].value)) {
      const SummaryEntry& x = a[i++];
      const double b_below = (j == 0) ? 0.0 : b[j - 1].RMinNext();
      const double b_above_floor =
          (j == b.size()) ? second.total_weight_ : b[j].RMaxPrev();
      e.value = x.value;
      e.w = x.w;
      e.rmin = x.rmin + b_below;
      e.rmax = x.rmax + b_above_floor;
    } else if (i == a.size() || b[j].value < a[i].value) {
      const SummaryEntry& x = b[j++];
      const double a_below = (i == 0) ? 0.0 : a[i - 1].RMinNext();
      const double a_above_floor =
          (i == a.size()) ? first.total_weight_ : a[i].RMaxPrev();
      e.value = x.value;
      e.w = x.w;
      e.rmin = x.rmin + a_below;
      e.rmax = x.rmax + a_above_floor;
    } else {
      // Equal values combine exactly.
      const SummaryEntry& x = a[i++];
      const SummaryEntry& y = b[j++];
      e.value = x.value;
      e.w = x.w + y.w;
      e.rmin = x.rmin + y.rmin;
      e.rmax = x.rmax + y.rmax;
    }
    out.push_back(e);
  }
  result->total_weight_ = out.empty() ? 0.0 : out.back().rmax;
}

QuantileSummary QuantileSummary::Prune(size_t max_entries) const {
  if (FitsIn(max_entries)) return *this;
  QuantileSummary out;
  PruneInto(max_entries, &out);
  return out;
}

void QuantileSummary::PruneInto(size_t max_entries,
                                QuantileSummary* result) const {
  std::vector<SummaryEntry>& out = result->entries_;
  if (FitsIn(max_entries)) {
    out.assign(entries_.begin(), entries_.end());
    result->total_weight_ = total_weight_;
    return;
  }
  out.clear();
  out.reserve(max_entries);
  out.push_back(entries_.front());
  const size_t interior = max_entries - 2;
  size_t cursor = 0;
  for (size_t k = 1; k <= interior; ++k) {
    const double target =
        total_weight_ * static_cast<double>(k) / (interior + 1);
    // Advance to the entry whose midpoint rank is closest to target.
    while (cursor + 1 < entries_.size()) {
      const double mid_next =
          0.5 * (entries_[cursor + 1].rmin + entries_[cursor + 1].rmax);
      if (mid_next <= target) {
        ++cursor;
      } else {
        break;
      }
    }
    size_t pick = cursor;
    if (cursor + 1 < entries_.size()) {
      const double mid_cur =
          0.5 * (entries_[cursor].rmin + entries_[cursor].rmax);
      const double mid_next =
          0.5 * (entries_[cursor + 1].rmin + entries_[cursor + 1].rmax);
      if (std::abs(mid_next - target) < std::abs(mid_cur - target)) {
        pick = cursor + 1;
      }
    }
    if (out.back().value != entries_[pick].value &&
        entries_[pick].value != entries_.back().value) {
      out.push_back(entries_[pick]);
    }
  }
  if (entries_.size() > 1) out.push_back(entries_.back());
  result->total_weight_ = out.back().rmax;
}

double QuantileSummary::Query(double rank) const {
  VERO_CHECK(!empty());
  if (rank <= 0) return entries_.front().value;
  if (rank >= total_weight_) return entries_.back().value;
  size_t best = 0;
  double best_err = 1e300;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const double mid = 0.5 * (entries_[i].rmin + entries_[i].rmax);
    const double err = std::abs(mid - rank);
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return entries_[best].value;
}

std::vector<float> QuantileSummary::ProposeSplits(uint32_t q) const {
  std::vector<float> splits;
  if (empty() || q == 0) return splits;
  splits.reserve(q);
  // Query's entry for each ascending rank, by one forward walk. Midpoints
  // never decrease, so |mid - rank| falls up to `above`, the first entry
  // whose midpoint is at or above the rank, and rises from there. Query
  // keeps the first of equal distances: `above`, or the first entry of the
  // run of equal distances that ends just below it, whichever is nearer.
  const size_t n = entries_.size();
  auto mid = [this](size_t i) {
    return 0.5 * (entries_[i].rmin + entries_[i].rmax);
  };
  size_t above = 0;
  for (uint32_t k = 1; k <= q; ++k) {
    const double rank = total_weight_ * static_cast<double>(k) / q;
    size_t pick = 0;  // Query's entry for rank <= 0
    if (rank > 0 && rank >= total_weight_) {
      pick = n - 1;
    } else if (rank > 0) {
      while (above < n && mid(above) < rank) ++above;
      pick = above;
      if (above > 0) {
        size_t below = above - 1;
        const double below_err = std::abs(mid(below) - rank);
        while (below > 0 && std::abs(mid(below - 1) - rank) == below_err) {
          --below;
        }
        if (above == n || below_err <= std::abs(mid(above) - rank)) {
          pick = below;
        }
      }
    }
    const float v = static_cast<float>(entries_[pick].value);
    if (splits.empty() || v > splits.back()) splits.push_back(v);
  }
  // Guarantee the last split covers the maximum so binning is total.
  const float max_v = static_cast<float>(entries_.back().value);
  if (splits.empty() || splits.back() < max_v) {
    if (!splits.empty() && splits.size() >= q) {
      splits.back() = max_v;
    } else {
      splits.push_back(max_v);
    }
  }
  return splits;
}

double QuantileSummary::min_value() const {
  VERO_CHECK(!empty());
  return entries_.front().value;
}

double QuantileSummary::max_value() const {
  VERO_CHECK(!empty());
  return entries_.back().value;
}

Status QuantileSummary::CheckInvariants() const {
  // Every comparison is written so that a NaN fails it.
  constexpr double kMaxWeight = 9007199254740992.0;  // 2^53
  for (size_t i = 0; i < entries_.size(); ++i) {
    const SummaryEntry& e = entries_[i];
    auto broken = [i](const char* why) {
      return Status::Corruption("summary entry " + std::to_string(i) + ": " +
                                why);
    };
    if (!std::isfinite(e.value)) return broken("value is not finite");
    if (!(e.rmin >= 0 && e.w >= 0 && e.rmin + e.w <= e.rmax &&
          e.rmax <= kMaxWeight)) {
      return broken("rank bounds broken: want 0 <= rmin, 0 <= w, "
                    "rmin + w <= rmax <= 2^53");
    }
    if (i == 0) {
      if (!(e.rmin == 0 && e.rmax == e.w)) {
        return broken("first entry's ranks are not exact");
      }
      continue;
    }
    const SummaryEntry& prev = entries_[i - 1];
    if (!(prev.value < e.value)) {
      return broken("values not strictly ascending");
    }
    if (!(prev.rmin + prev.w <= e.rmin && prev.rmax <= e.rmax - e.w)) {
      return broken("rank bounds broken: ranks fall from the previous entry");
    }
  }
  if (!entries_.empty()) {
    const SummaryEntry& last = entries_.back();
    if (!(last.rmin + last.w == last.rmax)) {
      return Status::Corruption("summary entry " +
                                std::to_string(entries_.size() - 1) +
                                ": last entry's ranks are not exact");
    }
  }
  return Status::OK();
}

void QuantileSummary::SerializeTo(ByteWriter* writer) const {
  // The wire's field order is the struct's, with no padding between.
  static_assert(sizeof(SummaryEntry) == 4 * sizeof(double));
  writer->WriteU64(entries_.size());
  writer->WriteRaw(entries_.data(), entries_.size() * sizeof(SummaryEntry));
}

Status QuantileSummary::Deserialize(ByteReader* reader, QuantileSummary* out) {
  uint64_t n = 0;
  if (!reader->ReadU64(&n).ok()) {
    return Status::Corruption("summary: short entry count");
  }
  if (n > reader->remaining() / sizeof(SummaryEntry)) {
    return Status::Corruption("summary: " + std::to_string(n) +
                              " entries exceed the " +
                              std::to_string(reader->remaining()) +
                              " bytes left");
  }
  out->entries_.resize(n);
  out->total_weight_ = 0.0;
  if (n > 0) {
    VERO_RETURN_IF_ERROR(
        reader->ReadRaw(out->entries_.data(), n * sizeof(SummaryEntry)));
    out->total_weight_ = out->entries_.back().rmax;
  }
  return out->CheckInvariants();
}

ShardSummaryBuilder::ShardSummaryBuilder(std::span<const uint32_t> features,
                                         std::span<const float> values,
                                         uint32_t num_features,
                                         size_t max_entries)
    : max_entries_(std::max<size_t>(max_entries, 4)),
      offsets_(size_t{num_features} + 1, 0),
      keys_(std::make_unique_for_overwrite<uint32_t[]>(features.size())) {
  VERO_CHECK_EQ(features.size(), values.size());
  for (const uint32_t f : features) {
    VERO_DCHECK(f < num_features);
    ++offsets_[f + 1];
  }
  for (uint32_t f = 0; f < num_features; ++f) offsets_[f + 1] += offsets_[f];
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t k = 0; k < features.size(); ++k) {
    keys_[cursor[features[k]]++] = OrderedKey(values[k]);
  }
}

const QuantileSummary& ShardSummaryBuilder::Summarize(uint32_t f) {
  const std::span<uint32_t> run(keys_.get() + offsets_[f], count(f));
  summary_.entries_.clear();
  summary_.total_weight_ = 0.0;
  for (size_t begin = 0; begin < run.size(); begin += kBatchSize) {
    const std::span<uint32_t> batch =
        run.subspan(begin, std::min(kBatchSize, run.size() - begin));
    SortKeys(batch, &tmp_);
    QuantileSummary::FromSortedKeys(batch, &batch_);
    if (begin == 0 && batch_.FitsIn(max_entries_)) {
      std::swap(summary_, batch_);  // what PruneInto would copy
    } else if (begin == 0) {
      batch_.PruneInto(max_entries_, &summary_);
    } else {
      QuantileSummary::MergeInto(summary_, batch_, &merged_);
      merged_.PruneInto(max_entries_, &summary_);
    }
  }
  return summary_;
}

}  // namespace vero
