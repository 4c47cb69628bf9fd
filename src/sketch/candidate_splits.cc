#include "sketch/candidate_splits.h"

#include <cmath>
#include <string>

#include "common/logging.h"
#include "sketch/quantile_summary.h"

namespace vero {

uint64_t CandidateSplits::TotalBins() const {
  uint64_t total = 0;
  for (const auto& s : splits_) total += s.size();
  return total;
}

void CandidateSplits::SerializeTo(ByteWriter* writer) const {
  writer->WriteU32(max_bins_);
  writer->WriteU32(static_cast<uint32_t>(splits_.size()));
  for (const auto& s : splits_) writer->WriteVector(s);
}

Status CandidateSplits::Deserialize(ByteReader* reader, CandidateSplits* out) {
  uint32_t max_bins = 0;
  uint32_t num_features = 0;
  VERO_RETURN_IF_ERROR(reader->ReadU32(&max_bins));
  VERO_RETURN_IF_ERROR(reader->ReadU32(&num_features));
  // Each feature's table carries at least its u64 length prefix.
  if (num_features > reader->remaining() / sizeof(uint64_t)) {
    return Status::Corruption("split table: " + std::to_string(num_features) +
                              " features exceed the buffer");
  }
  std::vector<std::vector<float>> splits(num_features);
  for (uint32_t f = 0; f < num_features; ++f) {
    std::vector<float>& s = splits[f];
    VERO_RETURN_IF_ERROR(reader->ReadVector(&s));
    auto corrupt = [f](const std::string& why) {
      return Status::Corruption("split table, feature " + std::to_string(f) +
                                ": " + why);
    };
    if (s.size() > max_bins) {
      return corrupt(std::to_string(s.size()) + " splits exceed max_bins " +
                     std::to_string(max_bins));
    }
    for (size_t k = 0; k < s.size(); ++k) {
      if (!std::isfinite(s[k])) {
        return corrupt("split " + std::to_string(k) + " is not finite");
      }
      if (k > 0 && !(s[k - 1] < s[k])) {
        return corrupt("splits not strictly ascending at " +
                       std::to_string(k));
      }
    }
  }
  *out = CandidateSplits(max_bins, std::move(splits));
  return Status::OK();
}

CandidateSplits ProposeCandidateSplits(const Dataset& dataset, uint32_t q,
                                       size_t sketch_entries) {
  VERO_CHECK_GT(q, 0u);
  const CsrMatrix& m = dataset.matrix();
  ShardSummaryBuilder summaries(m.features(), m.values(), m.num_cols(),
                                sketch_entries);
  std::vector<std::vector<float>> splits(m.num_cols());
  for (uint32_t f = 0; f < m.num_cols(); ++f) {
    if (summaries.count(f) > 0) {
      splits[f] = summaries.Summarize(f).ProposeSplits(q);
    }
  }
  return CandidateSplits(q, std::move(splits));
}

std::vector<BinId> BinValues(const CsrMatrix& matrix,
                             const CandidateSplits& splits) {
  const auto& features = matrix.features();
  const auto& values = matrix.values();
  std::vector<BinId> bins(features.size());
  for (size_t k = 0; k < features.size(); ++k) {
    bins[k] = splits.BinForValue(features[k], values[k]);
  }
  return bins;
}

}  // namespace vero
