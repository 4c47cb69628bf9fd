#include "sketch/candidate_splits.h"

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
  std::vector<std::vector<float>> splits(num_features);
  for (auto& s : splits) {
    VERO_RETURN_IF_ERROR(reader->ReadVector(&s));
  }
  *out = CandidateSplits(max_bins, std::move(splits));
  return Status::OK();
}

CandidateSplits ProposeCandidateSplits(const Dataset& dataset, uint32_t q,
                                       size_t sketch_entries) {
  VERO_CHECK_GT(q, 0u);
  const CsrMatrix& m = dataset.matrix();
  std::vector<QuantileSketch> sketches;
  sketches.reserve(m.num_cols());
  for (uint32_t f = 0; f < m.num_cols(); ++f) {
    sketches.emplace_back(sketch_entries);
  }
  const auto& features = m.features();
  const auto& values = m.values();
  for (size_t k = 0; k < features.size(); ++k) {
    sketches[features[k]].Add(values[k]);
  }
  std::vector<std::vector<float>> splits(m.num_cols());
  for (uint32_t f = 0; f < m.num_cols(); ++f) {
    const QuantileSummary& summary = sketches[f].Finalize();
    if (!summary.empty()) splits[f] = summary.ProposeSplits(q);
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
