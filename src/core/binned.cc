#include "core/binned.h"

#include <algorithm>

#include "common/logging.h"

namespace vero {

BinnedRowStore BinnedRowStore::FromCsr(const CsrMatrix& matrix,
                                       const CandidateSplits& splits) {
  BinnedRowStore store;
  store.set_num_features(matrix.num_cols());
  store.row_ptr_.reserve(matrix.num_rows() + 1);
  store.features_.reserve(matrix.num_nonzeros());
  store.bins_.reserve(matrix.num_nonzeros());
  for (InstanceId i = 0; i < matrix.num_rows(); ++i) {
    store.StartRow();
    auto features = matrix.RowFeatures(i);
    auto values = matrix.RowValues(i);
    for (size_t k = 0; k < features.size(); ++k) {
      store.PushEntry(features[k], splits.BinForValue(features[k], values[k]));
    }
  }
  return store;
}

std::optional<BinId> BinnedRowStore::FindBin(InstanceId i,
                                             FeatureId feature) const {
  auto features = RowFeatures(i);
  const auto it = std::lower_bound(features.begin(), features.end(), feature);
  if (it == features.end() || *it != feature) return std::nullopt;
  return bins_[row_ptr_[i] + (it - features.begin())];
}

void BinnedRowStore::FillGoLeft(std::span<const InstanceId> instances,
                                FeatureId feature, BinId split_bin,
                                bool default_left, Bitmap* go_left) const {
  const FeatureId* base = features_.data();
  go_left->Fill([&](size_t j) {
    const uint64_t begin = row_ptr_[instances[j]];
    const FeatureId* lo = base + begin;
    const FeatureId* hi = base + row_ptr_[instances[j] + 1];
    const FeatureId* it = std::lower_bound(lo, hi, feature);
    return (it != hi && *it == feature) ? bins_[begin + (it - lo)] <= split_bin
                                        : default_left;
  });
}

BinnedColumnStore BinnedColumnStore::FromCsr(const CsrMatrix& matrix,
                                             const CandidateSplits& splits) {
  return Transpose(
      matrix.num_rows(), matrix.num_cols(),
      [&](InstanceId i) {
        return std::pair(matrix.RowFeatures(i), matrix.RowValues(i));
      },
      [&](FeatureId f, float value) { return splits.BinForValue(f, value); });
}

std::optional<BinId> BinnedColumnStore::FindBin(FeatureId f,
                                                InstanceId instance) const {
  auto rows = ColumnRows(f);
  const auto it = std::lower_bound(rows.begin(), rows.end(), instance);
  if (it == rows.end() || *it != instance) return std::nullopt;
  return bins_[col_ptr_[f] + (it - rows.begin())];
}

void BinnedColumnStore::FillGoLeft(std::span<const InstanceId> instances,
                                   FeatureId feature, BinId split_bin,
                                   bool default_left, Bitmap* go_left) const {
  const InstanceId* begin = rows_.data() + col_ptr_[feature];
  const InstanceId* end = rows_.data() + col_ptr_[feature + 1];
  const BinId* bins = bins_.data() + col_ptr_[feature];
  // Every column entry before `from` is below `prev`, so while instance ids
  // ascend each search starts at the previous hit; a descent restarts at
  // the column start.
  const InstanceId* from = begin;
  InstanceId prev = 0;
  go_left->Fill([&](size_t j) {
    const InstanceId inst = instances[j];
    if (inst < prev) from = begin;
    prev = inst;
    from = std::lower_bound(from, end, inst);
    return (from != end && *from == inst) ? bins[from - begin] <= split_bin
                                          : default_left;
  });
}

}  // namespace vero
