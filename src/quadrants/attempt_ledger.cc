#include "quadrants/attempt_ledger.h"

#include <algorithm>
#include <utility>

namespace vero {
namespace {

// Appends the first `count` entries of `src` (all of them if fewer).
template <typename T>
void AppendFirst(const std::vector<T>& src, size_t count, std::vector<T>* dst) {
  dst->insert(dst->end(), src.begin(),
              src.begin() + static_cast<ptrdiff_t>(std::min(count, src.size())));
}

}  // namespace

void AttemptLedger::Fail(uint32_t start_tree, AttemptRecord attempt) {
  pending_start_ = start_tree;
  pending_ = std::move(attempt);
}

void AttemptLedger::Settle(uint32_t trees_recovered, DistResult* result) {
  const std::vector<TreeCost>& costs = pending_.tree_costs;
  if (trees_recovered > tree_costs_.size()) {
    const size_t need = trees_recovered - tree_costs_.size();
    AppendFirst(costs, need, &tree_costs_);
    AppendFirst(pending_.curve, need, &curve_);
  }
  const size_t kept =
      trees_recovered > pending_start_
          ? std::min<size_t>(trees_recovered - pending_start_, costs.size())
          : 0;
  for (size_t t = kept; t < costs.size(); ++t) {
    result->wasted_seconds += costs[t].total_seconds();
    result->wasted_bytes += costs[t].bytes_sent;
  }
  if (kept == 0) {
    result->wasted_seconds += pending_.setup_seconds;
    result->wasted_bytes += pending_.setup_bytes;
  }
  pending_ = AttemptRecord();
}

void AttemptLedger::Commit(uint32_t trees_recovered,
                           const AttemptRecord& attempt) {
  tree_costs_.resize(std::min<size_t>(trees_recovered, tree_costs_.size()));
  tree_costs_.insert(tree_costs_.end(), attempt.tree_costs.begin(),
                     attempt.tree_costs.end());
  curve_.resize(std::min<size_t>(trees_recovered, curve_.size()));
  curve_.insert(curve_.end(), attempt.curve.begin(), attempt.curve.end());
}

double AttemptLedger::ClockAt(uint32_t trees, double base) const {
  for (uint32_t t = 0; t < trees && t < tree_costs_.size(); ++t) {
    base += tree_costs_[t].total_seconds();
  }
  return base;
}

}  // namespace vero
