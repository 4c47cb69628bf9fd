#include "core/node_indexer.h"

#include <numeric>

#include "common/logging.h"

namespace vero {

void RowPartition::Init(uint32_t num_instances, uint32_t max_layers) {
  order_.resize(num_instances);
  std::iota(order_.begin(), order_.end(), InstanceId{0});
  scratch_.resize(num_instances);
  ranges_.assign((size_t{1} << max_layers) - 1, Range{});
  if (!ranges_.empty()) {
    ranges_[0] = Range{0, num_instances, true};
  }
}

void RowPartition::InitSubset(std::vector<InstanceId> subset,
                              uint32_t max_layers) {
  const uint32_t n = static_cast<uint32_t>(subset.size());
  order_ = std::move(subset);
  scratch_.resize(n);
  ranges_.assign((size_t{1} << max_layers) - 1, Range{});
  if (!ranges_.empty()) {
    ranges_[0] = Range{0, n, true};
  }
}

void RowPartition::Split(NodeId node, const Bitmap& go_left) {
  VERO_CHECK(Has(node));
  const Range range = ranges_[node];
  const uint64_t n = range.end - range.begin;
  VERO_CHECK_EQ(go_left.size(), n);

  // Stable two-way partition through the scratch buffer: left children keep
  // their order at the front, right children at the back. Each instance is
  // written to both cursors and only the one its bit selects advances, so
  // the loop has no data-dependent branch.
  InstanceId* order = order_.data() + range.begin;
  InstanceId* scratch = scratch_.data();
  uint64_t left_count = 0;
  for (uint64_t j = 0; j < n; ++j) {
    const InstanceId id = order[j];
    const uint64_t left = go_left.Get(j);
    order[left_count] = id;
    scratch[j - left_count] = id;
    left_count += left;
  }
  // Every slot written by the left compaction was already visited (the write
  // cursor trails j), so right-going instances are safely parked in scratch_.
  const uint64_t right_count = n - left_count;
  for (uint64_t j = 0; j < right_count; ++j) {
    order[left_count + j] = scratch[j];
  }

  const NodeId left = LeftChild(node);
  const NodeId right = RightChild(node);
  VERO_CHECK_LT(static_cast<size_t>(right), ranges_.size())
      << "split exceeds tree capacity";
  ranges_[left] = Range{range.begin, range.begin + left_count, true};
  ranges_[right] = Range{range.begin + left_count, range.end, true};
  ranges_[node].valid = false;
}

uint32_t InstanceToNode::Count(NodeId node) const {
  uint32_t count = 0;
  for (NodeId n : node_of_) {
    if (n == node) ++count;
  }
  return count;
}

}  // namespace vero
