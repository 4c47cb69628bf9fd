#include "serve/flat_forest.h"

#include <algorithm>
#include <deque>
#include <string>

namespace vero {
namespace serve {
namespace {

// Forest-wide internal-node count must stay addressable by int32 links
// (negative values are leaf references, so only 31 bits carry node ids).
constexpr size_t kMaxInternalNodes = (size_t{1} << 30);

}  // namespace

StatusOr<FlatForest> FlatForest::FromModel(const GbdtModel& model) {
  FlatForest out;
  out.task_ = model.task();
  out.num_dims_ = model.margin_dims();
  out.learning_rate_ = model.learning_rate();
  if (out.num_dims_ == 0) {
    return Status::Corruption("model has zero margin dimensions");
  }

  for (size_t t = 0; t < model.num_trees(); ++t) {
    const Tree& tree = model.tree(t);
    const std::string where = "tree " + std::to_string(t);
    if (tree.num_dims() != out.num_dims_) {
      return Status::Corruption(where + ": leaf dimension " +
                                std::to_string(tree.num_dims()) +
                                " != model margin dimension " +
                                std::to_string(out.num_dims_));
    }
    if (!tree.Exists(0)) {
      return Status::Corruption(where + ": no root node");
    }

    // Classifies heap node `id`, reserving its flat slot: internal nodes are
    // appended to the SoA arrays (filled when popped from the queue), leaves
    // are copied into the pool immediately.
    std::deque<std::pair<NodeId, int32_t>> queue;  // (heap id, flat index)
    Status error = Status::OK();
    auto classify = [&](NodeId id) -> int32_t {
      const TreeNode& n = tree.node(id);
      if (n.state == TreeNode::State::kLeaf) {
        if (n.leaf_values.size() != out.num_dims_) {
          error = Status::Corruption(
              where + ": leaf " + std::to_string(id) + " has " +
              std::to_string(n.leaf_values.size()) + " weights, want " +
              std::to_string(out.num_dims_));
          return 0;
        }
        const int32_t leaf = static_cast<int32_t>(out.leaf_values_.size() /
                                                  out.num_dims_);
        out.leaf_values_.insert(out.leaf_values_.end(), n.leaf_values.begin(),
                                n.leaf_values.end());
        return ~leaf;
      }
      // Internal: children must fit inside the node array and exist.
      if (static_cast<uint32_t>(RightChild(id)) >= tree.max_nodes()) {
        error = Status::Corruption(where + ": internal node " +
                                   std::to_string(id) +
                                   " has children beyond the node array");
        return 0;
      }
      if (!tree.Exists(LeftChild(id)) || !tree.Exists(RightChild(id))) {
        error = Status::Corruption(where + ": internal node " +
                                   std::to_string(id) + " has missing children");
        return 0;
      }
      if (n.feature == kInvalidFeature) {
        error = Status::Corruption(where + ": internal node " +
                                   std::to_string(id) +
                                   " splits on an invalid feature");
        return 0;
      }
      if (out.feature_.size() >= kMaxInternalNodes) {
        error = Status::Corruption("forest exceeds internal node capacity");
        return 0;
      }
      const int32_t idx = static_cast<int32_t>(out.feature_.size());
      out.feature_.push_back(n.feature);
      out.threshold_.push_back(n.split_value);
      out.default_left_.push_back(n.default_left ? 1 : 0);
      out.left_.push_back(0);
      out.right_.push_back(0);
      out.max_feature_ = std::max(out.max_feature_, n.feature);
      queue.emplace_back(id, idx);
      return idx;
    };

    out.roots_.push_back(classify(0));
    while (!queue.empty() && error.ok()) {
      const auto [id, idx] = queue.front();
      queue.pop_front();
      // Child heap ids are strictly larger and bounded by max_nodes, so the
      // walk terminates even on adversarial structures.
      const int32_t l = classify(LeftChild(id));
      const int32_t r = error.ok() ? classify(RightChild(id)) : 0;
      out.left_[idx] = l;
      out.right_[idx] = r;
    }
    if (!error.ok()) return error;
  }
  return out;
}

}  // namespace serve
}  // namespace vero
