#include "quadrants/qd3_trainer.h"

#include "common/logging.h"

namespace vero {

Qd3Trainer::Qd3Trainer(WorkerContext& ctx, const DistTrainOptions& options,
                       Task task, uint32_t num_classes,
                       const VerticalShard& shard,
                       HistogramBuilder::ColumnScan scan)
    : VerticalTrainerBase(ctx, options, task, num_classes, shard),
      store_(BinnedColumnStore::FromRows(shard.data)),
      scan_(scan) {}

uint64_t Qd3Trainer::DataBytes() const {
  return store_.MemoryBytes() + labels_.capacity() * sizeof(float);
}

void Qd3Trainer::InitTreeIndexes() {
  DistTrainerBase::InitTreeIndexes();
  node_of_.Init(num_rows());
}

void Qd3Trainer::BuildLayerHistograms(const std::vector<BuildTask>& tasks) {
  const uint32_t q = options_.params.num_candidate_splits;
  const uint32_t num_local = HistFeatureCount();

  std::vector<NodeId> build_nodes;
  for (const BuildTask& task : tasks) {
    build_nodes.push_back(task.build_node);
  }
  std::vector<Histogram*> hists(
      (size_t{1} << options_.params.num_layers) - 1, nullptr);
  for (NodeId node : build_nodes) {
    hists[node] = pool_.Acquire(node, num_local, q, dims_);
  }

  // The builder picks per column between one linear scan (instance-to-node
  // index) and per-node binary searches (node-to-instance index) under
  // kAuto; the fixed plans force one or the other (§5.2.2).
  builder_.BuildColumnStoreLayer(store_, grads_, node_of_, partition_,
                                 build_nodes, hists, scan_);

  // Siblings come from subtraction against the retained parents.
  ApplySubtractions(tasks);
}

void Qd3Trainer::FillGoLeft(std::span<const InstanceId> instances,
                            uint32_t local_feature,
                            const SplitCandidate& split,
                            Bitmap* go_left) const {
  // Column-store lookup: a forward search of the feature's column by
  // instance id.
  store_.FillGoLeft(instances, local_feature, split.split_bin,
                    split.default_left, go_left);
}

void Qd3Trainer::OnNodeSplit(NodeId node) {
  // Keep the instance-to-node index in sync for linear column scans.
  for (NodeId child : {LeftChild(node), RightChild(node)}) {
    for (InstanceId i : partition_.Instances(child)) {
      node_of_.Set(i, child);
    }
  }
}

}  // namespace vero
