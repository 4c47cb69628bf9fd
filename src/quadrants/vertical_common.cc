#include "quadrants/vertical_common.h"

#include "common/logging.h"
#include "common/serialize.h"

namespace vero {

VerticalTrainerBase::VerticalTrainerBase(WorkerContext& ctx,
                                         const DistTrainOptions& options,
                                         Task task, uint32_t num_classes,
                                         const VerticalShard& shard)
    : DistTrainerBase(ctx, options, task, num_classes, shard.splits,
                      shard.labels, shard.num_instances),
      shard_(shard) {
  local_id_of_.assign(shard.num_features, kInvalidFeature);
  for (size_t i = 0; i < shard.owned_features.size(); ++i) {
    local_id_of_[shard.owned_features[i]] = static_cast<uint32_t>(i);
  }
}

std::vector<SplitCandidate> VerticalTrainerBase::FindLayerSplits(
    const std::vector<NodeId>& frontier) {
  const std::vector<SplitCandidate> local = LocalBestSplits(frontier);
  if (options_.mitigation.enabled() || !MasterCoordinatesSplits()) {
    // Yggdrasil: all workers exchange local bests and resolve locally.
    // Mitigated Vero takes this path too: the master-coordinated exchange
    // has no useful bounded form (a master stalled on a straggler's gather
    // IS the bottleneck mitigation removes). A deferred rank's candidates
    // are skipped identically on every rank; since dropped candidates never
    // win, the winning split's feature owner is always a live participant
    // of the placement broadcast that follows.
    return AllGatherBestSplits(local);
  }
  // Vero: master gathers local bests, resolves, broadcasts the winners.
  const std::vector<uint8_t> mine = SerializeSplits(local);
  std::vector<std::vector<uint8_t>> gathered;
  VERO_COMM_OK(ctx_.Gather(mine, /*root=*/0, &gathered));
  if (auditor_.enabled()) {
    auditor_.PushGatherPairwise("vertical-gather", mine, gathered,
                                /*root=*/0);
  }
  std::vector<uint8_t> decision;
  if (ctx_.rank() == 0) {
    std::vector<SplitCandidate> best;
    for (const auto& buf : gathered) {
      MergeBestSplits(DeserializeSplits(buf), &best);
    }
    decision = SerializeSplits(best);
  }
  VERO_COMM_OK(ctx_.Broadcast(&decision, /*root=*/0));
  return DeserializeSplits(decision);
}

void VerticalTrainerBase::ApplyLayerSplits(
    const std::vector<NodeId>& nodes,
    const std::vector<SplitCandidate>& splits,
    std::vector<uint32_t>* child_counts) {
  const int w = ctx_.world_size();
  // The feature values of a split live on exactly one worker; it computes
  // the placement bitmap and broadcasts it (bit j = j-th instance in the
  // node's canonical order goes left). Broadcasts are batched per owner.
  std::vector<int> owner_of(nodes.size());
  std::vector<std::vector<uint8_t>> payload_by_owner(w);
  for (size_t i = 0; i < nodes.size(); ++i) {
    owner_of[i] = shard_.feature_owner[splits[i].feature];
  }
  for (int owner = 0; owner < w; ++owner) {
    bool any = false;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (owner_of[i] == owner) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    std::vector<uint8_t> payload;
    if (ctx_.rank() == owner) {
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (owner_of[i] != owner) continue;
        const uint32_t local_f = local_id_of_[splits[i].feature];
        VERO_CHECK_NE(local_f, kInvalidFeature);
        auto instances = partition_.Instances(nodes[i]);
        Bitmap go_left(instances.size());
        FillGoLeft(instances, local_f, splits[i], &go_left);
        go_left.SerializeTo(&payload);
      }
    }
    VERO_COMM_OK(ctx_.Broadcast(&payload, owner));
    payload_by_owner[owner] = std::move(payload);
  }

  // Apply the bitmaps in node order (every worker decodes the same bytes).
  std::vector<size_t> cursor(w, 0);
  child_counts->clear();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int owner = owner_of[i];
    const std::vector<uint8_t>& payload = payload_by_owner[owner];
    const size_t count = partition_.Count(nodes[i]);
    Bitmap go_left;
    VERO_CHECK(Bitmap::Deserialize(payload.data() + cursor[owner],
                                   payload.size() - cursor[owner], count,
                                   &go_left));
    cursor[owner] += go_left.SerializedBytes();
    partition_.Split(nodes[i], go_left);
    OnNodeSplit(nodes[i]);
    child_counts->push_back(partition_.Count(LeftChild(nodes[i])));
    child_counts->push_back(partition_.Count(RightChild(nodes[i])));
  }
}

}  // namespace vero
