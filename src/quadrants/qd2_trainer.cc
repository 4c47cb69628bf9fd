#include "quadrants/qd2_trainer.h"

#include <numeric>

#include "common/logging.h"

namespace vero {

Qd2Trainer::Qd2Trainer(WorkerContext& ctx, const DistTrainOptions& options,
                       const Dataset& shard, const CandidateSplits& splits,
                       uint32_t num_global_instances)
    : DistTrainerBase(ctx, options, shard.task(), shard.num_classes(),
                      splits, shard.labels(), num_global_instances),
      store_(BinnedRowStore::FromCsr(shard.matrix(), splits)) {
  all_features_.resize(shard.num_features());
  std::iota(all_features_.begin(), all_features_.end(), FeatureId{0});
  const size_t d = all_features_.size();
  slice_ids_.assign(all_features_.begin() + ctx_.SliceBegin(d, ctx_.rank()),
                    all_features_.begin() + ctx_.SliceEnd(d, ctx_.rank()));
}

uint64_t Qd2Trainer::DataBytes() const {
  return store_.MemoryBytes() + labels_.capacity() * sizeof(float);
}

uint32_t Qd2Trainer::HistFeatureCount() const {
  return static_cast<uint32_t>(all_features_.size());
}

void Qd2Trainer::BuildLayerHistograms(const std::vector<BuildTask>& tasks) {
  BuildRowLayer(store_, partition_, tasks, 0, HistFeatureCount(),
                HistFeatureCount());
}

std::vector<SplitCandidate> Qd2Trainer::FindLayerSplits(
    const std::vector<NodeId>& frontier) {
  const int w = ctx_.world_size();
  const uint32_t q = options_.params.num_candidate_splits;
  // Doubles per feature in the flat histogram layout.
  const size_t per_feature = static_cast<size_t>(q) * dims_ * 2;

  // Feature-sliced reduce-scatter: this rank sums its feature slice of
  // every frontier node's histogram straight out of every contributor's
  // pool, which stays untouched until the exchange returns.
  while (slice_sums_.size() < frontier.size()) {
    slice_sums_.emplace_back(static_cast<uint32_t>(slice_ids_.size()), q,
                             dims_);
  }
  std::vector<const double*> node_hists(frontier.size());
  std::vector<double*> slice_out(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    const Histogram* hist = pool_.Get(frontier[i]);
    VERO_CHECK(hist != nullptr);
    node_hists[i] = hist->raw_data();
    slice_out[i] = slice_sums_[i].raw_data();
  }
  // Pairwise audit evidence of what crossed each (sender, receiver) pair;
  // a contributor deferred by straggler mitigation has no receive side.
  IntegrityAuditor::PairEvidence sent(w), recv(w);
  const WorkerContext::SliceVisitor record =
      [&](bool outgoing, int peer, std::span<const double* const> parts,
          size_t len) {
        auditor_.RecordShare(outgoing ? &sent : &recv, peer, parts, len);
      };
  VERO_COMM_OK(ctx_.AllToAllSum(node_hists, HistFeatureCount(), per_feature,
                                slice_out, {codec_, options_.mitigation},
                                /*outcome=*/nullptr,
                                auditor_.enabled() ? &record : nullptr));
  if (auditor_.enabled()) {
    auditor_.PushPairwise("qd2-hist-exchange", sent.digest, recv.digest,
                          /*exact=*/true);
    if (auditor_.full()) {
      auditor_.PushPairwise("qd2-hist-mass", sent.mass, recv.mass,
                            /*exact=*/false);
    }
  }

  // Local best per node over the owned feature slice. The missing-value
  // bucket needs the node totals minus the mass present in this slice's
  // feature bins; FindBest computes it per feature from the full node
  // stats, which works on any feature subset.
  std::vector<SplitCandidate> local_best(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    local_best[i] = finder_.FindBest(slice_sums_[i], node_stats_[frontier[i]],
                                     slice_ids_, splits_);
  }
  return AllGatherBestSplits(local_best);
}

void Qd2Trainer::ApplyLayerSplits(const std::vector<NodeId>& nodes,
                                  const std::vector<SplitCandidate>& splits,
                                  std::vector<uint32_t>* child_counts) {
  // Each worker owns full rows, so placement is local (no broadcast).
  SplitRowStore(store_, nodes, splits, child_counts);
}

}  // namespace vero
