#include "quadrants/qd2_trainer.h"

#include <cstring>
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
  const int rank = ctx_.rank();
  const uint32_t d = HistFeatureCount();
  const uint32_t q = options_.params.num_candidate_splits;
  // Doubles per feature in the flat histogram layout.
  const size_t per_feature = static_cast<size_t>(q) * dims_ * 2;

  // Feature-sliced reduce-scatter, realized as a personalized all-to-all:
  // worker g receives (and sums) the [fbegin(g), fend(g)) feature rows of
  // every frontier node's local histogram.
  std::vector<std::vector<uint8_t>> to_dest(w);
  for (int g = 0; g < w; ++g) {
    const size_t fb = ctx_.SliceBegin(d, g);
    const size_t fe = ctx_.SliceEnd(d, g);
    std::vector<uint8_t>& buf = to_dest[g];
    buf.resize(frontier.size() * (fe - fb) * per_feature * sizeof(double));
    uint8_t* out = buf.data();
    for (NodeId node : frontier) {
      const Histogram* hist = pool_.Get(node);
      VERO_CHECK(hist != nullptr);
      const double* src = hist->raw_data() + fb * per_feature;
      const size_t bytes = (fe - fb) * per_feature * sizeof(double);
      std::memcpy(out, src, bytes);
      out += bytes;
    }
  }
  // Pairwise audit evidence: what this rank handed to the transport for
  // every destination, captured before the buffers are moved into the
  // exchange.
  IntegrityAuditor::PairEvidence sent;
  if (auditor_.enabled()) sent = auditor_.PayloadEvidence(to_dest, codec_);
  std::vector<std::vector<uint8_t>> from_src;
  MitigationOutcome exchange_outcome;
  VERO_COMM_OK(ctx_.AllToAll(std::move(to_dest), &from_src,
                             {codec_, options_.mitigation},
                             &exchange_outcome));
  if (auditor_.enabled()) {
    // Matching receive-side evidence; pairs whose slice was deferred by
    // straggler mitigation carry the skip sentinel on the receive side.
    const IntegrityAuditor::PairEvidence recv =
        auditor_.PayloadEvidence(from_src, {}, exchange_outcome.contributed);
    auditor_.PushPairwise("qd2-hist-exchange", sent.digest, recv.digest,
                          /*exact=*/true);
    if (auditor_.full()) {
      auditor_.PushPairwise("qd2-hist-mass", sent.mass, recv.mass,
                            /*exact=*/false);
    }
  }

  const size_t my_fb = ctx_.SliceBegin(d, rank);
  const size_t my_fe = ctx_.SliceEnd(d, rank);
  const size_t my_features = my_fe - my_fb;
  const size_t doubles_per_node = my_features * per_feature;
  std::vector<double> agg(frontier.size() * doubles_per_node, 0.0);
  for (int src = 0; src < w; ++src) {
    // A deferred straggler's slice was dropped cluster-wide; its mass
    // re-enters the rebuilt histograms of the next layer.
    if (!exchange_outcome.contributed[src]) continue;
    VERO_CHECK_EQ(from_src[src].size(), agg.size() * sizeof(double));
    const double* in = reinterpret_cast<const double*>(from_src[src].data());
    for (size_t i = 0; i < agg.size(); ++i) agg[i] += in[i];
  }

  // Local best per node over the owned feature slice.
  std::vector<FeatureId> slice_ids(my_features);
  std::iota(slice_ids.begin(), slice_ids.end(),
            static_cast<FeatureId>(my_fb));
  std::vector<SplitCandidate> local_best(frontier.size());
  Histogram slice(static_cast<uint32_t>(my_features), q, dims_);
  for (size_t i = 0; i < frontier.size(); ++i) {
    std::memcpy(slice.raw_data(), agg.data() + i * doubles_per_node,
                doubles_per_node * sizeof(double));
    // The missing-value bucket needs the node totals minus the mass present
    // in this slice's feature bins; FindBest computes it per feature from
    // the full node stats, which works on any feature subset.
    local_best[i] = finder_.FindBest(slice, node_stats_[frontier[i]],
                                     slice_ids, splits_);
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
