#ifndef VERO_PARTITION_TRANSFORM_H_
#define VERO_PARTITION_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "cluster/communicator.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/binned.h"
#include "data/dataset.h"
#include "partition/column_grouping.h"
#include "sketch/candidate_splits.h"
#include "sketch/quantile_summary.h"

namespace vero {

/// Wire encoding used when repartitioning column groups (step 4 of §4.2.1).
/// The three variants reproduce Table 5's ablation.
enum class TransformEncoding {
  /// Original 12-byte key-value pairs (4-byte feature id + 8-byte double
  /// value), one framed message per instance row.
  kNaive,
  /// Feature ids re-encoded inside the destination group with ceil(log2 p)
  /// bytes and values replaced by ceil(log2 q)-byte histogram bin indexes;
  /// still one framed message per row.
  kCompressed,
  /// Compressed encoding, additionally blockified: one message per
  /// (source, destination) pair containing three flat arrays, eliminating
  /// the per-row object overhead (Figure 9).
  kBlockified,
};

const char* TransformEncodingToString(TransformEncoding e);

/// Options for the horizontal-to-vertical transformation.
struct TransformOptions {
  uint32_t num_candidate_splits = 20;
  uint32_t sketch_entries = 256;
  ColumnGroupingStrategy grouping = ColumnGroupingStrategy::kGreedyBalance;
  TransformEncoding encoding = TransformEncoding::kBlockified;
  /// Block-merge target after repartition (§4.2.3 reports < 5 in practice).
  size_t max_blocks = 5;
  /// Recovery path: a candidate-split table restored from a checkpoint.
  /// When set, HorizontalToVertical skips the sketch pipeline (steps 1-2)
  /// and bins against this table, so recovered trees stay consistent with
  /// the checkpointed forest. Not owned; must outlive the call.
  const CandidateSplits* precomputed_splits = nullptr;
};

/// Cost breakdown of one worker's transformation, mirroring Table 5.
struct TransformStats {
  /// Steps 1-2: sketch building, merging, split generation (CPU).
  double sketch_seconds = 0.0;
  /// Step 3: column grouping + encoding (CPU).
  double encode_seconds = 0.0;
  /// Step 4: decode of received groups (CPU).
  double decode_seconds = 0.0;
  /// Simulated network seconds across all transform steps.
  double sim_comm_seconds = 0.0;
  /// Simulated network seconds of the column-group repartition alone
  /// (step 4's all-to-all) — the quantity Table 5's encoding ablation
  /// varies.
  double repartition_sim_seconds = 0.0;
  /// Simulated network seconds of the label broadcast alone (step 5).
  double label_broadcast_sim_seconds = 0.0;
  /// Bytes this worker sent during the column-group repartition (step 4).
  uint64_t repartition_bytes_sent = 0;
};

/// A worker's dataset after vertical repartitioning: every instance, the
/// worker's feature subset, quantized, plus the global metadata every
/// worker shares.
struct VerticalShard {
  /// Candidate splits for ALL features (broadcast in step 2).
  CandidateSplits splits;
  /// Owning worker of each global feature.
  std::vector<int> feature_owner;
  /// Global ids of the features owned here, ascending; local feature id ==
  /// index into this vector.
  std::vector<FeatureId> owned_features;
  /// Row-stored blocks over (all instances) x (owned features), with local
  /// feature ids.
  BinnedRowStore data;
  /// All instance labels (broadcast in step 5).
  std::vector<float> labels;
  uint32_t num_instances = 0;
  /// Global feature count D.
  uint32_t num_features = 0;
  TransformStats stats;
};

/// Steps 1-2 of the transformation, shared with horizontal trainers: builds
/// every feature's quantile summary of the local shard in one grouped pass,
/// repartitions + merges them, proposes candidate splits, and leaves the
/// full CandidateSplits on every worker. `feature_counts` (optional)
/// receives the global nonzero count per feature (the load-balance signal
/// of §4.2.3). SPMD: call from every worker.
CandidateSplits BuildDistributedCandidateSplits(
    WorkerContext& ctx, const Dataset& shard, uint32_t q,
    uint32_t sketch_entries, std::vector<uint64_t>* feature_counts,
    double* sketch_seconds = nullptr);

/// Reads one record of a source's step-1b message (a u32 feature id and the
/// summary QuantileSummary::SerializeTo wrote; layout in
/// docs/wire_formats.md) into `feature` and `summary` (storage reused).
/// Returns Corruption naming the cause, and reads no byte outside the
/// reader's span, for a short id, an id >= num_features, not owned by
/// `rank` (f % world_size), or below `min_feature` (records ascend), and
/// for whatever QuantileSummary::Deserialize rejects.
Status ReadSketchRecord(ByteReader* reader, uint32_t num_features,
                        int world_size, int rank, uint32_t min_feature,
                        uint32_t* feature, QuantileSummary* summary);

/// Reads one record of rank `src`'s step-2a message (a u32 feature id, its
/// u64 value count and its u64-prefixed f32 splits), with ReadSketchRecord's
/// feature-id checks against `src`, and Corruption for a record that runs
/// past the message. The splits themselves are checked when the broadcast
/// table is read (CandidateSplits::Deserialize).
Status ReadSplitRecord(ByteReader* reader, uint32_t num_features,
                       int world_size, int src, uint32_t min_feature,
                       uint32_t* feature, uint64_t* count,
                       std::vector<float>* splits);

/// The full 5-step horizontal-to-vertical transformation (§4.2.1). Each
/// worker passes its horizontal shard (a contiguous row range, rank order)
/// and receives its vertical shard. SPMD: call from every worker.
VerticalShard HorizontalToVertical(WorkerContext& ctx, const Dataset& shard,
                                   const TransformOptions& options);

/// Decodes one source's blockified column-group message (the repartition
/// of step 4; byte layout in docs/wire_formats.md) of `rows` rows over
/// `num_features` local features, binned against a `num_candidate_splits`
/// table, into `block` (whose row_offset the caller sets). A block whose
/// every row holds all the features is returned dense. Returns Corruption
/// naming the cause, and reads no byte outside `message`, for a short
/// header, a row count or row-length count other than `rows`, a payload
/// length that disagrees with the row lengths or the message, a full row
/// whose ids are not 0..w-1, an id >= num_features, or a bin >=
/// num_candidate_splits.
Status DecodeBlockifiedGroup(const std::vector<uint8_t>& message,
                             uint32_t rows, uint32_t num_features,
                             uint32_t num_candidate_splits,
                             BinnedRowStore::Block* block);

/// Helper: the contiguous row range [begin, end) of `rank`'s horizontal
/// shard for an N-instance dataset over W workers.
std::pair<uint32_t, uint32_t> HorizontalRange(uint32_t num_instances,
                                              int world_size, int rank);

}  // namespace vero

#endif  // VERO_PARTITION_TRANSFORM_H_
