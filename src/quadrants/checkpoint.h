#ifndef VERO_QUADRANTS_CHECKPOINT_H_
#define VERO_QUADRANTS_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/tree.h"
#include "sketch/candidate_splits.h"

namespace vero {

namespace obs {
class Counter;
class HistogramMetric;
}  // namespace obs

/// Training state captured after a completed boosting round, sufficient to
/// resume on a (possibly smaller) cluster without redoing finished work:
/// the model prefix plus the candidate-split table the forest was binned
/// against. Margins are not stored — they are recomputed from the model,
/// which keeps checkpoints small (trees, not N x dims doubles).
///
/// Persisted as a framed record (common/framed_file.h): magic "VCKP",
/// version 1.
struct TrainCheckpoint {
  uint32_t trees_done = 0;
  GbdtModel model;
  /// Candidate-split table used to bin the forest so far. Reusing it on
  /// recovery skips the sketch pipeline (QD1/QD2) or transform steps 1-2
  /// (QD3/QD4) and keeps recovered trees consistent with the prefix.
  bool has_splits = false;
  CandidateSplits splits;
};

/// Serializes `checkpoint` into a framed, CRC-protected byte buffer.
std::vector<uint8_t> SerializeCheckpoint(const TrainCheckpoint& checkpoint);

/// Parses a buffer produced by SerializeCheckpoint. Returns kCorruption for
/// bad magic/version/CRC/framing, never crashes on malformed input.
Status DeserializeCheckpoint(const std::vector<uint8_t>& data,
                             TrainCheckpoint* out);

/// Reads and parses one checkpoint file (LoadLatestCheckpoint reads the
/// `latest.vckp` alias through it).
StatusOr<TrainCheckpoint> LoadCheckpoint(const std::string& path);

// ---------------------------------------------------------------------------
// Rotated checkpoint chain: manifest + background writer.
// ---------------------------------------------------------------------------

/// Delta chain entry payload: only the trees appended since `base_trees`,
/// with no split table (the chain's full ancestor carries it). A framed
/// record with magic "VCKD", so the loader tells it from a full checkpoint
/// by magic alone.
struct DeltaCheckpoint {
  uint32_t trees_done = 0;
  /// trees_done of the chain entry this delta extends; the full forest is
  /// that entry's reconstruction plus `trees`.
  uint32_t base_trees = 0;
  std::vector<Tree> trees;
};

std::vector<uint8_t> SerializeDeltaCheckpoint(const DeltaCheckpoint& delta);
Status DeserializeDeltaCheckpoint(const std::vector<uint8_t>& data,
                                  DeltaCheckpoint* out);

/// One chain entry, as CheckpointWriter submits it and as recovery parses
/// it back: a self-contained full checkpoint or a delta carrying only the
/// trees appended since the previous entry.
struct ChainSnapshot {
  bool is_delta = false;
  TrainCheckpoint full;   ///< Valid when !is_delta.
  DeltaCheckpoint delta;  ///< Valid when is_delta.
  uint32_t trees_done() const {
    return is_delta ? delta.trees_done : full.trees_done;
  }
};

/// Manifest entry kinds (`ManifestEntry::kind`).
inline constexpr uint8_t kManifestEntryFull = 0;
inline constexpr uint8_t kManifestEntryDelta = 1;

/// One committed checkpoint of the rotated chain, as recorded in the
/// manifest. `crc32` is the chain file's CRC-32 trailer (the CRC of every
/// byte before it), so the manifest names the file's content: a different
/// valid file of the same size, kind and tree count does not match it.
struct ManifestEntry {
  std::string file;  ///< Basename within the checkpoint dir.
  uint32_t trees_done = 0;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
  /// kManifestEntryFull for a self-contained checkpoint, kManifestEntryDelta
  /// for a delta that extends the previous chain entry.
  uint8_t kind = kManifestEntryFull;
  /// For delta entries: trees_done of the entry this delta builds on
  /// (always the immediately preceding manifest entry). 0 for full entries.
  uint32_t base_trees = 0;
  /// Set for entries read from a v1/v2 manifest, whose `crc32` is the CRC of
  /// the whole chain file, trailer included. Not written.
  bool whole_file_crc = false;
};

/// Index of the on-disk chain, oldest entry first. A framed record (magic
/// "VCKM", versions 1 to 3) committed via AtomicWriteFile, so a crash
/// mid-write leaves either the old or the new manifest, never a torn one.
struct CheckpointManifest {
  std::vector<ManifestEntry> entries;
};

std::vector<uint8_t> SerializeManifest(const CheckpointManifest& manifest);
Status DeserializeManifest(const std::vector<uint8_t>& data,
                           CheckpointManifest* out);

/// Atomic save (temp + rename) / load of the manifest file.
Status SaveManifest(const CheckpointManifest& manifest,
                    const std::string& path);
StatusOr<CheckpointManifest> LoadManifest(const std::string& path);

/// Name of the manifest file inside a checkpoint directory.
inline constexpr const char* kManifestFileName = "MANIFEST.vckm";

/// Recovers the newest restorable checkpoint from `dir`. Walks the manifest
/// newest-to-oldest, cross-checking each entry's size and CRC before
/// parsing; delta entries are reconstructed by walking their base chain
/// back to a full entry, and a damaged link fails the whole chain suffix
/// that depends on it (the walk then falls back to the next older entry).
/// On manifest damage (or when every listed entry is bad) falls back to
/// scanning the directory for chain files — linking parsed delta files to
/// their bases by tree count — and the latest.vckp alias. Returns kNotFound
/// when the directory holds no checkpoint files at all, kCorruption when
/// candidates exist but none survives validation. Never crashes on
/// malformed input.
StatusOr<TrainCheckpoint> LoadLatestCheckpoint(const std::string& dir);

/// Per-round checkpoint policy of a distributed run; CheckpointWriter
/// reads every field but `interval`.
struct CheckpointOptions {
  /// Checkpoint after every `interval` completed trees; 0 disables
  /// checkpointing (a failure then restarts training from scratch on the
  /// surviving workers).
  uint32_t interval = 0;
  /// Optional directory for on-disk checkpoints (empty keeps the latest
  /// checkpoint in memory only). Files are written as a rotated
  /// <dir>/ckpt-NNNNNN.vckp chain plus a <dir>/latest.vckp alias and a
  /// CRC-framed <dir>/MANIFEST.vckm index.
  std::string dir;
  /// Write checkpoints on a background thread: the round loop only snapshots
  /// the model (a copy), keeping serialization and file IO off the per-round
  /// critical path. Under backpressure intermediate snapshots are dropped
  /// (newest wins) — the durable state is always some completed round.
  bool async = false;
  /// On-disk rotation: keep the newest `keep_last_n` chain files, GC older
  /// ones (0 means keep everything). In delta mode the kept window extends
  /// back to the nearest full entry so a retained delta chain always keeps
  /// its anchor. In-memory state is always just latest.
  uint32_t keep_last_n = 3;
  /// Delta chains: each commit carries only the trees appended since the
  /// previous manifest entry (shrinking the submit copy and the bytes
  /// written), with every `full_every`-th commit a self-contained full
  /// checkpoint. The first commit, and any commit whose tree count did not
  /// advance past the previous submission (e.g. after a recovery resume),
  /// is always full. Reconstruction walks the chain; see
  /// docs/wire_formats.md.
  bool delta = false;
  /// Delta mode: cadence of forced full commits (1 = every commit full,
  /// 0 = only the automatic fulls described above).
  uint32_t full_every = 8;
};

/// Double-buffered checkpoint writer with rotation/GC.
///
/// Submit() captures a snapshot (model + split-table copy) of the state to
/// persist. In synchronous mode the serialization, chain-file write,
/// manifest commit, and GC all happen inline; in async mode Submit returns
/// after the copy and a background thread does the rest, keeping file IO off
/// the boosting round's critical path. Under backpressure (a new Submit
/// while the previous snapshot is still being written) the pending snapshot
/// is replaced — newest wins — so the writer never queues unboundedly and
/// the durable state is always some fully committed round.
///
/// Thread contract: Submit may be called from any single thread at a time
/// (rank 0 of the running attempt); Latest()/Flush() are safe from the
/// driver thread. Metric handles, when provided, are touched only while a
/// write commits, always by exactly one thread at a time.
class CheckpointWriter {
 public:
  /// Pre-resolved metric handles (all optional). The caller must guarantee
  /// the cells are not written by any other thread for the writer's
  /// lifetime.
  struct Metrics {
    obs::Counter* count = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* rotated_deleted = nullptr;
    obs::HistogramMetric* write_seconds = nullptr;
    /// Delta-mode commits (subset of `count`) and their bytes.
    obs::Counter* delta_count = nullptr;
    obs::Counter* delta_bytes = nullptr;
    /// Orphaned *.tmp files swept by the constructor's startup GC.
    obs::Counter* stale_tmp_deleted = nullptr;
  };

  CheckpointWriter(CheckpointOptions options, Metrics metrics);
  explicit CheckpointWriter(CheckpointOptions options)
      : CheckpointWriter(std::move(options), Metrics()) {}
  /// Drains pending work and joins the background thread.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Captures (model, splits) for persistence. `splits` may be null.
  void Submit(const GbdtModel& model, uint32_t trees_done,
              const CandidateSplits* splits);

  /// Blocks until every snapshot submitted so far is committed (visible via
  /// Latest() and, when a dir is set, durable on disk). No-op in sync mode.
  void Flush();

  /// Newest fully committed checkpoint, or nullopt if none yet.
  std::optional<TrainCheckpoint> Latest() const;

  /// First file-IO error encountered, OK otherwise. Write errors do not
  /// stop the writer; the in-memory Latest() keeps updating.
  Status write_status() const;

  const CheckpointOptions& options() const { return options_; }

 private:
  /// Sentinel for submit_base_trees_: no snapshot in the pipeline yet, the
  /// next submission must be full.
  static constexpr uint32_t kNoBase = 0xffffffffu;

  void WriterLoop();
  /// Serializes and commits one snapshot (chain file + manifest + alias +
  /// GC), then publishes it as Latest(). Runs inline (sync) or on the
  /// background thread (async).
  void CommitSnapshot(ChainSnapshot snapshot);
  void RecordError(Status status);
  /// Sweeps orphaned *.tmp siblings of our own file names left by a crash
  /// between write and rename (constructor only, before the worker starts).
  void SweepStaleTmpFiles();

  const CheckpointOptions options_;
  const Metrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<ChainSnapshot> pending_;
  bool writing_ = false;
  bool stop_ = false;
  std::optional<TrainCheckpoint> latest_;
  Status write_status_;

  /// Delta bookkeeping (touched only by the single submitting thread):
  /// trees_done of the newest snapshot handed to the pipeline (kNoBase
  /// before the first), and commits emitted since the last full one.
  uint32_t submit_base_trees_ = kNoBase;
  uint32_t submits_since_full_ = 0;

  /// Next chain-file index and the live manifest (writer-thread-owned once
  /// the background thread starts; inline-owned in sync mode).
  uint32_t next_index_ = 0;
  CheckpointManifest manifest_;

  std::thread worker_;
};

}  // namespace vero

#endif  // VERO_QUADRANTS_CHECKPOINT_H_
