#include "quadrants/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/framed_file.h"
#include "obs/metrics.h"

namespace vero {
namespace {

constexpr uint32_t kCheckpointMagic = 0x56434b50u;   // "VCKP"
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kDeltaMagic = 0x56434b44u;        // "VCKD"
constexpr uint32_t kDeltaVersion = 1;
constexpr uint32_t kManifestMagic = 0x56434b4du;     // "VCKM"
// v2 added per-entry kind + base_trees for delta chains; v3 stores each chain
// file's CRC trailer instead of a CRC over the whole file (which, trailer
// included, is the same residue for every intact file). v1 manifests (all
// entries implicitly full) and v2 manifests are still accepted on read.
constexpr uint32_t kManifestVersion = 3;

// A framed record's CRC-32 trailer: the CRC of every byte before it.
// Requires at least 4 bytes.
uint32_t FrameTrailer(const std::vector<uint8_t>& data) {
  uint32_t trailer = 0;
  std::memcpy(&trailer, data.data() + data.size() - sizeof(trailer),
              sizeof(trailer));
  return trailer;
}

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(const TrainCheckpoint& checkpoint) {
  return WriteFrame(kCheckpointMagic, kCheckpointVersion, [&](ByteWriter* w) {
    w->WriteU32(checkpoint.trees_done);
    w->WriteU8(checkpoint.has_splits ? 1 : 0);
    checkpoint.model.SerializeTo(w);
    if (checkpoint.has_splits) checkpoint.splits.SerializeTo(w);
  });
}

Status DeserializeCheckpoint(const std::vector<uint8_t>& data,
                             TrainCheckpoint* out) {
  TrainCheckpoint checkpoint;
  VERO_RETURN_IF_ERROR(ReadFrame(
      data, kCheckpointMagic, {kCheckpointVersion}, "checkpoint",
      [&checkpoint](ByteReader* r, uint32_t) -> Status {
        VERO_RETURN_IF_ERROR(r->ReadU32(&checkpoint.trees_done));
        uint8_t has_splits = 0;
        VERO_RETURN_IF_ERROR(r->ReadU8(&has_splits));
        if (has_splits > 1) {
          return Status::Corruption("bad has_splits flag in checkpoint");
        }
        checkpoint.has_splits = has_splits != 0;
        VERO_RETURN_IF_ERROR(GbdtModel::Deserialize(r, &checkpoint.model));
        return checkpoint.has_splits
                   ? CandidateSplits::Deserialize(r, &checkpoint.splits)
                   : Status::OK();
      }));
  *out = std::move(checkpoint);
  return Status::OK();
}

std::vector<uint8_t> SerializeDeltaCheckpoint(const DeltaCheckpoint& delta) {
  return WriteFrame(kDeltaMagic, kDeltaVersion, [&](ByteWriter* w) {
    w->WriteU32(delta.trees_done);
    w->WriteU32(delta.base_trees);
    w->WriteU32(static_cast<uint32_t>(delta.trees.size()));
    for (const Tree& tree : delta.trees) tree.SerializeTo(w);
  });
}

Status DeserializeDeltaCheckpoint(const std::vector<uint8_t>& data,
                                  DeltaCheckpoint* out) {
  DeltaCheckpoint delta;
  VERO_RETURN_IF_ERROR(ReadFrame(
      data, kDeltaMagic, {kDeltaVersion}, "delta checkpoint",
      [&delta](ByteReader* r, uint32_t) -> Status {
        uint32_t count = 0;
        VERO_RETURN_IF_ERROR(r->ReadU32(&delta.trees_done));
        VERO_RETURN_IF_ERROR(r->ReadU32(&delta.base_trees));
        VERO_RETURN_IF_ERROR(r->ReadU32(&count));
        if (delta.base_trees >= delta.trees_done ||
            count != delta.trees_done - delta.base_trees) {
          return Status::Corruption("inconsistent delta tree counts");
        }
        delta.trees.reserve(std::min<uint32_t>(count, 1024));
        for (uint32_t i = 0; i < count; ++i) {
          Tree tree;
          VERO_RETURN_IF_ERROR(Tree::Deserialize(r, &tree));
          delta.trees.push_back(std::move(tree));
        }
        return Status::OK();
      }));
  *out = std::move(delta);
  return Status::OK();
}

StatusOr<TrainCheckpoint> LoadCheckpoint(const std::string& path) {
  std::vector<uint8_t> data;
  VERO_RETURN_IF_ERROR(ReadFileBytes(path, &data));
  TrainCheckpoint checkpoint;
  VERO_RETURN_IF_ERROR(DeserializeCheckpoint(data, &checkpoint));
  return checkpoint;
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

namespace {

std::string ChainFileName(uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06u.vckp", index);
  return buf;
}

/// Parses the NNNNNN out of "ckpt-NNNNNN.vckp"; -1 for anything else.
int64_t ChainFileIndex(const std::string& name) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".vckp";
  if (name.size() != 16) return -1;
  if (name.compare(0, 5, kPrefix) != 0) return -1;
  if (name.compare(11, 5, kSuffix) != 0) return -1;
  int64_t index = 0;
  for (int i = 5; i < 11; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    index = index * 10 + (name[i] - '0');
  }
  return index;
}

}  // namespace

std::vector<uint8_t> SerializeManifest(const CheckpointManifest& manifest) {
  return WriteFrame(kManifestMagic, kManifestVersion, [&](ByteWriter* w) {
    w->WriteU32(static_cast<uint32_t>(manifest.entries.size()));
    for (const ManifestEntry& e : manifest.entries) {
      w->WriteString(e.file);
      w->WriteU32(e.trees_done);
      w->WriteU64(e.bytes);
      w->WriteU32(e.crc32);
      w->WriteU8(e.kind);
      w->WriteU32(e.base_trees);
    }
  });
}

Status DeserializeManifest(const std::vector<uint8_t>& data,
                           CheckpointManifest* out) {
  CheckpointManifest manifest;
  VERO_RETURN_IF_ERROR(ReadFrame(
      data, kManifestMagic, {1, 2, kManifestVersion}, "manifest",
      [&manifest](ByteReader* r, uint32_t version) -> Status {
        uint32_t count = 0;
        VERO_RETURN_IF_ERROR(r->ReadU32(&count));
        manifest.entries.reserve(std::min<uint32_t>(count, 1024));
        for (uint32_t i = 0; i < count; ++i) {
          ManifestEntry e;
          VERO_RETURN_IF_ERROR(r->ReadString(&e.file));
          VERO_RETURN_IF_ERROR(r->ReadU32(&e.trees_done));
          VERO_RETURN_IF_ERROR(r->ReadU64(&e.bytes));
          VERO_RETURN_IF_ERROR(r->ReadU32(&e.crc32));
          e.whole_file_crc = version < 3;
          // v1 entries are implicitly full (kind/base default-initialized).
          if (version >= 2) {
            VERO_RETURN_IF_ERROR(r->ReadU8(&e.kind));
            VERO_RETURN_IF_ERROR(r->ReadU32(&e.base_trees));
            if (e.kind > kManifestEntryDelta) {
              return Status::Corruption("bad manifest entry kind");
            }
            if (e.kind == kManifestEntryDelta &&
                e.base_trees >= e.trees_done) {
              return Status::Corruption("bad manifest delta base");
            }
          }
          manifest.entries.push_back(std::move(e));
        }
        return Status::OK();
      }));
  *out = std::move(manifest);
  return Status::OK();
}

Status SaveManifest(const CheckpointManifest& manifest,
                    const std::string& path) {
  return AtomicWriteFile(path, SerializeManifest(manifest));
}

StatusOr<CheckpointManifest> LoadManifest(const std::string& path) {
  std::vector<uint8_t> data;
  VERO_RETURN_IF_ERROR(ReadFileBytes(path, &data));
  CheckpointManifest manifest;
  VERO_RETURN_IF_ERROR(DeserializeManifest(data, &manifest));
  return manifest;
}

namespace {

/// Resolves entry `idx` of a parsed chain (newest last) to a full
/// checkpoint, recursively restoring a delta's base: the nearest earlier
/// entry whose tree count matches. Damaged or missing links fail the
/// resolution (the caller then falls back to an older entry).
bool ResolveParsedEntry(const std::vector<ChainSnapshot>& chain, size_t idx,
                        TrainCheckpoint* out) {
  const ChainSnapshot& entry = chain[idx];
  if (!entry.is_delta) {
    *out = entry.full;
    return true;
  }
  for (size_t j = idx; j-- > 0;) {
    if (chain[j].trees_done() != entry.delta.base_trees) continue;
    TrainCheckpoint base;
    if (!ResolveParsedEntry(chain, j, &base)) continue;
    for (const Tree& tree : entry.delta.trees) {
      base.model.AddTree(tree);
    }
    base.trees_done = entry.delta.trees_done;
    *out = std::move(base);
    return true;
  }
  return false;
}

/// Whether chain file `data` carries the CRC its manifest entry records: the
/// file's trailer for v3 entries (parsing then checks the trailer against
/// the content), the CRC of the whole file for v1/v2 entries.
bool MatchesEntryCrc(const std::vector<uint8_t>& data, const ManifestEntry& e) {
  if (e.whole_file_crc) return Crc32(data.data(), data.size()) == e.crc32;
  return data.size() >= sizeof(uint32_t) && FrameTrailer(data) == e.crc32;
}

/// Reads chain file `e.file` of `dir` into `out`. A file the manifest lists
/// (`listed`) must also match its entry's size and CRC (checked before
/// parsing), kind and tree count.
bool ReadChainFile(const std::string& dir, const ManifestEntry& e, bool listed,
                   ChainSnapshot* out) {
  std::vector<uint8_t> data;
  if (!ReadFileBytes(dir + "/" + e.file, &data).ok()) return false;
  if (listed && (data.size() != e.bytes || !MatchesEntryCrc(data, e))) {
    return false;
  }
  // Parsed by magic: a full checkpoint or a delta that still needs its base.
  uint32_t magic = 0;
  if (data.size() >= sizeof(magic)) {
    std::memcpy(&magic, data.data(), sizeof(magic));
  }
  out->is_delta = magic == kDeltaMagic;
  const Status parsed = out->is_delta
                            ? DeserializeDeltaCheckpoint(data, &out->delta)
                            : DeserializeCheckpoint(data, &out->full);
  if (!parsed.ok()) return false;
  return !listed || (out->is_delta == (e.kind == kManifestEntryDelta) &&
                     out->trees_done() == e.trees_done);
}

/// Reads the chain `files` (oldest first) and restores the newest entry
/// whose delta chain resolves. Bad files drop out as holes; delta bases are
/// matched by tree count, so survivors still link up when their base
/// survived.
std::optional<TrainCheckpoint> RestoreNewest(
    const std::string& dir, const std::vector<ManifestEntry>& files,
    bool listed) {
  std::vector<ChainSnapshot> chain;
  for (const ManifestEntry& e : files) {
    ChainSnapshot file;
    if (ReadChainFile(dir, e, listed, &file)) chain.push_back(std::move(file));
  }
  for (size_t i = chain.size(); i-- > 0;) {
    TrainCheckpoint restored;
    if (ResolveParsedEntry(chain, i, &restored)) return restored;
  }
  return std::nullopt;
}

/// Every ckpt-NNNNNN.vckp in `dir` (only `file` set), oldest first: the
/// fixed-width index sorts by name.
std::vector<ManifestEntry> ScanChainFiles(const std::string& dir) {
  std::vector<ManifestEntry> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && ChainFileIndex(name) >= 0) {
      files.push_back({std::move(name)});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.file < b.file;
            });
  return files;
}

}  // namespace

StatusOr<TrainCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  // The manifest's entries first; if it is damaged or missing, or none of
  // its entries restores, the chain files a directory scan finds.
  StatusOr<CheckpointManifest> manifest =
      LoadManifest(dir + "/" + kManifestFileName);
  bool had_candidate = manifest.ok() && !manifest.value().entries.empty();
  std::optional<TrainCheckpoint> restored;
  if (manifest.ok()) {
    restored = RestoreNewest(dir, manifest.value().entries, /*listed=*/true);
  }
  if (!restored) {
    const std::vector<ManifestEntry> scanned = ScanChainFiles(dir);
    had_candidate |= !scanned.empty();
    restored = RestoreNewest(dir, scanned, /*listed=*/false);
  }
  if (restored) return *std::move(restored);
  const std::string alias = dir + "/latest.vckp";
  std::error_code ec;
  if (std::filesystem::exists(alias, ec)) {
    had_candidate = true;
    StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(alias);
    if (loaded.ok()) return std::move(loaded).value();
  }

  if (had_candidate) {
    return Status::Corruption("no valid checkpoint survives in " + dir);
  }
  return Status::NotFound("no checkpoint files in " + dir);
}

// ---------------------------------------------------------------------------
// CheckpointWriter.
// ---------------------------------------------------------------------------

CheckpointWriter::CheckpointWriter(CheckpointOptions options, Metrics metrics)
    : options_(std::move(options)), metrics_(metrics) {
  if (!options_.dir.empty()) {
    SweepStaleTmpFiles();
    // Adopt a pre-existing chain so rotation/GC and numbering continue
    // rather than clobbering files from an earlier incarnation.
    StatusOr<CheckpointManifest> existing =
        LoadManifest(options_.dir + "/" + kManifestFileName);
    if (existing.ok()) {
      manifest_ = std::move(existing).value();
      for (const ManifestEntry& e : manifest_.entries) {
        const int64_t index = ChainFileIndex(e.file);
        if (index >= 0 && index + 1 > next_index_) {
          next_index_ = static_cast<uint32_t>(index + 1);
        }
      }
    }
  }
  if (options_.async) {
    worker_ = std::thread([this] { WriterLoop(); });
  }
}

void CheckpointWriter::SweepStaleTmpFiles() {
  // A crash between AtomicWriteFile's write and rename strands a *.tmp
  // sibling. Only files matching our own naming patterns are touched; other
  // tenants of the directory are left alone.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(kAtomicWriteTmpSuffix)) continue;
    const std::string stem =
        name.substr(0, name.size() - std::strlen(kAtomicWriteTmpSuffix));
    if (ChainFileIndex(stem) < 0 && stem != "latest.vckp" &&
        stem != kManifestFileName) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec) &&
        metrics_.stale_tmp_deleted != nullptr) {
      metrics_.stale_tmp_deleted->Increment();
    }
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
}

void CheckpointWriter::Submit(const GbdtModel& model, uint32_t trees_done,
                              const CandidateSplits* splits) {
  ChainSnapshot snapshot;
  // A delta is possible when a base is in the pipeline, the tree count
  // advanced past it, and the model's tree vector indexes rounds directly
  // (one tree per round; anything else forces a safe full snapshot).
  const bool can_delta =
      options_.delta && submit_base_trees_ != kNoBase &&
      trees_done > submit_base_trees_ &&
      static_cast<uint32_t>(model.num_trees()) == trees_done &&
      (options_.full_every == 0 ||
       submits_since_full_ + 1 < options_.full_every);
  if (can_delta) {
    snapshot.is_delta = true;
    snapshot.delta.trees_done = trees_done;
    snapshot.delta.base_trees = submit_base_trees_;
    snapshot.delta.trees.reserve(trees_done - submit_base_trees_);
    for (uint32_t t = submit_base_trees_; t < trees_done; ++t) {
      snapshot.delta.trees.push_back(model.tree(t));
    }
    ++submits_since_full_;
  } else {
    snapshot.is_delta = false;
    snapshot.full.trees_done = trees_done;
    snapshot.full.model = model;
    if (splits != nullptr) {
      snapshot.full.has_splits = true;
      snapshot.full.splits = *splits;
    }
    submits_since_full_ = 0;
  }
  submit_base_trees_ = trees_done;
  if (!options_.async) {
    CommitSnapshot(std::move(snapshot));
    return;
  }
  {
    // Double buffer: the slot holds at most one snapshot; a newer Submit
    // while the writer is busy replaces it (newest wins). A dropped
    // snapshot never commits, so a delta replacing it must absorb the
    // dropped trees — its base stays the last snapshot that WILL commit.
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.has_value() && snapshot.is_delta) {
      if (pending_->is_delta) {
        // delta(bp -> tp) + delta(tp -> tn) = delta(bp -> tn); the merged
        // entry commits once, so the full cadence counter backs up by one.
        pending_->delta.trees.insert(
            pending_->delta.trees.end(),
            std::make_move_iterator(snapshot.delta.trees.begin()),
            std::make_move_iterator(snapshot.delta.trees.end()));
        pending_->delta.trees_done = snapshot.delta.trees_done;
        snapshot = std::move(*pending_);
        if (submits_since_full_ > 0) --submits_since_full_;
      } else {
        // full(tp) + delta(tp -> tn): extend the dropped full in place; the
        // commit stays self-contained.
        for (Tree& tree : snapshot.delta.trees) {
          pending_->full.model.AddTree(std::move(tree));
        }
        pending_->full.trees_done = snapshot.delta.trees_done;
        snapshot = std::move(*pending_);
        submits_since_full_ = 0;
      }
    }
    pending_ = std::move(snapshot);
  }
  cv_.notify_all();
}

void CheckpointWriter::Flush() {
  if (!options_.async) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !pending_.has_value() && !writing_; });
}

std::optional<TrainCheckpoint> CheckpointWriter::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

Status CheckpointWriter::write_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_status_;
}

void CheckpointWriter::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (write_status_.ok()) write_status_ = std::move(status);
}

void CheckpointWriter::WriterLoop() {
  for (;;) {
    ChainSnapshot snapshot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return pending_.has_value() || stop_; });
      if (!pending_.has_value()) break;  // stop_ set and slot drained
      snapshot = std::move(*pending_);
      pending_.reset();
      writing_ = true;
    }
    CommitSnapshot(std::move(snapshot));
    {
      std::lock_guard<std::mutex> lock(mu_);
      writing_ = false;
    }
    cv_.notify_all();
  }
}

void CheckpointWriter::CommitSnapshot(ChainSnapshot snapshot) {
  const auto wall_begin = std::chrono::steady_clock::now();
  const std::vector<uint8_t> data =
      snapshot.is_delta ? SerializeDeltaCheckpoint(snapshot.delta)
                        : SerializeCheckpoint(snapshot.full);
  if (!options_.dir.empty()) {
    const std::string name = ChainFileName(next_index_++);
    Status s = AtomicWriteFile(options_.dir + "/" + name, data);
    if (s.ok()) {
      // Refresh the alias the simple single-file loader looks for; it is
      // always byte-equal to the newest chain file (so in delta mode it may
      // itself be a delta that needs the chain to reconstruct).
      s = AtomicWriteFile(options_.dir + "/latest.vckp", data);
    }
    if (s.ok()) {
      ManifestEntry entry;
      entry.file = name;
      entry.trees_done = snapshot.trees_done();
      entry.bytes = data.size();
      entry.crc32 = FrameTrailer(data);
      entry.kind =
          snapshot.is_delta ? kManifestEntryDelta : kManifestEntryFull;
      entry.base_trees = snapshot.is_delta ? snapshot.delta.base_trees : 0;
      manifest_.entries.push_back(std::move(entry));
      // GC: drop chain files beyond keep_last_n (manifest order is oldest
      // first), but never orphan a retained delta chain — the kept suffix
      // must start at a full entry, so the drop point backs up to the
      // nearest full at or before it. The manifest commits after the
      // deletes, so a crash between them only leaves unreferenced files,
      // never dangling entries.
      if (options_.keep_last_n > 0 &&
          manifest_.entries.size() > options_.keep_last_n) {
        size_t drop = manifest_.entries.size() - options_.keep_last_n;
        while (drop > 0 &&
               manifest_.entries[drop].kind != kManifestEntryFull) {
          --drop;
        }
        for (size_t i = 0; i < drop; ++i) {
          std::error_code ec;
          std::filesystem::remove(
              options_.dir + "/" + manifest_.entries[i].file, ec);
          if (metrics_.rotated_deleted != nullptr) {
            metrics_.rotated_deleted->Increment();
          }
        }
        manifest_.entries.erase(manifest_.entries.begin(),
                                manifest_.entries.begin() +
                                    static_cast<ptrdiff_t>(drop));
      }
      s = SaveManifest(manifest_, options_.dir + "/" + kManifestFileName);
    }
    if (!s.ok()) RecordError(std::move(s));
  }
  if (metrics_.count != nullptr) metrics_.count->Increment();
  if (metrics_.bytes != nullptr) metrics_.bytes->Add(data.size());
  if (snapshot.is_delta) {
    if (metrics_.delta_count != nullptr) metrics_.delta_count->Increment();
    if (metrics_.delta_bytes != nullptr) {
      metrics_.delta_bytes->Add(data.size());
    }
  }
  if (metrics_.write_seconds != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - wall_begin;
    metrics_.write_seconds->Observe(elapsed.count());
  }
  // Publish: the in-memory latest is always a FULL checkpoint. A delta
  // commit extends the previous latest, whose tree count matches the
  // delta's base by construction (commits pop in submit order).
  bool base_matches = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!snapshot.is_delta) {
      latest_ = std::move(snapshot.full);
    } else if (latest_.has_value() &&
               latest_->trees_done == snapshot.delta.base_trees) {
      for (Tree& tree : snapshot.delta.trees) {
        latest_->model.AddTree(std::move(tree));
      }
      latest_->trees_done = snapshot.delta.trees_done;
    } else {
      base_matches = false;
    }
  }
  if (!base_matches) {
    RecordError(Status::Internal("delta checkpoint base out of sync"));
  }
}

}  // namespace vero

