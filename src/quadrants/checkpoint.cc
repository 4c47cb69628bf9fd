#include "quadrants/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/serialize.h"
#include "obs/metrics.h"

namespace vero {
namespace {

constexpr uint32_t kCheckpointMagic = 0x56434b50u;   // "VCKP"
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kDeltaMagic = 0x56434b44u;        // "VCKD"
constexpr uint32_t kDeltaVersion = 1;
constexpr uint32_t kManifestMagic = 0x56434b4du;     // "VCKM"
// v2 added per-entry kind + base_trees for delta chains; v1 manifests (all
// entries implicitly full) are still accepted on read.
constexpr uint32_t kManifestVersion = 2;

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(const TrainCheckpoint& checkpoint) {
  ByteWriter writer;
  writer.WriteU32(kCheckpointMagic);
  writer.WriteU32(kCheckpointVersion);
  writer.WriteU32(checkpoint.trees_done);
  writer.WriteU8(checkpoint.has_splits ? 1 : 0);
  checkpoint.model.SerializeTo(&writer);
  if (checkpoint.has_splits) checkpoint.splits.SerializeTo(&writer);
  writer.WriteU32(Crc32(writer.data().data(), writer.size()));
  return writer.TakeData();
}

Status DeserializeCheckpoint(const std::vector<uint8_t>& data,
                             TrainCheckpoint* out) {
  if (data.size() < 4 * sizeof(uint32_t) + 1) {
    return Status::Corruption("checkpoint buffer too short");
  }
  const size_t payload_end = data.size() - sizeof(uint32_t);
  {
    ByteReader trailer(data.data() + payload_end, sizeof(uint32_t));
    uint32_t stored_crc = 0;
    VERO_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
    if (Crc32(data.data(), payload_end) != stored_crc) {
      return Status::Corruption("checkpoint CRC mismatch");
    }
  }
  ByteReader reader(data.data(), payload_end);
  uint32_t magic = 0, version = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  VERO_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  TrainCheckpoint checkpoint;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&checkpoint.trees_done));
  uint8_t has_splits = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU8(&has_splits));
  if (has_splits > 1) {
    return Status::Corruption("bad has_splits flag in checkpoint");
  }
  checkpoint.has_splits = has_splits != 0;
  Status s = GbdtModel::Deserialize(&reader, &checkpoint.model);
  if (!s.ok()) {
    return s.code() == StatusCode::kOutOfRange
               ? Status::Corruption("truncated checkpoint model")
               : s;
  }
  if (checkpoint.has_splits) {
    s = CandidateSplits::Deserialize(&reader, &checkpoint.splits);
    if (!s.ok()) {
      return s.code() == StatusCode::kOutOfRange
                 ? Status::Corruption("truncated checkpoint splits")
                 : s;
    }
  }
  if (reader.position() != payload_end) {
    return Status::Corruption("trailing bytes in checkpoint");
  }
  *out = std::move(checkpoint);
  return Status::OK();
}

std::vector<uint8_t> SerializeDeltaCheckpoint(const DeltaCheckpoint& delta) {
  ByteWriter writer;
  writer.WriteU32(kDeltaMagic);
  writer.WriteU32(kDeltaVersion);
  writer.WriteU32(delta.trees_done);
  writer.WriteU32(delta.base_trees);
  writer.WriteU32(static_cast<uint32_t>(delta.trees.size()));
  for (const Tree& tree : delta.trees) tree.SerializeTo(&writer);
  writer.WriteU32(Crc32(writer.data().data(), writer.size()));
  return writer.TakeData();
}

Status DeserializeDeltaCheckpoint(const std::vector<uint8_t>& data,
                                  DeltaCheckpoint* out) {
  if (data.size() < 6 * sizeof(uint32_t)) {
    return Status::Corruption("delta checkpoint buffer too short");
  }
  const size_t payload_end = data.size() - sizeof(uint32_t);
  {
    ByteReader trailer(data.data() + payload_end, sizeof(uint32_t));
    uint32_t stored_crc = 0;
    VERO_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
    if (Crc32(data.data(), payload_end) != stored_crc) {
      return Status::Corruption("delta checkpoint CRC mismatch");
    }
  }
  ByteReader reader(data.data(), payload_end);
  uint32_t magic = 0, version = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kDeltaMagic) {
    return Status::Corruption("bad delta checkpoint magic");
  }
  VERO_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kDeltaVersion) {
    return Status::Corruption("unsupported delta checkpoint version");
  }
  DeltaCheckpoint delta;
  uint32_t count = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&delta.trees_done));
  VERO_RETURN_IF_ERROR(reader.ReadU32(&delta.base_trees));
  VERO_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (delta.base_trees >= delta.trees_done ||
      count != delta.trees_done - delta.base_trees) {
    return Status::Corruption("inconsistent delta checkpoint tree counts");
  }
  delta.trees.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    Tree tree;
    Status s = Tree::Deserialize(&reader, &tree);
    if (!s.ok()) {
      return s.code() == StatusCode::kOutOfRange
                 ? Status::Corruption("truncated delta checkpoint tree")
                 : s;
    }
    delta.trees.push_back(std::move(tree));
  }
  if (reader.position() != payload_end) {
    return Status::Corruption("trailing bytes in delta checkpoint");
  }
  *out = std::move(delta);
  return Status::OK();
}

StatusOr<TrainCheckpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  std::vector<uint8_t> data(content.begin(), content.end());
  TrainCheckpoint checkpoint;
  VERO_RETURN_IF_ERROR(DeserializeCheckpoint(data, &checkpoint));
  return checkpoint;
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

namespace {

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  out->assign(content.begin(), content.end());
  return Status::OK();
}

/// Write-to-temp + atomic rename; a crash mid-write leaves the destination
/// untouched (or a stray .tmp sibling that later commits simply overwrite).
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out.good()) return Status::IOError("write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

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
  ByteWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kManifestVersion);
  writer.WriteU32(static_cast<uint32_t>(manifest.entries.size()));
  for (const ManifestEntry& e : manifest.entries) {
    writer.WriteString(e.file);
    writer.WriteU32(e.trees_done);
    writer.WriteU64(e.bytes);
    writer.WriteU32(e.crc32);
    writer.WriteU8(e.kind);
    writer.WriteU32(e.base_trees);
  }
  writer.WriteU32(Crc32(writer.data().data(), writer.size()));
  return writer.TakeData();
}

Status DeserializeManifest(const std::vector<uint8_t>& data,
                           CheckpointManifest* out) {
  if (data.size() < 4 * sizeof(uint32_t)) {
    return Status::Corruption("manifest buffer too short");
  }
  const size_t payload_end = data.size() - sizeof(uint32_t);
  {
    ByteReader trailer(data.data() + payload_end, sizeof(uint32_t));
    uint32_t stored_crc = 0;
    VERO_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
    if (Crc32(data.data(), payload_end) != stored_crc) {
      return Status::Corruption("manifest CRC mismatch");
    }
  }
  ByteReader reader(data.data(), payload_end);
  uint32_t magic = 0, version = 0, count = 0;
  VERO_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kManifestMagic) return Status::Corruption("bad manifest magic");
  VERO_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != 1 && version != kManifestVersion) {
    return Status::Corruption("unsupported manifest version");
  }
  VERO_RETURN_IF_ERROR(reader.ReadU32(&count));
  CheckpointManifest manifest;
  manifest.entries.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    ManifestEntry e;
    Status s = reader.ReadString(&e.file);
    if (s.ok()) s = reader.ReadU32(&e.trees_done);
    if (s.ok()) s = reader.ReadU64(&e.bytes);
    if (s.ok()) s = reader.ReadU32(&e.crc32);
    if (version >= 2) {
      // v1 entries are implicitly full (kind/base default-initialized).
      if (s.ok()) s = reader.ReadU8(&e.kind);
      if (s.ok()) s = reader.ReadU32(&e.base_trees);
      if (s.ok() && e.kind > kManifestEntryDelta) {
        return Status::Corruption("bad manifest entry kind");
      }
      if (s.ok() && e.kind == kManifestEntryDelta &&
          e.base_trees >= e.trees_done) {
        return Status::Corruption("bad manifest delta base");
      }
    }
    if (!s.ok()) {
      return s.code() == StatusCode::kOutOfRange
                 ? Status::Corruption("truncated manifest entry")
                 : s;
    }
    manifest.entries.push_back(std::move(e));
  }
  if (reader.position() != payload_end) {
    return Status::Corruption("trailing bytes in manifest");
  }
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

/// A chain file parsed by magic: either a self-contained full checkpoint or
/// a delta entry that still needs its base.
struct ParsedChainFile {
  bool is_delta = false;
  TrainCheckpoint full;
  DeltaCheckpoint delta;
  uint32_t trees_done() const {
    return is_delta ? delta.trees_done : full.trees_done;
  }
};

Status ParseChainBytes(const std::vector<uint8_t>& data,
                       ParsedChainFile* out) {
  if (DeserializeCheckpoint(data, &out->full).ok()) {
    out->is_delta = false;
    return Status::OK();
  }
  if (DeserializeDeltaCheckpoint(data, &out->delta).ok()) {
    out->is_delta = true;
    return Status::OK();
  }
  return Status::Corruption("unparseable chain file");
}

/// Resolves entry `idx` of a parsed chain (newest last) to a full
/// checkpoint, recursively restoring a delta's base: the nearest earlier
/// entry whose tree count matches. Damaged or missing links fail the
/// resolution (the caller then falls back to an older entry).
bool ResolveParsedEntry(const std::vector<ParsedChainFile>& chain, size_t idx,
                        TrainCheckpoint* out) {
  const ParsedChainFile& entry = chain[idx];
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

}  // namespace

StatusOr<TrainCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  bool had_candidate = false;

  // Manifest path: newest entry first, size + whole-file CRC cross-checked
  // before the (also CRC-framed) payload is parsed. Entries are read into a
  // parsed chain (bad files become holes) and resolved newest-first so a
  // delta whose base chain is damaged falls back to the next older
  // restorable entry.
  StatusOr<CheckpointManifest> manifest =
      LoadManifest(dir + "/" + kManifestFileName);
  if (manifest.ok()) {
    const std::vector<ManifestEntry>& entries = manifest.value().entries;
    std::vector<ParsedChainFile> parsed;
    std::vector<bool> valid;
    for (const ManifestEntry& e : entries) {
      had_candidate = true;
      ParsedChainFile file;
      bool ok = false;
      std::vector<uint8_t> data;
      if (ReadFileBytes(dir + "/" + e.file, &data).ok() &&
          data.size() == e.bytes &&
          Crc32(data.data(), data.size()) == e.crc32 &&
          ParseChainBytes(data, &file).ok() &&
          file.is_delta == (e.kind == kManifestEntryDelta) &&
          file.trees_done() == e.trees_done) {
        ok = true;
      }
      parsed.push_back(std::move(file));
      valid.push_back(ok);
    }
    // Collapse to the valid subset (holes drop out; delta bases are matched
    // by tree count, so survivors still link up when their base survived).
    std::vector<ParsedChainFile> chain;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (valid[i]) chain.push_back(std::move(parsed[i]));
    }
    for (size_t i = chain.size(); i-- > 0;) {
      TrainCheckpoint restored;
      if (ResolveParsedEntry(chain, i, &restored)) return restored;
    }
  }

  // Fallback: the manifest is damaged/missing or every listed entry was
  // bad. Scan the directory for chain files (in index order, newest last),
  // link deltas to bases by tree count, then try the latest.vckp alias.
  std::vector<std::pair<int64_t, std::string>> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const int64_t index = ChainFileIndex(name);
    if (index >= 0) names.emplace_back(index, name);
  }
  std::sort(names.begin(), names.end());
  std::vector<ParsedChainFile> chain;
  for (const auto& [index, name] : names) {
    had_candidate = true;
    std::vector<uint8_t> data;
    if (!ReadFileBytes(dir + "/" + name, &data).ok()) continue;
    ParsedChainFile file;
    if (!ParseChainBytes(data, &file).ok()) continue;
    chain.push_back(std::move(file));
  }
  for (size_t i = chain.size(); i-- > 0;) {
    TrainCheckpoint restored;
    if (ResolveParsedEntry(chain, i, &restored)) return restored;
  }
  const std::string alias = dir + "/latest.vckp";
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
    constexpr const char* kTmpSuffix = ".tmp";
    if (name.size() <= 4 || name.compare(name.size() - 4, 4, kTmpSuffix) != 0) {
      continue;
    }
    const std::string stem = name.substr(0, name.size() - 4);
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
  PendingSnapshot snapshot;
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
    PendingSnapshot snapshot;
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

void CheckpointWriter::CommitSnapshot(PendingSnapshot snapshot) {
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
      entry.crc32 = Crc32(data.data(), data.size());
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

