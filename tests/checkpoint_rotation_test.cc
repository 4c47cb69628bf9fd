// Rotated checkpoint chain: manifest wire format, the CheckpointWriter's
// rotation/GC and async double-buffering, and LoadLatestCheckpoint's
// fallback ladder under fuzz-style damage (truncated manifest, missing
// rotated files, CRC-corrupted chain) — the loader restores the newest
// valid state, returns kCorruption only when nothing survives, and never
// crashes. The ManifestEmit fixture is driven by scripts/check_manifest.py
// (the check_manifest ctest) to validate the on-disk schema externally.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/framed_file.h"
#include "quadrants/checkpoint.h"
#include "sketch/candidate_splits.h"

namespace vero {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GbdtModel ModelWithTrees(uint32_t n, float leaf = 0.5f) {
  GbdtModel model(Task::kBinary, 2, 0.3);
  for (uint32_t i = 0; i < n; ++i) {
    Tree t(3, 1);
    t.SetSplit(0, i % 7, 1.5f + static_cast<float>(i), 2, false, 3.0);
    t.SetLeaf(1, {-leaf});
    t.SetLeaf(2, {leaf});
    model.AddTree(std::move(t));
  }
  return model;
}

CandidateSplits TinySplits() {
  return CandidateSplits(16, {{0.5f, 1.5f}, {}, {2.0f, 3.0f}});
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Commits `n` checkpoints (trees_done = 1..n) through a sync writer.
void FillChain(const std::string& dir, uint32_t n, uint32_t keep_last_n) {
  CheckpointOptions options;
  options.dir = dir;
  options.keep_last_n = keep_last_n;
  CheckpointWriter writer(options);
  const CandidateSplits splits = TinySplits();
  for (uint32_t t = 1; t <= n; ++t) {
    writer.Submit(ModelWithTrees(t), t, &splits);
  }
  ASSERT_TRUE(writer.write_status().ok())
      << writer.write_status().ToString();
}

// ---------------------------------------------------------------------------
// Manifest wire format.
// ---------------------------------------------------------------------------

TEST(ManifestTest, SerializeDeserializeRoundTrip) {
  CheckpointManifest manifest;
  manifest.entries.push_back({"ckpt-000004.vckp", 5, 123, 0xdeadbeef});
  manifest.entries.push_back({"ckpt-000005.vckp", 6, 456, 0x01020304});
  const std::vector<uint8_t> bytes = SerializeManifest(manifest);

  CheckpointManifest out;
  ASSERT_TRUE(DeserializeManifest(bytes, &out).ok());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].file, "ckpt-000004.vckp");
  EXPECT_EQ(out.entries[0].trees_done, 5u);
  EXPECT_EQ(out.entries[0].bytes, 123u);
  EXPECT_EQ(out.entries[0].crc32, 0xdeadbeefu);
  EXPECT_EQ(out.entries[1].file, "ckpt-000005.vckp");
}

TEST(ManifestTest, EmptyManifestRoundTrips) {
  CheckpointManifest out;
  ASSERT_TRUE(DeserializeManifest(SerializeManifest({}), &out).ok());
  EXPECT_TRUE(out.entries.empty());
}

// Fuzz-style: every single-bit flip and every truncation of a valid
// manifest is rejected as kCorruption — never a crash, never a bogus parse.
TEST(ManifestTest, AllBitFlipsAndTruncationsAreCorruption) {
  CheckpointManifest manifest;
  manifest.entries.push_back({"ckpt-000000.vckp", 1, 64, 7});
  manifest.entries.push_back({"ckpt-000001.vckp", 2, 96, 9});
  const std::vector<uint8_t> good = SerializeManifest(manifest);

  CheckpointManifest out;
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    EXPECT_EQ(DeserializeManifest(bad, &out).code(), StatusCode::kCorruption)
        << "offset " << offset;
  }
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    EXPECT_EQ(DeserializeManifest(bad, &out).code(), StatusCode::kCorruption)
        << "len " << len;
  }
}

// ---------------------------------------------------------------------------
// Writer: rotation, adoption, async draining.
// ---------------------------------------------------------------------------

TEST(CheckpointWriterTest, RotationKeepsLastN) {
  const std::string dir = FreshDir("rotation_keeps_last_n");
  FillChain(dir, 5, /*keep_last_n=*/2);

  // Only the two newest chain files survive GC; the alias tracks the head.
  EXPECT_FALSE(fs::exists(dir + "/ckpt-000000.vckp"));
  EXPECT_FALSE(fs::exists(dir + "/ckpt-000001.vckp"));
  EXPECT_FALSE(fs::exists(dir + "/ckpt-000002.vckp"));
  EXPECT_TRUE(fs::exists(dir + "/ckpt-000003.vckp"));
  EXPECT_TRUE(fs::exists(dir + "/ckpt-000004.vckp"));
  EXPECT_TRUE(fs::exists(dir + "/latest.vckp"));

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 2u);
  EXPECT_EQ(manifest->entries[0].file, "ckpt-000003.vckp");
  EXPECT_EQ(manifest->entries[1].file, "ckpt-000004.vckp");
  EXPECT_EQ(manifest->entries[1].trees_done, 5u);

  const auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->trees_done, 5u);
  EXPECT_EQ(latest->model.num_trees(), 5u);
}

TEST(CheckpointWriterTest, ZeroKeepLastNDisablesGc) {
  const std::string dir = FreshDir("no_gc");
  FillChain(dir, 4, /*keep_last_n=*/0);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(fs::exists(dir + "/ckpt-00000" + std::to_string(i) + ".vckp"));
  }
  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->entries.size(), 4u);
}

// A new writer over an existing directory continues the chain instead of
// clobbering it (recovery attempts reuse the dir across incarnations).
TEST(CheckpointWriterTest, AdoptsExistingChainAndContinuesNumbering) {
  const std::string dir = FreshDir("adopt_chain");
  FillChain(dir, 3, /*keep_last_n=*/4);
  FillChain(dir, 2, /*keep_last_n=*/4);  // Writes ckpt-000003/000004.

  EXPECT_TRUE(fs::exists(dir + "/ckpt-000003.vckp"));
  EXPECT_TRUE(fs::exists(dir + "/ckpt-000004.vckp"));
  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 4u);
  EXPECT_EQ(manifest->entries.back().file, "ckpt-000004.vckp");
  // The second writer's last submit had trees_done = 2.
  const auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->trees_done, 2u);
}

TEST(CheckpointWriterTest, AsyncWriterDrainsOnFlushAndDestruction) {
  const std::string dir = FreshDir("async_drain");
  CandidateSplits splits = TinySplits();
  {
    CheckpointOptions options;
    options.dir = dir;
    options.async = true;
    options.keep_last_n = 3;
    CheckpointWriter writer(options);
    // Rapid-fire submissions: backpressure may coalesce intermediates
    // (newest wins), but after Flush the newest must be fully committed.
    for (uint32_t t = 1; t <= 8; ++t) {
      writer.Submit(ModelWithTrees(t), t, &splits);
    }
    writer.Flush();
    const auto latest = writer.Latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->trees_done, 8u);
    ASSERT_TRUE(writer.write_status().ok());

    // More work after Flush: the destructor must drain it.
    writer.Submit(ModelWithTrees(9), 9, &splits);
  }
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 9u);
}

TEST(CheckpointWriterTest, InMemoryOnlyWhenDirEmpty) {
  CheckpointWriter writer(CheckpointOptions{});
  EXPECT_FALSE(writer.Latest().has_value());
  const CandidateSplits splits = TinySplits();
  writer.Submit(ModelWithTrees(3), 3, &splits);
  const auto latest = writer.Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->trees_done, 3u);
  ASSERT_TRUE(latest->has_splits);
  EXPECT_TRUE(latest->splits == splits);
}

// ---------------------------------------------------------------------------
// Loader fallback ladder under damage.
// ---------------------------------------------------------------------------

TEST(LoadLatestTest, EmptyDirectoryIsNotFound) {
  const std::string dir = FreshDir("load_empty");
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(LoadLatestCheckpoint(dir + "/does_not_exist").status().code(),
            StatusCode::kNotFound);
}

TEST(LoadLatestTest, TruncatedManifestFallsBackToDirectoryScan) {
  const std::string dir = FreshDir("load_truncated_manifest");
  FillChain(dir, 4, /*keep_last_n=*/3);

  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::vector<uint8_t> bytes = ReadFile(manifest_path);
  bytes.resize(bytes.size() / 2);
  WriteFile(manifest_path, bytes);

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 4u);
}

TEST(LoadLatestTest, MissingRotatedFileSkipsToNextEntry) {
  const std::string dir = FreshDir("load_missing_file");
  FillChain(dir, 3, /*keep_last_n=*/3);

  // Newest chain file vanishes (manifest still lists it); loader must fall
  // back to the next-newest entry rather than fail.
  fs::remove(dir + "/ckpt-000002.vckp");
  fs::remove(dir + "/latest.vckp");  // Alias would mask the fallback.
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 2u);
}

TEST(LoadLatestTest, CrcDamagedNewestFallsBackToNewestValid) {
  const std::string dir = FreshDir("load_crc_damage");
  FillChain(dir, 3, /*keep_last_n=*/3);

  // Flip one payload byte of the newest chain file (and the alias, which
  // duplicates it): the CRC checks must reject it and restore the
  // second-newest instead.
  for (const char* name : {"ckpt-000002.vckp", "latest.vckp"}) {
    const std::string path = dir + "/" + name;
    std::vector<uint8_t> bytes = ReadFile(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[12] ^= 0x40;
    WriteFile(path, bytes);
  }
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 2u);
  EXPECT_EQ(loaded->model.num_trees(), 2u);
}

// Replaces the newest chain file (and its alias) with a different valid
// checkpoint of the same size, kind and tree count.
void SwapInLookalikeNewest(const std::string& dir) {
  const std::vector<uint8_t> original = ReadFile(dir + "/ckpt-000002.vckp");
  TrainCheckpoint lookalike;
  ASSERT_TRUE(DeserializeCheckpoint(original, &lookalike).ok());
  lookalike.model = ModelWithTrees(lookalike.trees_done, 0.25f);
  const std::vector<uint8_t> swapped = SerializeCheckpoint(lookalike);
  ASSERT_EQ(swapped.size(), original.size());
  ASSERT_NE(swapped, original);
  WriteFile(dir + "/ckpt-000002.vckp", swapped);
  WriteFile(dir + "/latest.vckp", swapped);
}

TEST(LoadLatestTest, SwappedLookalikeChainFileIsRejected) {
  // The v3 manifest records each file's CRC trailer, which names its
  // content; a whole-file CRC (trailer included) would be the same residue
  // for both files and accept the swap.
  const std::string dir = FreshDir("load_swapped_lookalike");
  FillChain(dir, 3, /*keep_last_n=*/3);
  SwapInLookalikeNewest(dir);
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 2u);
}

TEST(LoadLatestTest, Version2ManifestStillRestores) {
  // A v2 manifest (whole-file CRCs) written by an older build: its intact
  // chain restores, and its entries keep the whole-file comparison.
  const std::string dir = FreshDir("load_v2_manifest");
  FillChain(dir, 3, /*keep_last_n=*/3);
  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  const std::vector<uint8_t> v2 = WriteFrame(
      0x56434b4du, 2, [&](ByteWriter* w) {
        w->WriteU32(static_cast<uint32_t>(manifest->entries.size()));
        for (const ManifestEntry& e : manifest->entries) {
          const std::vector<uint8_t> file = ReadFile(dir + "/" + e.file);
          w->WriteString(e.file);
          w->WriteU32(e.trees_done);
          w->WriteU64(e.bytes);
          w->WriteU32(Crc32(file.data(), file.size()));
          w->WriteU8(e.kind);
          w->WriteU32(e.base_trees);
        }
      });
  WriteFile(dir + "/" + kManifestFileName, v2);
  CheckpointManifest parsed;
  ASSERT_TRUE(DeserializeManifest(v2, &parsed).ok());
  ASSERT_EQ(parsed.entries.size(), 3u);
  EXPECT_TRUE(parsed.entries[0].whole_file_crc);
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 3u);

  // A damaged newest file still fails the v2 whole-file comparison.
  for (const char* name : {"ckpt-000002.vckp", "latest.vckp"}) {
    std::vector<uint8_t> bytes = ReadFile(dir + "/" + name);
    bytes[12] ^= 0x40;
    WriteFile(dir + "/" + name, bytes);
  }
  const auto fallback = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->trees_done, 2u);
}

TEST(LoadLatestTest, AllCandidatesDamagedIsCorruptionNeverCrash) {
  const std::string dir = FreshDir("load_all_damaged");
  FillChain(dir, 3, /*keep_last_n=*/3);

  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<uint8_t> bytes = ReadFile(entry.path().string());
    if (bytes.size() > 8) bytes[bytes.size() / 2] ^= 0xff;
    bytes.resize(bytes.size() - 3);
    WriteFile(entry.path().string(), bytes);
  }
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(),
            StatusCode::kCorruption);
}

TEST(LoadLatestTest, StaleTmpFilesAreIgnored) {
  const std::string dir = FreshDir("load_stale_tmp");
  FillChain(dir, 2, /*keep_last_n=*/3);

  // Simulated crash mid-commit: stray .tmp siblings with garbage content.
  WriteFile(dir + "/ckpt-000009.vckp.tmp", {1, 2, 3});
  WriteFile(dir + "/" + std::string(kManifestFileName) + ".tmp", {4, 5});
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 2u);
}

// ---------------------------------------------------------------------------
// Emitter fixture for scripts/check_manifest.py (the check_manifest ctest).
// Writes a rotated chain into VERO_CKPT_EMIT_DIR when set (a fresh temp dir
// otherwise) and sanity-checks it locally either way.
// ---------------------------------------------------------------------------

TEST(ManifestEmitTest, WritesRotatedChainForSchemaCheck) {
  const char* emit_dir = std::getenv("VERO_CKPT_EMIT_DIR");
  const std::string dir =
      emit_dir != nullptr ? std::string(emit_dir) : FreshDir("manifest_emit");
  fs::create_directories(dir);
  FillChain(dir, 5, /*keep_last_n=*/3);

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->entries.size(), 3u);
  for (const ManifestEntry& entry : manifest->entries) {
    EXPECT_TRUE(fs::exists(dir + "/" + entry.file));
    EXPECT_EQ(fs::file_size(dir + "/" + entry.file), entry.bytes);
  }
  const auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->trees_done, 5u);
}

// Same external-schema contract for a delta-mode chain: written into the
// "delta" subdirectory of the emit dir so check_manifest.py validates the
// v2 manifest's kind/base_trees columns and the VCKD framing.
TEST(ManifestEmitTest, WritesDeltaChainForSchemaCheck) {
  const char* emit_dir = std::getenv("VERO_CKPT_EMIT_DIR");
  const std::string dir =
      (emit_dir != nullptr ? std::string(emit_dir)
                           : FreshDir("manifest_emit_delta_base")) +
      "/delta";
  fs::create_directories(dir);
  {
    CheckpointOptions options;
    options.dir = dir;
    options.keep_last_n = 4;
    options.delta = true;
    options.full_every = 3;
    CheckpointWriter writer(options);
    const CandidateSplits splits = TinySplits();
    for (uint32_t t = 1; t <= 6; ++t) {
      writer.Submit(ModelWithTrees(t), t, &splits);
    }
    ASSERT_TRUE(writer.write_status().ok())
        << writer.write_status().ToString();
  }

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_GE(manifest->entries.size(), 2u);
  EXPECT_EQ(manifest->entries[0].kind, kManifestEntryFull);
  bool saw_delta = false;
  for (const ManifestEntry& entry : manifest->entries) {
    saw_delta = saw_delta || entry.kind == kManifestEntryDelta;
  }
  EXPECT_TRUE(saw_delta);
  const auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->trees_done, 6u);
}

}  // namespace
}  // namespace vero
