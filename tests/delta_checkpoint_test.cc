// Delta checkpoint chains: the VCKD wire format under fuzz-style damage,
// byte-equal reconstruction against full-mode chains (including across
// rotation/GC and writer re-adoption), the corruption ladder (bit-flip and
// truncation of the newest chain file and the manifest, in both full and
// delta modes), the constructor's stale-*.tmp sweep, and manifest v2
// round-tripping.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

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

GbdtModel ModelWithTrees(uint32_t n) {
  GbdtModel model(Task::kBinary, 2, 0.3);
  for (uint32_t i = 0; i < n; ++i) {
    Tree t(3, 1);
    t.SetSplit(0, i % 7, 1.5f + static_cast<float>(i), 2, false, 3.0);
    t.SetLeaf(1, {-0.5f});
    t.SetLeaf(2, {0.5f});
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

// Commits checkpoints trees_done = 1..n through one writer.
void FillChain(const std::string& dir, uint32_t n, CheckpointOptions options) {
  options.dir = dir;
  CheckpointWriter writer(options);
  const CandidateSplits splits = TinySplits();
  for (uint32_t t = 1; t <= n; ++t) {
    writer.Submit(ModelWithTrees(t), t, &splits);
  }
  writer.Flush();
  ASSERT_TRUE(writer.write_status().ok())
      << writer.write_status().ToString();
}

CheckpointOptions DeltaOptions(uint32_t keep_last_n = 0,
                               uint32_t full_every = 8) {
  CheckpointOptions options;
  options.keep_last_n = keep_last_n;
  options.delta = true;
  options.full_every = full_every;
  return options;
}

// Canonical byte projection of the restorable state.
std::vector<uint8_t> LatestBytes(const std::string& dir) {
  const auto loaded = LoadLatestCheckpoint(dir);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return {};
  return SerializeCheckpoint(*loaded);
}

// ---------------------------------------------------------------------------
// VCKD wire format.
// ---------------------------------------------------------------------------

TEST(DeltaWireTest, SerializeDeserializeRoundTrip) {
  const GbdtModel model = ModelWithTrees(5);
  DeltaCheckpoint delta;
  delta.trees_done = 5;
  delta.base_trees = 3;
  delta.trees = {model.tree(3), model.tree(4)};
  const std::vector<uint8_t> bytes = SerializeDeltaCheckpoint(delta);

  DeltaCheckpoint out;
  ASSERT_TRUE(DeserializeDeltaCheckpoint(bytes, &out).ok());
  EXPECT_EQ(out.trees_done, 5u);
  EXPECT_EQ(out.base_trees, 3u);
  ASSERT_EQ(out.trees.size(), 2u);
  EXPECT_TRUE(out.trees[0] == model.tree(3));
  EXPECT_TRUE(out.trees[1] == model.tree(4));
}

TEST(DeltaWireTest, FullAndDeltaMagicsAreDistinct) {
  // A full checkpoint buffer must not parse as a delta and vice versa.
  TrainCheckpoint full;
  full.trees_done = 2;
  full.model = ModelWithTrees(2);
  const std::vector<uint8_t> full_bytes = SerializeCheckpoint(full);
  DeltaCheckpoint delta_out;
  EXPECT_EQ(DeserializeDeltaCheckpoint(full_bytes, &delta_out).code(),
            StatusCode::kCorruption);

  DeltaCheckpoint delta;
  delta.trees_done = 3;
  delta.base_trees = 2;
  delta.trees = {ModelWithTrees(3).tree(2)};
  TrainCheckpoint full_out;
  EXPECT_EQ(DeserializeCheckpoint(SerializeDeltaCheckpoint(delta), &full_out)
                .code(),
            StatusCode::kCorruption);
}

TEST(DeltaWireTest, AllBitFlipsAndTruncationsAreCorruption) {
  const GbdtModel model = ModelWithTrees(4);
  DeltaCheckpoint delta;
  delta.trees_done = 4;
  delta.base_trees = 2;
  delta.trees = {model.tree(2), model.tree(3)};
  const std::vector<uint8_t> good = SerializeDeltaCheckpoint(delta);

  DeltaCheckpoint out;
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    EXPECT_EQ(DeserializeDeltaCheckpoint(bad, &out).code(),
              StatusCode::kCorruption)
        << "offset " << offset;
  }
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(),
                                   good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_EQ(DeserializeDeltaCheckpoint(bad, &out).code(),
              StatusCode::kCorruption)
        << "len " << len;
  }
}

// ---------------------------------------------------------------------------
// Manifest v2: kinds and bases round-trip.
// ---------------------------------------------------------------------------

TEST(ManifestV2Test, KindAndBaseRoundTrip) {
  CheckpointManifest manifest;
  manifest.entries.push_back(
      {"ckpt-000000.vckp", 3, 100, 0x11, kManifestEntryFull, 0});
  manifest.entries.push_back(
      {"ckpt-000001.vckp", 5, 40, 0x22, kManifestEntryDelta, 3});
  CheckpointManifest out;
  ASSERT_TRUE(DeserializeManifest(SerializeManifest(manifest), &out).ok());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].kind, kManifestEntryFull);
  EXPECT_EQ(out.entries[0].base_trees, 0u);
  EXPECT_EQ(out.entries[1].kind, kManifestEntryDelta);
  EXPECT_EQ(out.entries[1].base_trees, 3u);
}

TEST(ManifestV2Test, DeltaEntryWithBadBaseIsCorruption) {
  CheckpointManifest manifest;
  manifest.entries.push_back(
      {"ckpt-000000.vckp", 3, 100, 0x11, kManifestEntryDelta, 3});
  std::vector<uint8_t> bytes = SerializeManifest(manifest);
  CheckpointManifest out;
  EXPECT_EQ(DeserializeManifest(bytes, &out).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Delta chains on disk: kinds, reconstruction, rotation/GC, re-adoption.
// ---------------------------------------------------------------------------

TEST(DeltaChainTest, WriterEmitsFullAnchorsAtTheConfiguredCadence) {
  const std::string dir = FreshDir("delta_cadence");
  FillChain(dir, 6, DeltaOptions(/*keep_last_n=*/0, /*full_every=*/3));

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 6u);
  // Commit pattern with full_every = 3: F D D F D D.
  const uint8_t expected[] = {kManifestEntryFull, kManifestEntryDelta,
                              kManifestEntryDelta, kManifestEntryFull,
                              kManifestEntryDelta, kManifestEntryDelta};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(manifest->entries[i].kind, expected[i]) << "entry " << i;
    if (expected[i] == kManifestEntryDelta) {
      EXPECT_EQ(manifest->entries[i].base_trees,
                manifest->entries[i - 1].trees_done)
          << "entry " << i;
      EXPECT_LT(manifest->entries[i].bytes, manifest->entries[0].bytes)
          << "delta entry " << i << " not smaller than a full checkpoint";
    }
  }
}

TEST(DeltaChainTest, ReconstructionIsByteEqualToFullMode) {
  const std::string full_dir = FreshDir("delta_vs_full_full");
  const std::string delta_dir = FreshDir("delta_vs_full_delta");
  CheckpointOptions full_options;
  full_options.keep_last_n = 0;
  FillChain(full_dir, 7, full_options);
  FillChain(delta_dir, 7, DeltaOptions(/*keep_last_n=*/0, /*full_every=*/4));

  const std::vector<uint8_t> from_full = LatestBytes(full_dir);
  const std::vector<uint8_t> from_delta = LatestBytes(delta_dir);
  ASSERT_FALSE(from_full.empty());
  EXPECT_EQ(from_delta, from_full);
}

TEST(DeltaChainTest, GcKeepsTheFullAnchorOfARetainedDeltaSuffix) {
  const std::string dir = FreshDir("delta_gc_anchor");
  // 7 commits, F D D D F D D; keep_last_n = 2 would naively keep only the
  // two newest deltas — GC must extend the window back to their anchor.
  FillChain(dir, 7, DeltaOptions(/*keep_last_n=*/2, /*full_every=*/4));

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_GE(manifest->entries.size(), 2u);
  EXPECT_EQ(manifest->entries[0].kind, kManifestEntryFull)
      << "retained chain does not start at a full anchor";
  for (const ManifestEntry& entry : manifest->entries) {
    EXPECT_TRUE(fs::exists(dir + "/" + entry.file)) << entry.file;
  }

  // The reconstruction is still byte-equal to an un-GC'd full-mode chain.
  const std::string ref_dir = FreshDir("delta_gc_anchor_ref");
  CheckpointOptions ref_options;
  ref_options.keep_last_n = 0;
  FillChain(ref_dir, 7, ref_options);
  EXPECT_EQ(LatestBytes(dir), LatestBytes(ref_dir));
}

TEST(DeltaChainTest, ReadoptedWriterStartsItsChainWithAFull) {
  const std::string dir = FreshDir("delta_readopt");
  FillChain(dir, 3, DeltaOptions());
  // A second writer (a recovery incarnation) has no pipeline history, so
  // its first commit must be full even in delta mode.
  FillChain(dir, 5, DeltaOptions());

  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 8u);
  EXPECT_EQ(manifest->entries[3].kind, kManifestEntryFull)
      << "re-adopting writer did not anchor its chain";
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trees_done, 5u);
  EXPECT_EQ(loaded->model.num_trees(), 5u);
}

TEST(DeltaChainTest, AsyncBackpressureMergesDeltasWithoutLosingTrees) {
  const std::string dir = FreshDir("delta_async");
  CheckpointOptions options = DeltaOptions();
  options.dir = dir;
  options.async = true;
  const CandidateSplits splits = TinySplits();
  {
    CheckpointWriter writer(options);
    // Rapid-fire: pending deltas may be coalesced (newest wins), but the
    // merged delta must still cover every tree since its base.
    for (uint32_t t = 1; t <= 9; ++t) {
      writer.Submit(ModelWithTrees(t), t, &splits);
    }
    writer.Flush();
    ASSERT_TRUE(writer.write_status().ok());
    const auto latest = writer.Latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->trees_done, 9u);
    EXPECT_EQ(latest->model.num_trees(), 9u);
  }
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 9u);
  // Reconstructed forest is the real 9-tree model, tree by tree.
  const GbdtModel expected = ModelWithTrees(9);
  for (uint32_t t = 0; t < 9; ++t) {
    EXPECT_TRUE(loaded->model.tree(t) == expected.tree(t)) << "tree " << t;
  }
}

// ---------------------------------------------------------------------------
// Corruption ladder: newest chain file and manifest damaged independently,
// in both full and delta modes.
// ---------------------------------------------------------------------------

class CorruptionLadderTest : public ::testing::TestWithParam<bool> {
 protected:
  // Builds a 5-entry chain in the parameterized mode and returns the dir.
  std::string BuildChain(const std::string& name) {
    const std::string dir = FreshDir(name);
    CheckpointOptions options;
    options.keep_last_n = 0;
    if (GetParam()) {
      options.delta = true;
      options.full_every = 3;  // F D D F D: newest entry is a delta.
    }
    FillChain(dir, 5, options);
    return dir;
  }

  std::string NewestChainFile(const std::string& dir) {
    const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
    EXPECT_TRUE(manifest.ok());
    return dir + "/" + manifest->entries.back().file;
  }
};

TEST_P(CorruptionLadderTest, BitFlippedNewestFallsBackToPreviousEntry) {
  const std::string dir = BuildChain("ladder_flip_newest");
  const std::string newest = NewestChainFile(dir);
  std::vector<uint8_t> bytes = ReadFile(newest);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFile(newest, bytes);
  fs::remove(dir + "/latest.vckp");  // Alias duplicates the damaged file.

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 4u);
  EXPECT_EQ(loaded->model.num_trees(), 4u);
}

TEST_P(CorruptionLadderTest, TruncatedNewestFallsBackToPreviousEntry) {
  const std::string dir = BuildChain("ladder_trunc_newest");
  const std::string newest = NewestChainFile(dir);
  std::vector<uint8_t> bytes = ReadFile(newest);
  bytes.resize(bytes.size() / 2);
  WriteFile(newest, bytes);
  fs::remove(dir + "/latest.vckp");

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 4u);
}

TEST_P(CorruptionLadderTest, BitFlippedManifestFallsBackToDirectoryScan) {
  const std::string dir = BuildChain("ladder_flip_manifest");
  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::vector<uint8_t> bytes = ReadFile(manifest_path);
  bytes[bytes.size() / 3] ^= 0x08;
  WriteFile(manifest_path, bytes);

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 5u);
  EXPECT_EQ(loaded->model.num_trees(), 5u);
}

TEST_P(CorruptionLadderTest, TruncatedManifestFallsBackToDirectoryScan) {
  const std::string dir = BuildChain("ladder_trunc_manifest");
  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::vector<uint8_t> bytes = ReadFile(manifest_path);
  bytes.resize(bytes.size() / 2);
  WriteFile(manifest_path, bytes);

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 5u);
}

// Damaging a delta's full anchor strands the whole dependent suffix: the
// loader must fall back past ALL of it to the previous restorable entry.
TEST_P(CorruptionLadderTest, DamagedAnchorDropsTheDependentSuffix) {
  if (!GetParam()) GTEST_SKIP() << "delta-mode only";
  const std::string dir = BuildChain("ladder_anchor");
  const auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  // Chain is F(1) D(2) D(3) F(4) D(5): damage the second full anchor.
  ASSERT_EQ(manifest->entries[3].kind, kManifestEntryFull);
  const std::string anchor = dir + "/" + manifest->entries[3].file;
  std::vector<uint8_t> bytes = ReadFile(anchor);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFile(anchor, bytes);
  fs::remove(dir + "/latest.vckp");

  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Entry 5's delta is intact but unrestorable without its anchor; the
  // newest restorable state is the first sub-chain's head, trees_done = 3.
  EXPECT_EQ(loaded->trees_done, 3u);
  EXPECT_EQ(loaded->model.num_trees(), 3u);
}

TEST_P(CorruptionLadderTest, EverythingDamagedIsCorruptionNeverCrash) {
  const std::string dir = BuildChain("ladder_all");
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<uint8_t> bytes = ReadFile(entry.path().string());
    if (bytes.size() > 8) bytes[bytes.size() / 2] ^= 0xff;
    bytes.resize(bytes.size() > 3 ? bytes.size() - 3 : 0);
    WriteFile(entry.path().string(), bytes);
  }
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(),
            StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(FullAndDelta, CorruptionLadderTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Delta" : "Full";
                         });

// ---------------------------------------------------------------------------
// Startup sweep of orphaned *.tmp files.
// ---------------------------------------------------------------------------

TEST(StaleTmpSweepTest, ConstructorCollectsPlantedOrphans) {
  const std::string dir = FreshDir("tmp_sweep");
  FillChain(dir, 2, CheckpointOptions{});

  // A crash between write and rename leaves .tmp siblings of our own file
  // names; plant one of each flavor plus a foreign file that must survive.
  const std::string chain_tmp = dir + "/ckpt-000007.vckp.tmp";
  const std::string alias_tmp = dir + "/latest.vckp.tmp";
  const std::string manifest_tmp =
      dir + "/" + std::string(kManifestFileName) + ".tmp";
  const std::string foreign = dir + "/user_notes.txt.tmp";
  WriteFile(chain_tmp, {1, 2, 3});
  WriteFile(alias_tmp, {4, 5});
  WriteFile(manifest_tmp, {6});
  WriteFile(foreign, {7, 8});

  CheckpointOptions options;
  options.dir = dir;
  CheckpointWriter writer(options);

  EXPECT_FALSE(fs::exists(chain_tmp));
  EXPECT_FALSE(fs::exists(alias_tmp));
  EXPECT_FALSE(fs::exists(manifest_tmp));
  EXPECT_TRUE(fs::exists(foreign)) << "swept a file it does not own";

  // The adopted chain is untouched and still restorable.
  const auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 2u);
}

}  // namespace
}  // namespace vero
