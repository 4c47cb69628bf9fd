#include "core/model_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <vector>

#include "common/crc32.h"

namespace vero {
namespace {

GbdtModel MakeModel() {
  GbdtModel model(Task::kBinary, 2, 0.3);
  Tree t(3, 1);
  t.SetSplit(0, 4, 1.5f, 2, false, 3.0);
  t.SetLeaf(1, {-0.5f});
  t.SetLeaf(2, {0.5f});
  model.AddTree(std::move(t));
  return model;
}

TEST(ModelIoTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/model_io.bin";
  const GbdtModel model = MakeModel();
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_trees(), 1u);
  EXPECT_TRUE(loaded->tree(0) == model.tree(0));
  EXPECT_DOUBLE_EQ(loaded->learning_rate(), 0.3);
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadModel("/no/such/file.bin").status().code(),
            StatusCode::kIOError);
}

TEST(ModelIoTest, LoadRejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/bad_magic.bin";
  std::ofstream out(path, std::ios::binary);
  out << "this is not a model file at all";
  out.close();
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadRejectsTruncatedFile) {
  const std::string path = ::testing::TempDir() + "/truncated.bin";
  ASSERT_TRUE(SaveModel(MakeModel(), path).ok());
  // Truncate to the first 12 bytes.
  std::ifstream in(path, std::ios::binary);
  char buf[12];
  in.read(buf, 12);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf, 12);
  out.close();
  EXPECT_FALSE(LoadModel(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveToUnwritablePathFails) {
  EXPECT_EQ(SaveModel(MakeModel(), "/no/such/dir/model.bin").code(),
            StatusCode::kIOError);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Saves go through a temp file and a rename: when the temp file cannot be
// created (here `<path>.tmp` is a directory), the save fails and the model
// already at `path` is left as it was.
TEST(ModelIoTest, FailedSaveKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "/atomic_model.bin";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  const GbdtModel model = MakeModel();
  ASSERT_TRUE(SaveModel(model, path).ok());
  const std::vector<uint8_t> before = ReadFileBytes(path);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));

  GbdtModel other(Task::kRegression, 1, 0.1);
  EXPECT_EQ(SaveModel(other, path).code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFileBytes(path), before);
  const auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ModelToText(*loaded), ModelToText(model));
  std::filesystem::remove_all(tmp);
  std::remove(path.c_str());
}

// Pins the "VERO" v2 bytes of a fixed model: 145 bytes whose CRC-32
// trailer (over everything before it) is 0x15dbf970. Any change to the
// envelope or the model payload layout moves one of them.
TEST(ModelIoTest, FileBytesArePinned) {
  const std::string path = ::testing::TempDir() + "/pinned_model.bin";
  ASSERT_TRUE(SaveModel(MakeModel(), path).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), 145u);
  uint32_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - 4, sizeof(trailer));
  EXPECT_EQ(trailer, 0x15dbf970u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size() - 4), 0x15dbf970u);
  std::remove(path.c_str());
}

// Fuzz-style hardening check: a single bit flip anywhere in the file —
// header, payload, or CRC trailer — must be reported as corruption, never
// deserialize garbage or crash.
TEST(ModelIoFuzzTest, EveryBitFlipIsDetected) {
  const std::string path = ::testing::TempDir() + "/flip.bin";
  ASSERT_TRUE(SaveModel(MakeModel(), path).ok());
  const std::vector<uint8_t> original = ReadFileBytes(path);
  ASSERT_GT(original.size(), 12u);
  for (size_t offset = 0; offset < original.size(); ++offset) {
    std::vector<uint8_t> damaged = original;
    damaged[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    WriteFileBytes(path, damaged);
    const auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok()) << "bit flip at offset " << offset
                              << " was not detected";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "offset " << offset << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Every possible truncation length must fail cleanly with kCorruption or
// kIOError — short files must never crash the reader.
TEST(ModelIoFuzzTest, EveryTruncationFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/trunc.bin";
  ASSERT_TRUE(SaveModel(MakeModel(), path).ok());
  const std::vector<uint8_t> original = ReadFileBytes(path);
  for (size_t len = 0; len < original.size(); ++len) {
    WriteFileBytes(path, std::vector<uint8_t>(original.begin(),
                                              original.begin() + len));
    const auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << len
                              << " bytes was not detected";
    EXPECT_TRUE(loaded.status().code() == StatusCode::kCorruption ||
                loaded.status().code() == StatusCode::kIOError)
        << "len " << len << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Appending junk after the payload is framing corruption, not extra data.
TEST(ModelIoFuzzTest, TrailingBytesAreRejected) {
  const std::string path = ::testing::TempDir() + "/trailing.bin";
  ASSERT_TRUE(SaveModel(MakeModel(), path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  WriteFileBytes(path, bytes);
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Version-1 files (no CRC trailer) predate the hardening and must remain
// readable. Synthesized from a v2 file by rewriting the version field and
// dropping the trailer (fields are stored native-endian).
TEST(ModelIoTest, LegacyVersionWithoutCrcStillLoads) {
  const std::string path = ::testing::TempDir() + "/legacy.bin";
  const GbdtModel model = MakeModel();
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 12u);
  const uint32_t legacy_version = 1;
  std::memcpy(bytes.data() + 4, &legacy_version, sizeof(legacy_version));
  bytes.resize(bytes.size() - 4);  // Drop the CRC trailer.
  WriteFileBytes(path, bytes);
  const auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->tree(0) == model.tree(0));
  std::remove(path.c_str());
}

TEST(ModelIoTest, TextDumpMentionsStructure) {
  const std::string text = ModelToText(MakeModel());
  EXPECT_NE(text.find("task=binary"), std::string::npos);
  EXPECT_NE(text.find("split f4"), std::string::npos);
  EXPECT_NE(text.find("leaf"), std::string::npos);
  EXPECT_NE(text.find("tree 0"), std::string::npos);
}

}  // namespace
}  // namespace vero
