#include "data/libsvm_io.h"

#include <cstdio>
#include <string>
#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace vero {
namespace {

TEST(LibsvmTest, ParsesBasicBinaryFile) {
  const std::string content =
      "1 1:0.5 3:1.25\n"
      "-1 2:2.0\n"
      "0 1:0.1 2:0.2 3:0.3\n";
  LibsvmReadOptions options;
  options.task = Task::kBinary;
  auto d = ParseLibsvm(content, options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_instances(), 3u);
  EXPECT_EQ(d->num_features(), 3u);  // 1-based indices shifted down.
  EXPECT_EQ(d->labels()[0], 1.0f);
  EXPECT_EQ(d->labels()[1], 0.0f);  // -1 mapped to 0.
  EXPECT_EQ(d->matrix().RowFeatures(0)[1], 2u);
  EXPECT_EQ(d->matrix().RowValues(0)[1], 1.25f);
}

TEST(LibsvmTest, ZeroBasedIndices) {
  LibsvmReadOptions options;
  options.one_based_indices = false;
  auto d = ParseLibsvm("1 0:1.0 4:2.0\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_features(), 5u);
  EXPECT_EQ(d->matrix().RowFeatures(0)[0], 0u);
}

TEST(LibsvmTest, SkipsBlankLinesAndComments) {
  auto d = ParseLibsvm("\n# header\n1 1:1.0\n\n0 1:2.0\n", LibsvmReadOptions{});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_instances(), 2u);
}

TEST(LibsvmTest, MultiClassInfersClassCount) {
  LibsvmReadOptions options;
  options.task = Task::kMultiClass;
  auto d = ParseLibsvm("0 1:1\n4 1:2\n2 1:3\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_classes(), 5u);
}

// A multi-class file whose labels stop at 1 used to reach the Dataset
// constructor's check (at least 3 classes) and abort the process.
TEST(LibsvmTest, RejectsMultiClassWithFewerThanThreeClasses) {
  LibsvmReadOptions options;
  options.task = Task::kMultiClass;
  for (const std::string& content : {std::string("0 1:1\n1 1:2\n"),
                                     std::string("")}) {
    auto d = ParseLibsvm(content, options);
    ASSERT_EQ(d.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(d.status().message().find("needs at least 3 classes"),
              std::string::npos)
        << d.status().ToString();
  }
  options.num_classes = 2;
  EXPECT_EQ(ParseLibsvm("0 1:1\n", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LibsvmTest, ExplicitFeatureCountWins) {
  LibsvmReadOptions options;
  options.num_features = 100;
  auto d = ParseLibsvm("1 1:1.0\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_features(), 100u);
}

TEST(LibsvmTest, RejectsMalformedLabel) {
  auto d = ParseLibsvm("abc 1:1.0\n", LibsvmReadOptions{});
  EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
}

TEST(LibsvmTest, RejectsMalformedEntry) {
  EXPECT_FALSE(ParseLibsvm("1 1:\n", LibsvmReadOptions{}).ok());
  EXPECT_FALSE(ParseLibsvm("1 :2\n", LibsvmReadOptions{}).ok());
  EXPECT_FALSE(ParseLibsvm("1 1:2:3\n", LibsvmReadOptions{}).ok());
}

TEST(LibsvmTest, RejectsZeroIndexInOneBasedFile) {
  auto d = ParseLibsvm("1 0:1.0\n", LibsvmReadOptions{});
  EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
}

TEST(LibsvmTest, RejectsShuffledFeatureIds) {
  auto d = ParseLibsvm("0 1:1\n1 3:1 1:2\n", LibsvmReadOptions{});
  ASSERT_EQ(d.status().code(), StatusCode::kCorruption);
  // Ids are 0-based after the 1-based shift.
  EXPECT_NE(d.status().message().find("row 1, feature 0 after 2"),
            std::string::npos)
      << d.status().ToString();
}

TEST(LibsvmTest, RejectsDuplicateFeatureIds) {
  auto d = ParseLibsvm("1 2:1 2:3\n", LibsvmReadOptions{});
  ASSERT_EQ(d.status().code(), StatusCode::kCorruption);
  EXPECT_NE(d.status().message().find("row 0, feature 1 after 1"),
            std::string::npos)
      << d.status().ToString();
}

// A huge multi-class label would size per-class tables for a billion
// classes; labels >= 2^32, inf and nan would make the class-count cast
// undefined. Each is rejected naming its line.
TEST(LibsvmTest, RejectsLabelsAtOrAboveClassLimit) {
  LibsvmReadOptions options;
  options.task = Task::kMultiClass;
  for (const std::string& label :
       {std::string("1000000000"), std::string("4294967296"),
        std::string("inf"), std::string("nan"),
        std::to_string(kMaxLibsvmClasses)}) {
    auto d = ParseLibsvm("0 1:1\n1 1:2\n2 1:3\n" + label + " 1:4\n", options);
    ASSERT_EQ(d.status().code(), StatusCode::kCorruption) << label;
    EXPECT_NE(d.status().message().find("label " + label + " at line 4"),
              std::string::npos)
        << d.status().ToString();
  }
  auto d = ParseLibsvm(
      "0 1:1\n" + std::to_string(kMaxLibsvmClasses - 1) + " 1:2\n", options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_classes(), kMaxLibsvmClasses);
}

// Index 4294967295 would size per-feature tables for 2^32 features in a
// 1-based file and wrap max index + 1 to 0 in a 0-based one.
TEST(LibsvmTest, RejectsFeatureIndicesAtOrAboveFeatureLimit) {
  for (const bool one_based : {true, false}) {
    LibsvmReadOptions options;
    options.one_based_indices = one_based;
    auto d = ParseLibsvm("0 1:0.5\n1 2:1 4294967295:1\n", options);
    ASSERT_EQ(d.status().code(), StatusCode::kCorruption);
    EXPECT_NE(d.status().message().find("entry 4294967295:1 at line 2"),
              std::string::npos)
        << d.status().ToString();
    // The largest index below the limit is accepted and sets the width.
    const uint32_t top = kMaxLibsvmFeatures - (one_based ? 0 : 1);
    d = ParseLibsvm("1 " + std::to_string(top) + ":1\n", options);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->num_features(), kMaxLibsvmFeatures);
    d = ParseLibsvm("1 " + std::to_string(top + 1) + ":1\n", options);
    EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
  }
}

// The limits admit every dataset the repo models, at paper scale.
TEST(LibsvmTest, LimitsAdmitEveryDatasetProfile) {
  for (const auto* profiles :
       {&PublicDatasetProfiles(), &IndustrialDatasetProfiles()}) {
    for (const DatasetProfile& p : *profiles) {
      EXPECT_LE(p.paper_features, kMaxLibsvmFeatures) << p.name;
      EXPECT_LE(p.num_classes, kMaxLibsvmClasses) << p.name;
    }
  }
}

// Every truncation and every single-byte substitution of a small binary
// and a small multi-class file either parses into a dataset Validate
// accepts or fails with a named status; none may crash (the test also runs
// under ASan and UBSan).
TEST(LibsvmTest, EveryTruncationAndByteSubstitutionIsHandled) {
  struct Case {
    Task task;
    std::string content;
  };
  const Case cases[] = {
      {Task::kBinary, "1 1:0.5 3:1.25e2\n-1 2:-2.0\n0 1:0.1 2:2e-3 3:0.3\n"},
      {Task::kMultiClass, "0 1:1 4:-0.5\n4 2:2.5e1\n2 1:3 3:9\n1 4:1e-1\n"},
  };
  const char kSubstitutes[] = {':', ' ', '\n', '-', '9', 'e', '\0', '\xff'};
  size_t parsed = 0;
  size_t rejected = 0;
  for (const Case& c : cases) {
    LibsvmReadOptions options;
    options.task = c.task;
    auto check = [&](const std::string& content, const std::string& where) {
      const StatusOr<Dataset> d = ParseLibsvm(content, options);
      if (d.ok()) {
        const Status valid = d->Validate();
        EXPECT_TRUE(valid.ok()) << where << ": " << valid.ToString();
        ++parsed;
      } else {
        EXPECT_FALSE(d.status().message().empty()) << where;
        ++rejected;
      }
    };
    ASSERT_TRUE(ParseLibsvm(c.content, options).ok());
    for (size_t len = 0; len < c.content.size(); ++len) {
      check(c.content.substr(0, len), "len " + std::to_string(len));
    }
    for (size_t i = 0; i < c.content.size(); ++i) {
      for (const char sub : kSubstitutes) {
        if (c.content[i] == sub) continue;
        std::string content = c.content;
        content[i] = sub;
        check(content, "byte " + std::to_string(i) + " = " +
                           std::to_string(static_cast<uint8_t>(sub)));
      }
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(LibsvmTest, HandlesCarriageReturns) {
  auto d = ParseLibsvm("1 1:1.0\r\n0 2:2.0\r\n", LibsvmReadOptions{});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_instances(), 2u);
}

TEST(LibsvmTest, FileRoundTrip) {
  SyntheticConfig config;
  config.num_instances = 100;
  config.num_features = 20;
  config.num_classes = 3;
  config.density = 0.4;
  const Dataset original = GenerateSynthetic(config);

  const std::string path = ::testing::TempDir() + "/libsvm_roundtrip.txt";
  ASSERT_TRUE(WriteLibsvmFile(original, path).ok());

  LibsvmReadOptions options;
  options.task = Task::kMultiClass;
  options.num_features = original.num_features();
  auto reloaded = ReadLibsvmFile(path, options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_instances(), original.num_instances());
  EXPECT_EQ(reloaded->labels(), original.labels());
  EXPECT_EQ(reloaded->matrix().features(), original.matrix().features());
  for (size_t k = 0; k < original.matrix().values().size(); ++k) {
    EXPECT_NEAR(reloaded->matrix().values()[k], original.matrix().values()[k],
                1e-5f);
  }
  std::remove(path.c_str());
}

TEST(LibsvmTest, MissingFileIsIOError) {
  auto d = ReadLibsvmFile("/nonexistent/path.txt", LibsvmReadOptions{});
  EXPECT_EQ(d.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace vero
