// Degenerate-shape and failure-injection tests: more workers than features,
// more workers than instances, empty shards, constant features, corrupt
// wire payloads.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "quadrants/train_distributed.h"
#include "sketch/quantile_summary.h"

namespace vero {
namespace {

Dataset TinyData(uint32_t n, uint32_t d, uint64_t seed = 61) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 1.0;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions TinyOptions() {
  DistTrainOptions options;
  options.params.num_trees = 3;
  options.params.num_layers = 4;
  options.params.num_candidate_splits = 8;
  return options;
}

TEST(EdgeCaseTest, MoreWorkersThanFeatures) {
  // Some workers own zero features and must still participate in every
  // collective: the vertical quadrants' column groups, and QD2's
  // feature-sliced exchange, where a rank with an empty slice still hands
  // its peers their slices of its histograms. QD1 replicates every feature.
  const Dataset data = TinyData(500, 3);
  std::string first_text;
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    Cluster cluster(6);
    const DistResult result =
        TrainDistributed(cluster, data, q, TinyOptions());
    ASSERT_TRUE(result.status.ok()) << QuadrantToString(q);
    EXPECT_EQ(result.model.num_trees(), 3u) << QuadrantToString(q);
    EXPECT_GT(EvaluateModel(result.model, data).value, 0.5);
    const std::string text = ModelToText(result.model);
    if (first_text.empty()) first_text = text;
    EXPECT_EQ(text, first_text) << QuadrantToString(q);
  }
}

TEST(EdgeCaseTest, MoreWorkersThanInstances) {
  // Horizontal quadrants: some shards are empty.
  const Dataset data = TinyData(5, 4);
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD4}) {
    Cluster cluster(8);
    const DistResult result =
        TrainDistributed(cluster, data, q, TinyOptions());
    EXPECT_EQ(result.model.num_trees(), 3u) << QuadrantToString(q);
  }
}

TEST(EdgeCaseTest, SingleInstance) {
  const Dataset data = TinyData(1, 3);
  Trainer trainer(TinyOptions().params);
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  // One instance can never split (both children would need mass).
  for (size_t t = 0; t < model->num_trees(); ++t) {
    EXPECT_EQ(model->tree(t).NumLeaves(), 1u);
  }
}

TEST(EdgeCaseTest, AllFeaturesConstant) {
  CsrMatrix m;
  m.set_num_cols(3);
  std::vector<float> labels;
  for (int i = 0; i < 100; ++i) {
    m.StartRow();
    m.PushEntry(0, 1.0f);
    m.PushEntry(1, 2.0f);
    m.PushEntry(2, 3.0f);
    labels.push_back(static_cast<float>(i % 2));
  }
  const Dataset data(std::move(m), std::move(labels), Task::kBinary, 2);
  Trainer trainer(TinyOptions().params);
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  // No split possible: every tree is a single-leaf stump.
  EXPECT_EQ(model->tree(0).NumLeaves(), 1u);
}

TEST(EdgeCaseTest, PerfectlySeparableSingleFeature) {
  CsrMatrix m;
  m.set_num_cols(1);
  std::vector<float> labels;
  for (int i = 0; i < 200; ++i) {
    m.StartRow();
    m.PushEntry(0, static_cast<float>(i));
    labels.push_back(i < 100 ? 0.0f : 1.0f);
  }
  const Dataset data(std::move(m), std::move(labels), Task::kBinary, 2);
  GbdtParams params = TinyOptions().params;
  params.num_trees = 20;
  Trainer trainer(params);
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateModel(*model, data).value, 0.99);
}

TEST(EdgeCaseTest, EmptyRowsAreRoutedByDefaults) {
  // Instances with no features at all must follow default directions.
  CsrMatrix m;
  m.set_num_cols(2);
  std::vector<float> labels;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    m.StartRow();
    if (i % 3 != 0) {  // Every third row is empty.
      const float v = static_cast<float>(rng.NextDouble());
      m.PushEntry(0, v);
      labels.push_back(v > 0.5f ? 1.0f : 0.0f);
    } else {
      labels.push_back(1.0f);
    }
  }
  const Dataset data(std::move(m), std::move(labels), Task::kBinary, 2);
  Trainer trainer(TinyOptions().params);
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  // Empty rows all share one leaf per tree, and the model is finite.
  const auto margins = model->PredictDatasetMargins(data);
  for (double v : margins) EXPECT_TRUE(std::isfinite(v));
}

TEST(EdgeCaseTest, DeepTreeOnTinyDataStopsGracefully) {
  const Dataset data = TinyData(20, 4);
  GbdtParams params = TinyOptions().params;
  params.num_layers = 12;  // Far deeper than 20 instances can fill.
  Trainer trainer(params);
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->tree(0).NumLeaves(), 20u);
}

TEST(EdgeCaseTest, WideClusterQuadrantEquivalenceStillHolds) {
  const Dataset data = TinyData(64, 6, 67);
  const DistTrainOptions options = TinyOptions();
  GbdtModel reference;
  bool first = true;
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    Cluster cluster(7);  // Does not divide 64 or 6 evenly.
    const GbdtModel model =
        TrainDistributed(cluster, data, q, options).model;
    if (first) {
      reference = model;
      first = false;
      continue;
    }
    ASSERT_EQ(model.num_trees(), reference.num_trees());
    for (size_t t = 0; t < model.num_trees(); ++t) {
      const Tree& a = reference.tree(t);
      const Tree& b = model.tree(t);
      for (NodeId id = 0; id < static_cast<NodeId>(a.max_nodes()); ++id) {
        ASSERT_EQ(a.Exists(id), b.Exists(id)) << QuadrantToString(q);
        if (a.Exists(id) &&
            a.node(id).state == TreeNode::State::kInternal) {
          EXPECT_EQ(a.node(id).feature, b.node(id).feature)
              << QuadrantToString(q) << " tree " << t << " node " << id;
        }
      }
    }
  }
}

// ---- Failure injection: corrupt / truncated wire payloads ------------------

TEST(FailureInjectionTest, TruncatedSummaryPayloadsReturnErrors) {
  QuantileSummary summary = QuantileSummary::FromValues({1, 2, 3, 4, 5});
  ByteWriter writer;
  summary.SerializeTo(&writer);
  const std::vector<uint8_t>& bytes = writer.data();
  // Every strict prefix must fail cleanly (no crash, no partial success).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(bytes.data(), cut);
    QuantileSummary out;
    EXPECT_FALSE(QuantileSummary::Deserialize(&reader, &out).ok())
        << "cut at " << cut;
  }
}

TEST(FailureInjectionTest, TruncatedSplitPayloadsReturnErrors) {
  SplitCandidate split;
  split.valid = true;
  split.feature = 3;
  split.left_stats = {{1.0, 2.0}};
  split.right_stats = {{3.0, 4.0}};
  ByteWriter writer;
  split.SerializeTo(&writer);
  for (size_t cut = 0; cut < writer.data().size(); ++cut) {
    ByteReader reader(writer.data().data(), cut);
    SplitCandidate out;
    EXPECT_FALSE(SplitCandidate::Deserialize(&reader, &out).ok());
  }
}

TEST(FailureInjectionTest, RandomGarbageNeverCrashesModelDeserialize) {
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng.Uniform(256));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    ByteReader reader(garbage);
    GbdtModel model;
    // Must return (usually an error); absolutely must not crash or hang.
    (void)GbdtModel::Deserialize(&reader, &model);
  }
}

TEST(FailureInjectionTest, BitFlippedTreePayloadFailsOrStaysConsistent) {
  Tree tree(3, 2);
  tree.SetSplit(0, 1, 0.5f, 2, true, 1.5);
  tree.SetLeaf(1, {1.0f, -1.0f});
  tree.SetLeaf(2, {-1.0f, 1.0f});
  ByteWriter writer;
  tree.SerializeTo(&writer);
  Rng rng(73);
  // Few dozen trials: a flipped depth byte can legitimately allocate a
  // 2^24-node tree, so keep the loop bounded.
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<uint8_t> bytes = writer.data();
    bytes[rng.Uniform(bytes.size())] ^= static_cast<uint8_t>(
        1u << rng.Uniform(8));
    ByteReader reader(bytes);
    Tree out;
    const Status status = Tree::Deserialize(&reader, &out);
    if (status.ok()) {
      // If it parsed, the structure must still be self-consistent enough to
      // route an instance without crashing.
      const std::vector<FeatureId> f = {1};
      const std::vector<float> v = {0.2f};
      if (out.Exists(0)) {
        (void)out.Route({f.data(), 1}, {v.data(), 1});
      }
    }
  }
}

}  // namespace
}  // namespace vero
