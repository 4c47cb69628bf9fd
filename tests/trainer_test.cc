#include "core/trainer.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/loss.h"
#include "core/model_io.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeBinaryData(uint32_t n = 3000, uint32_t d = 30,
                       uint64_t seed = 5) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config);
}

GbdtParams SmallParams() {
  GbdtParams params;
  params.num_trees = 10;
  params.num_layers = 5;
  params.num_candidate_splits = 16;
  return params;
}

TEST(TrainerTest, NegativeZeroInputTrainsTheSameModelAsPositiveZero) {
  // The sketch stores a run of zeros as +0.0, so a split at zero reads the
  // same whichever zero the input holds, and so does the model text.
  auto make = [](float zero) {
    CsrMatrix m;
    m.set_num_cols(2);
    std::vector<float> labels;
    const float cycle[4] = {-1.0f, zero, 1.0f, 2.0f};
    for (int i = 0; i < 400; ++i) {
      m.StartRow();
      m.PushEntry(0, cycle[i % 4]);
      m.PushEntry(1, static_cast<float>(i % 7));
      labels.push_back(i % 4 <= 1 ? 0.0f : 1.0f);
    }
    return Dataset(std::move(m), std::move(labels), Task::kBinary, 2);
  };
  GbdtParams params = SmallParams();
  params.num_trees = 2;
  auto negative = Trainer(params).Train(make(-0.0f));
  auto positive = Trainer(params).Train(make(0.0f));
  ASSERT_TRUE(negative.ok() && positive.ok());
  EXPECT_EQ(ModelToText(*negative), ModelToText(*positive));
}

TEST(TrainerTest, RejectsBadParams) {
  GbdtParams params;
  params.num_trees = 0;
  Trainer trainer(params);
  EXPECT_FALSE(trainer.Train(MakeBinaryData(100)).ok());
}

TEST(TrainerTest, RejectsEmptyDataset) {
  CsrMatrix m;
  m.set_num_cols(1);
  Dataset empty(std::move(m), {}, Task::kBinary, 2);
  Trainer trainer(SmallParams());
  EXPECT_EQ(trainer.Train(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainerTest, TrainLossDecreasesMonotonically) {
  const Dataset train = MakeBinaryData();
  std::vector<double> losses;
  Trainer trainer(SmallParams());
  auto model = trainer.Train(train, nullptr, [&](const IterationStats& it) {
    losses.push_back(it.train_loss);
  });
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(losses.size(), 10u);
  for (size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i], losses[i - 1] + 1e-9) << "round " << i;
  }
  EXPECT_LT(losses.back(), std::log(2.0));  // Better than the trivial model.
}

TEST(TrainerTest, BeatsRandomAucOnLearnableData) {
  const Dataset data = MakeBinaryData(5000, 40);
  const auto [train, valid] = data.SplitTail(0.2);
  Trainer trainer(SmallParams());
  auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateModel(*model, valid).value, 0.7);
}

TEST(TrainerTest, OverfitsTinyDataset) {
  // With enough capacity the trainer should (nearly) memorize 50 points.
  const Dataset train = MakeBinaryData(50, 10, 9);
  GbdtParams params = SmallParams();
  params.num_trees = 50;
  params.num_layers = 6;
  params.learning_rate = 0.5;
  Trainer trainer(params);
  auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateModel(*model, train).value, 0.99);
}

TEST(TrainerTest, RegressionReducesRmse) {
  SyntheticConfig config;
  config.num_instances = 2000;
  config.num_features = 20;
  config.num_classes = 1;
  config.density = 0.5;
  const Dataset train = GenerateSynthetic(config);
  GbdtParams params = SmallParams();
  params.num_trees = 40;  // Enough shrinkage steps to absorb the signal.
  Trainer trainer(params);
  auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  // Baseline RMSE (predicting 0) vs model RMSE.
  double baseline = 0.0;
  for (float y : train.labels()) baseline += y * y;
  baseline = std::sqrt(baseline / train.num_instances());
  EXPECT_LT(EvaluateModel(*model, train).value, baseline * 0.9);
}

TEST(TrainerTest, MultiClassBeatsUniformAccuracy) {
  SyntheticConfig config;
  config.num_instances = 4000;
  config.num_features = 30;
  config.num_classes = 5;
  config.density = 0.5;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, valid] = data.SplitTail(0.25);
  GbdtParams params = SmallParams();
  params.num_trees = 15;
  Trainer trainer(params);
  auto model = trainer.Train(train, &valid);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateModel(*model, valid).value, 2.0 / 5);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  const Dataset train = MakeBinaryData(1000, 20);
  Trainer a(SmallParams());
  Trainer b(SmallParams());
  auto ma = a.Train(train);
  auto mb = b.Train(train);
  ASSERT_TRUE(ma.ok() && mb.ok());
  ASSERT_EQ(ma->num_trees(), mb->num_trees());
  for (size_t t = 0; t < ma->num_trees(); ++t) {
    EXPECT_TRUE(ma->tree(t) == mb->tree(t)) << "tree " << t;
  }
}

// The histogram-subtraction ablation: identical trees with and without it.
TEST(TrainerTest, SubtractionDoesNotChangeTheModel) {
  const Dataset train = MakeBinaryData(2000, 25, 13);
  GbdtParams with = SmallParams();
  with.histogram_subtraction = true;
  GbdtParams without = SmallParams();
  without.histogram_subtraction = false;
  auto ma = Trainer(with).Train(train);
  auto mb = Trainer(without).Train(train);
  ASSERT_TRUE(ma.ok() && mb.ok());
  for (size_t t = 0; t < ma->num_trees(); ++t) {
    // Structures must match exactly; leaf values may differ only by
    // floating-point associativity.
    const Tree& ta = ma->tree(t);
    const Tree& tb = mb->tree(t);
    for (NodeId id = 0; id < static_cast<NodeId>(ta.max_nodes()); ++id) {
      ASSERT_EQ(ta.Exists(id), tb.Exists(id));
      if (!ta.Exists(id)) continue;
      ASSERT_EQ(ta.node(id).state, tb.node(id).state);
      if (ta.node(id).state == TreeNode::State::kInternal) {
        EXPECT_EQ(ta.node(id).feature, tb.node(id).feature);
        EXPECT_EQ(ta.node(id).split_bin, tb.node(id).split_bin);
      } else {
        for (size_t k = 0; k < ta.node(id).leaf_values.size(); ++k) {
          EXPECT_NEAR(ta.node(id).leaf_values[k], tb.node(id).leaf_values[k],
                      1e-5);
        }
      }
    }
  }
}

TEST(TrainerTest, DeeperTreesFitBetter) {
  const Dataset train = MakeBinaryData(3000, 30, 17);
  GbdtParams shallow = SmallParams();
  shallow.num_layers = 3;
  GbdtParams deep = SmallParams();
  deep.num_layers = 7;
  auto ms = Trainer(shallow).Train(train);
  auto md = Trainer(deep).Train(train);
  ASSERT_TRUE(ms.ok() && md.ok());
  EXPECT_GE(EvaluateModel(*md, train).value,
            EvaluateModel(*ms, train).value);
}

TEST(TrainerTest, MinChildInstancesLimitsLeafSize) {
  const Dataset train = MakeBinaryData(500, 10, 23);
  GbdtParams params = SmallParams();
  params.min_child_instances = 100;
  Trainer trainer(params);
  auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  // With n=500 and min_child=100 a tree can have at most 5 leaves.
  for (size_t t = 0; t < model->num_trees(); ++t) {
    EXPECT_LE(model->tree(t).NumLeaves(), 5u);
  }
}

TEST(TrainerTest, ReportPhasesSumBelowTotal) {
  const Dataset train = MakeBinaryData(1000, 20);
  Trainer trainer(SmallParams());
  ASSERT_TRUE(trainer.Train(train).ok());
  const TrainReport& r = trainer.report();
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.peak_histogram_bytes, 0u);
  EXPECT_GT(r.data_bytes, 0u);
  EXPECT_LE(r.histogram_seconds + r.split_find_seconds +
                r.node_split_seconds,
            r.total_seconds + 1e-6);
}

TEST(TrainerTest, ValidCallbackReportsMetric) {
  const Dataset data = MakeBinaryData(2000, 20);
  const auto [train, valid] = data.SplitTail(0.3);
  Trainer trainer(SmallParams());
  int calls = 0;
  auto model =
      trainer.Train(train, &valid, [&](const IterationStats& it) {
        ++calls;
        EXPECT_TRUE(it.has_valid_metric);
        EXPECT_GE(it.valid_metric, 0.0);
        EXPECT_LE(it.valid_metric, 1.0);
        EXPECT_GE(it.elapsed_seconds, 0.0);
      });
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(calls, 10);
}

TEST(TrainerTest, ModelSurvivesDiskRoundTripWithSamePredictions) {
  const Dataset data = MakeBinaryData(800, 15);
  Trainer trainer(SmallParams());
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/trainer_model.bin";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  const auto a = model->PredictDatasetMargins(data);
  const auto b = loaded->PredictDatasetMargins(data);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

// Parameterized sweep: the trainer must run clean across task types, tree
// depths, and candidate-split counts.
struct SweepParam {
  uint32_t num_classes;
  uint32_t num_layers;
  uint32_t q;
};

class TrainerSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TrainerSweepTest, TrainsAndImprovesLoss) {
  const SweepParam p = GetParam();
  SyntheticConfig config;
  config.num_instances = 1500;
  config.num_features = 25;
  config.num_classes = p.num_classes;
  config.density = 0.4;
  config.seed = 31 + p.num_classes;
  const Dataset train = GenerateSynthetic(config);

  GbdtParams params;
  params.num_trees = 5;
  params.num_layers = p.num_layers;
  params.num_candidate_splits = p.q;
  std::vector<double> losses;
  Trainer trainer(params);
  auto model = trainer.Train(train, nullptr, [&](const IterationStats& it) {
    losses.push_back(it.train_loss);
  });
  ASSERT_TRUE(model.ok());
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_EQ(model->num_trees(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    TaskDepthBins, TrainerSweepTest,
    ::testing::Values(SweepParam{1, 4, 8}, SweepParam{1, 6, 32},
                      SweepParam{2, 3, 8}, SweepParam{2, 6, 20},
                      SweepParam{2, 8, 64}, SweepParam{4, 4, 16},
                      SweepParam{4, 6, 20}, SweepParam{8, 5, 12}));

}  // namespace
}  // namespace vero
