#include "quadrants/train_distributed.h"

#include <cmath>
#include <gtest/gtest.h>
#include <map>

#include "core/metrics.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeData(uint32_t n, uint32_t d, uint32_t c, uint64_t seed,
                 double density = 0.3) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = c;
  config.density = density;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 5, uint32_t layers = 5) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

void ExpectSameStructure(const GbdtModel& a, const GbdtModel& b,
                         const std::string& label) {
  ASSERT_EQ(a.num_trees(), b.num_trees()) << label;
  for (size_t t = 0; t < a.num_trees(); ++t) {
    const Tree& ta = a.tree(t);
    const Tree& tb = b.tree(t);
    for (NodeId id = 0; id < static_cast<NodeId>(ta.max_nodes()); ++id) {
      ASSERT_EQ(ta.Exists(id), tb.Exists(id))
          << label << " tree " << t << " node " << id;
      if (!ta.Exists(id)) continue;
      ASSERT_EQ(static_cast<int>(ta.node(id).state),
                static_cast<int>(tb.node(id).state))
          << label << " tree " << t << " node " << id;
      if (ta.node(id).state == TreeNode::State::kInternal) {
        EXPECT_EQ(ta.node(id).feature, tb.node(id).feature)
            << label << " tree " << t << " node " << id;
        EXPECT_EQ(ta.node(id).split_bin, tb.node(id).split_bin)
            << label << " tree " << t << " node " << id;
        EXPECT_EQ(ta.node(id).default_left, tb.node(id).default_left)
            << label << " tree " << t << " node " << id;
      } else {
        ASSERT_EQ(ta.node(id).leaf_values.size(),
                  tb.node(id).leaf_values.size());
        for (size_t k = 0; k < ta.node(id).leaf_values.size(); ++k) {
          EXPECT_NEAR(ta.node(id).leaf_values[k], tb.node(id).leaf_values[k],
                      1e-5)
              << label << " tree " << t << " node " << id;
        }
      }
    }
  }
}

// The backbone integration test: with identical hyper-parameters every
// quadrant must grow the same forest — data management changes the cost,
// never the model (§5.2's premise of same-code-base comparison).
TEST(QuadrantEquivalenceTest, AllFourQuadrantsGrowTheSameForestBinary) {
  const Dataset data = MakeData(1200, 30, 2, 71);
  const DistTrainOptions options = SmallOptions();
  std::map<Quadrant, GbdtModel> models;
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    Cluster cluster(4);
    models[q] = TrainDistributed(cluster, data, q, options).model;
  }
  ExpectSameStructure(models[Quadrant::kQD1], models[Quadrant::kQD2],
                      "QD1-vs-QD2");
  ExpectSameStructure(models[Quadrant::kQD2], models[Quadrant::kQD3],
                      "QD2-vs-QD3");
  ExpectSameStructure(models[Quadrant::kQD3], models[Quadrant::kQD4],
                      "QD3-vs-QD4");
}

TEST(QuadrantEquivalenceTest, AllFourQuadrantsAgreeOnMultiClass) {
  const Dataset data = MakeData(900, 20, 4, 73);
  const DistTrainOptions options = SmallOptions(4, 4);
  std::map<Quadrant, GbdtModel> models;
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    Cluster cluster(3);
    models[q] = TrainDistributed(cluster, data, q, options).model;
  }
  ExpectSameStructure(models[Quadrant::kQD1], models[Quadrant::kQD4],
                      "QD1-vs-QD4-multiclass");
  ExpectSameStructure(models[Quadrant::kQD2], models[Quadrant::kQD3],
                      "QD2-vs-QD3-multiclass");
}

TEST(QuadrantEquivalenceTest, SingleWorkerMatchesReferenceTrainer) {
  const Dataset data = MakeData(800, 25, 2, 79);
  const DistTrainOptions options = SmallOptions();
  Trainer reference(options.params);
  auto ref_model = reference.Train(data);
  ASSERT_TRUE(ref_model.ok());
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4, Quadrant::kFeatureParallel}) {
    Cluster cluster(1);
    const DistResult result = TrainDistributed(cluster, data, q, options);
    ExpectSameStructure(*ref_model, result.model,
                        std::string("reference-vs-") + QuadrantToString(q));
  }
}

TEST(QuadrantEquivalenceTest, FeatureParallelMatchesQuadrants) {
  const Dataset data = MakeData(700, 24, 2, 83);
  const DistTrainOptions options = SmallOptions();
  Cluster cluster_fp(3);
  const GbdtModel fp =
      TrainDistributed(cluster_fp, data, Quadrant::kFeatureParallel, options)
          .model;
  // Feature-parallel proposes splits from the full local copy, which equals
  // the distributed sketch pipeline result only when that pipeline sees the
  // data unsharded; compare against the W=1 run of QD4.
  Cluster cluster_qd4(1);
  const GbdtModel qd4 =
      TrainDistributed(cluster_qd4, data, Quadrant::kQD4, options).model;
  ExpectSameStructure(fp, qd4, "feature-parallel-vs-QD4(W=1)");
}

TEST(QuadrantEquivalenceTest, Qd3IndexPoliciesAgree) {
  const Dataset data = MakeData(600, 20, 2, 89);
  const DistTrainOptions options = SmallOptions(3, 4);
  std::map<int, GbdtModel> models;
  int i = 0;
  for (HistogramBuilder::ColumnScan scan :
       {HistogramBuilder::ColumnScan::kLinear,
        HistogramBuilder::ColumnScan::kBinarySearch,
        HistogramBuilder::ColumnScan::kAuto}) {
    Cluster cluster(3);
    models[i++] =
        TrainDistributed(cluster, data, Quadrant::kQD3, options, nullptr,
                         scan)
            .model;
  }
  ExpectSameStructure(models[0], models[1], "linear-vs-binary");
  ExpectSameStructure(models[1], models[2], "binary-vs-mixed");
}

// The cluster's W workers share the one ParallelFor pool. Every quadrant
// must grow the bit-identical forest at 1 and 3 threads per worker, for
// binary and multi-class gradients.
TEST(QuadrantEquivalenceTest, ThreadCountLeavesEveryQuadrantsModelUnchanged) {
  for (const uint32_t classes : {2u, 3u}) {
    const Dataset data = MakeData(900, 24, classes, 97);
    for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                       Quadrant::kQD4, Quadrant::kFeatureParallel}) {
      std::string text[2];
      for (int i = 0; i < 2; ++i) {
        DistTrainOptions options = SmallOptions(4, 5);
        options.params.num_threads = i == 0 ? 1 : 3;
        Cluster cluster(3);
        text[i] =
            ModelToText(TrainDistributed(cluster, data, q, options).model);
      }
      EXPECT_EQ(text[0], text[1])
          << QuadrantToString(q) << " classes=" << classes;
    }
  }
}

// Fully dense data: every QD4 worker stores its column group as dense
// blocks (bins only). The model must not notice the layout.
TEST(QuadrantEquivalenceTest, DenseDataKeepsQd4OnTheSameForest) {
  const Dataset data = MakeData(900, 18, 2, 103, /*density=*/1.0);
  const DistTrainOptions options = SmallOptions(4, 5);
  std::map<Quadrant, GbdtModel> models;
  for (Quadrant q : {Quadrant::kQD2, Quadrant::kQD3, Quadrant::kQD4}) {
    Cluster cluster(3);
    models[q] = TrainDistributed(cluster, data, q, options).model;
  }
  ExpectSameStructure(models[Quadrant::kQD2], models[Quadrant::kQD4],
                      "QD2-vs-QD4-dense");
  ExpectSameStructure(models[Quadrant::kQD3], models[Quadrant::kQD4],
                      "QD3-vs-QD4-dense");
  std::string text[2];
  for (int i = 0; i < 2; ++i) {
    DistTrainOptions threaded = options;
    threaded.params.num_threads = i == 0 ? 1 : 3;
    Cluster cluster(3);
    text[i] = ModelToText(
        TrainDistributed(cluster, data, Quadrant::kQD4, threaded).model);
  }
  EXPECT_EQ(text[0], text[1]);
  EXPECT_EQ(text[0], ModelToText(models[Quadrant::kQD4]));
}

TEST(DistTrainTest, WorkerCountDoesNotBreakLearning) {
  const Dataset data = MakeData(3000, 40, 2, 97);
  const auto [train, valid] = data.SplitTail(0.25);
  for (int w : {1, 2, 4, 8}) {
    Cluster cluster(w);
    const DistResult result = TrainDistributed(
        cluster, train, Quadrant::kQD4, SmallOptions(8, 6), &valid);
    EXPECT_GT(EvaluateModel(result.model, valid).value, 0.65)
        << "W=" << w;
  }
}

TEST(DistTrainTest, CurveIsRecordedWithMonotoneElapsed) {
  const Dataset data = MakeData(1000, 20, 2, 101);
  const auto [train, valid] = data.SplitTail(0.3);
  Cluster cluster(3);
  const DistResult result = TrainDistributed(cluster, train, Quadrant::kQD2,
                                             SmallOptions(6, 4), &valid);
  ASSERT_EQ(result.curve.size(), 6u);
  double prev_elapsed = 0.0;
  double prev_loss = 1e300;
  for (const IterationStats& it : result.curve) {
    EXPECT_GT(it.elapsed_seconds, prev_elapsed);
    prev_elapsed = it.elapsed_seconds;
    EXPECT_LE(it.train_loss, prev_loss + 1e-9);
    prev_loss = it.train_loss;
    EXPECT_TRUE(it.has_valid_metric);
  }
}

TEST(DistTrainTest, TreeCostsPopulated) {
  const Dataset data = MakeData(1000, 30, 2, 103);
  Cluster cluster(4);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD4, SmallOptions(4, 5));
  ASSERT_EQ(result.tree_costs.size(), 4u);
  for (const TreeCost& c : result.tree_costs) {
    EXPECT_GE(c.comp_seconds(), 0.0);
    EXPECT_GT(c.comm_seconds, 0.0);
  }
  EXPECT_GT(result.TrainSeconds(), 0.0);
  EXPECT_GT(result.setup_seconds, 0.0);
  EXPECT_GT(result.peak_histogram_bytes, 0u);
  EXPECT_GT(result.data_bytes, 0u);
  EXPECT_GT(result.train_bytes_sent, 0u);
}

// Invalid options come back as a status (as the reference trainer's do)
// instead of aborting the process, and nothing is trained.
TEST(DistTrainTest, InvalidOptionsReturnInvalidArgument) {
  const Dataset data = MakeData(200, 10, 2, 104);
  Cluster cluster(2);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, SmallOptions(0, 5));
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status.message(), "num_trees == 0");
  EXPECT_EQ(result.model.num_trees(), 0u);
  EXPECT_EQ(result.recovery.final_world_size, 2);
}

// §3.1.2: vertical histogram memory is ~1/W of horizontal.
TEST(CostModelTest, VerticalUsesLessHistogramMemory) {
  const Dataset data = MakeData(1500, 200, 2, 107);
  const DistTrainOptions options = SmallOptions(2, 6);
  Cluster c2(4), c4(4);
  const DistResult qd2 =
      TrainDistributed(c2, data, Quadrant::kQD2, options);
  const DistResult qd4 =
      TrainDistributed(c4, data, Quadrant::kQD4, options);
  // Expect roughly a W-fold reduction; allow slack for uneven grouping.
  EXPECT_LT(qd4.peak_histogram_bytes * 2,
            qd2.peak_histogram_bytes);
}

// §3.1.3: horizontal communication scales with D, vertical with N.
TEST(CostModelTest, VerticalMovesFewerBytesAtHighDimensionality) {
  const Dataset data = MakeData(1000, 400, 2, 109);
  const DistTrainOptions options = SmallOptions(2, 6);
  Cluster c2(4), c4(4);
  const uint64_t qd2_bytes =
      TrainDistributed(c2, data, Quadrant::kQD2, options).train_bytes_sent;
  const uint64_t qd4_bytes =
      TrainDistributed(c4, data, Quadrant::kQD4, options).train_bytes_sent;
  EXPECT_GT(qd2_bytes, 4 * qd4_bytes);
}

TEST(CostModelTest, Qd1MovesMoreThanQd2) {
  // All-reduce (2x) vs reduce-scatter (1x) over the same histograms.
  const Dataset data = MakeData(1000, 100, 2, 113);
  const DistTrainOptions options = SmallOptions(2, 5);
  Cluster c1(4), c2(4);
  const uint64_t qd1_bytes =
      TrainDistributed(c1, data, Quadrant::kQD1, options).train_bytes_sent;
  const uint64_t qd2_bytes =
      TrainDistributed(c2, data, Quadrant::kQD2, options).train_bytes_sent;
  EXPECT_GT(qd1_bytes, qd2_bytes);
}

TEST(DistTrainTest, SubtractionAblationKeepsModel) {
  const Dataset data = MakeData(900, 25, 2, 127);
  DistTrainOptions with = SmallOptions();
  DistTrainOptions without = SmallOptions();
  without.params.histogram_subtraction = false;
  Cluster ca(3), cb(3);
  const GbdtModel a =
      TrainDistributed(ca, data, Quadrant::kQD4, with).model;
  const GbdtModel b =
      TrainDistributed(cb, data, Quadrant::kQD4, without).model;
  ExpectSameStructure(a, b, "subtraction-ablation");
}

TEST(DistTrainTest, EarlyStoppingHaltsAllWorkersTogether) {
  // Pure-noise labels: validation AUC plateaus immediately, so the cluster
  // must stop long before the 100-tree budget — and produce a coherent
  // model (every worker takes the same branch).
  SyntheticConfig config;
  config.num_instances = 1200;
  config.num_features = 10;
  config.label_noise = 1000.0;
  config.seed = 139;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, valid] = data.SplitTail(0.5);
  DistTrainOptions options = SmallOptions(100, 4);
  options.params.early_stopping_rounds = 4;
  Cluster cluster(4);
  const DistResult result =
      TrainDistributed(cluster, train, Quadrant::kQD4, options, &valid);
  EXPECT_LT(result.model.num_trees(), 100u);
  EXPECT_EQ(result.model.num_trees(), result.tree_costs.size());
  EXPECT_EQ(result.model.num_trees(), result.curve.size());
}

TEST(DistTrainTest, RegressionAcrossQuadrants) {
  SyntheticConfig config;
  config.num_instances = 1200;
  config.num_features = 20;
  config.num_classes = 1;  // Regression.
  config.density = 0.4;
  config.seed = 137;
  const Dataset data = GenerateSynthetic(config);
  double baseline = 0.0;
  for (float y : data.labels()) baseline += y * y;
  baseline = std::sqrt(baseline / data.num_instances());

  GbdtModel reference;
  bool first = true;
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    Cluster cluster(4);
    DistTrainOptions options = SmallOptions(20, 5);
    const DistResult result = TrainDistributed(cluster, data, q, options);
    const MetricValue rmse = EvaluateModel(result.model, data);
    EXPECT_EQ(rmse.name, "rmse");
    EXPECT_LT(rmse.value, baseline) << QuadrantToString(q);
    if (first) {
      reference = result.model;
      first = false;
    } else {
      ExpectSameStructure(reference, result.model,
                          std::string("regression-") + QuadrantToString(q));
    }
  }
}

// Parameterized sweep over quadrants x worker counts x tasks.
struct DistSweepParam {
  Quadrant quadrant;
  int workers;
  uint32_t classes;
};

class DistSweepTest : public ::testing::TestWithParam<DistSweepParam> {};

TEST_P(DistSweepTest, TrainsAndReducesLoss) {
  const DistSweepParam p = GetParam();
  const Dataset data = MakeData(800, 20, p.classes, 131 + p.classes);
  Cluster cluster(p.workers);
  const Dataset* no_valid = nullptr;
  DistTrainOptions options = SmallOptions(4, 4);
  const DistResult result =
      TrainDistributed(cluster, data, p.quadrant, options, no_valid);
  EXPECT_EQ(result.model.num_trees(), 4u);
  const MetricValue metric = EvaluateModel(result.model, data);
  if (p.classes == 2) {
    EXPECT_GT(metric.value, 0.6);
  } else {
    EXPECT_GT(metric.value, 1.2 / p.classes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuadrantsWorkersTasks, DistSweepTest,
    ::testing::Values(DistSweepParam{Quadrant::kQD1, 2, 2},
                      DistSweepParam{Quadrant::kQD1, 5, 3},
                      DistSweepParam{Quadrant::kQD2, 3, 2},
                      DistSweepParam{Quadrant::kQD2, 5, 5},
                      DistSweepParam{Quadrant::kQD3, 2, 2},
                      DistSweepParam{Quadrant::kQD3, 4, 3},
                      DistSweepParam{Quadrant::kQD4, 2, 2},
                      DistSweepParam{Quadrant::kQD4, 6, 4},
                      DistSweepParam{Quadrant::kFeatureParallel, 3, 2},
                      DistSweepParam{Quadrant::kFeatureParallel, 4, 3}));

}  // namespace
}  // namespace vero
