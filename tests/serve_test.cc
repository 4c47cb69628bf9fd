#include "serve/batch_predictor.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "quadrants/train_distributed.h"
#include "serve/flat_forest.h"

namespace vero {
namespace {

using serve::BatchPredictor;
using serve::FlatForest;
using serve::ServeOptions;

// ---- Fixtures -------------------------------------------------------------

// Random forest with trees of random shape: nodes split with probability
// 0.7 while depth allows, so the grid covers full trees, stumps, lopsided
// trees, and (at max_layers == 1) single-leaf trees.
Tree MakeRandomTree(Rng& rng, uint32_t max_layers, uint32_t dims,
                    uint32_t num_features) {
  Tree tree(max_layers, dims);
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (!tree.Exists(id) ||
        tree.node(id).state != TreeNode::State::kLeaf) {
      continue;
    }
    if (static_cast<uint32_t>(RightChild(id)) < tree.max_nodes() &&
        rng.Bernoulli(0.7)) {
      tree.SetSplit(id, static_cast<FeatureId>(rng.Uniform(num_features)),
                    static_cast<float>(rng.UniformDouble(-1.0, 1.0)),
                    static_cast<BinId>(rng.Uniform(16)), rng.Bernoulli(0.5),
                    rng.NextDouble());
    }
  }
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (tree.Exists(id) && tree.node(id).state == TreeNode::State::kLeaf) {
      std::vector<float> weights(dims);
      for (float& w : weights) {
        w = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      }
      tree.SetLeaf(id, weights);
    }
  }
  return tree;
}

GbdtModel MakeRandomModel(Rng& rng, uint32_t trees, uint32_t max_layers,
                          uint32_t dims, uint32_t num_features) {
  GbdtModel model(dims == 1 ? Task::kBinary : Task::kMultiClass,
                  dims == 1 ? 2 : dims, 0.1);
  for (uint32_t t = 0; t < trees; ++t) {
    model.AddTree(MakeRandomTree(rng, max_layers, dims, num_features));
  }
  return model;
}

// Sorted sparse rows with random density; roughly one row in ten is empty
// (all features missing), exercising the default_left chains.
CsrMatrix MakeRandomRows(Rng& rng, uint32_t n, uint32_t num_features,
                         double density) {
  CsrMatrix m;
  m.set_num_cols(num_features);
  for (uint32_t i = 0; i < n; ++i) {
    m.StartRow();
    if (rng.Bernoulli(0.1)) continue;  // Empty row.
    const uint32_t nnz = 1 + static_cast<uint32_t>(rng.Uniform(
                                 std::max(1u, static_cast<uint32_t>(
                                                  num_features * density))));
    for (const uint32_t f : rng.SampleWithoutReplacement(
             num_features, std::min(nnz, num_features))) {
      m.PushEntry(f, static_cast<float>(rng.UniformDouble(-2.0, 2.0)));
    }
  }
  return m;
}

// The per-row reference: Tree::PredictInto tree by tree, exactly what
// GbdtModel::PredictMargins does.
std::vector<double> ReferenceMargins(const GbdtModel& model,
                                     const CsrMatrix& m) {
  const uint32_t dims = model.margin_dims();
  std::vector<double> out(static_cast<size_t>(m.num_rows()) * dims);
  for (InstanceId i = 0; i < m.num_rows(); ++i) {
    model.PredictMargins(m.RowFeatures(i), m.RowValues(i),
                         out.data() + static_cast<size_t>(i) * dims);
  }
  return out;
}

void ExpectBitIdentical(const std::vector<double>& want,
                        const std::vector<double>& got,
                        const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  if (want.empty()) return;  // memcmp on a null data() is UB.
  ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(double)))
      << label;
}

// ---- Differential property tests -----------------------------------------

TEST(FlatForestTest, FlattenSingleHandBuiltTree) {
  GbdtModel model(Task::kBinary, 2, 0.3);
  Tree t(3, 1);
  t.SetSplit(0, 4, 1.5f, 2, false, 3.0);
  t.SetSplit(1, 2, -0.5f, 1, true, 2.0);
  t.SetLeaf(3, {-0.5f});
  t.SetLeaf(4, {0.25f});
  t.SetLeaf(2, {0.5f});
  model.AddTree(std::move(t));

  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
  const FlatForest& forest = forest_or.value();
  EXPECT_EQ(forest.num_trees(), 1u);
  EXPECT_EQ(forest.num_internal_nodes(), 2u);
  EXPECT_EQ(forest.num_leaves(), 3u);
  EXPECT_EQ(forest.max_feature(), 4u);

  CsrMatrix row;
  row.set_num_cols(5);
  row.StartRow();
  row.PushEntry(2, -1.0f);
  row.PushEntry(4, 1.0f);
  double want = 0.0, got = 0.0;
  model.PredictMargins(row.RowFeatures(0), row.RowValues(0), &want);
  BatchPredictor(&forest).PredictCsrMargins(row, &got);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
}

// The core contract: for random forests (depths 1..L, C in {1, 3}, missing
// values exercising default_left, sparse rows), BatchPredictor margins are
// bit-identical to per-row Tree::PredictInto at every thread count x batch
// size x tile shape in the grid.
TEST(BatchPredictorDifferentialTest, SparseGridBitIdentical) {
  Rng rng(1234);
  const uint32_t d = 40;
  for (const uint32_t dims : {1u, 3u}) {
    for (uint32_t max_layers = 1; max_layers <= 6; ++max_layers) {
      const GbdtModel model = MakeRandomModel(rng, 5, max_layers, dims, d);
      const CsrMatrix rows = MakeRandomRows(rng, 97, d, 0.3);
      const std::vector<double> want = ReferenceMargins(model, rows);

      auto forest_or = FlatForest::FromModel(model);
      ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
      const FlatForest& forest = forest_or.value();

      for (const uint32_t threads : {1u, 2u, 4u}) {
        for (const uint32_t batch : {1u, 3u, 17u, 64u}) {
          ServeOptions options;
          options.num_threads = threads;
          options.row_block = 7;
          options.tree_block = 2;
          const BatchPredictor predictor(&forest, options);
          std::vector<double> got(want.size(), -1.0);
          for (InstanceId b = 0; b < rows.num_rows(); b += batch) {
            const InstanceId e =
                std::min<InstanceId>(b + batch, rows.num_rows());
            predictor.PredictCsrMargins(
                rows, b, e, got.data() + static_cast<size_t>(b) * dims);
          }
          ExpectBitIdentical(
              want, got,
              "dims=" + std::to_string(dims) + " L=" +
                  std::to_string(max_layers) + " threads=" +
                  std::to_string(threads) + " batch=" +
                  std::to_string(batch));
        }
      }
    }
  }
}

TEST(BatchPredictorTest, AllMissingRowsFollowDefaultDirections) {
  Rng rng(7);
  const GbdtModel model = MakeRandomModel(rng, 6, 5, 3, 20);
  CsrMatrix rows;
  rows.set_num_cols(20);
  for (int i = 0; i < 9; ++i) rows.StartRow();  // All rows fully missing.
  const std::vector<double> want = ReferenceMargins(model, rows);

  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "all-missing");
  // The margins are non-trivial: some default chain reaches a nonzero leaf.
  bool any_nonzero = false;
  for (const double v : got) any_nonzero |= (v != 0.0);
  EXPECT_TRUE(any_nonzero);
}

TEST(BatchPredictorTest, EmptyForestScoresZero) {
  const GbdtModel model(Task::kBinary, 2, 0.1);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  EXPECT_EQ(forest_or->num_trees(), 0u);
  Rng rng(3);
  const CsrMatrix rows = MakeRandomRows(rng, 10, 8, 0.5);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(10, -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  for (const double v : got) EXPECT_EQ(v, 0.0);
}

TEST(BatchPredictorTest, SingleLeafTreesAccumulateLeafWeights) {
  Rng rng(11);
  // max_layers == 1 forces every tree to a single leaf.
  const GbdtModel model = MakeRandomModel(rng, 5, 1, 1, 4);
  const CsrMatrix rows = MakeRandomRows(rng, 7, 4, 0.5);
  const std::vector<double> want = ReferenceMargins(model, rows);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  EXPECT_EQ(forest_or->num_internal_nodes(), 0u);
  EXPECT_EQ(forest_or->num_leaves(), 5u);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "single-leaf");
}

TEST(BatchPredictorTest, ThreadPartitionEdgeCases) {
  Rng rng(21);
  const GbdtModel model = MakeRandomModel(rng, 3, 4, 1, 10);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  for (const uint32_t n : {0u, 1u, 3u}) {
    const CsrMatrix rows = MakeRandomRows(rng, n, 10, 0.5);
    const std::vector<double> want = ReferenceMargins(model, rows);
    ServeOptions options;
    options.num_threads = 8;  // More threads than rows.
    const BatchPredictor predictor(&forest_or.value(), options);
    std::vector<double> got(want.size(), -1.0);
    predictor.PredictCsrMargins(rows, got.data());
    ExpectBitIdentical(want, got, "n=" + std::to_string(n));
    // begin == end is a no-op.
    predictor.PredictCsrMargins(rows, 0, 0, got.data());
  }
}

// Forests whose feature space exceeds the scatter-scratch cap fall back to
// per-node binary search — same results, no giant allocation.
TEST(BatchPredictorTest, HugeFeatureSpaceFallsBackToBinarySearch) {
  const FeatureId huge = (1u << 22) + 12345;
  GbdtModel model(Task::kBinary, 2, 0.1);
  Tree t(2, 1);
  t.SetSplit(0, huge, 0.0f, 0, false, 1.0);
  t.SetLeaf(1, {-1.0f});
  t.SetLeaf(2, {1.0f});
  model.AddTree(std::move(t));
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());

  CsrMatrix rows;
  rows.set_num_cols(huge + 1);
  rows.StartRow();
  rows.PushEntry(3, 0.5f);
  rows.PushEntry(huge, -0.5f);  // Goes left.
  rows.StartRow();
  rows.PushEntry(huge, 0.5f);  // Goes right.
  rows.StartRow();             // Missing -> default right.

  const std::vector<double> want = ReferenceMargins(model, rows);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "huge-feature");
}

TEST(BatchPredictorTest, ProbaMatchesModelLink) {
  Rng rng(31);
  for (const uint32_t dims : {1u, 3u}) {
    const GbdtModel model = MakeRandomModel(rng, 4, 4, dims, 12);
    const CsrMatrix rows = MakeRandomRows(rng, 23, 12, 0.4);
    auto forest_or = FlatForest::FromModel(model);
    ASSERT_TRUE(forest_or.ok());
    const BatchPredictor predictor(&forest_or.value());
    std::vector<double> got(static_cast<size_t>(rows.num_rows()) * dims);
    predictor.PredictCsrProba(rows, 0, rows.num_rows(), got.data());
    std::vector<double> want(dims);
    for (InstanceId i = 0; i < rows.num_rows(); ++i) {
      model.PredictProba(rows.RowFeatures(i), rows.RowValues(i),
                         want.data());
      EXPECT_EQ(0, std::memcmp(want.data(),
                               got.data() + static_cast<size_t>(i) * dims,
                               dims * sizeof(double)))
          << "dims=" << dims << " row=" << i;
    }
  }
}

TEST(ServeOptionsTest, ValidateRejectsBadKnobs) {
  ServeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_threads = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.num_threads = 1;
  options.row_block = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.row_block = 1;
  options.tree_block = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

// ---- Trained-model end-to-end --------------------------------------------

// Train a small model per quadrant, flatten it, and serve held-out rows:
// the batched path must match PredictDatasetMargins byte for byte.
TEST(ServeEndToEndTest, TrainedQuadrantModelsServeBitIdentical) {
  SyntheticConfig config;
  config.num_instances = 600;
  config.num_features = 25;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = 5;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, held_out] = data.SplitTail(0.25);

  DistTrainOptions options;
  options.params.num_trees = 4;
  options.params.num_layers = 4;
  options.params.num_candidate_splits = 16;
  for (const Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                           Quadrant::kQD4}) {
    Cluster cluster(2);
    const GbdtModel model =
        TrainDistributed(cluster, train, q, options).model;
    ASSERT_GT(model.num_trees(), 0u);
    const std::vector<double> want = model.PredictDatasetMargins(held_out);

    auto forest_or = FlatForest::FromModel(model);
    ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
    ServeOptions serve_options;
    serve_options.num_threads = 3;
    serve_options.row_block = 32;
    const BatchPredictor predictor(&forest_or.value(), serve_options);
    std::vector<double> got(want.size(), -1.0);
    predictor.PredictCsrMargins(held_out.matrix(), got.data());
    ExpectBitIdentical(want, got,
                       std::string("quadrant ") + QuadrantToString(q));
  }
}

TEST(ServeEndToEndTest, TrainedMultiClassModelServesBitIdentical) {
  SyntheticConfig config;
  config.num_instances = 500;
  config.num_features = 20;
  config.num_classes = 3;
  config.density = 0.4;
  config.seed = 13;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, held_out] = data.SplitTail(0.2);

  GbdtParams params;
  params.num_trees = 5;
  params.num_layers = 4;
  params.num_candidate_splits = 16;
  Trainer trainer(params);
  auto model_or = trainer.Train(train);
  ASSERT_TRUE(model_or.ok()) << model_or.status().ToString();
  const GbdtModel& model = model_or.value();

  const std::vector<double> want = model.PredictDatasetMargins(held_out);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  const BatchPredictor predictor(&forest_or.value(), serve_options);
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(held_out.matrix(), got.data());
  ExpectBitIdentical(want, got, "multiclass trainer");
}

// ---- Fuzz / robustness ----------------------------------------------------

// Deserializes a Tree from raw bytes (no model framing, no CRC) so damaged
// streams can yield structurally inconsistent trees — the worst case
// FlatForest::FromModel must survive.
StatusOr<Tree> TreeFromBytes(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  Tree tree;
  VERO_RETURN_IF_ERROR(Tree::Deserialize(&reader, &tree));
  return tree;
}

// FromModel on models deserialized from every truncation of the serialized
// byte stream: Deserialize may fail (fine) or succeed with an arbitrary
// structure, in which case FromModel must return a Status — never crash.
TEST(FlatForestFuzzTest, EveryTruncationIsHandled) {
  Rng rng(77);
  const GbdtModel model = MakeRandomModel(rng, 2, 4, 1, 10);
  ByteWriter writer;
  model.SerializeTo(&writer);
  const std::vector<uint8_t>& bytes = writer.data();

  int parsed = 0, flattened = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    ByteReader reader(bytes.data(), len);
    GbdtModel damaged;
    if (!GbdtModel::Deserialize(&reader, &damaged).ok()) continue;
    ++parsed;
    auto forest_or = FlatForest::FromModel(damaged);
    if (forest_or.ok()) ++flattened;
  }
  // The full stream must parse and flatten.
  EXPECT_GE(parsed, 1);
  EXPECT_GE(flattened, 1);
}

// Same ladder with single-bit flips at every byte: whatever Deserialize
// accepts, FromModel must either flatten (and then serve safely) or reject
// with a Status.
TEST(FlatForestFuzzTest, EveryByteFlipIsHandled) {
  Rng rng(78);
  const GbdtModel model = MakeRandomModel(rng, 2, 3, 1, 10);
  ByteWriter writer;
  model.SerializeTo(&writer);
  const std::vector<uint8_t> original = writer.data();

  CsrMatrix rows;
  rows.set_num_cols(1u << 16);  // Bit-flipped feature ids can be large.
  rows.StartRow();
  rows.PushEntry(2, 0.5f);
  rows.PushEntry(7, -1.5f);

  for (size_t offset = 0; offset < original.size(); ++offset) {
    std::vector<uint8_t> damaged = original;
    damaged[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    ByteReader reader(damaged);
    GbdtModel parsed;
    if (!GbdtModel::Deserialize(&reader, &parsed).ok()) continue;
    auto forest_or = FlatForest::FromModel(parsed);
    if (!forest_or.ok()) continue;
    // A validated forest must be traversable without faulting, whatever
    // garbage its thresholds carry.
    const BatchPredictor predictor(&forest_or.value());
    std::vector<double> out(forest_or->num_dims(), 0.0);
    predictor.PredictCsrMargins(rows, 0, 1, out.data());
  }
}

TEST(FlatForestTest, RejectsInternalNodeWithMissingChildren) {
  // max_layers=2, one used node: the root claims to be internal but its
  // children were never materialized in the stream.
  ByteWriter writer;
  writer.WriteU32(2);  // max_layers
  writer.WriteU32(1);  // num_dims
  writer.WriteU32(1);  // used
  writer.WriteU32(0);  // node id
  writer.WriteU8(1);   // internal
  writer.WriteU32(3);  // feature
  writer.WriteF32(0.5f);
  writer.WriteU16(0);
  writer.WriteBool(false);
  writer.WriteF64(0.0);
  writer.WriteVector(std::vector<float>{});
  auto tree_or = TreeFromBytes(writer.data());
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();

  GbdtModel model(Task::kBinary, 2, 0.1);
  model.AddTree(std::move(tree_or).value());
  const auto forest_or = FlatForest::FromModel(model);
  ASSERT_FALSE(forest_or.ok());
  EXPECT_EQ(forest_or.status().code(), StatusCode::kCorruption);
}

TEST(FlatForestTest, RejectsInternalNodeAtLastLayer) {
  // max_layers=1: the root is the only slot, yet the stream marks it
  // internal — its children land beyond the node array.
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU8(1);  // internal
  writer.WriteU32(0);
  writer.WriteF32(0.0f);
  writer.WriteU16(0);
  writer.WriteBool(true);
  writer.WriteF64(0.0);
  writer.WriteVector(std::vector<float>{});
  auto tree_or = TreeFromBytes(writer.data());
  ASSERT_TRUE(tree_or.ok());

  GbdtModel model(Task::kBinary, 2, 0.1);
  model.AddTree(std::move(tree_or).value());
  const auto forest_or = FlatForest::FromModel(model);
  ASSERT_FALSE(forest_or.ok());
  EXPECT_EQ(forest_or.status().code(), StatusCode::kCorruption);
}

TEST(FlatForestTest, RejectsEmptyTreeAndDimensionMismatch) {
  // A stream declaring zero used nodes parses into a rootless tree.
  ByteWriter writer;
  writer.WriteU32(3);
  writer.WriteU32(1);
  writer.WriteU32(0);  // used == 0: no root.
  auto rootless_or = TreeFromBytes(writer.data());
  ASSERT_TRUE(rootless_or.ok());
  GbdtModel rootless(Task::kBinary, 2, 0.1);
  rootless.AddTree(std::move(rootless_or).value());
  EXPECT_EQ(FlatForest::FromModel(rootless).status().code(),
            StatusCode::kCorruption);

  // A 2-dim tree inside a binary (1-dim margin) model.
  GbdtModel mismatched(Task::kBinary, 2, 0.1);
  mismatched.AddTree(Tree(2, 2));
  EXPECT_EQ(FlatForest::FromModel(mismatched).status().code(),
            StatusCode::kCorruption);
}

// ---- Tree::Route bounds regression ---------------------------------------

// The malformed trees above must also be unable to walk Tree::Route off the
// node array: the bounds guard dies with a diagnostic instead of reading
// out of bounds (regression for the 2i+1/2i+2 indexing).
TEST(TreeRouteBoundsDeathTest, InternalNodeAtLastLayerDies) {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU8(1);  // internal at the only slot
  writer.WriteU32(0);
  writer.WriteF32(0.0f);
  writer.WriteU16(0);
  writer.WriteBool(true);
  writer.WriteF64(0.0);
  writer.WriteVector(std::vector<float>{});
  auto tree_or = TreeFromBytes(writer.data());
  ASSERT_TRUE(tree_or.ok());
  const std::vector<FeatureId> features;
  const std::vector<float> values;
  EXPECT_DEATH(tree_or->Route(features, values), "walks off the node array");
}

TEST(TreeRouteBoundsDeathTest, RouteOntoUnusedNodeDies) {
  ByteWriter writer;
  writer.WriteU32(2);
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU8(1);  // internal root, children never materialized
  writer.WriteU32(5);
  writer.WriteF32(0.5f);
  writer.WriteU16(0);
  writer.WriteBool(false);
  writer.WriteF64(0.0);
  writer.WriteVector(std::vector<float>{});
  auto tree_or = TreeFromBytes(writer.data());
  ASSERT_TRUE(tree_or.ok());
  const std::vector<FeatureId> features;
  const std::vector<float> values;
  EXPECT_DEATH(tree_or->Route(features, values), "unused node");
}

}  // namespace
}  // namespace vero
