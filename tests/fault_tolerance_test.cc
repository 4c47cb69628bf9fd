// End-to-end fault tolerance: a worker killed mid-training on every
// quadrant must not cost the job — training resumes from the last
// checkpoint (or restarts degraded) on the survivors, the recovery cost is
// accounted, and the recovered model's quality matches the failure-free
// run. Also covers the checkpoint wire format and the guarantee that an
// empty fault plan leaves the simulation bit-identical.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "data/synthetic.h"
#include "quadrants/checkpoint.h"
#include "quadrants/train_distributed.h"
#include "sketch/candidate_splits.h"

namespace vero {
namespace {

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 8, uint32_t layers = 5) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

GbdtModel MakeTinyModel() {
  GbdtModel model(Task::kBinary, 2, 0.3);
  Tree t(3, 1);
  t.SetSplit(0, 4, 1.5f, 2, false, 3.0);
  t.SetLeaf(1, {-0.5f});
  t.SetLeaf(2, {0.5f});
  model.AddTree(std::move(t));
  return model;
}

// ---------------------------------------------------------------------------
// Checkpoint wire format.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, SerializeDeserializeRoundTrip) {
  TrainCheckpoint ck;
  ck.trees_done = 1;
  ck.model = MakeTinyModel();
  ck.has_splits = true;
  ck.splits = CandidateSplits(16, {{0.5f, 1.5f}, {}, {2.0f, 3.0f, 4.0f}});
  const std::vector<uint8_t> bytes = SerializeCheckpoint(ck);

  TrainCheckpoint out;
  ASSERT_TRUE(DeserializeCheckpoint(bytes, &out).ok());
  EXPECT_EQ(out.trees_done, 1u);
  EXPECT_EQ(out.model.num_trees(), 1u);
  EXPECT_TRUE(out.model.tree(0) == ck.model.tree(0));
  ASSERT_TRUE(out.has_splits);
  EXPECT_TRUE(out.splits == ck.splits);
}

TEST(CheckpointTest, NoSplitsVariantRoundTrips) {
  TrainCheckpoint ck;
  ck.trees_done = 1;
  ck.model = MakeTinyModel();
  const std::vector<uint8_t> bytes = SerializeCheckpoint(ck);
  TrainCheckpoint out;
  ASSERT_TRUE(DeserializeCheckpoint(bytes, &out).ok());
  EXPECT_FALSE(out.has_splits);
}

TEST(CheckpointTest, CorruptionIsDetectedNeverFatal) {
  TrainCheckpoint ck;
  ck.trees_done = 1;
  ck.model = MakeTinyModel();
  ck.has_splits = true;
  ck.splits = CandidateSplits(8, {{1.0f, 2.0f}});
  const std::vector<uint8_t> good = SerializeCheckpoint(ck);

  TrainCheckpoint out;
  // Every single-bit flip trips the CRC (or an earlier framing check).
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    EXPECT_EQ(DeserializeCheckpoint(bad, &out).code(),
              StatusCode::kCorruption)
        << "offset " << offset;
  }
  // Every truncation fails cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    EXPECT_EQ(DeserializeCheckpoint(bad, &out).code(),
              StatusCode::kCorruption)
        << "len " << len;
  }
}

TEST(CheckpointTest, OutOfOrderSplitTableFailsToLoad) {
  // A well-framed checkpoint whose split table was rewritten out of order:
  // the CRC holds, so only the table's own check can reject it.
  TrainCheckpoint ck;
  ck.trees_done = 1;
  ck.model = MakeTinyModel();
  ck.has_splits = true;
  ck.splits = CandidateSplits(16, {{0.5f, 1.5f}, {}, {3.0f, 2.0f, 4.0f}});
  const std::string path = ::testing::TempDir() + "/ck_unsorted.vckp";
  {
    const std::vector<uint8_t> bytes = SerializeCheckpoint(ck);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("feature 2"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/ck_roundtrip.vckp";
  TrainCheckpoint ck;
  ck.trees_done = 1;
  ck.model = MakeTinyModel();
  {
    const std::vector<uint8_t> bytes = SerializeCheckpoint(ck);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 1u);
  std::remove(path.c_str());

  EXPECT_FALSE(LoadCheckpoint("/no/such/checkpoint.vckp").ok());
}

// ---------------------------------------------------------------------------
// The acceptance demo: kill worker 2 mid-training on every quadrant.
// ---------------------------------------------------------------------------

class QuadrantFaultTest : public ::testing::TestWithParam<Quadrant> {};

// With per-round checkpointing, a crash mid-training resumes from the last
// checkpoint on the three survivors: the full forest is produced, the
// recovery cost is nonzero and recorded, and AUC matches the failure-free
// run within 1%.
TEST_P(QuadrantFaultTest, CrashMidTrainingRecoversFromCheckpoint) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(1400, 30, 211);
  const auto [train, valid] = data.SplitTail(0.25);
  const DistTrainOptions options = SmallOptions();

  // Failure-free baseline; its op count tells us where "mid-training" is
  // for this quadrant (the fault schedule is positional).
  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, train, quadrant, options, &valid);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  ASSERT_EQ(base.model.num_trees(), 8u);
  const double auc_clean = EvaluateModel(base.model, valid).value;
  const uint64_t total_ops = clean.worker_stats(2).num_ops;
  ASSERT_GT(total_ops, 20u);

  Cluster faulted(4);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 2));
  DistTrainOptions recovery_options = options;
  recovery_options.checkpoint.interval = 1;
  const DistResult result =
      TrainDistributed(faulted, train, quadrant, recovery_options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.failures_observed, 1);
  EXPECT_EQ(result.recovery.recovery_attempts, 1);
  EXPECT_EQ(result.recovery.final_world_size, 3);
  EXPECT_GT(result.recovery.trees_recovered, 0u);
  EXPECT_GT(result.recovery.trees_retrained, 0u);
  EXPECT_EQ(result.recovery.trees_recovered + result.recovery.trees_retrained,
            8u);
  EXPECT_GT(result.recovery.recovery_seconds, 0.0);
  EXPECT_GT(result.recovery.recovery_bytes, 0u);
  // Prefix stitching: costs and curve cover all 8 rounds exactly once.
  EXPECT_EQ(result.tree_costs.size(), 8u);
  EXPECT_EQ(result.curve.size(), 8u);
  EXPECT_EQ(faulted.dead_ranks(), std::vector<int>{2});

  const double auc = EvaluateModel(result.model, valid).value;
  EXPECT_NEAR(auc, auc_clean, 0.01 * auc_clean);
}

INSTANTIATE_TEST_SUITE_P(AllQuadrants, QuadrantFaultTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2,
                                           Quadrant::kQD3, Quadrant::kQD4));

// Without checkpoints the job still completes — degraded to a full restart
// on the survivors — and the redistribution of the dead worker's shard is
// what recovery costs.
TEST(FaultRecoveryTest, NoCheckpointDegradesToFullRestart) {
  const Dataset data = MakeData(1200, 25, 223);
  const auto [train, valid] = data.SplitTail(0.25);
  const DistTrainOptions options = SmallOptions();

  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, train, Quadrant::kQD2, options, &valid);
  ASSERT_TRUE(base.status.ok());
  const uint64_t total_ops = clean.worker_stats(2).num_ops;

  Cluster faulted(4);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, total_ops / 2));
  const DistResult result =
      TrainDistributed(faulted, train, Quadrant::kQD2, options, &valid);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 8u);
  EXPECT_EQ(result.recovery.trees_recovered, 0u);
  EXPECT_EQ(result.recovery.trees_retrained, 8u);
  EXPECT_EQ(result.recovery.final_world_size, 3);
  EXPECT_GT(result.recovery.recovery_bytes, 0u);  // The dead shard, reshipped.
  EXPECT_GT(result.recovery.recovery_seconds, 0.0);
  EXPECT_GT(EvaluateModel(result.model, valid).value, 0.65);
}

// Checkpoints can also be spooled to disk; after a recovered run the final
// on-disk checkpoint holds the complete forest.
TEST(FaultRecoveryTest, OnDiskCheckpointSurvivesRun) {
  const Dataset data = MakeData(1000, 20, 227);
  const DistTrainOptions base_options = SmallOptions(6, 4);

  Cluster clean(3);
  const DistResult base =
      TrainDistributed(clean, data, Quadrant::kQD1, base_options);
  ASSERT_TRUE(base.status.ok());
  const uint64_t total_ops = clean.worker_stats(1).num_ops;

  Cluster faulted(3);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(1, CollectiveOp::kAny, total_ops / 2));
  DistTrainOptions options = base_options;
  options.checkpoint.interval = 2;
  options.checkpoint.dir = ::testing::TempDir();
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD1, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  const std::string path = options.checkpoint.dir + "/latest.vckp";
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->trees_done, 6u);
  EXPECT_EQ(loaded->model.num_trees(), 6u);
  EXPECT_TRUE(loaded->has_splits);
  std::remove(path.c_str());
}

// When a crash makes the job unrecoverable (no recovery budget), the
// failure surfaces as a Status on the result — never an exception or hang.
TEST(FaultRecoveryTest, ExhaustedRecoveryBudgetReturnsStatus) {
  const Dataset data = MakeData(800, 20, 229);
  DistTrainOptions options = SmallOptions(4, 4);
  options.max_recovery_attempts = 0;

  Cluster faulted(3);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(0, CollectiveOp::kAny, 10));
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD4, options);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.recovery.failures_observed, 1);
  EXPECT_EQ(result.recovery.final_world_size, 2);
}

// Acceptance bit-identity: installing an EMPTY fault plan must not perturb
// the simulation at all — byte counters and simulated time of a full
// training run stay exactly equal (not just close) to a run with no plan.
TEST(FaultRecoveryTest, EmptyFaultPlanIsBitIdenticalOnFullTraining) {
  const Dataset data = MakeData(1000, 24, 233);
  const DistTrainOptions options = SmallOptions(5, 5);

  Cluster plain(4);
  const DistResult a =
      TrainDistributed(plain, data, Quadrant::kQD4, options);
  Cluster with_empty_plan(4);
  with_empty_plan.InstallFaultPlan(FaultPlan());
  const DistResult b =
      TrainDistributed(with_empty_plan, data, Quadrant::kQD4, options);

  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.train_bytes_sent, b.train_bytes_sent);
  for (int r = 0; r < 4; ++r) {
    const CommStats& sa = plain.worker_stats(r);
    const CommStats& sb = with_empty_plan.worker_stats(r);
    EXPECT_EQ(sa.bytes_sent, sb.bytes_sent) << "rank " << r;
    EXPECT_EQ(sa.bytes_received, sb.bytes_received) << "rank " << r;
    EXPECT_EQ(sa.num_ops, sb.num_ops) << "rank " << r;
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds) << "rank " << r;  // Exact.
  }
  EXPECT_EQ(plain.MaxSimSeconds(), with_empty_plan.MaxSimSeconds());
}

}  // namespace
}  // namespace vero
