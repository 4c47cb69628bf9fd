// Cross-worker critical-path analysis and exact cost-anatomy attribution:
// the stitched causal DAG is one weakly-connected acyclic graph, op ids
// stay in cross-rank lockstep, attributed training time sums BIT-IDENTICALLY
// to DistResult::TrainSeconds() across the quadrant x workers x mitigation
// grid, the critical path never exceeds the total (and equals it at W=1),
// and the invariants survive crash recovery and mid-run elastic resizes.

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault_injector.h"
#include "data/synthetic.h"
#include "obs/anatomy.h"
#include "obs/critical_path.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

using obs::AnatomyReport;
using obs::ObsOptions;
using obs::RunObserver;
using obs::TraceEvent;

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 4, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

struct AnatomyRun {
  DistResult result;
  std::vector<TraceEvent> events;
};

AnatomyRun RunWithAnatomy(const Dataset& data, Quadrant quadrant,
                          const DistTrainOptions& options, int workers,
                          const FaultPlan* plan = nullptr) {
  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster cluster(workers);
  if (plan != nullptr) cluster.InstallFaultPlan(*plan);
  cluster.AttachObserver(&observer);
  AnatomyRun run;
  run.result = TrainDistributed(cluster, data, quadrant, options);
  run.events = observer.trace().MergedEvents();
  return run;
}

// The exact-sum house invariants every traced run must satisfy.
void CheckInvariants(const DistResult& result, int workers) {
  const AnatomyReport& a = result.anatomy;
  ASSERT_TRUE(a.enabled);

  // Attribution sums bit-identically — plain ==, no epsilon.
  EXPECT_EQ(a.attributed_train_seconds, result.TrainSeconds());
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.train_seconds, result.TrainSeconds());

  // Components re-sum to the total in the canonical association order.
  const double resummed =
      ((a.setup_seconds + a.train_seconds) + a.recovery_seconds) +
      a.reshard_seconds;
  EXPECT_EQ(resummed, a.total_seconds);

  // Per-tree rows re-sum to the attributed total in emission order.
  double rows = 0.0;
  for (const AnatomyReport::TreeRow& row : a.per_tree) {
    const double row_total =
        ((((row.gradient + row.hist) + row.find_split) + row.node_split) +
         row.other) +
        row.comm;
    EXPECT_EQ(row_total, row.total);
    rows += row.total;
  }
  EXPECT_EQ(rows, a.attributed_train_seconds);

  // Critical path: never longer than the total; the single rank at W=1 IS
  // the path, so equality is bitwise there.
  EXPECT_LE(a.critical_path.length_seconds, a.total_seconds);
  if (workers == 1) {
    EXPECT_EQ(a.critical_path.length_seconds, a.total_seconds);
  }

  // Stitching integrity: one weakly-connected acyclic DAG.
  EXPECT_EQ(a.dag.weak_components, 1u);
  EXPECT_TRUE(a.dag.acyclic);
  EXPECT_GT(a.dag.events, 0u);
}

// ---------------------------------------------------------------------------
// Quadrant x workers x mitigation grid.
// ---------------------------------------------------------------------------

class AnatomyGridTest
    : public ::testing::TestWithParam<std::tuple<Quadrant, int>> {};

TEST_P(AnatomyGridTest, AttributionExactAcrossMitigationModes) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const auto [quadrant, workers] = GetParam();
  const Dataset data = MakeData(600, 16, 414);
  const MitigationMode modes[] = {MitigationMode::kStrict,
                                  MitigationMode::kBoundedStaleness,
                                  MitigationMode::kSpeculative};
  for (MitigationMode mode : modes) {
    DistTrainOptions options = SmallOptions();
    options.mitigation.mode = mode;
    // A mid-run straggler makes the bounded / speculative paths take their
    // mitigation branches instead of degenerating to strict.
    FaultPlan plan;
    plan.Delay(/*rank=*/workers > 1 ? 1 : 0, CollectiveOp::kAllReduceSum,
               /*occurrence=*/2, /*seconds=*/0.2);
    const AnatomyRun run =
        RunWithAnatomy(data, quadrant, options, workers, &plan);
    ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
    SCOPED_TRACE(::testing::Message()
                 << "workers=" << workers
                 << " mode=" << static_cast<int>(mode));
    CheckInvariants(run.result, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnatomyGridTest,
    ::testing::Combine(::testing::Values(Quadrant::kQD1, Quadrant::kQD2,
                                         Quadrant::kQD3, Quadrant::kQD4),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Op-id lockstep: the SPMD contract makes (incarnation, op_id) a cross-rank
// join key — every collective group has exactly one member per live rank,
// and each rank's op ids are dense from 0.
// ---------------------------------------------------------------------------

TEST(AnatomyOpIdTest, CollectiveOpIdsAreInLockstepAcrossRanks) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(500, 12, 515);
  const AnatomyRun run =
      RunWithAnatomy(data, Quadrant::kQD1, SmallOptions(3, 3), 4);
  ASSERT_TRUE(run.result.status.ok());

  std::map<int64_t, std::set<int>> groups;  // op_id -> participating ranks
  std::map<int, int64_t> next_op;           // rank -> expected next op_id
  for (const TraceEvent& ev : run.events) {
    if (std::string(ev.category) != "collective") {
      EXPECT_EQ(ev.op_id, -1) << ev.name;
      continue;
    }
    ASSERT_GE(ev.op_id, 0);
    EXPECT_EQ(ev.incarnation, 0);
    // Dense per-rank sequence in buffer order.
    EXPECT_EQ(ev.op_id, next_op[ev.rank]++);
    groups[ev.op_id].insert(ev.rank);
  }
  ASSERT_FALSE(groups.empty());
  for (const auto& [op_id, ranks] : groups) {
    EXPECT_EQ(ranks.size(), 4u) << "op " << op_id;
  }
}

// ---------------------------------------------------------------------------
// Causal DAG unit behavior on hand-built event streams.
// ---------------------------------------------------------------------------

TraceEvent MakeEvent(const char* name, const char* category, int rank,
                     int32_t tree, int64_t op_id, int32_t incarnation,
                     double sim_begin, double sim_end) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.rank = rank;
  ev.tree = tree;
  ev.op_id = op_id;
  ev.incarnation = incarnation;
  ev.sim_begin_s = sim_begin;
  ev.sim_end_s = sim_end;
  return ev;
}

TEST(CausalDagTest, CollectiveJoinsStitchRanksIntoOneComponent) {
  std::vector<TraceEvent> events;
  // Two ranks, one collective each sharing op_id 0.
  events.push_back(MakeEvent("gradient", "phase", 0, 0, -1, 0, -1, -1));
  events.push_back(
      MakeEvent("allreduce-sum", "collective", 0, 0, 0, 0, 0.0, 1.0));
  events.push_back(MakeEvent("gradient", "phase", 1, 0, -1, 0, -1, -1));
  events.push_back(
      MakeEvent("allreduce-sum", "collective", 1, 0, 0, 0, 0.0, 1.0));
  const obs::CausalDag dag = obs::BuildCausalDag(std::move(events));
  EXPECT_EQ(dag.num_vertices, 2 * 4 + 1u);  // one join vertex
  EXPECT_EQ(dag.num_collective_groups, 1u);
  EXPECT_EQ(dag.weak_components, 1u);
  EXPECT_TRUE(dag.acyclic);
}

TEST(CausalDagTest, DisconnectedRanksShowAsMultipleComponents) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent("gradient", "phase", 0, 0, -1, 0, -1, -1));
  events.push_back(MakeEvent("gradient", "phase", 1, 0, -1, 0, -1, -1));
  const obs::CausalDag dag = obs::BuildCausalDag(std::move(events));
  EXPECT_EQ(dag.weak_components, 2u);
  EXPECT_TRUE(dag.acyclic);
}

TEST(CausalDagTest, TransitionSpanJoinsIncarnations) {
  std::vector<TraceEvent> events;
  // Incarnation 0: rank 0 works, then the driver records a recovery span,
  // then incarnation 1: rank 0's new buffer works again.
  events.push_back(MakeEvent("gradient", "phase", 0, 0, -1, 0, -1, -1));
  events.push_back(MakeEvent("recovery", "driver", -1, -1, -1, 0, -1, -1));
  events.push_back(MakeEvent("gradient", "phase", 0, 0, -1, 1, -1, -1));
  const obs::CausalDag dag = obs::BuildCausalDag(std::move(events));
  EXPECT_EQ(dag.num_incarnations, 2);
  EXPECT_EQ(dag.num_incarnation_edges, 2u);
  EXPECT_EQ(dag.weak_components, 1u);
  EXPECT_TRUE(dag.acyclic);
}

// ---------------------------------------------------------------------------
// Crash recovery: spans from both incarnations stitch into one DAG and the
// attribution stays exact (the committing incarnation is chosen per tree).
// ---------------------------------------------------------------------------

uint64_t ProbeOps(const Dataset& data, const DistTrainOptions& options,
                  int workers, int rank) {
  Cluster cluster(workers);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, options);
  EXPECT_TRUE(result.status.ok());
  return cluster.worker_stats(rank).num_ops;
}

TEST(AnatomyRecoveryTest, CrashRecoveryKeepsAttributionExact) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(700, 14, 616);
  DistTrainOptions options = SmallOptions(6, 4);
  options.checkpoint.interval = 1;
  options.max_recovery_attempts = 3;
  options.elastic_rejoin = true;
  const uint64_t probe = ProbeOps(data, options, 4, 2);
  ASSERT_GT(probe, 0u);

  FaultPlan plan;
  plan.Crash(/*rank=*/2, CollectiveOp::kAny, /*occurrence=*/probe / 2);
  const AnatomyRun run =
      RunWithAnatomy(data, Quadrant::kQD1, options, 4, &plan);
  ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
  const AnatomyReport& a = run.result.anatomy;
  EXPECT_GE(a.incarnations, 2);
  EXPECT_GT(a.recovery_seconds, 0.0);
  CheckInvariants(run.result, 4);
  // The retrained trees are attributed to the post-recovery incarnation.
  bool any_late_tree = false;
  for (const AnatomyReport::TreeRow& row : a.per_tree) {
    if (row.incarnation > 0) any_late_tree = true;
  }
  EXPECT_TRUE(any_late_tree);
}

// ---------------------------------------------------------------------------
// Elastic resize: the admitted rank's spans appear in the stitched DAG and
// attribution still sums exactly across the incarnation change.
// ---------------------------------------------------------------------------

TEST(AnatomyElasticityTest, ResizeAdmittedRankJoinsTheDag) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(700, 14, 717);
  DistTrainOptions options = SmallOptions(6, 4);
  options.checkpoint.interval = 1;
  options.max_recovery_attempts = 3;
  options.elastic_rejoin = true;
  options.elastic_resize_after_trees = 3;
  options.elastic_resize_delta = +1;

  const AnatomyRun run = RunWithAnatomy(data, Quadrant::kQD1, options, 4);
  ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
  const AnatomyReport& a = run.result.anatomy;
  EXPECT_EQ(a.incarnations, 2);
  EXPECT_GT(a.reshard_seconds, 0.0);
  CheckInvariants(run.result, 4);

  // The admitted rank (4, the new top rank of W=5) trained post-resize
  // trees: it must have a per-rank row under incarnation 1, and those trees
  // must be attributed to incarnation 1.
  bool admitted_row = false;
  for (const AnatomyReport::RankRow& row : a.per_rank) {
    if (row.incarnation == 1 && row.rank == 4 && row.events > 0) {
      admitted_row = true;
    }
  }
  EXPECT_TRUE(admitted_row);
  bool post_resize_tree = false;
  for (const AnatomyReport::TreeRow& row : a.per_tree) {
    if (row.incarnation == 1) post_resize_tree = true;
  }
  EXPECT_TRUE(post_resize_tree);
}

// ---------------------------------------------------------------------------
// Report serialization sanity (full schema validation lives in
// scripts/check_anatomy.py).
// ---------------------------------------------------------------------------

TEST(AnatomyJsonTest, SerializesSchemaAndSortedCategories) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(500, 12, 818);
  const AnatomyRun run =
      RunWithAnatomy(data, Quadrant::kQD2, SmallOptions(3, 3), 2);
  ASSERT_TRUE(run.result.status.ok());
  const std::string json = run.result.anatomy.ToJson();
  EXPECT_NE(json.find("\"vero.anatomy.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  const auto& categories = run.result.anatomy.categories;
  ASSERT_FALSE(categories.empty());
  for (size_t i = 1; i < categories.size(); ++i) {
    EXPECT_LT(categories[i - 1].first, categories[i].first);
  }
}

// ---------------------------------------------------------------------------
// Emitter fixture for scripts/check_anatomy.py (--emitter mode runs this
// binary with --gtest_filter=AnatomyEmit* and VERO_OBS_EMIT_DIR set, then
// validates the emitted file against the documented schema).
// ---------------------------------------------------------------------------

std::string EmitDir() {
  const char* dir = std::getenv("VERO_OBS_EMIT_DIR");
  return dir != nullptr ? std::string(dir) : ::testing::TempDir();
}

TEST(AnatomyEmitTest, WritesAnatomyJson) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(700, 18, 801);
  // One clean run and one recovery+resize run, so the checker sees both a
  // single-incarnation and a multi-incarnation report.
  DistTrainOptions clean = SmallOptions(4, 4);
  AnatomyRun clean_run = RunWithAnatomy(data, Quadrant::kQD4, clean, 4);
  ASSERT_TRUE(clean_run.result.status.ok());
  clean_run.result.anatomy.label = "anatomy_emit_clean";

  DistTrainOptions elastic = SmallOptions(6, 4);
  elastic.checkpoint.interval = 1;
  elastic.max_recovery_attempts = 3;
  elastic.elastic_rejoin = true;
  elastic.elastic_resize_after_trees = 3;
  elastic.elastic_resize_delta = +1;
  AnatomyRun elastic_run = RunWithAnatomy(data, Quadrant::kQD1, elastic, 4);
  ASSERT_TRUE(elastic_run.result.status.ok());
  elastic_run.result.anatomy.label = "anatomy_emit_elastic";

  const std::string path = EmitDir() + "/anatomy.json";
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(out));
  out << "{\"schema\":\"vero.anatomy_bench.v1\",\"runs\":["
      << clean_run.result.anatomy.ToJson() << ","
      << elastic_run.result.anatomy.ToJson() << "]}\n";
}

}  // namespace
}  // namespace vero
