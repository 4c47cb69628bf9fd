// Observability layer: metrics registry merge semantics, trace span
// nesting/attribution, and the acceptance properties of a traced run —
// phase span sums match the TreeCost model exactly, collective spans
// account for every byte, the trace is deterministic across identical
// seeded runs, and attaching an observer never perturbs the simulation.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "data/synthetic.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsShard;
using obs::MetricsSnapshot;
using obs::ObsOptions;
using obs::PhaseSpan;
using obs::RunObserver;
using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceRecorder;

Dataset MakeData(uint32_t n, uint32_t d, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(uint32_t trees = 6, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  return options;
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersSumAcrossShards) {
  MetricsRegistry registry;
  MetricsShard* a = registry.CreateShard();
  MetricsShard* b = registry.CreateShard();
  a->counter("comm.bytes")->Add(100);
  a->counter("comm.bytes")->Add(20);
  b->counter("comm.bytes")->Add(3);
  b->counter("comm.ops")->Increment();

  const MetricsSnapshot merged = registry.Merged();
  EXPECT_EQ(merged.CounterValue("comm.bytes"), 123u);
  EXPECT_EQ(merged.CounterValue("comm.ops"), 1u);
  EXPECT_EQ(merged.CounterValue("no.such.metric"), 0u);
}

TEST(MetricsTest, GaugeKeepsMaxAcrossShards) {
  MetricsRegistry registry;
  MetricsShard* a = registry.CreateShard();
  MetricsShard* b = registry.CreateShard();
  a->gauge("pool.peak")->SetMax(10.0);
  a->gauge("pool.peak")->SetMax(4.0);  // Lower: ignored.
  b->gauge("pool.peak")->SetMax(7.0);

  const MetricsSnapshot merged = registry.Merged();
  const MetricsSnapshot::Entry* e = merged.Find("pool.peak");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(e->gauge, 10.0);
}

TEST(MetricsTest, HistogramMergesDistribution) {
  MetricsRegistry registry;
  MetricsShard* a = registry.CreateShard();
  MetricsShard* b = registry.CreateShard();
  a->histogram("latency")->Observe(0.5);
  a->histogram("latency")->Observe(1.5);
  b->histogram("latency")->Observe(0.25);

  const MetricsSnapshot merged = registry.Merged();
  const MetricsSnapshot::Entry* e = merged.Find("latency");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kHistogram);
  EXPECT_EQ(e->count, 3u);
  EXPECT_DOUBLE_EQ(e->sum, 2.25);
  EXPECT_DOUBLE_EQ(e->min, 0.25);
  EXPECT_DOUBLE_EQ(e->max, 1.5);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  MetricsShard* shard = registry.CreateShard();
  shard->counter("zebra")->Increment();
  shard->gauge("alpha")->Set(1.0);
  shard->histogram("mid")->Observe(1.0);

  const MetricsSnapshot merged = registry.Merged();
  ASSERT_EQ(merged.entries.size(), 3u);
  for (size_t i = 1; i < merged.entries.size(); ++i) {
    EXPECT_LT(merged.entries[i - 1].name, merged.entries[i].name);
  }
}

TEST(MetricsTest, ResetZeroesEveryCellButKeepsHandles) {
  MetricsRegistry registry;
  MetricsShard* shard = registry.CreateShard();
  obs::Counter* c = shard->counter("c");
  obs::Gauge* g = shard->gauge("g");
  obs::HistogramMetric* h = shard->histogram("h");
  c->Add(5);
  g->Set(2.0);
  h->Observe(3.0);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_FALSE(g->is_set());
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);

  // Handles stay live: writes after Reset land in the same cells.
  c->Increment();
  EXPECT_EQ(registry.Merged().CounterValue("c"), 1u);
}

// ---------------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------------

TEST(TraceTest, NestedSpansRecordChildrenFirstWithContext) {
  TraceRecorder recorder;
  TraceBuffer* buffer = recorder.CreateBuffer(2);
  double sim = 1.0;

  buffer->SetContext(3, -1);
  {
    PhaseSpan outer(buffer, "outer", &sim);
    buffer->SetContext(3, 1);
    {
      PhaseSpan inner(buffer, "inner", &sim);
      sim = 2.5;  // Simulated clock advances inside the inner span.
    }
    buffer->SetContext(3, -1);
  }

  const std::vector<TraceEvent> events = recorder.MergedEvents();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) before outer: children precede parents.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].rank, 2);
  EXPECT_EQ(events[0].tree, 3);
  EXPECT_EQ(events[0].layer, 1);
  EXPECT_EQ(events[1].layer, -1);
  EXPECT_DOUBLE_EQ(events[0].sim_begin_s, 1.0);
  EXPECT_DOUBLE_EQ(events[0].sim_end_s, 2.5);
  EXPECT_DOUBLE_EQ(events[1].sim_begin_s, 1.0);
  EXPECT_DOUBLE_EQ(events[1].sim_end_s, 2.5);
  EXPECT_LE(events[1].wall_begin_us, events[0].wall_begin_us);
  EXPECT_GE(events[1].wall_end_us, events[0].wall_end_us);
}

TEST(TraceTest, CloseReturnsCpuSecondsAndRecordsOnce) {
  TraceRecorder recorder;
  TraceBuffer* buffer = recorder.CreateBuffer(0);
  PhaseSpan span(buffer, "work");
  // Burn a little CPU so the measurement is visibly non-negative.
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + i * 0.5;
  const double first = span.Close();
  const double second = span.Close();  // Idempotent: no second event.
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  EXPECT_EQ(recorder.event_count(), 1u);
  // No sim clock was supplied: sim stamps stay at the -1 sentinel.
  EXPECT_DOUBLE_EQ(recorder.MergedEvents()[0].sim_begin_s, -1.0);
}

TEST(TraceTest, NullBufferSpanStillMeasures) {
  PhaseSpan span(nullptr, "unrecorded");
  EXPECT_GE(span.Close(), 0.0);
}

TEST(TraceTest, ChromeJsonExportShape) {
  TraceRecorder recorder;
  TraceBuffer* worker = recorder.CreateBuffer(1);
  TraceBuffer* driver = recorder.CreateBuffer(-1);
  { PhaseSpan span(worker, "phase-a"); }
  {
    PhaseSpan span(driver, "recovery");
    span.set_category("driver");
  }

  std::ostringstream os;
  recorder.ExportChromeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phase-a\""), std::string::npos);
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced container tokens (cheap structural sanity; the schema checker
  // in scripts/check_trace.py parses it for real).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonWriterTest, EscapesAndPlacesCommas) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("a\"b");
  w.String("x\n\t\\");
  w.Key("n");
  w.Int(-3);
  w.Key("arr");
  w.BeginArray();
  w.UInt(1);
  w.Bool(true);
  w.Double(0.5);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(os.str(), "{\"a\\\"b\":\"x\\n\\t\\\\\",\"n\":-3,"
                      "\"arr\":[1,true,0.5]}");
}

TEST(LoggingTest, FormatLogPrefixCarriesRank) {
  EXPECT_EQ(internal::FormatLogPrefix(LogLevel::kInfo, "a/b/file.cc", 12, 3),
            "[I rk3 file.cc:12] ");
  EXPECT_EQ(internal::FormatLogPrefix(LogLevel::kWarning, "x.cc", 7, -1),
            "[W x.cc:7] ");
}

// ---------------------------------------------------------------------------
// End-to-end: traced training runs on every quadrant.
// ---------------------------------------------------------------------------

struct TracedRun {
  DistResult result;
  std::vector<TraceEvent> events;
  MetricsSnapshot metrics;
  CommStats total_stats;
};

TracedRun RunTraced(const Dataset& data, Quadrant quadrant,
                    const DistTrainOptions& options, int workers) {
  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster cluster(workers);
  cluster.AttachObserver(&observer);
  TracedRun run;
  run.result = TrainDistributed(cluster, data, quadrant, options);
  run.events = observer.trace().MergedEvents();
  run.metrics = observer.metrics().Merged();
  run.total_stats = cluster.TotalStats();
  return run;
}

class ObsQuadrantTest : public ::testing::TestWithParam<Quadrant> {};

// The acceptance property: the trace is not a parallel estimate of the cost
// model, it is the *same* measurement. Per-tree phase CPU (max across ranks
// of the per-rank span sums) must equal TreeCost exactly, collective span
// sim-time must telescope to comm_seconds, and collective span bytes must
// account for every byte in train_bytes_sent.
TEST_P(ObsQuadrantTest, TraceSpansMatchTreeCostModel) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(900, 20, 311);
  const DistTrainOptions options = SmallOptions();
  const int workers = 4;

  const TracedRun run = RunTraced(data, quadrant, options, workers);
  ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
  const std::vector<TreeCost>& costs = run.result.tree_costs;
  ASSERT_EQ(costs.size(), options.params.num_trees);

  // (tree, rank) -> per-phase CPU sums / comm sim seconds; tree -> bytes.
  struct PerRank {
    std::map<std::string, double> phase_cpu;
    double comm_sim = 0.0;
  };
  std::map<std::pair<int32_t, int>, PerRank> per_rank;
  std::map<int32_t, uint64_t> tree_bytes;
  uint64_t train_span_bytes = 0;
  for (const TraceEvent& e : run.events) {
    if (e.tree < 0) continue;
    PerRank& pr = per_rank[{e.tree, e.rank}];
    if (std::string_view(e.category) == "collective") {
      pr.comm_sim += e.sim_end_s - e.sim_begin_s;
      tree_bytes[e.tree] += e.bytes;
      train_span_bytes += e.bytes;
    } else {
      pr.phase_cpu[e.name] += e.cpu_seconds;
    }
  }

  for (uint32_t t = 0; t < costs.size(); ++t) {
    std::map<std::string, double> max_cpu;
    double max_comm = 0.0;
    for (int r = 0; r < workers; ++r) {
      const auto it = per_rank.find({static_cast<int32_t>(t), r});
      ASSERT_NE(it, per_rank.end()) << "tree " << t << " rank " << r;
      for (const auto& [name, cpu] : it->second.phase_cpu) {
        max_cpu[name] = std::max(max_cpu[name], cpu);
      }
      max_comm = std::max(max_comm, it->second.comm_sim);
    }
    // Phase CPU: InstrumentMax over the very doubles Close() returned, so
    // equality is exact, not approximate.
    EXPECT_DOUBLE_EQ(max_cpu["gradient"], costs[t].gradient_seconds)
        << "tree " << t;
    EXPECT_DOUBLE_EQ(max_cpu["hist-build"], costs[t].hist_seconds)
        << "tree " << t;
    EXPECT_DOUBLE_EQ(max_cpu["find-split"], costs[t].find_split_seconds)
        << "tree " << t;
    EXPECT_DOUBLE_EQ(max_cpu["node-split"], costs[t].node_split_seconds)
        << "tree " << t;
    EXPECT_DOUBLE_EQ(max_cpu["margin-update"], costs[t].other_seconds)
        << "tree " << t;
    // Sim time only advances inside collectives, so the per-tree span sum
    // telescopes to the tree's comm window (up to double summation order).
    EXPECT_NEAR(max_comm, costs[t].comm_seconds,
                1e-9 * (1.0 + costs[t].comm_seconds))
        << "tree " << t;
    // Byte deltas are integers: the spans account for every byte exactly.
    EXPECT_EQ(tree_bytes[static_cast<int32_t>(t)], costs[t].bytes_sent)
        << "tree " << t;
  }
  EXPECT_EQ(train_span_bytes, run.result.train_bytes_sent);

  // Registry invariant: the per-op counters decompose the CommStats totals.
  const char* kOps[] = {"AllReduceSum", "AllGather", "Broadcast",
                        "Gather",       "AllToAll",  "Barrier"};
  uint64_t op_bytes = 0;
  uint64_t op_count = 0;
  for (const char* op : kOps) {
    op_bytes +=
        run.metrics.CounterValue(std::string("comm.") + op + ".bytes_sent");
    op_count += run.metrics.CounterValue(std::string("comm.") + op + ".ops");
  }
  EXPECT_EQ(op_bytes, run.total_stats.bytes_sent);
  EXPECT_EQ(op_count, run.total_stats.num_ops);

  // Run report: filled, and consistent with the result it summarizes.
  const obs::RunReport& report = run.result.report;
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.quadrant, QuadrantToString(quadrant));
  EXPECT_EQ(report.workers, workers);
  EXPECT_EQ(report.trees, options.params.num_trees);
  EXPECT_DOUBLE_EQ(report.train_seconds, run.result.TrainSeconds());
  EXPECT_DOUBLE_EQ(report.comp_seconds, run.result.TotalCompSeconds());
  EXPECT_DOUBLE_EQ(report.comm_seconds, run.result.TotalCommSeconds());
  EXPECT_EQ(report.train_bytes_sent, run.result.train_bytes_sent);
  EXPECT_EQ(report.peak_histogram_bytes, run.result.peak_histogram_bytes);
  EXPECT_EQ(report.wasted_bytes, 0u);
  EXPECT_DOUBLE_EQ(report.wasted_seconds, 0.0);
  EXPECT_FALSE(report.metrics.entries.empty());
  const double phase_sum = report.phases.gradient + report.phases.hist +
                           report.phases.find_split +
                           report.phases.node_split + report.phases.other;
  EXPECT_NEAR(phase_sum, report.comp_seconds,
              1e-9 * (1.0 + report.comp_seconds));
  EXPECT_NEAR(report.phases.comm, report.comm_seconds,
              1e-12 * (1.0 + report.comm_seconds));

  // The report serializes under the stable v1 schema.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"vero.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllQuadrants, ObsQuadrantTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2,
                                           Quadrant::kQD3, Quadrant::kQD4));

// Two identical seeded runs must produce traces identical in every
// deterministic field (wall / CPU stamps are explicitly excluded).
TEST(ObsDeterminismTest, TraceSchemaStableAcrossSeededRuns) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(700, 18, 421);
  const DistTrainOptions options = SmallOptions(4, 4);

  const TracedRun a = RunTraced(data, Quadrant::kQD4, options, 4);
  const TracedRun b = RunTraced(data, Quadrant::kQD4, options, 4);
  ASSERT_TRUE(a.result.status.ok());
  ASSERT_TRUE(b.result.status.ok());

  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    const TraceEvent& ea = a.events[i];
    const TraceEvent& eb = b.events[i];
    EXPECT_STREQ(ea.name, eb.name) << "event " << i;
    EXPECT_STREQ(ea.category, eb.category) << "event " << i;
    EXPECT_EQ(ea.rank, eb.rank) << "event " << i;
    EXPECT_EQ(ea.tree, eb.tree) << "event " << i;
    EXPECT_EQ(ea.layer, eb.layer) << "event " << i;
    EXPECT_DOUBLE_EQ(ea.sim_begin_s, eb.sim_begin_s) << "event " << i;
    EXPECT_DOUBLE_EQ(ea.sim_end_s, eb.sim_end_s) << "event " << i;
    EXPECT_EQ(ea.bytes, eb.bytes) << "event " << i;
    EXPECT_EQ(ea.op_id, eb.op_id) << "event " << i;
    EXPECT_EQ(ea.incarnation, eb.incarnation) << "event " << i;
  }

  // Metric snapshots agree on every deterministic (integer) cell.
  ASSERT_EQ(a.metrics.entries.size(), b.metrics.entries.size());
  for (size_t i = 0; i < a.metrics.entries.size(); ++i) {
    EXPECT_EQ(a.metrics.entries[i].name, b.metrics.entries[i].name);
    EXPECT_EQ(a.metrics.entries[i].counter, b.metrics.entries[i].counter);
  }
}

// Acceptance bit-identity: an attached observer (tracing on) must not
// change a single byte or simulated second of the run.
TEST(ObsBitIdenticalTest, ObserverDoesNotPerturbAccounting) {
  const Dataset data = MakeData(800, 20, 521);
  const DistTrainOptions options = SmallOptions(4, 4);

  Cluster plain(4);
  const DistResult base =
      TrainDistributed(plain, data, Quadrant::kQD2, options);
  ASSERT_TRUE(base.status.ok());

  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster observed(4);
  observed.AttachObserver(&observer);
  const DistResult traced =
      TrainDistributed(observed, data, Quadrant::kQD2, options);
  ASSERT_TRUE(traced.status.ok());

  EXPECT_EQ(traced.train_bytes_sent, base.train_bytes_sent);
  EXPECT_EQ(traced.peak_histogram_bytes, base.peak_histogram_bytes);
  for (int r = 0; r < 4; ++r) {
    const CommStats& sp = plain.worker_stats(r);
    const CommStats& so = observed.worker_stats(r);
    EXPECT_EQ(so.bytes_sent, sp.bytes_sent) << "rank " << r;
    EXPECT_EQ(so.bytes_received, sp.bytes_received) << "rank " << r;
    EXPECT_EQ(so.num_ops, sp.num_ops) << "rank " << r;
    EXPECT_EQ(so.sim_seconds, sp.sim_seconds) << "rank " << r;
  }
  EXPECT_EQ(observed.MaxSimSeconds(), plain.MaxSimSeconds());
  ASSERT_EQ(traced.tree_costs.size(), base.tree_costs.size());
  for (size_t t = 0; t < base.tree_costs.size(); ++t) {
    EXPECT_EQ(traced.tree_costs[t].bytes_sent, base.tree_costs[t].bytes_sent);
    EXPECT_EQ(traced.tree_costs[t].comm_seconds,
              base.tree_costs[t].comm_seconds);
  }
}

// Metrics-only observer: no trace buffers exist, but shards still count.
TEST(ObsDisabledTraceTest, MetricsWithoutTraceBuffers) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(600, 15, 601);
  RunObserver observer;  // trace defaults to off
  EXPECT_FALSE(observer.trace_enabled());
  EXPECT_EQ(observer.driver_buffer(), nullptr);

  Cluster cluster(3);
  cluster.AttachObserver(&observer);
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD1, SmallOptions(3, 3));
  ASSERT_TRUE(result.status.ok());

  EXPECT_EQ(observer.trace().event_count(), 0u);
  const MetricsSnapshot merged = observer.metrics().Merged();
  EXPECT_GT(merged.CounterValue("comm.AllReduceSum.ops"), 0u);
  EXPECT_TRUE(result.report.enabled);
  EXPECT_TRUE(result.report.trace_path.empty());
}

// ---------------------------------------------------------------------------
// Goodput accounting under failures.
// ---------------------------------------------------------------------------

// A crash with no checkpoint degrades to a full restart: everything the
// first attempt trained (plus its setup) is wasted, and the report says so.
TEST(ObsGoodputTest, FailedAttemptWorkIsCountedAsWasted) {
  const Dataset data = MakeData(900, 20, 701);
  const DistTrainOptions options = SmallOptions(6, 4);

  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, data, Quadrant::kQD2, options);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.wasted_bytes, 0u);
  EXPECT_DOUBLE_EQ(base.wasted_seconds, 0.0);
  const uint64_t total_ops = clean.worker_stats(2).num_ops;

  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster faulted(4);
  faulted.AttachObserver(&observer);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(2, CollectiveOp::kAny, (3 * total_ops) / 4));
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD2, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // No checkpoint: every tree of the failed attempt was thrown away. The
  // DistResult goodput counters hold regardless of the obs build mode.
  EXPECT_EQ(result.recovery.trees_recovered, 0u);
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_GT(result.wasted_seconds, 0.0);
  if (!obs::kObsEnabled) return;  // Report/metrics need the obs build.

  const obs::RunReport& report = result.report;
  EXPECT_EQ(report.wasted_bytes, result.wasted_bytes);
  EXPECT_DOUBLE_EQ(report.wasted_seconds, result.wasted_seconds);
  EXPECT_EQ(report.recovery.failures_observed, 1);
  EXPECT_EQ(report.recovery.recovery_attempts, 1);
  EXPECT_EQ(report.recovery.final_world_size, 3);

  const MetricsSnapshot metrics = observer.metrics().Merged();
  EXPECT_EQ(metrics.CounterValue("recovery.failures_observed"), 1u);
  EXPECT_EQ(metrics.CounterValue("recovery.attempts"), 1u);
  EXPECT_GT(metrics.CounterValue("recovery.redistribution_bytes"), 0u);

  // The trace saw the driver's recovery span.
  bool saw_recovery_span = false;
  for (const TraceEvent& e : observer.trace().MergedEvents()) {
    if (std::string_view(e.name) == "recovery" &&
        std::string_view(e.category) == "driver") {
      saw_recovery_span = true;
    }
  }
  EXPECT_TRUE(saw_recovery_span);
}

// Checkpointed recovery records checkpoint metrics and keeps the waste to
// the uncheckpointed suffix.
TEST(ObsGoodputTest, CheckpointMetricsRecorded) {
  const Dataset data = MakeData(900, 20, 711);
  DistTrainOptions options = SmallOptions(6, 4);
  options.checkpoint.interval = 2;

  Cluster clean(4);
  const DistResult base =
      TrainDistributed(clean, data, Quadrant::kQD1, options);
  ASSERT_TRUE(base.status.ok());
  const uint64_t total_ops = clean.worker_stats(1).num_ops;

  RunObserver observer;
  Cluster faulted(4);
  faulted.AttachObserver(&observer);
  faulted.InstallFaultPlan(
      FaultPlan().Crash(1, CollectiveOp::kAny, (3 * total_ops) / 4));
  const DistResult result =
      TrainDistributed(faulted, data, Quadrant::kQD1, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.recovery.trees_recovered, 0u);
  if (!obs::kObsEnabled) return;  // Metric checks need the obs build.

  const MetricsSnapshot metrics = observer.metrics().Merged();
  EXPECT_GT(metrics.CounterValue("checkpoint.count"), 0u);
  EXPECT_GT(metrics.CounterValue("checkpoint.bytes"), 0u);
  const MetricsSnapshot::Entry* latency =
      metrics.Find("checkpoint.latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, metrics.CounterValue("checkpoint.count"));
}

// ---------------------------------------------------------------------------
// Emitter fixtures for scripts/check_trace.py (--emitter mode runs this
// binary with --gtest_filter=ObsEmit* and VERO_OBS_EMIT_DIR set, then
// validates the emitted files against the documented schemas).
// ---------------------------------------------------------------------------

std::string EmitDir() {
  const char* dir = std::getenv("VERO_OBS_EMIT_DIR");
  return dir != nullptr ? std::string(dir) : ::testing::TempDir();
}

TEST(ObsEmitTest, WritesTraceAndReportJson) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with VERO_DISABLE_OBS";
  const Dataset data = MakeData(700, 18, 801);
  const DistTrainOptions options = SmallOptions(4, 4);

  ObsOptions obs_options;
  obs_options.trace = true;
  RunObserver observer(obs_options);
  Cluster cluster(4);
  cluster.AttachObserver(&observer);
  DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD4, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  const std::string dir = EmitDir();
  const std::string trace_path = dir + "/trace.json";
  const std::string report_path = dir + "/report.json";
  ASSERT_TRUE(observer.trace().WriteChromeJson(trace_path).ok());
  result.report.label = "obs_emit_test";
  result.report.trace_path = trace_path;
  {
    std::ofstream out(report_path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(out));
    out << result.report.ToJson() << "\n";
  }

  std::ifstream trace_in(trace_path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(trace_in));
  std::stringstream trace_ss;
  trace_ss << trace_in.rdbuf();
  EXPECT_NE(trace_ss.str().find("\"traceEvents\""), std::string::npos);

  std::ifstream report_in(report_path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(report_in));
  std::stringstream report_ss;
  report_ss << report_in.rdbuf();
  EXPECT_NE(report_ss.str().find("\"vero.run_report.v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace vero
