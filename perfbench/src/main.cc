// vero_perfbench: one workload of the repository benchmark in one process.
//
//   vero_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scale <f>] [--perturb-oracle] [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics, measured with no observer
// attached; --trace 1 prints the per-layer metrics from a run with a
// tracing RunObserver plus replays of single modules, and writes the
// benchmark's own spans around each public call to --trace-out as Chrome
// trace JSON. The last stdout line
// is {"correct", "attempted", "failed", "metrics"}; the per-layer table and
// progress go to stderr. perfbench/README.md documents every metric.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "clock.h"
#include "core/metrics.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve/flat_forest.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool perturb_oracle = false;
  std::string trace_out;
};

// The correctness oracle pinned for --seed 1 at --scale 1: the FNV-1a
// digest of ModelToText for one TrainDistributed call and the AUC of that
// model on the validation tail. Any change that alters the trained model
// (lossy or otherwise) shows up here; a lossless optimization keeps both.
struct Pin {
  const char* workload;
  uint64_t digest;
  double valid_auc;
};
constexpr uint64_t kPinnedSeed = 1;
constexpr Pin kPins[] = {
    {"rcv1-qd1", 0x0a3893a1bb4c45e0ULL, 0.52377040702287869},
    {"rcv1-qd2", 0x0a3893a1bb4c45e0ULL, 0.52377040702287869},
    {"higgs-vero", 0x88990c5dad18addeULL, 0.85604671793272125},
};

const char* const kUsage =
    "usage: vero_perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> [--scale <f>] [--perturb-oracle] [--trace-out <path>]\n";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--perturb-oracle") {
      args->perturb_oracle = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--scale" && has_value) {
      args->scale = std::atof(argv[++i]);
    } else if (flag == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds > 0 &&
         args->scale > 0 && args->scale <= 1;
}

// Counts operations against the oracle: a non-OK Status, a digest other
// than the expected one, or a margin mismatch is one failed operation.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const ServeRun& run) {
    attempted += run.attempted;
    failed += run.failed;
  }
};

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

class Runner {
 public:
  Runner(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        in_(MakeInputs(spec, args.seed, args.scale)),
        models_(in_.sets.size()) {}

  std::vector<Metric> EndToEnd();
  std::vector<Metric> PerLayer();
  const Tally& tally() const { return tally_; }

 private:
  double Budget(double share) const { return share * args_.seconds; }
  uint32_t Trees() const { return spec_.trees_per_call; }

  // One standalone set-up run over training set `set`, checked against its
  // Status.
  SetupRun Setup(SetupKind kind, size_t set = 0);
  // Median wall seconds of the set-up stage over repeated runs after an
  // untimed warm-up; `last` receives the final run (for the replays).
  double MeasureSetup(SetupKind kind, double budget_s, SetupRun* last);
  // One TrainDistributed call on training set `set`, checked against the
  // oracle.
  TrainCall Train(vero::obs::RunObserver* observer, size_t set = 0);
  void CheckModel(const TrainCall& call, size_t set);
  // Compiles the served forest into `out`; returns the seconds it took.
  double CompileOnce(vero::serve::FlatForest* out);
  // Compiles the served forest plus its per-row reference margins.
  void PrepareServing();
  // Scores `batch`-row calls for `budget_s` (at least `min_calls`).
  ServeRun Serve(uint32_t threads, uint32_t batch, size_t min_calls,
                 double budget_s);

  const Args& args_;
  const WorkloadSpec& spec_;
  const Inputs in_;
  Tally tally_;
  // Per training set: the model its first call fixed.
  struct FixedModel {
    bool fixed = false;
    uint64_t digest = 0;
    double valid_auc = 0.0;
  };
  std::vector<FixedModel> models_;
  vero::serve::FlatForest forest_;
  std::vector<double> reference_;
  // The benchmark's own spans around each public call; recorded in traced
  // runs only (a null buffer measures but records nothing).
  vero::obs::TraceRecorder recorder_;
  vero::obs::TraceBuffer* spans_ = nullptr;
};

// Rounds per run at least, whatever --seconds asks for.
constexpr int kMinRounds = 5;

SetupRun Runner::Setup(SetupKind kind, size_t set) {
  vero::obs::PhaseSpan span(spans_, kind == SetupKind::kTransform
                                        ? "HorizontalToVertical"
                                        : "BuildDistributedCandidateSplits");
  SetupRun run = RunSetup(kind, in_.sets[set].shards);
  tally_.Check(run.ok);
  return run;
}

double Runner::MeasureSetup(SetupKind kind, double budget_s, SetupRun* last) {
  *last = Setup(kind);  // grows the heap; checked, not timed
  std::vector<double> samples;
  const double start = NowSeconds();
  while (samples.size() < 3 ||
         (NowSeconds() - start < budget_s && samples.size() < 15)) {
    *last = Setup(kind);
    samples.push_back(last->wall_s);
  }
  return Median(samples);
}

void Runner::CheckModel(const TrainCall& call, size_t set) {
  if (!call.result.status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 call.result.status.ToString().c_str());
    tally_.Check(false);
    return;
  }
  FixedModel& model = models_[set];
  if (!model.fixed) {
    // The first call on a training set fixes the model every later call on
    // it must reproduce; set 0 at the pinned seed must also match the pin.
    model.fixed = true;
    model.digest = call.digest;
    model.valid_auc =
        vero::EvaluateModel(call.result.model, in_.sets[set].valid).value;
    if (set == 0 && args_.seed == kPinnedSeed && args_.scale == 1.0) {
      for (const Pin& pin : kPins) {
        if (spec_.name != std::string(pin.workload)) continue;
        const bool auc_ok = model.valid_auc == pin.valid_auc;
        tally_.Check(auc_ok);
        if (!auc_ok || call.digest != pin.digest) {
          std::fprintf(stderr,
                       "oracle: pinned digest %016llx auc %.17g, got "
                       "%016llx auc %.17g\n",
                       static_cast<unsigned long long>(pin.digest),
                       pin.valid_auc,
                       static_cast<unsigned long long>(call.digest),
                       model.valid_auc);
        }
        model.digest = pin.digest;
      }
    }
    if (args_.perturb_oracle) model.digest ^= 1;
  }
  tally_.Check(call.digest == model.digest);
}

TrainCall Runner::Train(vero::obs::RunObserver* observer, size_t set) {
  vero::obs::PhaseSpan span(spans_, observer != nullptr
                                        ? "TrainDistributed (traced)"
                                        : "TrainDistributed");
  TrainCall call = RunTraining(spec_, in_.sets[set], observer);
  CheckModel(call, set);
  std::fprintf(stderr,
               "train call%s, set %zu: wall %.4f s, cpu %.4f s, modeled %.4f "
               "s, peak rss %.1f MB\n",
               observer != nullptr ? " (traced)" : "", set, call.cost.wall_s,
               call.cost.cpu_s(), call.result.TrainSeconds(),
               call.cost.peak_rss_kb / 1024.0);
  return call;
}

double Runner::CompileOnce(vero::serve::FlatForest* out) {
  vero::obs::PhaseSpan span(spans_, "FlatForest::FromModel");
  const double start = NowSeconds();
  vero::StatusOr<vero::serve::FlatForest> forest =
      vero::serve::FlatForest::FromModel(in_.forest);
  const double seconds = NowSeconds() - start;
  tally_.Check(forest.ok());
  if (forest.ok()) *out = std::move(forest).value();
  return seconds;
}

void Runner::PrepareServing() {
  CompileOnce(&forest_);
  reference_ = ReferenceMargins(in_.forest, in_.serve_rows);
  if (args_.perturb_oracle) {
    reference_[0] = std::nextafter(reference_[0], 1e300);
  }
}

ServeRun Runner::Serve(uint32_t threads, uint32_t batch, size_t min_calls,
                       double budget_s) {
  vero::obs::PhaseSpan span(spans_, batch == kSmallBatch
                                        ? "BatchPredictor (64-row calls)"
                                        : "BatchPredictor (8192-row calls)");
  ServeRun run = RunServing(forest_, in_.serve_rows, reference_, threads,
                            batch, min_calls, budget_s);
  tally_.Add(run);
  return run;
}

std::vector<Metric> Runner::EndToEnd() {
  const SetupKind kind = SetupOf(spec_.quadrant);
  // Warm-up, checked but not timed: the first set-up and training call
  // grow the heap, and that call fixes the model later calls must match.
  Setup(kind);
  Train(nullptr);
  PrepareServing();

  // Rounds of one training call followed by set-up runs and both serving
  // phases, each given time in proportion to its share. Every metric thus
  // samples the whole run, so drift in host load moves them alike instead
  // of hitting whichever phase happened to run at the time. The rounds
  // cycle through the training sets.
  const size_t sets = in_.sets.size();
  std::vector<std::vector<double>> wall_s(sets), cpu_s(sets), modeled_s(sets),
      rss_mb(sets);
  std::vector<double> setup_s, small_p50, small_p99, bulk_rows_per_s;
  const double start = NowSeconds();
  for (int round = 0;
       round < kMinRounds || NowSeconds() - start < args_.seconds; ++round) {
    const size_t set = round % sets;
    const TrainCall call = Train(nullptr, set);
    wall_s[set].push_back(call.cost.wall_s);
    cpu_s[set].push_back(call.cost.cpu_s());
    modeled_s[set].push_back(call.result.TrainSeconds());
    rss_mb[set].push_back(call.cost.peak_rss_kb / 1024.0);
    // Seconds per unit of share, paced by this round's training call.
    const double unit = call.cost.wall_s / spec_.train_share;

    // The training set-up, whose median is subtracted from every call.
    const double setup_end = NowSeconds() + unit * spec_.setup_share;
    do {
      setup_s.push_back(Setup(kind, set).wall_s);
    } while (NowSeconds() < setup_end);

    const ServeRun small = Serve(1, kSmallBatch, kMinSmallBatchCalls,
                                 unit * spec_.small_share);
    small_p50.push_back(Median(small.seconds));
    small_p99.push_back(Percentile(small.seconds, 0.99));
    const ServeRun bulk =
        Serve(kServeThreads, kBulkBatch, 3, unit * spec_.bulk_share);
    bulk_rows_per_s.push_back(kBulkBatch / Median(bulk.seconds));
    std::fprintf(stderr,
                 "serve round: 64-row p50 %.4f ms, p99 %.4f ms; bulk %.0f "
                 "rows/s\n",
                 1e3 * small_p50.back(), 1e3 * small_p99.back(),
                 bulk_rows_per_s.back());
  }

  // Every timing but set-up is taken at the run's lower quartile (the
  // upper one for a rate). The four workers meet at a barrier in every
  // collective, so a neighbour on the host taking one CPU stalls all four,
  // and neighbours' memory traffic slows every thread: contention only
  // ever adds time. The quartile tracks the program rather than the
  // neighbours, without resting on one lucky sample. Training figures are
  // taken per set and averaged over the sets.
  constexpr double kQuartile = 0.25;
  const double trees = Trees();
  const double train_setup_s = Median(setup_s);
  double train_s = 0, cpu = 0, modeled = 0, rss = 0, auc = 0;
  for (size_t set = 0; set < sets; ++set) {
    train_s += (Percentile(wall_s[set], kQuartile) - train_setup_s) / trees;
    cpu += Percentile(cpu_s[set], kQuartile) / trees;
    modeled += Percentile(modeled_s[set], kQuartile) / trees;
    // The peak over the set's calls: what its training job must be given.
    rss += Percentile(rss_mb[set], 1.0);
    auc += models_[set].valid_auc;
  }
  const double ok_ratio =
      static_cast<double>(tally_.attempted - tally_.failed) /
      static_cast<double>(tally_.attempted);
  return {
      {"train_s_per_tree", "s", train_s / sets},
      {"cpu_s_per_tree", "s", cpu / sets},
      {"setup_s", "s", train_setup_s},
      {"peak_rss_mb", "MB", rss / sets},
      {"modeled_s_per_tree", "s", modeled / sets},
      {"valid_auc", "auc", auc / sets},
      {"ok_ratio", "ratio", ok_ratio},
      // Per round: the median and p99 of its 64-row calls (at least
      // kMinSmallBatchCalls of them) and the median rate of its bulk calls.
      {"serve_b64_ms_p50", "ms", 1e3 * Percentile(small_p50, kQuartile)},
      {"serve_b64_ms_p99", "ms", 1e3 * Percentile(small_p99, kQuartile)},
      {"serve_bulk_rows_per_s", "rows/s",
       Percentile(bulk_rows_per_s, 1.0 - kQuartile)},
  };
}

std::vector<Metric> Runner::PerLayer() {
  spans_ = recorder_.CreateBuffer(-1);
  Values v;
  SetupRun candidate;
  SetupRun transform;
  const double candidate_s =
      MeasureSetup(SetupKind::kCandidateSplits, Budget(0.04), &candidate);
  const double transform_s =
      MeasureSetup(SetupKind::kTransform, Budget(0.06), &transform);
  const double train_setup_s =
      SetupOf(spec_.quadrant) == SetupKind::kTransform ? transform_s
                                                       : candidate_s;
  v["sketch.candidate_splits_s"] = candidate_s;
  v["partition.transform_s"] = transform_s;
  v["partition.sketch_cpu_s"] = 0.0;
  v["partition.encode_cpu_s"] = 0.0;
  v["partition.decode_cpu_s"] = 0.0;
  v["partition.repartition_mb"] = 0.0;
  for (const vero::TransformStats& s : transform.stats) {
    // Max over ranks, as the cluster-level setup cost is charged.
    v["partition.sketch_cpu_s"] =
        std::max(v["partition.sketch_cpu_s"], s.sketch_seconds);
    v["partition.encode_cpu_s"] =
        std::max(v["partition.encode_cpu_s"], s.encode_seconds);
    v["partition.decode_cpu_s"] =
        std::max(v["partition.decode_cpu_s"], s.decode_seconds);
    v["partition.repartition_mb"] += s.repartition_bytes_sent / 1e6;
  }

  // Untraced and traced calls alternate, so drift in host load hits both
  // alike: their ratio is the tracing overhead. The untraced calls also
  // give the process counters.
  Train(nullptr);  // warm-up, checked but not timed
  const double trees = Trees();
  std::vector<double> plain_s, traced_s, faults, user, sys;
  std::vector<Values> traced_values;
  const double start = NowSeconds();
  for (int round = 0; round < 3 || NowSeconds() - start < Budget(0.45);
       ++round) {
    const TrainCall plain = Train(nullptr);
    plain_s.push_back((plain.cost.wall_s - train_setup_s) / trees);
    faults.push_back(plain.cost.minor_faults / trees);
    user.push_back(plain.cost.user_s / trees);
    sys.push_back(plain.cost.sys_s / trees);
    vero::obs::ObsOptions options;
    options.trace = true;
    vero::obs::RunObserver observer(options);
    const TrainCall traced = Train(&observer);
    traced_s.push_back((traced.cost.wall_s - train_setup_s) / trees);
    traced_values.push_back(TracedCallMetrics(traced, observer, Trees()));
  }
  v["proc.minor_faults_per_tree"] = Median(faults);
  v["proc.user_s_per_tree"] = Median(user);
  v["proc.sys_s_per_tree"] = Median(sys);
  v["obs.trace_overhead_pct"] =
      100.0 * (Median(traced_s) / Median(plain_s) - 1.0);
  Values traced_median;
  for (const auto& [name, unused] : traced_values.front()) {
    std::vector<double> samples;
    for (const Values& call : traced_values) samples.push_back(call.at(name));
    traced_median[name] = Median(samples);
  }
  v.insert(traced_median.begin(), traced_median.end());

  {
    vero::obs::PhaseSpan span(spans_, "collective replays");
    const Values collectives = CollectiveReplays(traced_median, Budget(0.1));
    v.insert(collectives.begin(), collectives.end());
  }
  {
    vero::obs::PhaseSpan span(spans_, "histogram/split/gradient replays");
    const Values core =
        CoreReplays(spec_, in_.sets[0], candidate, transform, Budget(0.14));
    v.insert(core.begin(), core.end());
  }

  // Serving replays: compile, 64-row batches at 4 and 1 threads, bulk.
  PrepareServing();
  std::vector<double> compile_s;
  vero::serve::FlatForest compiled;
  const double compile_start = NowSeconds();
  while (compile_s.size() < 10 || NowSeconds() - compile_start < Budget(0.01)) {
    compile_s.push_back(CompileOnce(&compiled));
  }
  const ServeRun small4 = Serve(kServeThreads, kSmallBatch,
                                kMinSmallBatchCalls, Budget(0.07));
  const ServeRun small1 =
      Serve(1, kSmallBatch, kMinSmallBatchCalls, Budget(0.05));
  const ServeRun bulk = Serve(kServeThreads, kBulkBatch, 5, Budget(0.05));
  const double forest_trees = in_.forest.num_trees();
  v["serve.compile_ms"] = 1e3 * Median(compile_s);
  v["serve.ns_per_row_tree.b64"] =
      1e9 * Median(small1.seconds) / (kSmallBatch * forest_trees);
  v["serve.ns_per_row_tree.bulk"] =
      1e9 * Median(bulk.seconds) / (kBulkBatch * forest_trees);
  v["serve.threads_gain_b64"] =
      Median(small1.seconds) / Median(small4.seconds);

  std::vector<Metric> out;
  std::fprintf(stderr, "per-layer metrics, workload %s:\n", spec_.name);
  std::fprintf(stderr, "  %-44s %16s %-6s  %s\n", "metric", "value", "unit",
               "should move");
  for (const LayerMetric& m : LayerTable()) {
    const double value = v.at(m.name);
    std::fprintf(stderr, "  %-44s %16.6g %-6s  %s\n", m.name.c_str(), value,
                 m.unit, m.moves);
    out.push_back({m.name, m.unit, value});
  }
  if (!args_.trace_out.empty()) {
    const vero::Status status = recorder_.WriteChromeJson(args_.trace_out);
    std::fprintf(stderr, "benchmark spans: %s\n",
                 status.ok() ? args_.trace_out.c_str()
                             : status.ToString().c_str());
  }
  return out;
}

// Build facts the numbers depend on. A sanitizer or unoptimized build
// times the instrumentation, not the library, so it reports nothing.
bool CheckBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr, "refusing to report from a sanitizer build\n");
  return false;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to report from an unoptimized build\n");
  return false;
#endif
  return true;
}

void PrintJson(const Tally& tally, const std::vector<Metric>& metrics) {
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = tally.failed == 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!CheckBuild()) return 2;
  if (args.trace && !vero::obs::kObsEnabled) {
    std::fprintf(stderr, "--trace 1 needs a build without VERO_DISABLE_OBS\n");
    return 2;
  }
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"scale\": %g, \"nproc\": %ld, \"build_type\": \"%s\", "
      "\"vero_disable_obs\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.scale,
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      vero::obs::kObsEnabled ? "false" : "true");
  std::fflush(stdout);

  Runner runner(args, *FindWorkload(args.workload));
  const std::vector<Metric> metrics =
      args.trace ? runner.PerLayer() : runner.EndToEnd();
  PrintJson(runner.tally(), metrics);
  return 0;
}
