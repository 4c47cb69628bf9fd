#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/logging.h"
#include "core/model_io.h"
#include "integrity/auditor.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace vero {
namespace bench {
namespace {

// Short filesystem-friendly tag for per-run trace filenames.
const char* QuadrantTag(Quadrant q) {
  switch (q) {
    case Quadrant::kQD1:
      return "qd1";
    case Quadrant::kQD2:
      return "qd2";
    case Quadrant::kQD3:
      return "qd3";
    case Quadrant::kQD4:
      return "qd4";
    case Quadrant::kFeatureParallel:
      return "fp";
  }
  return "unknown";
}

// State behind --report / --trace-dir / --anatomy; one report entry per
// RunQuadrantSpec.
struct BenchObsState {
  std::string report_path;
  std::string trace_dir;
  std::string anatomy_path;
  uint32_t threads_flag = 0;  // 0 = not set on the command line
  int run_counter = 0;
  std::vector<std::string> run_reports;     // serialized RunReport objects
  std::vector<std::string> anatomy_reports;  // serialized AnatomyReport
};

BenchObsState& ObsState() {
  static BenchObsState* state = new BenchObsState();
  return *state;
}

bool ObsRequested() {
  const BenchObsState& s = ObsState();
  return obs::kObsEnabled &&
         (!s.report_path.empty() || !s.trace_dir.empty() ||
          !s.anatomy_path.empty());
}

void FlushBenchReport() {
  BenchObsState& s = ObsState();
  if (s.report_path.empty()) return;
  std::ofstream out(s.report_path, std::ios::binary);
  if (!out) {
    VERO_LOG(Warning) << "cannot write bench report: " << s.report_path;
    return;
  }
  out << "{\"schema\":\"vero.bench_report.v1\",\"runs\":[";
  for (size_t i = 0; i < s.run_reports.size(); ++i) {
    if (i > 0) out << ",";
    out << s.run_reports[i];
  }
  out << "]}\n";
}

void FlushAnatomyReport() {
  BenchObsState& s = ObsState();
  if (s.anatomy_path.empty()) return;
  std::ofstream out(s.anatomy_path, std::ios::binary);
  if (!out) {
    VERO_LOG(Warning) << "cannot write anatomy report: " << s.anatomy_path;
    return;
  }
  out << "{\"schema\":\"vero.anatomy_bench.v1\",\"runs\":[";
  for (size_t i = 0; i < s.anatomy_reports.size(); ++i) {
    if (i > 0) out << ",";
    out << s.anatomy_reports[i];
  }
  out << "]}\n";
}

}  // namespace

void InitBench(int argc, char** argv) {
  BenchObsState& s = ObsState();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      s.report_path = argv[++i];
    } else if (arg == "--trace-dir" && i + 1 < argc) {
      s.trace_dir = argv[++i];
    } else if (arg == "--anatomy" && i + 1 < argc) {
      s.anatomy_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      if (v > 0) s.threads_flag = static_cast<uint32_t>(v);
    }
  }
  if (!s.report_path.empty()) std::atexit(FlushBenchReport);
  if (!s.anatomy_path.empty()) std::atexit(FlushAnatomyReport);
  if (!obs::kObsEnabled && (!s.report_path.empty() || !s.trace_dir.empty() ||
                            !s.anatomy_path.empty())) {
    VERO_LOG(Warning) << "--report/--trace-dir/--anatomy ignored: built with "
                         "VERO_DISABLE_OBS";
  }
}

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("VERO_SCALE");
    if (env != nullptr) {
      const double v = std::atof(env);
      if (v > 0) return v;
    }
    return 1.0;
  }();
  return scale;
}

uint32_t ScaledN(uint32_t n) {
  const double scaled = n * Scale();
  return static_cast<uint32_t>(std::max(200.0, std::llround(scaled) * 1.0));
}

uint32_t BenchTrees() {
  static const uint32_t trees = [] {
    const char* env = std::getenv("VERO_BENCH_TREES");
    if (env != nullptr) {
      const int v = std::atoi(env);
      if (v > 0) return static_cast<uint32_t>(v);
    }
    return 5u;
  }();
  return trees;
}

void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("scale=%.3g, trees/run=%u (simulated cluster; comm time from\n"
              "the byte-exact network cost model, comp time = max worker\n"
              "thread-CPU seconds)\n",
              Scale(), BenchTrees());
  std::printf("=============================================================\n");
}

Dataset MakeWorkload(uint32_t n, uint32_t d, uint32_t c, double density,
                     uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = c;
  config.density = density;
  config.informative_ratio = std::min(1.0, std::max(0.2, density));
  config.seed = seed;
  return GenerateSynthetic(config);
}

uint32_t BenchThreads() {
  const uint32_t flag = ObsState().threads_flag;
  if (flag > 0) return flag;
  static const uint32_t env_threads = [] {
    const char* env = std::getenv("VERO_THREADS");
    if (env != nullptr) {
      const int v = std::atoi(env);
      if (v > 0) return static_cast<uint32_t>(v);
    }
    return 1u;
  }();
  return env_threads;
}

GbdtParams PaperParams(uint32_t num_layers) {
  GbdtParams params;
  params.num_trees = BenchTrees();
  params.num_layers = num_layers;
  params.num_candidate_splits = 20;
  params.learning_rate = 0.1;
  params.num_threads = BenchThreads();
  return params;
}

DistResult RunQuadrantSpec(const Dataset& train, Quadrant quadrant,
                           const BenchRunSpec& spec) {
  Cluster cluster(spec.workers, spec.network);
  if (spec.fault_plan != nullptr) {
    cluster.InstallFaultPlan(*spec.fault_plan);
  }
  const bool observe =
      ObsRequested() ||
      (obs::kObsEnabled && (spec.force_observe || spec.force_trace));
  if (!observe) {
    return TrainDistributed(cluster, train, quadrant, spec.options,
                            spec.valid, spec.qd3_scan);
  }

  BenchObsState& s = ObsState();
  obs::ObsOptions obs_options;
  obs_options.trace =
      !s.trace_dir.empty() || !s.anatomy_path.empty() || spec.force_trace;
  obs::RunObserver observer(obs_options);
  cluster.AttachObserver(&observer);
  DistResult result = TrainDistributed(cluster, train, quadrant, spec.options,
                                       spec.valid, spec.qd3_scan);

  char label[64];
  std::snprintf(label, sizeof(label), "run%03d-%s-w%d", s.run_counter++,
                QuadrantTag(quadrant), spec.workers);
  if (result.status.ok()) {
    // Stamp the model digest so sweep checkers can compare runs for
    // bit-identity (or provable divergence) from the report alone.
    const std::string text = ModelToText(result.model);
    result.report.model_digest = AuditDigestBytes(text.data(), text.size());
  }
  result.report.label = label;
  result.anatomy.label = result.report.label;
  if (!spec.label.empty()) {
    result.report.label += "-" + spec.label;
    result.anatomy.label = result.report.label;
  }
  if (observer.trace_enabled() && !s.trace_dir.empty()) {
    const std::string path =
        s.trace_dir + "/" + result.report.label + ".trace.json";
    const Status status = observer.trace().WriteChromeJson(path);
    if (status.ok()) {
      result.report.trace_path = path;
    } else {
      VERO_LOG(Warning) << "trace export failed: " << status.ToString();
    }
  }
  if (!s.report_path.empty()) {
    s.run_reports.push_back(result.report.ToJson());
  }
  if (!s.anatomy_path.empty() && result.anatomy.enabled) {
    s.anatomy_reports.push_back(result.anatomy.ToJson());
  }
  return result;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

}  // namespace bench
}  // namespace vero
