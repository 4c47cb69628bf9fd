#ifndef VERO_BENCH_BENCH_COMMON_H_
#define VERO_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/communicator.h"
#include "cluster/fault_injector.h"
#include "data/synthetic.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace bench {

/// Parses the shared bench flags and arms the run-report machinery:
///   --report <out.json>   collect one RunReport per RunQuadrantSpec call and
///                         write a "vero.bench_report.v1" JSON file at exit
///   --trace-dir <dir>     also record per-phase / per-collective traces and
///                         write one Chrome trace JSON per run into <dir>
///   --anatomy <out.json>  also record traces, stitch each run's cost
///                         anatomy (see obs::AnatomyReport), and write a
///                         "vero.anatomy_bench.v1" JSON file at exit
///   --threads <n>         per-worker histogram-builder threads (see
///                         BenchThreads())
/// Unknown arguments are ignored. Call first thing in main().
void InitBench(int argc, char** argv);

/// Global instance-count multiplier, read from VERO_SCALE (default 1.0).
/// Benches are sized for a single-core CI box at scale 1; raise the scale on
/// bigger machines to stress absolute numbers (shapes hold at any scale).
double Scale();

/// Round(n * Scale()), minimum 200.
uint32_t ScaledN(uint32_t n);

/// Number of boosting rounds used to estimate per-tree costs, from
/// VERO_BENCH_TREES (default 5).
uint32_t BenchTrees();

/// Per-worker histogram-builder threads (GbdtParams::num_threads), from the
/// --threads flag or VERO_THREADS (default 1). A simulated cluster runs one
/// builder per worker, so a run uses up to W x threads OS threads; results
/// are bit-identical at any value (see docs/performance.md).
uint32_t BenchThreads();

/// Prints the standard bench header with workload and environment notes.
void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

/// One synthetic workload matching the paper's §5.2 generator.
Dataset MakeWorkload(uint32_t n, uint32_t d, uint32_t c, double density,
                     uint64_t seed);

/// Everything one bench run needs beyond the workload and the quadrant.
/// Benches fill it with designated initializers, so fault plans and forced
/// metric collection need no ever-growing positional argument list.
struct BenchRunSpec {
  int workers = 4;
  /// Hyper-parameters plus every distributed setting (transform encoding,
  /// checkpoints, recovery budget, mitigation, codec, integrity), passed to
  /// TrainDistributed unchanged.
  DistTrainOptions options;
  NetworkModel network = NetworkModel::Lab1Gbps();
  const Dataset* valid = nullptr;
  /// QD3's index plan (ignored by the other quadrants).
  HistogramBuilder::ColumnScan qd3_scan = HistogramBuilder::ColumnScan::kAuto;
  /// Installed on the fresh cluster before training (not owned; may be
  /// null). Lets sweeps replay the exact same delay schedule per mode.
  const FaultPlan* fault_plan = nullptr;
  /// Attach a RunObserver even without --report/--trace-dir, so the caller
  /// can read result.report.metrics (e.g. staleness.* counters) for its own
  /// comparison tables.
  bool force_observe = false;
  /// Also record traces (and therefore build result.anatomy) even without
  /// --anatomy / --trace-dir, so the caller can read the measured cost
  /// anatomy for its own tables. Implies force_observe.
  bool force_trace = false;
  /// Appended to the generated "runNNN-<quadrant>-wW" report label; sweep
  /// scripts group cells by this suffix.
  std::string label = {};
};

/// Runs `trees` rounds of a quadrant on a fresh cluster built from `spec`
/// and returns the result (convergence curve omitted unless `spec.valid`).
DistResult RunQuadrantSpec(const Dataset& train, Quadrant quadrant,
                           const BenchRunSpec& spec);

/// Default paper hyper-parameters (§5.1): L=8, q=20; T from BenchTrees().
GbdtParams PaperParams(uint32_t num_layers = 8);

/// "12.34 MB" / "1.23 GB" formatting.
std::string FormatBytes(double bytes);

}  // namespace bench
}  // namespace vero

#endif  // VERO_BENCH_BENCH_COMMON_H_
