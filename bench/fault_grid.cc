// Failure sweep: straggler mitigation under a deterministic fault grid.
// Replays the exact same injected-delay schedule (phase x rank x delay)
// against the three mitigation modes and compares goodput: strict pays every
// delay on the critical path, bounded staleness drops the straggler's
// histogram contribution for the round, speculation re-serves the block from
// an idle worker at the price of duplicated traffic (wasted_bytes).
//
// A second sweep covers the recovery-cost surface: checkpoint interval x
// crash schedule x elastic-resize decision (none/up/down), reporting trees
// recovered vs retrained, re-shard traffic, and the final cluster width.
//
// A third sweep (--integrity-grid) covers the silent-corruption surface:
// audit overhead per quadrant x integrity level on clean runs (byte- and
// model-digest-identical across levels), detection/blame/heal cells for
// kSilentCorrupt / kPoison injections on QD1, and an escape demonstration —
// a corruption that provably changes the final model at integrity=off and
// is caught and healed at integrity=full.
//
// Run with --fault-grid and/or --integrity-grid [--report out.json] ;
// scripts/check_bench_faults.py / scripts/check_bench_integrity.py validate
// the emitted "vero.bench_report.v1" files (the check_bench_faults and
// check_bench_integrity ctests run both at a tiny scale).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/model_io.h"
#include "integrity/auditor.h"

namespace vero {
namespace bench {
namespace {

struct GridCell {
  FaultPhase phase;
  int rank;
  double delay;
};

// One delay schedule per cell, identical across modes. Train-phase cells hit
// the QD1 layer-histogram all-reduces (odd kTrain occurrences after the
// gradient all-reduce at occurrence 0); setup-phase cells delay the first
// setup collective, which no mitigation mode can route around — that cell
// documents the mitigation's scope, not a win.
FaultPlan MakePlan(const GridCell& cell) {
  FaultPlan plan;
  if (cell.phase == FaultPhase::kSetup) {
    plan.Delay(cell.rank, CollectiveOp::kAny, 0, cell.delay,
               FaultPhase::kSetup);
    return plan;
  }
  for (uint64_t occ : {1, 3, 5, 7, 9}) {
    plan.Delay(cell.rank, CollectiveOp::kAllReduceSum, occ, cell.delay,
               FaultPhase::kTrain);
  }
  return plan;
}

uint64_t Counter(const DistResult& result, const char* name) {
  return result.report.enabled ? result.report.metrics.CounterValue(name) : 0;
}

void Main() {
  PrintHeader(
      "Fault grid: straggler mitigation goodput (QD1, W=4)",
      "Fu et al., VLDB'19, SS5 failure discussion; bounded-staleness / "
      "speculative-execution literature (see docs/straggler_mitigation.md)",
      "with a single slow rank dominating the round, bounded and "
      "speculative runs beat strict wall time; the setup-phase cell shows "
      "no win (mitigation only covers training aggregations)");

  const Dataset train =
      MakeWorkload(ScaledN(4000), 40, 2, 0.3, /*seed=*/29);

  const GridCell kGrid[] = {
      {FaultPhase::kTrain, 1, 0.25},
      {FaultPhase::kTrain, 1, 1.0},
      {FaultPhase::kTrain, 2, 1.0},
      {FaultPhase::kSetup, 1, 1.0},
  };
  const MitigationMode kModes[] = {
      MitigationMode::kStrict,
      MitigationMode::kBoundedStaleness,
      MitigationMode::kSpeculative,
  };

  std::printf("\n%-22s %-11s %9s %8s %5s %5s %5s %10s %10s\n", "cell",
              "mode", "train(s)", "speedup", "defer", "force", "spec",
              "wasted", "loss");
  for (const GridCell& cell : kGrid) {
    const FaultPlan plan = MakePlan(cell);
    char cell_tag[48];
    std::snprintf(cell_tag, sizeof(cell_tag), "fg-%s-r%d-d%.2f",
                  cell.phase == FaultPhase::kSetup ? "setup" : "train",
                  cell.rank, cell.delay);
    double strict_seconds = 0.0;
    for (MitigationMode mode : kModes) {
      BenchRunSpec spec;
      spec.workers = 4;
      spec.options.params = PaperParams(6);
      spec.options.mitigation.mode = mode;
      spec.options.mitigation.deadline_seconds = 0.01;
      spec.options.mitigation.speculation_threshold_seconds = 0.01;
      spec.fault_plan = &plan;
      spec.force_observe = true;
      spec.label = std::string(cell_tag) + "-" + MitigationModeToString(mode);
      const DistResult result =
          RunQuadrantSpec(train, Quadrant::kQD1, spec);
      if (!result.status.ok()) {
        std::printf("%-22s %-11s FAILED: %s\n", cell_tag,
                    MitigationModeToString(mode),
                    result.status.ToString().c_str());
        continue;
      }
      const double seconds = result.TrainSeconds();
      if (mode == MitigationMode::kStrict) strict_seconds = seconds;
      const double loss =
          result.curve.empty() ? 0.0 : result.curve.back().train_loss;
      std::printf("%-22s %-11s %9.4f %7.2fx %5llu %5llu %5llu %10s %10.5f\n",
                  cell_tag, MitigationModeToString(mode), seconds,
                  strict_seconds > 0 ? strict_seconds / seconds : 1.0,
                  static_cast<unsigned long long>(
                      Counter(result, "staleness.deferred_contributions")),
                  static_cast<unsigned long long>(
                      Counter(result, "staleness.forced_syncs")),
                  static_cast<unsigned long long>(
                      Counter(result, "speculation.launched")),
                  FormatBytes(static_cast<double>(result.wasted_bytes))
                      .c_str(),
                  loss);
    }
  }
  std::printf(
      "\ndefer/force/spec are staleness.* / speculation.* counter totals;\n"
      "wasted = duplicated speculative traffic (report wasted_bytes).\n"
      "Strict rows keep every counter at zero: the default path is\n"
      "bit-identical to a run without mitigation compiled in.\n");
}

// Total kAny collective calls the crash-target rank issues on a clean run;
// crash occurrences for the recovery grid are placed as fractions of this so
// "early" / "late" track the workload instead of hard-coded indices.
uint64_t ProbeAnyOps(const Dataset& train, const GbdtParams& params,
                     int workers, int rank) {
  Cluster cluster(workers, NetworkModel::Lab1Gbps());
  DistTrainOptions options;
  options.params = params;
  const DistResult result =
      TrainDistributed(cluster, train, Quadrant::kQD1, options);
  if (!result.status.ok()) return 0;
  return cluster.worker_stats(rank).num_ops;
}

void RecoveryGrid() {
  PrintHeader(
      "Recovery grid: checkpoint interval x crash schedule x resize (QD1, "
      "W=4)",
      "Fu et al., VLDB'19, SS5 failure discussion; delta-checkpoint / "
      "elastic-membership design in docs/fault_tolerance.md",
      "denser checkpoints retrain fewer trees after a crash (retrained at "
      "ci=4 >= ci=1); resize cells land on the scheduled width with "
      "re-shard traffic priced through the network model");

  const Dataset train =
      MakeWorkload(ScaledN(3000), 30, 2, 0.3, /*seed=*/31);

  GbdtParams base = PaperParams(5);
  // The resize boundary must sit strictly inside the run.
  base.num_trees = std::max(2u, base.num_trees);
  const uint32_t boundary = std::max(1u, base.num_trees / 2);
  const int kWorkers = 4;
  const int kCrashRank = 2;  // survives the scale-down cells (top rank 3 retires)
  const uint64_t probe_ops = ProbeAnyOps(train, base, kWorkers, kCrashRank);

  struct CrashSpec {
    const char* tag;
    bool enabled;
    uint64_t occurrence;
  };
  const CrashSpec kCrashes[] = {
      {"none", false, 0},
      {"early", true, probe_ops / 4},
      {"late", true, (2 * probe_ops) / 3},
  };
  struct ResizeSpec {
    const char* tag;
    int delta;
  };
  const ResizeSpec kResizes[] = {{"none", 0}, {"up", +1}, {"down", -1}};
  const uint32_t kIntervals[] = {1, 4};

  std::printf("\n%-20s %-6s %5s %5s %7s %6s %10s %9s %9s\n", "cell", "ok",
              "rec", "retr", "resize", "W_end", "reshard", "recov(s)",
              "train(s)");
  for (uint32_t interval : kIntervals) {
    for (const CrashSpec& crash : kCrashes) {
      for (const ResizeSpec& resize : kResizes) {
        FaultPlan plan;
        if (crash.enabled) {
          plan.Crash(kCrashRank, CollectiveOp::kAny, crash.occurrence);
        }
        char cell_tag[64];
        std::snprintf(cell_tag, sizeof(cell_tag), "rg-ci%u-%s-%s", interval,
                      crash.tag, resize.tag);
        BenchRunSpec spec;
        spec.workers = kWorkers;
        spec.options.params = base;
        spec.options.elastic_resize_after_trees =
            resize.delta != 0 ? boundary : 0;
        spec.options.elastic_resize_delta = resize.delta;
        spec.options.checkpoint.interval = interval;
        spec.options.max_recovery_attempts = 3;
        spec.options.elastic_rejoin = true;
        spec.fault_plan = crash.enabled ? &plan : nullptr;
        spec.force_observe = true;
        spec.label = cell_tag;
        const DistResult result = RunQuadrantSpec(train, Quadrant::kQD1, spec);
        if (!result.status.ok()) {
          std::printf("%-20s FAILED: %s\n", cell_tag,
                      result.status.ToString().c_str());
          continue;
        }
        const obs::RunReport& rep = result.report;
        std::printf("%-20s %-6s %5u %5u %7d %6d %10s %9.4f %9.4f\n", cell_tag,
                    "yes", rep.recovery.trees_recovered,
                    rep.recovery.trees_retrained, rep.elasticity.resizes,
                    rep.recovery.final_world_size,
                    FormatBytes(static_cast<double>(
                                    rep.elasticity.reshard_bytes))
                        .c_str(),
                    rep.recovery.recovery_seconds, result.TrainSeconds());
      }
    }
  }
  std::printf(
      "\nrec/retr = trees restored from the latest checkpoint vs re-built\n"
      "from scratch after a crash; reshard = bytes the re-shard plan moved\n"
      "at the resize rendezvous (priced, not copied). ci=1 keeps a\n"
      "checkpoint per tree, so its retrained count never exceeds ci=4's.\n");
}

// Trains `quadrant` on a throwaway cluster (no observer, no report entry)
// with `plan` installed, returning the model's canonical text ("" on any
// failure). The integrity grid uses this to scan corruption configurations
// for one that provably changes the model at integrity=off without polluting
// the emitted report with probe runs.
std::string ProbeModelText(const Dataset& train, Quadrant quadrant,
                           const GbdtParams& params, int workers,
                           const FaultPlan* plan) {
  Cluster cluster(workers, NetworkModel::Lab1Gbps());
  if (plan != nullptr) cluster.InstallFaultPlan(*plan);
  DistTrainOptions options;
  options.params = params;
  options.transform.encoding = TransformEncoding::kBlockified;
  const DistResult result =
      TrainDistributed(cluster, train, quadrant, options);
  if (!result.status.ok()) return std::string();
  return ModelToText(result.model);
}

// One corruption configuration the escape scan tries at integrity=off.
// QD2's all-to-all candidate exchange and QD1's gradient buffer are the two
// channels where a single-rank fault stays SPMD-replicated downstream (the
// run completes instead of desynchronizing collectives), so a wrong model
// can actually escape; whether a given bit-flip lands on a winning split
// depends on the workload, hence the scan over ranks and seeds.
struct EscapeConfig {
  Quadrant quadrant;
  bool poison;  // false: SilentCorrupt on the exchange collective
  int rank;
  uint64_t seed;
};

FaultPlan MakeEscapePlan(const EscapeConfig& config) {
  FaultPlan plan;
  if (config.poison) {
    plan.Poison(config.rank, ComputePoint::kGradient, /*occurrence=*/0,
                /*inf=*/false, FaultPhase::kTrain, config.seed);
  } else {
    plan.SilentCorrupt(config.rank, CollectiveOp::kAllToAll,
                       /*occurrence=*/0, config.seed, FaultPhase::kTrain);
  }
  return plan;
}

void IntegrityGrid() {
  PrintHeader(
      "Integrity grid: audit overhead + detection/blame/heal (W=4)",
      "Fu et al., VLDB'19, SS3.1 histogram mass identities; ABFT-style "
      "invariant auditing (see docs/fault_tolerance.md)",
      "clean runs are byte- and model-identical across integrity levels "
      "(the audit rides existing rendezvous); every injected corruption is "
      "detected with the faulty rank blamed and the model healed; one "
      "scanned corruption provably changes the model at integrity=off");

  const Dataset train = MakeWorkload(ScaledN(2500), 24, 2, 0.3, /*seed=*/37);
  const int kWorkers = 4;
  GbdtParams base = PaperParams(6);

  const IntegrityLevel kAllLevels[] = {IntegrityLevel::kOff,
                                       IntegrityLevel::kChecksum,
                                       IntegrityLevel::kFull};

  // --- Part A: clean overhead grid, quadrant x level. The auditor's digest
  // exchange rides the instrumentation rendezvous (zero modeled bytes /
  // seconds), so train(s) and bytes must match integrity=off exactly.
  const Quadrant kQuadrants[] = {Quadrant::kQD1, Quadrant::kQD2,
                                 Quadrant::kQD3, Quadrant::kQD4};
  std::printf("\n%-6s %-9s %9s %12s %7s %5s %18s\n", "quad", "level",
              "train(s)", "bytes", "checks", "viol", "model digest");
  uint64_t clean_qd1_digest = 0;
  for (Quadrant quadrant : kQuadrants) {
    for (IntegrityLevel level : kAllLevels) {
      BenchRunSpec spec;
      spec.workers = kWorkers;
      spec.options.params = base;
      spec.options.integrity = level;
      spec.force_observe = true;
      spec.label = std::string("ig-clean-") + IntegrityLevelToString(level);
      const DistResult result = RunQuadrantSpec(train, quadrant, spec);
      if (!result.status.ok()) {
        std::printf("%-6s %-9s FAILED: %s\n", QuadrantToString(quadrant),
                    IntegrityLevelToString(level),
                    result.status.ToString().c_str());
        continue;
      }
      if (quadrant == Quadrant::kQD1) {
        clean_qd1_digest = result.report.model_digest;
      }
      std::printf("%-6s %-9s %9.4f %12s %7llu %5llu %018llx\n",
                  QuadrantToString(quadrant), IntegrityLevelToString(level),
                  result.TrainSeconds(),
                  FormatBytes(static_cast<double>(result.train_bytes_sent))
                      .c_str(),
                  static_cast<unsigned long long>(result.integrity.checks),
                  static_cast<unsigned long long>(
                      result.integrity.violations),
                  static_cast<unsigned long long>(
                      result.report.model_digest));
    }
  }

  // --- Part B: QD1 injection cells. Each cell replays one fault against
  // every level it can safely run under. Silent corruption of a replicated
  // all-reduce result is excluded at integrity=off by construction: the
  // corrupted rank's split decisions diverge and the SPMD collectives abort
  // (that crash, not a wrong model, is the failure mode there — the escape
  // demo below uses channels whose decisions stay replicated).
  struct InjectCell {
    const char* tag;
    FaultPlan plan;
    std::vector<IntegrityLevel> levels;
    bool rollback;  // expects escalation: checkpoint per tree + budget
  };
  std::vector<InjectCell> cells;
  {
    InjectCell cell;
    cell.tag = "silent-hist";  // L0 hist all-reduce replica, tree 0
    cell.plan.SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/1,
                            /*seed=*/77, FaultPhase::kTrain);
    cell.levels = {IntegrityLevel::kChecksum, IntegrityLevel::kFull};
    cell.rollback = false;
    cells.push_back(cell);
  }
  {
    InjectCell cell;
    cell.tag = "silent-counts";  // L0 child-counts all-reduce, tree 0
    cell.plan.SilentCorrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/2,
                            /*seed=*/81, FaultPhase::kTrain);
    cell.levels = {IntegrityLevel::kChecksum, IntegrityLevel::kFull};
    cell.rollback = true;
    cells.push_back(cell);
  }
  {
    InjectCell cell;
    cell.tag = "poison-grad";  // NaN into rank 1's gradients, tree 0
    cell.plan.Poison(1, ComputePoint::kGradient, /*occurrence=*/0,
                     /*inf=*/false, FaultPhase::kTrain);
    cell.levels = {IntegrityLevel::kOff, IntegrityLevel::kChecksum,
                   IntegrityLevel::kFull};
    cell.rollback = false;
    cells.push_back(cell);
  }
  {
    InjectCell cell;
    cell.tag = "poison-hist";  // +Inf into rank 0's L0 histogram, tree 0
    cell.plan.Poison(0, ComputePoint::kHistogram, /*occurrence=*/0,
                     /*inf=*/true, FaultPhase::kTrain);
    cell.levels = {IntegrityLevel::kOff, IntegrityLevel::kChecksum,
                   IntegrityLevel::kFull};
    cell.rollback = false;
    cells.push_back(cell);
  }

  std::printf("\n%-14s %-9s %-4s %6s %5s %4s %4s %3s %6s %6s %7s\n", "cell",
              "level", "ok", "checks", "viol", "rec", "esc", "rb", "blamed",
              "W_end", "healed");
  for (const InjectCell& cell : cells) {
    for (IntegrityLevel level : cell.levels) {
      BenchRunSpec spec;
      spec.workers = kWorkers;
      spec.options.params = base;
      spec.options.integrity = level;
      spec.fault_plan = &cell.plan;
      spec.force_observe = true;
      if (cell.rollback) {
        spec.options.checkpoint.interval = 1;
        spec.options.max_recovery_attempts = 3;
      }
      spec.label = std::string("ig-") + cell.tag + "-" +
                   IntegrityLevelToString(level);
      const DistResult result = RunQuadrantSpec(train, Quadrant::kQD1, spec);
      if (!result.status.ok()) {
        std::printf("%-14s %-9s FAILED: %s\n", cell.tag,
                    IntegrityLevelToString(level),
                    result.status.ToString().c_str());
        continue;
      }
      std::printf("%-14s %-9s %-4s %6llu %5llu %4llu %4llu %3d %6d %6d "
                  "%7s\n",
                  cell.tag, IntegrityLevelToString(level), "yes",
                  static_cast<unsigned long long>(result.integrity.checks),
                  static_cast<unsigned long long>(
                      result.integrity.violations),
                  static_cast<unsigned long long>(
                      result.integrity.recomputes),
                  static_cast<unsigned long long>(
                      result.integrity.escalations),
                  result.integrity_rollbacks,
                  result.integrity.last_blamed_rank,
                  result.recovery.final_world_size,
                  result.report.model_digest == clean_qd1_digest ? "yes"
                                                                 : "no");
    }
  }

  // --- Part C: the escape demonstration. Scan corruption configs at
  // integrity=off (unreported probe runs) until one provably changes the
  // final model, then emit three reported runs on the winning config: a
  // clean reference, the escaped run at off, and the same fault at full
  // (detected, blamed, healed back to the reference digest).
  std::vector<EscapeConfig> candidates;
  for (int rank = 1; rank < kWorkers; ++rank) {
    for (uint64_t seed : {5ull, 13ull, 17ull, 1ull, 29ull, 37ull}) {
      candidates.push_back({Quadrant::kQD2, /*poison=*/false, rank, seed});
    }
  }
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    candidates.push_back({Quadrant::kQD1, /*poison=*/true, 1, seed});
  }

  std::string clean_text[2];  // [0]=QD2, [1]=QD1 reference model text
  clean_text[0] =
      ProbeModelText(train, Quadrant::kQD2, base, kWorkers, nullptr);
  clean_text[1] =
      ProbeModelText(train, Quadrant::kQD1, base, kWorkers, nullptr);

  const EscapeConfig* winner = nullptr;
  for (const EscapeConfig& candidate : candidates) {
    const std::string& reference =
        clean_text[candidate.quadrant == Quadrant::kQD1 ? 1 : 0];
    if (reference.empty()) continue;
    const FaultPlan plan = MakeEscapePlan(candidate);
    const std::string text = ProbeModelText(train, candidate.quadrant, base,
                                            kWorkers, &plan);
    if (!text.empty() && text != reference) {
      winner = &candidate;
      break;
    }
  }
  if (winner == nullptr) {
    // Emit the last config anyway so the checker fails loudly instead of
    // silently skipping the escape contract.
    std::printf("\nintegrity-grid: WARNING: no scanned corruption changed "
                "the model at integrity=off\n");
    winner = &candidates.back();
  }

  const FaultPlan escape_plan = MakeEscapePlan(*winner);
  std::printf("\nescape config: %s %s rank=%d seed=%llu\n",
              QuadrantToString(winner->quadrant),
              winner->poison ? "poison-grad" : "silent-alltoall",
              winner->rank, static_cast<unsigned long long>(winner->seed));
  struct EscapeRun {
    const char* tag;
    IntegrityLevel level;
    const FaultPlan* plan;
  };
  const EscapeRun kEscapeRuns[] = {
      {"ig-escape-ref", IntegrityLevel::kOff, nullptr},
      {"ig-escape-off", IntegrityLevel::kOff, &escape_plan},
      {"ig-escape-full", IntegrityLevel::kFull, &escape_plan},
  };
  uint64_t ref_digest = 0;
  for (const EscapeRun& run : kEscapeRuns) {
    BenchRunSpec spec;
    spec.workers = kWorkers;
    spec.options.params = base;
    spec.options.integrity = run.level;
    spec.fault_plan = run.plan;
    spec.force_observe = true;
    spec.label = run.tag;
    const DistResult result =
        RunQuadrantSpec(train, winner->quadrant, spec);
    if (!result.status.ok()) {
      std::printf("%-16s FAILED: %s\n", run.tag,
                  result.status.ToString().c_str());
      continue;
    }
    if (std::strcmp(run.tag, "ig-escape-ref") == 0) {
      ref_digest = result.report.model_digest;
    }
    std::printf("%-16s level=%-8s viol=%llu blamed=%d digest=%018llx %s\n",
                run.tag, IntegrityLevelToString(run.level),
                static_cast<unsigned long long>(result.integrity.violations),
                result.integrity.last_blamed_rank,
                static_cast<unsigned long long>(result.report.model_digest),
                result.report.model_digest == ref_digest ? "(= ref)"
                                                         : "(DIVERGED)");
  }
  std::printf(
      "\nClean rows: identical bytes and model digest across levels — the\n"
      "audit exchanges digests over the existing rendezvous, so integrity\n"
      "costs no modeled traffic (train(s) folds in measured host compute\n"
      "and jitters run to run). Injection rows: viol/rec/esc/rb are the\n"
      "integrity.* counters; healed compares the final model digest to the\n"
      "clean QD1 run. The escape rows show the same corruption escaping at\n"
      "off (digest diverges, zero checks) and healed at full.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  // Sweep selection: --fault-grid runs the straggler + recovery sweeps,
  // --integrity-grid the silent-corruption sweep; no flag runs everything.
  bool fault_grid = false;
  bool integrity_grid = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: fault_grid [--fault-grid] [--integrity-grid] "
                  "[--report out.json] [--trace-dir dir] [--threads n]\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--fault-grid") == 0) fault_grid = true;
    if (std::strcmp(argv[i], "--integrity-grid") == 0) integrity_grid = true;
  }
  const bool all = !fault_grid && !integrity_grid;
  if (all || fault_grid) {
    vero::bench::Main();
    vero::bench::RecoveryGrid();
  }
  if (all || integrity_grid) {
    vero::bench::IntegrityGrid();
  }
}
