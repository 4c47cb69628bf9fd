// Measured cost anatomy across the quadrant x worker grid, next to the
// §3.1 closed-form cost model. anatomy_model evaluates the model on the
// paper's worked example; this sweep runs the simulator, stitches every
// run's trace into the exact attribution (obs::AnatomyReport), and reports
// model-vs-measured error per category. Expected paper shape: the comm
// share grows with W for the horizontal quadrants (QD1/QD2), while the
// vertical quadrants (QD3/QD4) keep comm flat and shift the blame to
// compute / partition.
//
// Run with --anatomy <out.json> to also emit the machine-readable
// "vero.anatomy_bench.v1" report validated by scripts/check_anatomy.py.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

struct Cell {
  Quadrant quadrant;
  int workers;
  obs::AnatomyReport anatomy;
};

// Measured per-category share of the attributed training time.
struct Shares {
  double comm = 0.0;
  double gradient = 0.0;
  double hist = 0.0;
  double split_eval = 0.0;
  double partition = 0.0;
  double other = 0.0;
  double total = 0.0;
};

double Category(const obs::AnatomyReport& a, const std::string& name) {
  for (const auto& [key, seconds] : a.categories) {
    if (key == name) return seconds;
  }
  return 0.0;
}

Shares MeasuredShares(const obs::AnatomyReport& a) {
  Shares s;
  s.comm = Category(a, "comm.total");
  s.gradient = Category(a, "compute.gradient");
  s.hist = Category(a, "compute.hist_build");
  s.split_eval = Category(a, "compute.split_eval");
  s.partition = Category(a, "compute.partition");
  s.other = Category(a, "compute.other");
  s.total = a.attributed_train_seconds;
  return s;
}

double Pct(double part, double total) {
  return total > 0.0 ? 100.0 * part / total : 0.0;
}

const char* ShortTag(Quadrant q) {
  switch (q) {
    case Quadrant::kQD1:
      return "QD1";
    case Quadrant::kQD2:
      return "QD2";
    case Quadrant::kQD3:
      return "QD3";
    case Quadrant::kQD4:
      return "QD4";
    case Quadrant::kFeatureParallel:
      return "FP";
  }
  return "?";
}

bool IsHorizontal(Quadrant q) {
  return q == Quadrant::kQD1 || q == Quadrant::kQD2;
}

// Closed-form model inputs (same shape as anatomy_model's §3.1 worked
// example, here filled from the sweep's own workload).
struct AnatomyModelInputs {
  double n = 0, d = 0, q = 0, c = 0, layers = 0, workers = 0;
};

// §3.1.3 closed-form per-rank wire bytes per tree, matched to the
// simulator's collectives: horizontal quadrants ring-all-reduce one
// histogram per built node (subtraction builds 2^(L-2) nodes per tree);
// vertical quadrants broadcast ceil(N/8)-byte placement bitmaps for L-1
// split layers, W-1 receivers each.
double ModelWireBytesPerTree(Quadrant q, const AnatomyModelInputs& in) {
  const double size_hist = 2.0 * in.d * in.q * in.c * 8.0;
  if (IsHorizontal(q)) {
    if (in.workers <= 1) return 0.0;
    const double nodes = std::pow(2.0, in.layers - 2);
    return 2.0 * (in.workers - 1) / in.workers * size_hist * nodes;
  }
  if (in.workers <= 1) return 0.0;
  return std::ceil(in.n / 8.0) * (in.workers - 1) * (in.layers - 1) /
         in.workers;
}

// Model comm seconds per tree: the measured per-rank op count carries the
// latency term (op *count* is structural, not a cost model), the closed
// form above carries the volume term.
double ModelCommSeconds(const Cell& cell, const AnatomyModelInputs& in,
                        const NetworkModel& net, uint32_t trees) {
  double cluster_ops = 0.0;
  for (const auto& op : cell.anatomy.comm_ops) {
    cluster_ops += static_cast<double>(op.ops);
  }
  if (cell.workers <= 1) return 0.0;  // W=1 collectives short-circuit.
  const double ops_per_rank = cluster_ops / cell.workers;
  return ops_per_rank * net.latency_seconds +
         trees * ModelWireBytesPerTree(cell.quadrant, in) /
             net.bandwidth_bytes_per_second;
}

void Main() {
  PrintHeader(
      "Anatomy sweep: measured cost attribution across quadrant x workers",
      "Fu et al., VLDB'19, §3.1 cost anatomy + Fig. 10 decomposition",
      "comm share grows with W for QD1/QD2 (horizontal); QD3/QD4 keep comm "
      "flat and shift blame to compute / partition; every cell's "
      "attribution sums exactly to the run's total");

  const uint32_t n = ScaledN(4000);
  const uint32_t d = 60;
  const uint32_t c = 2;
  const Dataset data = MakeWorkload(n, d, c, 0.25, 7040);
  GbdtParams params = PaperParams(6);
  const NetworkModel net = NetworkModel::Lab1Gbps();

  const Quadrant quadrants[] = {Quadrant::kQD1, Quadrant::kQD2,
                                Quadrant::kQD3, Quadrant::kQD4};
  const int worker_counts[] = {1, 2, 4, 8};

  std::vector<Cell> cells;
  for (Quadrant q : quadrants) {
    for (int w : worker_counts) {
      BenchRunSpec spec;
      spec.workers = w;
      spec.options.params = params;
      spec.network = net;
      spec.force_trace = true;
      char label[32];
      std::snprintf(label, sizeof(label), "anatomy-%s", ShortTag(q));
      spec.label = label;
      DistResult result = RunQuadrantSpec(data, q, spec);
      if (!result.status.ok()) {
        std::printf("  %s W=%d FAILED: %s\n", QuadrantToString(q), w,
                    result.status.ToString().c_str());
        continue;
      }
      cells.push_back(Cell{q, w, std::move(result.anatomy)});
    }
  }

  std::printf("\nMeasured attribution (share of attributed train time):\n");
  std::printf("%-5s %3s %12s %6s %6s %6s %6s %6s %6s %7s %5s\n", "quad",
              "W", "train(s)", "comm%", "grad%", "hist%", "split%", "part%",
              "other%", "cp/tot", "exact");
  for (const Cell& cell : cells) {
    const Shares s = MeasuredShares(cell.anatomy);
    const double cp_ratio =
        cell.anatomy.total_seconds > 0.0
            ? cell.anatomy.critical_path.length_seconds /
                  cell.anatomy.total_seconds
            : 0.0;
    std::printf("%-5s %3d %12.6f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %7.3f %5s\n",
                ShortTag(cell.quadrant), cell.workers, s.total,
                Pct(s.comm, s.total), Pct(s.gradient, s.total),
                Pct(s.hist, s.total), Pct(s.split_eval, s.total),
                Pct(s.partition, s.total), Pct(s.other, s.total), cp_ratio,
                cell.anatomy.exact ? "yes" : "NO");
  }

  // Model vs measured: the comm category against the §3.1.3 closed forms,
  // and the compute categories against the W=1 cell under the orientation's
  // ideal-scaling law (rows split horizontally; features split vertically).
  std::printf("\nModel vs measured per category (err%% = (model-measured)/measured):\n");
  std::printf("%-5s %3s %11s %11s %7s %11s %11s %7s\n", "quad", "W",
              "comm_model", "comm_meas", "err%", "hist_model", "hist_meas",
              "err%");
  std::map<int, Shares> base;  // quadrant index -> W=1 measured shares
  for (const Cell& cell : cells) {
    if (cell.workers == 1) {
      base[static_cast<int>(cell.quadrant)] = MeasuredShares(cell.anatomy);
    }
  }
  for (const Cell& cell : cells) {
    const Shares s = MeasuredShares(cell.anatomy);
    const auto it = base.find(static_cast<int>(cell.quadrant));
    if (it == base.end()) continue;
    AnatomyModelInputs in;
    in.n = n;
    in.d = d;
    in.q = params.num_candidate_splits;
    in.c = c;
    in.layers = params.num_layers;
    in.workers = cell.workers;
    const double comm_model =
        ModelCommSeconds(cell, in, net, cell.anatomy.trees);
    // Histogram build splits W ways in every quadrant (rows horizontally,
    // features vertically).
    const double hist_model = it->second.hist / cell.workers;
    const double comm_err =
        s.comm > 0.0 ? Pct(comm_model - s.comm, s.comm) : 0.0;
    const double hist_err =
        s.hist > 0.0 ? Pct(hist_model - s.hist, s.hist) : 0.0;
    std::printf("%-5s %3d %11.6f %11.6f %7.1f %11.6f %11.6f %7.1f\n",
                ShortTag(cell.quadrant), cell.workers, comm_model,
                s.comm, comm_err, hist_model, s.hist, hist_err);
  }

  // Qualitative paper checks (printed, not asserted: shapes hold at any
  // scale, exact percentages do not).
  std::printf("\nPaper-shape checks:\n");
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2}) {
    double first = -1.0, last = -1.0;
    for (const Cell& cell : cells) {
      if (cell.quadrant != q) continue;
      const Shares s = MeasuredShares(cell.anatomy);
      const double share = Pct(s.comm, s.total);
      if (cell.workers == 1) first = share;
      last = share;
    }
    std::printf("  %s comm share W=1 -> W=8: %.1f%% -> %.1f%% (%s)\n",
                ShortTag(q), first, last,
                last > first ? "grows, as expected" : "UNEXPECTED");
  }
  int exact_cells = 0;
  for (const Cell& cell : cells) exact_cells += cell.anatomy.exact ? 1 : 0;
  std::printf("  exact attribution: %d/%zu cells\n", exact_cells,
              cells.size());
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
