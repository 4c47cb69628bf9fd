// Figure 10(e)-(f): memory-consumption breakdown (data vs histogram) per
// worker, QD2 (Horizontal+Row) vs QD4 (Vertical+Row/Vero), under
// dimensionality and class-count sweeps.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

void RunPanel(const char* title, const std::vector<std::string>& labels,
              const std::vector<Dataset>& datasets) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%-10s %-26s %14s %14s %10s\n", "sweep", "quadrant",
              "data-mem", "hist-mem", "hist-ratio");
  // Peak memory stabilizes within a tree or two; no need for the full
  // per-tree-cost protocol here.
  GbdtParams params = PaperParams(8);
  params.num_trees = 2;
  for (size_t i = 0; i < datasets.size(); ++i) {
    uint64_t qd2_hist = 0;
    for (Quadrant q : {Quadrant::kQD2, Quadrant::kQD4}) {
      const DistResult result = RunQuadrantSpec(
          datasets[i], q, {.workers = 8, .options = {.params = params}});
      if (q == Quadrant::kQD2) qd2_hist = result.peak_histogram_bytes;
      const double ratio =
          q == Quadrant::kQD4 && result.peak_histogram_bytes > 0
              ? static_cast<double>(qd2_hist) / result.peak_histogram_bytes
              : 1.0;
      std::printf("%-10s %-26s %14s %14s %9.1fx\n", labels[i].c_str(),
                  QuadrantToString(q),
                  FormatBytes(static_cast<double>(result.data_bytes)).c_str(),
                  FormatBytes(static_cast<double>(result.peak_histogram_bytes))
                      .c_str(),
                  ratio);
    }
  }
}

void Main() {
  PrintHeader(
      "Figure 10(e-f): memory consumption breakdown (QD2 vs QD4)",
      "Fu et al., VLDB'19, Figure 10(e)-(f), W=8, L=8, q=20",
      "data memory similar; QD2 histogram memory ~W x QD4's (6-8x at W=8); "
      "QD2 histogram memory dominates and grows with C in multi-class");

  const uint32_t n = ScaledN(8000);

  // (e) Dimensionality sweep, binary.
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 2001;
    for (uint32_t d : {2500u, 5000u, 7500u, 10000u}) {
      labels.push_back("D=" + std::to_string(d));
      datasets.push_back(MakeWorkload(n, d, 2, 100.0 / d, seed++));
    }
    RunPanel("(e) memory vs dimensionality (C=2)", labels, datasets);
  }

  // (f) Class sweep at moderate D (the paper drops to D=25K for the same
  // reason: horizontal histograms explode with C).
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 2011;
    for (uint32_t c : {3u, 5u, 10u}) {
      labels.push_back("C=" + std::to_string(c));
      datasets.push_back(MakeWorkload(n, 2500, c, 100.0 / 2500, seed++));
    }
    RunPanel("(f) memory vs classes (D=2500)", labels, datasets);
  }
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
