// Figure 10(a)-(d): partitioning-scheme comparison, QD2 (Horizontal+Row)
// vs QD4 (Vertical+Row/Vero). Per-tree computation/communication breakdown
// under sweeps of instance count, dimensionality, tree depth, and classes.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

void RunPanel(const char* title, const char* sweep_name,
              const std::vector<std::string>& labels,
              const std::vector<Dataset>& datasets, uint32_t num_layers) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%-10s %-26s %14s %14s %14s %14s\n", sweep_name, "quadrant",
              "comp/tree(s)", "comp std", "comm/tree(s)", "comm std");
  for (size_t i = 0; i < datasets.size(); ++i) {
    for (Quadrant q : {Quadrant::kQD2, Quadrant::kQD4}) {
      const DistResult result = RunQuadrantSpec(
          datasets[i], q,
          {.workers = 8, .options = {.params = PaperParams(num_layers)}});
      const TreeCostSummary s = SummarizeTreeCosts(result.tree_costs);
      std::printf("%-10s %-26s %14.4f %14.4f %14.4f %14.4f\n",
                  labels[i].c_str(), QuadrantToString(q),
                  s.mean.comp_seconds(), s.comp_std, s.mean.comm_seconds,
                  s.comm_std);
    }
  }
}

void Main() {
  PrintHeader(
      "Figure 10(a-d): impact of partitioning scheme (QD2 vs QD4)",
      "Fu et al., VLDB'19, Figure 10(a)-(d), N/D/L/C sweeps, W=8, q=20",
      "(a) low D: QD2 comm negligible, QD4 comm grows with N; "
      "(b) QD2 comm grows linearly with D, QD4 flat; "
      "(c) QD2 comm grows ~2x per extra layer, QD4 linear; "
      "(d) QD2 comm proportional to C, QD4 flat");

  // (a) Impact of instance number. D=100, C=2, L=8. The paper runs
  // N=5M..20M against D=100; the point of the panel is an extreme N:D
  // ratio, so the scaled version keeps N large (sparse rows keep the
  // single-core cost manageable) rather than shrinking it with the rest.
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 1001;
    for (uint32_t base : {200000u, 400000u, 600000u, 800000u}) {
      const uint32_t n = ScaledN(base);
      labels.push_back("N=" + std::to_string(n));
      datasets.push_back(MakeWorkload(n, 100, 2, 0.05, seed++));
    }
    RunPanel("(a) impact of instance number (D=100, C=2, L=8)", "N", labels,
             datasets, 8);
  }

  // (b) Impact of dimensionality. C=2, L=8.
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 1011;
    const uint32_t n = ScaledN(8000);
    for (uint32_t d : {2500u, 5000u, 7500u, 10000u}) {
      labels.push_back("D=" + std::to_string(d));
      // Keep nnz/row fixed (~100) so only histogram size varies with D.
      datasets.push_back(MakeWorkload(n, d, 2, 100.0 / d, seed++));
    }
    RunPanel("(b) impact of dimensionality (C=2, L=8)", "D", labels,
             datasets, 8);
  }

  // (c) Impact of tree depth. Fixed N, D.
  {
    const uint32_t n = ScaledN(8000);
    const Dataset data = MakeWorkload(n, 5000, 2, 100.0 / 5000, 1021);
    std::printf("\n--- (c) impact of tree depth (D=5000, C=2) ---\n");
    std::printf("%-10s %-26s %14s %14s\n", "L", "quadrant", "comp/tree(s)",
                "comm/tree(s)");
    for (uint32_t layers : {8u, 9u, 10u}) {
      for (Quadrant q : {Quadrant::kQD2, Quadrant::kQD4}) {
        const DistResult result = RunQuadrantSpec(
            data, q,
            {.workers = 8, .options = {.params = PaperParams(layers)}});
        const TreeCostSummary s = SummarizeTreeCosts(result.tree_costs);
        std::printf("%-10u %-26s %14.4f %14.4f\n", layers,
                    QuadrantToString(q), s.mean.comp_seconds(),
                    s.mean.comm_seconds);
      }
    }
  }

  // (d) Impact of multi-class count. Lower D, as the paper does (QD2 OOMs
  // at D=100K, C=10).
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 1031;
    const uint32_t n = ScaledN(8000);
    for (uint32_t c : {3u, 5u, 10u}) {
      labels.push_back("C=" + std::to_string(c));
      datasets.push_back(MakeWorkload(n, 2500, c, 100.0 / 2500, seed++));
    }
    RunPanel("(d) impact of multi-class (D=2500, L=8)", "C", labels,
             datasets, 8);
  }
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
