// Figure 10(g)-(h): storage-pattern comparison under vertical partitioning,
// QD3 (Vertical+Column) vs QD4 (Vertical+Row/Vero). (g) uses very few
// instances with growing dimensionality (column-store's one niche); (h)
// grows the instance count at high dimensionality (row-store wins).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

void RunPanel(const char* title, const char* sweep_name,
              const std::vector<std::string>& labels,
              const std::vector<Dataset>& datasets) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%-10s %-26s %14s %14s %14s %14s\n", sweep_name, "quadrant",
              "comp/tree(s)", "comp std", "hist/tree(s)", "comm/tree(s)");
  for (size_t i = 0; i < datasets.size(); ++i) {
    for (Quadrant q : {Quadrant::kQD3, Quadrant::kQD4}) {
      const DistResult result = RunQuadrantSpec(
          datasets[i], q,
          {.workers = 8, .options = {.params = PaperParams(8)}});
      const TreeCostSummary s = SummarizeTreeCosts(result.tree_costs);
      std::printf("%-10s %-26s %14.4f %14.4f %14.4f %14.4f\n",
                  labels[i].c_str(), QuadrantToString(q),
                  s.mean.comp_seconds(), s.comp_std, s.mean.hist_seconds,
                  s.mean.comm_seconds);
    }
  }
}

void Main() {
  PrintHeader(
      "Figure 10(g-h): impact of storage pattern (QD3 vs QD4)",
      "Fu et al., VLDB'19, Figure 10(g)-(h), W=8, L=8, q=20",
      "(g) tiny N, growing D: both comm flat; QD3 computes slightly less "
      "(cache-friendly column writes); "
      "(h) large N, high D: QD3 spends 3-4x QD4's computation and "
      "oscillates (binary-search branch misses); comm identical");

  // (g) Very few instances, high dimensionality.
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 3001;
    const uint32_t n = ScaledN(2000);
    for (uint32_t d : {2500u, 5000u, 7500u, 10000u}) {
      labels.push_back("D=" + std::to_string(d));
      datasets.push_back(MakeWorkload(n, d, 2, 200.0 / d, seed++));
    }
    RunPanel("(g) impact of dimensionality (N small, C=2, L=8)", "D", labels,
             datasets);
  }

  // (h) Growing instance count. The paper's panel uses N up to 40M at
  // D=100K; the scaled version keeps N >> D so histogram construction
  // (where the storage patterns differ) dominates split finding.
  {
    std::vector<std::string> labels;
    std::vector<Dataset> datasets;
    uint64_t seed = 3011;
    const uint32_t d = 2000;
    for (uint32_t base : {25000u, 50000u, 75000u, 100000u}) {
      const uint32_t n = ScaledN(base);
      labels.push_back("N=" + std::to_string(n));
      datasets.push_back(MakeWorkload(n, d, 2, 100.0 / d, seed++));
    }
    RunPanel("(h) impact of instance number (D=2000, C=2, L=8)", "N",
             labels, datasets);
  }
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
