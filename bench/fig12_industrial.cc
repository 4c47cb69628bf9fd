// Figure 12 + Table 4: industrial workloads (Gender / Age / Taste
// stand-ins) on the 10 Gbps production network model. Prints time per tree
// for each system and the convergence series.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/metrics.h"

namespace vero {
namespace bench {
namespace {

struct Row {
  const char* dataset;
  // Paper Table 4 (seconds per tree).
  double paper_xgb;
  double paper_dim;  // -1 when the paper has no DimBoost entry.
  double paper_vero;
};

void Main() {
  PrintHeader(
      "Figure 12 + Table 4: industrial datasets on the production network",
      "Fu et al., VLDB'19, §6 (Gender/Age/Taste, 10 Gbps cluster)",
      "Gender (huge N, binary): DimBoost(QD2) beats Vero (fast network + "
      "N-dominant), both beat XGBoost(QD1) ~5x; Age (multi-class, high D): "
      "Vero ~8x faster than XGBoost; Taste (100 classes): Vero ~4.5x "
      "faster than XGBoost");

  const std::vector<Row> rows = {
      {"Gender", 438.0, 52.0, 79.0},
      {"Age", 1738.0, -1.0, 207.0},
      {"Taste", 627.0, -1.0, 139.0},
  };
  const NetworkModel network = NetworkModel::Production10Gbps();
  const int workers = 8;  // Paper: 50/20/20 Yarn containers; see DESIGN.md.

  std::printf("\n%-8s %-26s %12s %12s %10s %14s\n", "dataset", "system",
              "s/tree", "paper-s/tree", "quality", "rel-to-Vero");
  for (const Row& row : rows) {
    const Dataset data =
        GenerateFromProfile(FindProfile(row.dataset), Scale());
    const auto [train, valid] = data.SplitTail(0.2);
    const GbdtParams params = PaperParams(8);

    struct SystemRun {
      const char* name;
      Quadrant quadrant;
      double paper;
    };
    std::vector<SystemRun> systems = {
        {"XGBoost(QD1)", Quadrant::kQD1, row.paper_xgb},
        {"Vero(QD4)", Quadrant::kQD4, row.paper_vero},
    };
    if (row.paper_dim > 0) {
      systems.insert(systems.begin() + 1,
                     {"DimBoost(QD2)", Quadrant::kQD2, row.paper_dim});
    }

    double vero_time = 0.0;
    std::vector<double> times(systems.size());
    std::vector<double> quality(systems.size());
    for (size_t s = 0; s < systems.size(); ++s) {
      const DistResult result = RunQuadrantSpec(
          train, systems[s].quadrant,
          {.workers = workers,
           .options = {.params = params},
           .network = network,
           .valid = &valid});
      times[s] = result.TrainSeconds() / params.num_trees;
      quality[s] = EvaluateModel(result.model, valid).value;
      if (systems[s].quadrant == Quadrant::kQD4) vero_time = times[s];
    }
    for (size_t s = 0; s < systems.size(); ++s) {
      std::printf("%-8s %-26s %12.4f %12.1f %10.4f %13.2fx\n", row.dataset,
                  systems[s].name, times[s], systems[s].paper, quality[s],
                  times[s] / vero_time);
    }
    std::printf("\n");
  }
  std::printf(
      "rel-to-Vero compares measured time per tree against Vero's; the\n"
      "paper's absolute seconds (paper-s/tree) are for its full-size\n"
      "datasets on the Tencent cluster — only the ordering and rough\n"
      "ratios are expected to transfer.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
