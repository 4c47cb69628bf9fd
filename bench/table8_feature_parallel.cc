// Table 8 (Appendix D): data-parallel vs feature-parallel LightGBM vs Vero
// on the small RCV1 / RCV1-multi stand-ins. Feature-parallel avoids
// histogram aggregation by replicating the full dataset on every worker.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

void Main() {
  PrintHeader(
      "Table 8: LightGBM data-parallel vs feature-parallel vs Vero (W=5)",
      "Fu et al., VLDB'19, Appendix D, Table 8 (RCV1, RCV1-multi)",
      "FP beats DP (no histogram aggregation) but replicates the whole "
      "dataset on every worker; Vero is fastest and keeps per-worker data "
      "at ~1/W (paper: RCV1 17/5/3 s, RCV1-multi 127/23/13 s)");

  struct Row {
    const char* dataset;
    double paper_dp, paper_fp, paper_vero;
  };
  const std::vector<Row> rows = {
      {"RCV1", 17.0, 5.0, 3.0},
      {"RCV1-multi", 127.0, 23.0, 13.0},
  };
  const int workers = 5;

  std::printf("\n%-12s %-22s %12s %14s | %8s\n", "dataset", "system",
              "s/tree", "data-mem/wkr", "paper-s");
  for (const Row& row : rows) {
    const Dataset data =
        GenerateFromProfile(FindProfile(row.dataset), Scale());
    const GbdtParams params = PaperParams(8);
    struct SystemRun {
      const char* name;
      Quadrant quadrant;
      double paper;
    };
    const std::vector<SystemRun> systems = {
        {"LightGBM-DP(QD2)", Quadrant::kQD2, row.paper_dp},
        {"LightGBM-FP", Quadrant::kFeatureParallel, row.paper_fp},
        {"Vero(QD4)", Quadrant::kQD4, row.paper_vero},
    };
    for (const SystemRun& sys : systems) {
      const DistResult result = RunQuadrantSpec(
          data, sys.quadrant,
          {.workers = workers, .options = {.params = params}});
      std::printf("%-12s %-22s %12.4f %14s | %8.0f\n", row.dataset, sys.name,
                  result.TrainSeconds() / params.num_trees,
                  FormatBytes(static_cast<double>(result.data_bytes)).c_str(),
                  sys.paper);
    }
    std::printf("\n");
  }
  std::printf(
      "data-mem/wkr shows FP's memory cost: the full dataset on every\n"
      "worker, which is why the paper rules it out at scale.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
