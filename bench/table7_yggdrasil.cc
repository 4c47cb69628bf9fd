// Table 7 (Appendix C): comparison with Yggdrasil on low-dimensional
// datasets. Yggdrasil is represented by QD3 restricted to linear column
// scans without histogram subtraction (its column-wise node-to-instance
// index pays a full index rewrite per layer); "QD3 (ours)" is the paper's
// optimized mixed-index QD3; Vero is QD4.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

double TimePerTree(const Dataset& data, Quadrant q,
                   HistogramBuilder::ColumnScan qd3_scan, bool subtraction) {
  GbdtParams params = PaperParams(8);
  params.histogram_subtraction = subtraction;
  Cluster cluster(5);
  DistTrainOptions options;
  options.params = params;
  const DistResult result =
      TrainDistributed(cluster, data, q, options, nullptr, qd3_scan);
  return result.TrainSeconds() / params.num_trees;
}

void Main() {
  PrintHeader(
      "Table 7: comparison with Yggdrasil-style QD3 (low-dim datasets, W=5)",
      "Fu et al., VLDB'19, Appendix C, Table 7 (Epsilon, SUSY, Higgs)",
      "QD3(ours, mixed index) beats the Yggdrasil-style variant on all "
      "three datasets; Vero(QD4) is fastest (paper: e.g. Epsilon "
      "137/24/5 s per tree)");

  struct Row {
    const char* dataset;
    double paper_ygg, paper_qd3, paper_vero;
  };
  const std::vector<Row> rows = {
      {"Epsilon", 137.0, 24.0, 5.0},
      {"SUSY", 32.0, 9.0, 5.0},
      {"Higgs", 71.0, 14.0, 7.0},
  };

  std::printf("\n%-10s %14s %14s %14s | %10s %10s %10s\n", "dataset",
              "Yggdrasil(s)", "QD3-ours(s)", "Vero(s)", "paperYgg",
              "paperQD3", "paperVero");
  for (const Row& row : rows) {
    const Dataset data =
        GenerateFromProfile(FindProfile(row.dataset), Scale());
    const double ygg = TimePerTree(data, Quadrant::kQD3,
                                   HistogramBuilder::ColumnScan::kLinear,
                                   /*subtraction=*/false);
    const double qd3 = TimePerTree(data, Quadrant::kQD3,
                                   HistogramBuilder::ColumnScan::kAuto,
                                   /*subtraction=*/true);
    const double vero = TimePerTree(data, Quadrant::kQD4,
                                    HistogramBuilder::ColumnScan::kAuto,
                                    /*subtraction=*/true);
    std::printf("%-10s %14.4f %14.4f %14.4f | %10.0f %10.0f %10.0f\n",
                row.dataset, ygg, qd3, vero, row.paper_ygg, row.paper_qd3,
                row.paper_vero);
  }
  std::printf(
      "\nYggdrasil column = QD3 with linear-scan-only index and no\n"
      "histogram subtraction (the cost profile of its column-wise\n"
      "node-to-instance index); QD3-ours = the paper's mixed index plan.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
