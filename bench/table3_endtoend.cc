// Table 3: end-to-end comparison — average run time per tree scaled by
// Vero across the eight evaluation datasets (Table 2 stand-ins).
//
// External systems are mapped to their quadrant implementations in this
// code base (the paper's own methodology for §5.2): XGBoost -> QD1,
// LightGBM -> QD2, DimBoost -> QD2 (same quadrant; the paper attributes
// DimBoost's deviations to JVM overheads we do not model), Vero -> QD4.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/metrics.h"

namespace vero {
namespace bench {
namespace {

struct Row {
  const char* dataset;
  int workers;                    // Paper: 5 for LD/RCV1, 8 otherwise.
  double paper_xgb, paper_lgbm, paper_dim, paper_vero;  // Table 3 values.
};

void Main() {
  PrintHeader(
      "Table 3: run time per tree scaled by Vero (plus Figure 11 metrics)",
      "Fu et al., VLDB'19, Table 3; datasets of Table 2 (synthetic "
      "stand-ins with matching shape class)",
      "LD (SUSY/Higgs/Criteo): LightGBM(QD2) fastest, Vero slower; "
      "Epsilon: Vero comparable; HS (RCV1/Synthesis): Vero fastest by "
      "2-19x; MC: Vero fastest");

  const std::vector<Row> rows = {
      {"SUSY", 5, 0.3, 0.1, 0.5, 1.0},
      {"Higgs", 5, 0.5, 0.2, 0.8, 1.0},
      {"Criteo", 5, 0.5, 0.2, 0.7, 1.0},
      {"Epsilon", 5, 2.8, 0.7, 1.9, 1.0},
      {"RCV1", 5, 17.3, 5.6, 4.0, 1.0},
      {"Synthesis", 8, 18.9, 5.0, 2.0, 1.0},
      {"RCV1-multi", 8, 34.7, 9.7, -1.0, 1.0},
      {"Synthesis-multi", 8, 7.1, 3.3, -1.0, 1.0},
  };

  std::printf("\n%-16s %8s | %9s %9s %9s | %9s %9s %9s | %7s\n", "dataset",
              "quality", "XGB(QD1)", "LGB(QD2)", "Vero", "paperXGB",
              "paperLGB", "paperVero", "s/tree");
  for (const Row& row : rows) {
    const Dataset data =
        GenerateFromProfile(FindProfile(row.dataset), Scale());
    const auto [train, valid] = data.SplitTail(0.2);
    const GbdtParams params = PaperParams(8);

    double vero_time = 0.0;
    double qd1_time = 0.0, qd2_time = 0.0;
    double quality = 0.0;
    {
      const DistResult r = RunQuadrantSpec(
          train, Quadrant::kQD4,
          {.workers = row.workers, .options = {.params = params}});
      vero_time = r.TrainSeconds() / params.num_trees;
      quality = EvaluateModel(r.model, valid).value;
    }
    {
      const DistResult r = RunQuadrantSpec(
          train, Quadrant::kQD1,
          {.workers = row.workers, .options = {.params = params}});
      qd1_time = r.TrainSeconds() / params.num_trees;
    }
    {
      const DistResult r = RunQuadrantSpec(
          train, Quadrant::kQD2,
          {.workers = row.workers, .options = {.params = params}});
      qd2_time = r.TrainSeconds() / params.num_trees;
    }
    std::printf("%-16s %8.4f | %9.2f %9.2f %9.2f | %9.1f %9.1f %9.1f | %7.3f\n",
                row.dataset, quality, qd1_time / vero_time,
                qd2_time / vero_time, 1.0, row.paper_xgb, row.paper_lgbm,
                row.paper_vero, vero_time);
  }
  std::printf(
      "\nColumns 3-5: measured time per tree scaled by Vero (this repo);\n"
      "columns 6-8: the paper's Table 3. DimBoost shares QD2 and is not\n"
      "separately modeled (its JVM/sparse-handling overheads are outside\n"
      "the data-management model). quality = valid AUC (binary) or\n"
      "accuracy (multi-class) after the benchmark's trees.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
