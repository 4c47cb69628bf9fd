// Figure 11: end-to-end convergence — validation metric against (modeled)
// wall-clock time for each system on each evaluation dataset. Prints the
// curve series the paper plots, one block per (dataset, system).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

struct Workload {
  const char* dataset;
  int workers;
};

void Main() {
  PrintHeader(
      "Figure 11: convergence curves (valid AUC / accuracy vs time)",
      "Fu et al., VLDB'19, Figure 11(a)-(h)",
      "all systems converge to comparable quality; LightGBM(QD2) reaches it "
      "first on LD datasets, Vero(QD4) first on HS and MC datasets");

  const std::vector<Workload> workloads = {
      {"SUSY", 5},     {"Higgs", 5},      {"Epsilon", 5},
      {"RCV1", 5},     {"Synthesis", 8},  {"RCV1-multi", 8},
      {"Synthesis-multi", 8},
  };
  // More rounds than the cost benches so the curves actually bend.
  GbdtParams params = PaperParams(8);
  params.num_trees = std::max(params.num_trees, 12u);

  for (const Workload& w : workloads) {
    const Dataset data = GenerateFromProfile(FindProfile(w.dataset), Scale());
    const auto [train, valid] = data.SplitTail(0.2);
    std::printf("\n--- %s (N=%u, D=%u, C=%u, W=%d) ---\n", w.dataset,
                train.num_instances(), train.num_features(),
                train.num_classes(), w.workers);
    for (Quadrant q :
         {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD4}) {
      const DistResult result = RunQuadrantSpec(
          train, q,
          {.workers = w.workers,
           .options = {.params = params},
           .valid = &valid});
      std::printf("%s\n  time(s): ", QuadrantToString(q));
      for (const IterationStats& it : result.curve) {
        std::printf(" %8.3f", it.elapsed_seconds);
      }
      std::printf("\n  metric : ");
      for (const IterationStats& it : result.curve) {
        std::printf(" %8.4f", it.valid_metric);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nEach series is (cumulative modeled time, validation metric) after\n"
      "every boosting round, matching the axes of Figure 11.\n");
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
