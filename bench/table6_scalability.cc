// Table 6 (Appendix B): scalability of Vero — run time per tree and
// speedup on W in {2, 4, 6, 8} for the Synthesis-N10M (instance-heavy) and
// Synthesis-D25K (feature-heavy) subsets.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace vero {
namespace bench {
namespace {

void Main() {
  PrintHeader(
      "Table 6: scalability of Vero",
      "Fu et al., VLDB'19, Appendix B, Table 6",
      "run time falls with more machines but sub-linearly; the "
      "instance-heavy subset (D25K) scales worse because node splitting "
      "touches every instance on every worker; paper speedups at W=8: "
      "2.6x (N10M) / 1.6x (D25K)");

  struct Subset {
    const char* name;
    uint32_t n, d;
    double density;
  };
  // Shape stand-ins: N10M = more instances than features matter;
  // D25K = wide, instance-heavy variant.
  const std::vector<Subset> subsets = {
      {"Synthesis-N10M", ScaledN(20000), 25000, 50.0 / 25000},
      {"Synthesis-D25K", ScaledN(60000), 8000, 50.0 / 8000},
  };

  for (const Subset& subset : subsets) {
    const Dataset data =
        MakeWorkload(subset.n, subset.d, 2, subset.density, 4001);
    std::printf("\n--- %s (N=%u, D=%u) ---\n", subset.name, subset.n,
                subset.d);
    std::printf("%-10s %14s %10s\n", "machines", "run time(s)", "speedup");
    double base_time = 0.0;
    for (int w : {2, 4, 6, 8}) {
      const DistResult result = RunQuadrantSpec(
          data, Quadrant::kQD4,
          {.workers = w, .options = {.params = PaperParams(8)}});
      const double time = result.TrainSeconds();
      if (w == 2) base_time = time;
      std::printf("%-10d %14.3f %9.1fx\n", w, time, base_time / time);
    }
  }
  std::printf(
      "\nRun time = modeled training time for %u trees (max-worker compute\n"
      "+ modeled communication), matching the paper's protocol of timing\n"
      "the same workload as machines are added.\n",
      BenchTrees());
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
