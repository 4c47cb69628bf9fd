// Ablations of the design choices DESIGN.md calls out, measured at the
// training level: histogram subtraction on/off, placement encoding
// (bitmap vs 4-byte ids), QD3 index policies, transform wire encodings,
// and column-grouping strategies.

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "partition/transform.h"

namespace vero {
namespace bench {
namespace {

void SubtractionAblation() {
  std::printf("\n--- histogram subtraction (QD4, W=8) ---\n");
  const Dataset data = MakeWorkload(ScaledN(30000), 2000, 2, 0.05, 6001);
  std::printf("%-14s %14s %14s\n", "subtraction", "hist/tree(s)",
              "comp/tree(s)");
  for (bool on : {true, false}) {
    GbdtParams params = PaperParams(8);
    params.histogram_subtraction = on;
    Cluster cluster(8);
    DistTrainOptions options;
    options.params = params;
    const DistResult result =
        TrainDistributed(cluster, data, Quadrant::kQD4, options);
    const TreeCostSummary s = SummarizeTreeCosts(result.tree_costs);
    std::printf("%-14s %14.4f %14.4f\n", on ? "on" : "off",
                s.mean.hist_seconds, s.mean.comp_seconds());
  }
  std::printf("expected: subtraction roughly halves histogram time at L=8 "
              "(skips the larger sibling of every pair)\n");
}

void PlacementEncodingAblation() {
  std::printf("\n--- placement encoding: bitmap vs 4-byte ids ---\n");
  const uint32_t n = ScaledN(500000);
  const double bitmap_bytes = std::ceil(n / 8.0);
  const double int_bytes = 4.0 * n;
  const NetworkModel net = NetworkModel::Lab1Gbps();
  const int w = 8;
  const uint32_t layers = 8;
  const double bitmap_tree =
      (layers - 1) * (net.latency_seconds +
                      bitmap_bytes * (w - 1) / net.bandwidth_bytes_per_second);
  const double int_tree =
      (layers - 1) * (net.latency_seconds +
                      int_bytes * (w - 1) / net.bandwidth_bytes_per_second);
  std::printf("N=%u, W=%d, L=%u: bitmap %.1f KB/layer -> %.4fs/tree; "
              "int32 %.1f KB/layer -> %.4fs/tree (%.0fx more)\n",
              n, w, layers, bitmap_bytes / 1e3, bitmap_tree, int_bytes / 1e3,
              int_tree, int_bytes / bitmap_bytes);
  std::printf("expected: the paper's 32x wire reduction (§4.2.2)\n");
}

void Qd3IndexAblation() {
  std::printf("\n--- QD3 index policy (W=8) ---\n");
  const Dataset data = MakeWorkload(ScaledN(40000), 2000, 2, 0.05, 6011);
  std::printf("%-16s %14s %14s\n", "policy", "hist/tree(s)", "comp/tree(s)");
  using Scan = HistogramBuilder::ColumnScan;
  const std::pair<Scan, const char*> plans[] = {
      {Scan::kLinear, "linear-scan"},
      {Scan::kBinarySearch, "binary-search"},
      {Scan::kAuto, "mixed"},
  };
  for (const auto& [scan, name] : plans) {
    const DistResult result = RunQuadrantSpec(
        data, Quadrant::kQD3,
        {.workers = 8,
         .options = {.params = PaperParams(8)},
         .qd3_scan = scan});
    const TreeCostSummary s = SummarizeTreeCosts(result.tree_costs);
    std::printf("%-16s %14.4f %14.4f\n", name, s.mean.hist_seconds,
                s.mean.comp_seconds());
  }
  std::printf("expected: mixed <= linear-scan << binary-search "
              "(Appendix C's index plan)\n");
}

void TransformEncodingAblation() {
  std::printf("\n--- transform wire encoding (W=8) ---\n");
  const Dataset data = MakeWorkload(ScaledN(30000), 4000, 2, 0.02, 6021);
  const int w = 8;
  std::vector<Dataset> shards;
  for (int r = 0; r < w; ++r) {
    const auto [begin, end] = HorizontalRange(data.num_instances(), w, r);
    shards.emplace_back(data.matrix().SliceRows(begin, end),
                        std::vector<float>(data.labels().begin() + begin,
                                           data.labels().begin() + end),
                        data.task(), data.num_classes());
  }
  std::printf("%-14s %14s %16s\n", "encoding", "MB sent", "bytes/entry");
  for (TransformEncoding e :
       {TransformEncoding::kNaive, TransformEncoding::kCompressed,
        TransformEncoding::kBlockified}) {
    Cluster cluster(w);
    TransformOptions options;
    options.encoding = e;
    std::vector<uint64_t> sent(w, 0);
    cluster.Run([&](WorkerContext& ctx) {
      sent[ctx.rank()] = HorizontalToVertical(ctx, shards[ctx.rank()], options)
                             .stats.repartition_bytes_sent;
    });
    uint64_t total = 0;
    for (uint64_t s : sent) total += s;
    std::printf("%-14s %14.2f %16.2f\n", TransformEncodingToString(e),
                total / 1e6, static_cast<double>(total) / data.num_nonzeros());
  }
  std::printf("expected: ~12 B/entry naive -> ~3 B/entry blockified "
              "(the paper's 'up to 4x compression')\n");
}

void GroupingAblation() {
  std::printf("\n--- column grouping strategy under skewed features (W=8) "
              "---\n");
  // A skew-heavy dataset: first features are far denser.
  CsrMatrix matrix;
  const uint32_t n = ScaledN(20000), d = 512;
  matrix.set_num_cols(d);
  Rng rng(6031);
  std::vector<float> labels;
  for (uint32_t i = 0; i < n; ++i) {
    matrix.StartRow();
    for (uint32_t f = 0; f < d; ++f) {
      // Feature f present with probability ~ 1/(1+f/8): Zipf-ish skew.
      if (rng.NextDouble() < 1.0 / (1.0 + f / 8.0)) {
        matrix.PushEntry(f, static_cast<float>(rng.NextDouble()));
      }
    }
    labels.push_back(rng.Bernoulli(0.5) ? 1.0f : 0.0f);
  }
  const Dataset data(std::move(matrix), std::move(labels), Task::kBinary, 2);
  const int w = 8;
  std::vector<Dataset> shards;
  for (int r = 0; r < w; ++r) {
    const auto [begin, end] = HorizontalRange(data.num_instances(), w, r);
    shards.emplace_back(data.matrix().SliceRows(begin, end),
                        std::vector<float>(data.labels().begin() + begin,
                                           data.labels().begin() + end),
                        data.task(), data.num_classes());
  }
  std::printf("%-14s %18s\n", "strategy", "load imbalance");
  for (auto strategy :
       {ColumnGroupingStrategy::kGreedyBalance,
        ColumnGroupingStrategy::kRoundRobin, ColumnGroupingStrategy::kRange}) {
    Cluster cluster(w);
    TransformOptions options;
    options.grouping = strategy;
    std::vector<uint64_t> entries(w, 0);
    cluster.Run([&](WorkerContext& ctx) {
      entries[ctx.rank()] =
          HorizontalToVertical(ctx, shards[ctx.rank()], options)
              .data.num_entries();
    });
    std::printf("%-14s %18.3f\n", ColumnGroupingStrategyToString(strategy),
                LoadImbalance(entries));
  }
  std::printf("expected: greedy ~1.0; range suffers under skew "
              "(the straggler effect of §4.2.3)\n");
}

void Main() {
  PrintHeader("Ablations of Vero's design choices",
              "Fu et al., VLDB'19 §2.1.2 (subtraction), §4.2.2 (bitmap), "
              "§5.2.2 (index plan), Appendix A (encodings), §4.2.3 "
              "(load balance)",
              "each optimization pays for itself; see per-section notes");
  SubtractionAblation();
  PlacementEncodingAblation();
  Qd3IndexAblation();
  TransformEncodingAblation();
  GroupingAblation();
}

}  // namespace
}  // namespace bench
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  vero::bench::Main();
}
