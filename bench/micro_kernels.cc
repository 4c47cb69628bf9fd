// Micro-benchmarks (google-benchmark) for the kernels the paper's analysis
// is built on: histogram construction under each store/index combination,
// histogram subtraction, split finding, bitmap encoding vs 4-byte ids,
// per-shard quantile summaries, two-phase index lookups, and the collectives.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/communicator.h"
#include "common/bitmap.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/binned.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/node_indexer.h"
#include "core/split.h"
#include "data/synthetic.h"
#include "sketch/quantile_summary.h"

namespace vero {
namespace {

Dataset BenchData(uint32_t n, uint32_t d, double density) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = density;
  config.seed = 7001;
  return GenerateSynthetic(config);
}

const Dataset& SharedData() {
  static const Dataset* data = new Dataset(BenchData(20000, 500, 0.1));
  return *data;
}

const CandidateSplits& SharedSplits() {
  static const CandidateSplits* splits =
      new CandidateSplits(ProposeCandidateSplits(SharedData(), 20));
  return *splits;
}

GradientBuffer MakeGrads(uint32_t n, uint32_t dims = 1) {
  GradientBuffer grads(n, dims);
  Rng rng(11);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dims; ++k) {
      grads.at(i, k) = GradPair{rng.NextGaussian(), rng.NextDouble()};
    }
  }
  return grads;
}

std::vector<InstanceId> AllRows(uint32_t n) {
  std::vector<InstanceId> rows(n);
  for (InstanceId i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// Shared-builder row-layer kernel across the dims x threads grid on a sparse
// store (one block from FromCsr): the code path every row-store trainer
// (QD2/QD4/feature-parallel/Trainer) bottoms out in. Dense against sparse
// blocks is BM_HistBuilderRowStore.
void BM_HistBuilderRowLayer(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const Dataset& data = SharedData();
  const BinnedRowStore store =
      BinnedRowStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
  const std::vector<InstanceId> rows = AllRows(data.num_instances());
  Histogram hist(data.num_features(), 20, dims);
  std::vector<HistogramBuilder::NodeRows> tasks = {
      {&hist, std::span<const InstanceId>(rows)}};
  HistogramBuilder builder(threads);
  for (auto _ : state) {
    hist.Clear();
    builder.BuildRowStoreLayer(
        store, grads, std::span<const HistogramBuilder::NodeRows>(tasks), 0,
        data.num_features(), data.num_features());
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistBuilderRowLayer)->ArgsProduct({{1, 3}, {1, 4}});

// Shared-builder one-sweep column kernel (QD1) across the same grid.
void BM_HistBuilderColumnSweep(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
  InstanceToNode node_of;
  node_of.Init(data.num_instances());
  Histogram hist(data.num_features(), 20, dims);
  std::vector<Histogram*> hist_of_node = {&hist};
  HistogramBuilder builder(threads);
  for (auto _ : state) {
    hist.Clear();
    builder.BuildColumnStoreSweep(store, grads, node_of, hist_of_node);
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistBuilderColumnSweep)->ArgsProduct({{1, 3}, {1, 4}});

// Column-store histogram build with the instance-to-node index (QD1 loop).
void BM_HistogramBuildColumnStore(benchmark::State& state) {
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances());
  InstanceToNode node_of;
  node_of.Init(data.num_instances());
  Histogram hist(data.num_features(), 20, 1);
  for (auto _ : state) {
    hist.Clear();
    for (FeatureId f = 0; f < data.num_features(); ++f) {
      auto rows = store.ColumnRows(f);
      auto bins = store.ColumnBins(f);
      for (size_t k = 0; k < rows.size(); ++k) {
        benchmark::DoNotOptimize(node_of.Get(rows[k]));
        hist.Add(f, bins[k], grads.row(rows[k]));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistogramBuildColumnStore);

// Column-store histogram build with per-instance binary search (the
// node-to-instance-on-columns combination §3.2.3 warns about).
void BM_HistogramBuildColumnBinarySearch(benchmark::State& state) {
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances());
  Histogram hist(data.num_features(), 20, 1);
  for (auto _ : state) {
    hist.Clear();
    for (FeatureId f = 0; f < data.num_features(); ++f) {
      for (InstanceId i = 0; i < data.num_instances(); ++i) {
        const auto bin = store.FindBin(f, i);
        if (bin.has_value()) hist.Add(f, *bin, grads.row(i));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * data.num_instances() *
                          data.num_features());
}
BENCHMARK(BM_HistogramBuildColumnBinarySearch);

void BM_HistogramSubtraction(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  Histogram parent(d, 20, 1), child(d, 20, 1), sibling(d, 20, 1);
  for (auto _ : state) {
    sibling.SetToDifference(parent, child);
    benchmark::DoNotOptimize(sibling.raw_data());
  }
  state.SetBytesProcessed(state.iterations() * parent.MemoryBytes());
}
BENCHMARK(BM_HistogramSubtraction)->Arg(100)->Arg(1000)->Arg(10000);

// Split finding on one RCV1-shaped node histogram (12 000 features x 20 bins)
// at C classes. Dense fills every bin; sparse mimics a mid-layer node of the
// RCV1 stand-in (~1 250 rows x 75 nonzeros over 12 000 features): about
// eight entries per feature, in random bins.
void BM_FindBest(benchmark::State& state) {
  constexpr uint32_t kFeatures = 12000, kBins = 20;
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const bool sparse = state.range(1) != 0;
  Rng rng(13);
  Histogram hist(kFeatures, kBins, dims);
  std::vector<GradPair> entry(dims);
  for (uint32_t f = 0; f < kFeatures; ++f) {
    const uint32_t entries = sparse ? static_cast<uint32_t>(rng.Uniform(16))
                                    : kBins;
    for (uint32_t e = 0; e < entries; ++e) {
      for (GradPair& s : entry) {
        s = GradPair{rng.NextGaussian(), rng.UniformDouble(0.01, 0.25)};
      }
      hist.Add(f, sparse ? static_cast<uint32_t>(rng.Uniform(kBins)) : e,
               entry.data());
    }
  }
  // Node totals: the densest conceivable feature plus missing mass, so every
  // feature leaves some on each side.
  const GradStats node(dims, GradPair{10.0, 0.25 * kBins * 2.0});
  std::vector<FeatureId> global_ids(kFeatures);
  for (uint32_t f = 0; f < kFeatures; ++f) global_ids[f] = f;
  std::vector<std::vector<float>> values(kFeatures);
  for (auto& v : values) {
    for (uint32_t b = 0; b < kBins; ++b) v.push_back(static_cast<float>(b));
  }
  const CandidateSplits splits(kBins, std::move(values));
  const SplitFinder finder(1.0, 0.0, 0.0);
  for (auto _ : state) {
    const SplitCandidate best = finder.FindBest(hist, node, global_ids, splits);
    benchmark::DoNotOptimize(best.gain);
  }
  state.SetItemsProcessed(state.iterations() * kFeatures);
}
BENCHMARK(BM_FindBest)
    ->ArgNames({"dims", "sparse"})
    ->ArgsProduct({{1, 3}, {0, 1}});

void BM_BitmapEncodePlacement(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Bitmap bitmap(n);
  for (size_t i = 0; i < n; ++i) bitmap.Assign(i, rng.Bernoulli(0.5));
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    bitmap.SerializeTo(&bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * bitmap.SerializedBytes());
}
BENCHMARK(BM_BitmapEncodePlacement)->Arg(100000)->Arg(1000000);

// A Higgs-shaped QD4 shard: 300k rows of all 7 local features in 4 blocks,
// binned with perfbench's q = 20, stored dense (bins only) or as the same
// rows in the sparse form.
constexpr uint32_t kHiggsBins = 20;

BinnedRowStore HiggsShard(bool dense) {
  constexpr uint32_t kRows = 300000, kLocal = 7, kBlocks = 4;
  Rng rng(19);
  BinnedRowStore store(kLocal);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    BinnedRowStore::Block block;
    block.row_offset = kRows / kBlocks * b;
    for (uint32_t r = 0; r < kRows / kBlocks; ++r) {
      for (uint32_t f = 0; f < kLocal; ++f) {
        block.features.push_back(f);
        block.bins.push_back(static_cast<BinId>(rng.Uniform(kHiggsBins)));
      }
      block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
    }
    if (dense) {
      block = BinnedRowStore::Block::Dense(block.row_offset, kLocal,
                                           std::move(block.bins));
    }
    store.AppendBlock(std::move(block));
  }
  return store;
}

// Ascending instances of `store` kept with probability `fraction` (one
// frontier node's rows).
std::vector<InstanceId> NodeRows(const BinnedRowStore& store, double fraction,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<InstanceId> rows;
  for (InstanceId i = 0; i < store.num_rows(); ++i) {
    if (rng.Bernoulli(fraction)) rows.push_back(i);
  }
  return rows;
}

// A split owner's placement step on the Higgs-shaped shard, placing an
// ascending half of the rows (one node's instances). Arg 0: 0 is the
// per-row FindBin + Assign loop that BinnedRowStore::FillGoLeft replaced, 1
// is FillGoLeft. Arg 1: dense (1) or sparse (0) blocks.
void BM_FillGoLeftRowStore(benchmark::State& state) {
  const BinnedRowStore store = HiggsShard(state.range(1) != 0);
  const std::vector<InstanceId> instances = NodeRows(store, 0.5, 23);
  const bool batched = state.range(0) != 0;
  const uint32_t feature = 3;
  const BinId split_bin = kHiggsBins / 2;
  Bitmap go_left(instances.size());
  for (auto _ : state) {
    if (batched) {
      store.FillGoLeft(instances, feature, split_bin, false, &go_left);
    } else {
      for (size_t j = 0; j < instances.size(); ++j) {
        const auto bin = store.FindBin(instances[j], feature);
        go_left.Assign(j, bin.has_value() ? *bin <= split_bin : false);
      }
    }
    benchmark::DoNotOptimize(go_left);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * instances.size());
}
BENCHMARK(BM_FillGoLeftRowStore)
    ->ArgNames({"batched", "dense"})
    ->ArgsProduct({{0, 1}, {0, 1}});

// The row-store histogram build on the Higgs-shaped shard: one serial layer
// task over a node holding 1/Arg(1) of the rows (1: the root), with dense
// (Arg 0 = 1) or sparse blocks. The dims x threads grid on sparse rows is
// BM_HistBuilderRowLayer.
void BM_HistBuilderRowStore(benchmark::State& state) {
  const BinnedRowStore store = HiggsShard(state.range(0) != 0);
  const std::vector<InstanceId> rows =
      NodeRows(store, 1.0 / static_cast<double>(state.range(1)), 29);
  const GradientBuffer grads = MakeGrads(store.num_rows());
  const uint32_t d = store.num_features();
  Histogram hist(d, kHiggsBins, 1);
  const HistogramBuilder::NodeRows task{&hist, rows};
  HistogramBuilder builder(1);
  for (auto _ : state) {
    hist.Clear();
    builder.BuildRowStoreLayer(store, grads, {&task, 1}, 0, d, d);
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * rows.size() * d);
}
BENCHMARK(BM_HistBuilderRowStore)
    ->ArgNames({"dense", "one_in"})
    ->ArgsProduct({{0, 1}, {1, 8}});

// Random single-row lookups through the two-phase index (binary-search the
// block, then index the row) on the Higgs-shaped shard's 4 blocks, dense
// (Arg 0 = 1) or sparse.
void BM_TwoPhaseIndexLookup(benchmark::State& state) {
  const BinnedRowStore store = HiggsShard(state.range(0) != 0);
  const uint32_t n = store.num_rows();
  Rng rng(13);
  for (auto _ : state) {
    const InstanceId i = static_cast<InstanceId>(rng.Uniform(n));
    benchmark::DoNotOptimize(store.RowBins(i).data());
  }
}
BENCHMARK(BM_TwoPhaseIndexLookup)->ArgName("dense")->Arg(0)->Arg(1);

// The 4-byte-per-instance alternative the bitmap replaces (32x larger).
void BM_Int32EncodePlacement(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    std::vector<uint8_t> bytes(ids.size() * sizeof(uint32_t));
    std::memcpy(bytes.data(), ids.data(), bytes.size());
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(uint32_t));
}
BENCHMARK(BM_Int32EncodePlacement)->Arg(100000)->Arg(1000000);

// Step 1a-1b of the transform on one worker's shard of four: every
// feature's summary built in one grouped pass and written into its owner's
// message, sized once as the transform sizes it. Arg 0 is an RCV1 shard (5000 rows x 12000 features, about 75
// values a row, so about 31 a feature), arg 1 a Higgs shard (75000 rows x
// 28 dense features, three batches and a tail each).
void BM_ShardSummaries(benchmark::State& state) {
  static const Dataset* shards[2] = {
      new Dataset(GenerateFromProfile(
          FindProfile("RCV1"), 5000.0 / FindProfile("RCV1").scaled_instances)),
      new Dataset(GenerateFromProfile(
          FindProfile("Higgs"),
          75000.0 / FindProfile("Higgs").scaled_instances))};
  const Dataset& shard = *shards[state.range(0)];
  const CsrMatrix& m = shard.matrix();
  constexpr int kWorkers = 4;
  for (auto _ : state) {
    ShardSummaryBuilder summaries(m.features(), m.values(), m.num_cols(), 256);
    size_t bound[kWorkers] = {};
    for (uint32_t f = 0; f < m.num_cols(); ++f) {
      bound[f % kWorkers] += 12 + summaries.MaxEntries(f) * sizeof(SummaryEntry);
    }
    ByteWriter writers[kWorkers];
    for (int g = 0; g < kWorkers; ++g) writers[g].Reserve(bound[g]);
    for (uint32_t f = 0; f < m.num_cols(); ++f) {
      if (summaries.count(f) == 0) continue;
      writers[f % kWorkers].WriteU32(f);
      summaries.Summarize(f).SerializeTo(&writers[f % kWorkers]);
    }
    for (const ByteWriter& writer : writers) {
      benchmark::DoNotOptimize(writer.data().data());
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(0) == 0 ? "rcv1" : "higgs");
  state.SetItemsProcessed(state.iterations() * m.num_nonzeros());
}
BENCHMARK(BM_ShardSummaries)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Binning a Higgs-shaped shard (75k rows, 28 dense features) in row-major
// order, the transform encode's access pattern, against tables of up to q
// splits: q = 8 is below BinForValue's counted window and only halves,
// q = 20 is counted in one window, 256 and 4096 halve first. The sketch
// keeps 2q entries so large tables fill up.
void BM_BinForValue(benchmark::State& state) {
  static const Dataset* data = new Dataset(GenerateFromProfile(
      FindProfile("Higgs"), 75000.0 / FindProfile("Higgs").scaled_instances));
  const uint32_t q = static_cast<uint32_t>(state.range(0));
  const CandidateSplits splits = ProposeCandidateSplits(
      *data, q, std::max<size_t>(256, 2 * size_t{q}));
  const auto& features = data->matrix().features();
  const auto& values = data->matrix().values();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t k = 0; k < features.size(); ++k) {
      sum += splits.BinForValue(features[k], values[k]);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * features.size());
  state.counters["splits"] = static_cast<double>(splits.TotalBins()) /
                             splits.num_features();
}
BENCHMARK(BM_BinForValue)->Arg(8)->Arg(20)->Arg(256)->Arg(4096);

void BM_QuantileSummaryMerge(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> a(10000), b(10000);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  const QuantileSummary sa = QuantileSummary::FromValues(a).Prune(256);
  const QuantileSummary sb = QuantileSummary::FromValues(b).Prune(256);
  for (auto _ : state) {
    QuantileSummary merged = sa.Merge(sb).Prune(256);
    benchmark::DoNotOptimize(merged.num_entries());
  }
}
BENCHMARK(BM_QuantileSummaryMerge);

void BM_RowPartitionSplit(benchmark::State& state) {
  const uint32_t n = 100000;
  Rng rng(17);
  Bitmap go_left(n);
  for (uint32_t i = 0; i < n; ++i) go_left.Assign(i, rng.Bernoulli(0.5));
  for (auto _ : state) {
    RowPartition partition;
    partition.Init(n, 3);
    partition.Split(0, go_left);
    benchmark::DoNotOptimize(partition.Count(1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowPartitionSplit);

void BM_AllReduce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cluster cluster(4);
  for (auto _ : state) {
    cluster.Run([&](WorkerContext& ctx) {
      std::vector<double> data(n, 1.0);
      ctx.AllReduceSum(data);
      benchmark::DoNotOptimize(data[0]);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(double) * 4);
}
BENCHMARK(BM_AllReduce)->Arg(1000)->Arg(100000);

// ---- --hist-json: machine-readable histogram-kernel snapshot -------------
//
// Runs the shared-builder row-layer kernel across dims x threads plus the
// seed-style scalar loop (per-row Histogram::Add) and writes one JSON file
// for the perf-regression harness (scripts/bench_smoke.sh, check ctest
// entry). See docs/performance.md for how to read it.

struct HistMeasurement {
  const char* name;
  uint32_t dims;
  uint32_t threads;
  double seconds;
  double rows_per_sec;
  double entries_per_sec;
  double bytes_per_sec;
  double speedup_vs_scalar;
};

template <typename Fn>
double BestSeconds(const Fn& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    fn();
    timer.Stop();
    best = std::min(best, timer.Seconds());
  }
  return std::max(best, 1e-9);
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

int RunHistJson(const std::string& path) {
  const uint32_t n = bench::ScaledN(20000);
  const uint32_t d = 500;
  const uint32_t kNodes = 4;  // A depth-2 level-wise frontier.
  const double density = 0.1;
  const Dataset data = BenchData(n, d, density);
  const CandidateSplits splits = ProposeCandidateSplits(data, 20);
  const BinnedRowStore store = BinnedRowStore::FromCsr(data.matrix(), splits);
  const uint64_t entries = data.num_nonzeros();

  // One layer's worth of work: the frontier nodes partition the rows, so a
  // layer build touches every row exactly once whichever way it is built.
  std::vector<std::vector<InstanceId>> node_rows(kNodes);
  {
    Rng rng(29);
    for (InstanceId i = 0; i < data.num_instances(); ++i) {
      node_rows[rng.Uniform(kNodes)].push_back(i);
    }
  }

  std::vector<HistMeasurement> results;
  for (const uint32_t dims : {1u, 3u}) {
    const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
    // Per entry: 6 bytes of store input plus a read-modify-write of the
    // dims gradient pairs in the target cell.
    const double bytes_per_entry = 6.0 + 32.0 * dims;

    std::vector<Histogram> hists;
    for (uint32_t k = 0; k < kNodes; ++k) hists.emplace_back(d, 20, dims);

    // Seed kernel: one scalar re-scan per frontier node through
    // Histogram::Add (the pre-builder trainer loop).
    const double scalar_seconds = BestSeconds([&] {
      for (uint32_t node = 0; node < kNodes; ++node) {
        hists[node].Clear();
        for (const InstanceId i : node_rows[node]) {
          const auto features = store.RowFeatures(i);
          const auto bins = store.RowBins(i);
          const GradPair* g = grads.row(i);
          for (size_t k = 0; k < features.size(); ++k) {
            hists[node].Add(features[k], bins[k], g);
          }
        }
      }
    });
    results.push_back({"scalar_row_add", dims, 1, scalar_seconds,
                       n / scalar_seconds, entries / scalar_seconds,
                       entries * bytes_per_entry / scalar_seconds, 1.0});

    for (const uint32_t threads : {1u, 4u}) {
      HistogramBuilder builder(threads);
      std::vector<HistogramBuilder::NodeRows> tasks;
      for (uint32_t k = 0; k < kNodes; ++k) {
        tasks.push_back(
            {&hists[k], std::span<const InstanceId>(node_rows[k])});
      }
      const double seconds = BestSeconds([&] {
        for (Histogram& h : hists) h.Clear();
        builder.BuildRowStoreLayer(
            store, grads, std::span<const HistogramBuilder::NodeRows>(tasks),
            0, d, d);
      });
      results.push_back({"builder_row_layer", dims, threads, seconds,
                         n / seconds, entries / seconds,
                         entries * bytes_per_entry / seconds,
                         scalar_seconds / seconds});
    }
  }

  // Column-store layer build: the seed QD3 binary-search kernel (one FindBin
  // probe per node x feature x instance) against the builder's one-sweep
  // pass over each column — the headline one-sweep win, independent of the
  // host's core count.
  {
    const BinnedColumnStore col_store =
        BinnedColumnStore::FromCsr(data.matrix(), splits);
    const GradientBuffer grads = MakeGrads(data.num_instances(), 1);
    const double bytes_per_entry = 6.0 + 32.0;
    InstanceToNode node_of;
    node_of.Init(data.num_instances());
    for (uint32_t node = 0; node < kNodes; ++node) {
      for (const InstanceId i : node_rows[node]) {
        node_of.Set(i, static_cast<NodeId>(node));
      }
    }
    std::vector<Histogram> hists;
    for (uint32_t k = 0; k < kNodes; ++k) hists.emplace_back(d, 20, 1);

    const double scalar_seconds = BestSeconds([&] {
      for (uint32_t node = 0; node < kNodes; ++node) {
        hists[node].Clear();
        for (FeatureId f = 0; f < d; ++f) {
          for (const InstanceId i : node_rows[node]) {
            const auto bin = col_store.FindBin(f, i);
            if (bin.has_value()) hists[node].Add(f, *bin, grads.row(i));
          }
        }
      }
    });
    results.push_back({"scalar_column_binary_search", 1, 1, scalar_seconds,
                       n / scalar_seconds, entries / scalar_seconds,
                       entries * bytes_per_entry / scalar_seconds, 1.0});

    std::vector<Histogram*> hist_of_node;
    for (uint32_t k = 0; k < kNodes; ++k) hist_of_node.push_back(&hists[k]);
    for (const uint32_t threads : {1u, 4u}) {
      HistogramBuilder builder(threads);
      const double seconds = BestSeconds([&] {
        for (Histogram& h : hists) h.Clear();
        builder.BuildColumnStoreSweep(col_store, grads, node_of,
                                      hist_of_node);
      });
      results.push_back({"builder_column_sweep", 1, threads, seconds,
                         n / seconds, entries / seconds,
                         entries * bytes_per_entry / seconds,
                         scalar_seconds / seconds});
    }
  }

  std::string json = "{\"schema\":\"vero.hist_bench.v1\",\"workload\":{";
  json += "\"instances\":" + std::to_string(n);
  json += ",\"features\":" + std::to_string(d);
  json += ",\"bins\":20,\"density\":";
  AppendJsonNumber(&json, density);
  json += ",\"entries\":" + std::to_string(entries);
  json += ",\"layer_nodes\":" + std::to_string(kNodes);
  // Wall-clock parallel speedup needs this many cores; threads beyond it
  // timeslice (see docs/performance.md).
  json += ",\"cpus\":" +
          std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  json += "},\"kernels\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const HistMeasurement& m = results[i];
    if (i > 0) json += ",";
    json += "{\"name\":\"" + std::string(m.name) + "\"";
    json += ",\"dims\":" + std::to_string(m.dims);
    json += ",\"threads\":" + std::to_string(m.threads);
    json += ",\"seconds\":";
    AppendJsonNumber(&json, m.seconds);
    json += ",\"rows_per_sec\":";
    AppendJsonNumber(&json, m.rows_per_sec);
    json += ",\"entries_per_sec\":";
    AppendJsonNumber(&json, m.entries_per_sec);
    json += ",\"bytes_per_sec\":";
    AppendJsonNumber(&json, m.bytes_per_sec);
    json += ",\"speedup_vs_scalar\":";
    AppendJsonNumber(&json, m.speedup_vs_scalar);
    json += "}";
  }
  json += "]}\n";

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;

  std::printf("histogram kernels (N=%u D=%u nnz=%llu):\n", n, d,
              static_cast<unsigned long long>(entries));
  for (const HistMeasurement& m : results) {
    std::printf("  %-18s dims=%u threads=%u  %8.3f Mrows/s  %s/s  %5.2fx\n",
                m.name, m.dims, m.threads, m.rows_per_sec / 1e6,
                bench::FormatBytes(m.bytes_per_sec).c_str(),
                m.speedup_vs_scalar);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace vero

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--hist-json" && i + 1 < argc) {
      return vero::RunHistJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
