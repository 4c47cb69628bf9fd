#include "core/hist_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/random.h"
#include "core/binned.h"
#include "core/gradients.h"
#include "core/histogram.h"
#include "core/loss.h"
#include "core/model_io.h"
#include "core/node_indexer.h"
#include "core/trainer.h"
#include "data/synthetic.h"

namespace vero {
namespace {

constexpr uint32_t kBins = 16;

// One sparse block of rows sorted by feature id (the FromCsr invariant).
BinnedRowStore MakeRowStore(uint32_t n, uint32_t d, double density, Rng* rng) {
  BinnedRowStore::Block block;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t f = 0; f < d; ++f) {
      if (rng->Bernoulli(density)) {
        block.features.push_back(f);
        block.bins.push_back(static_cast<BinId>(rng->Uniform(kBins)));
      }
    }
    block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
  }
  BinnedRowStore store(d);
  store.AppendBlock(std::move(block));
  return store;
}

GradientBuffer MakeGrads(uint32_t n, uint32_t dims, Rng* rng) {
  GradientBuffer grads(n, dims);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dims; ++k) {
      grads.at(i, k) = {rng->NextGaussian(), rng->NextDouble() + 0.1};
    }
  }
  return grads;
}

// Seed-style per-node scan: one row at a time, every entry via Histogram::Add.
void NaiveRowScan(const BinnedRowStore& store, const GradientBuffer& grads,
                  std::span<const InstanceId> rows, Histogram* hist) {
  for (const InstanceId i : rows) {
    const auto features = store.RowFeatures(i);
    const auto bins = store.RowBins(i);
    for (size_t k = 0; k < features.size(); ++k) {
      hist->Add(features[k], bins[k], grads.row(i));
    }
  }
}

bool SameBits(const Histogram& a, const Histogram& b) {
  return a.raw_size() == b.raw_size() &&
         std::memcmp(a.raw_data(), b.raw_data(),
                     a.raw_size() * sizeof(double)) == 0;
}

// Splits instances round-robin-by-hash onto `num_nodes` frontier nodes and
// returns the per-node ascending instance lists.
std::vector<std::vector<InstanceId>> AssignNodes(uint32_t n,
                                                 uint32_t num_nodes,
                                                 Rng* rng) {
  std::vector<std::vector<InstanceId>> nodes(num_nodes);
  for (InstanceId i = 0; i < n; ++i) {
    nodes[rng->Uniform(num_nodes)].push_back(i);
  }
  return nodes;
}

TEST(HistBuilderTest, RowLayerMatchesPerNodeScans) {
  for (uint32_t dims : {1u, 3u}) {
    Rng rng(101 + dims);
    const uint32_t n = 500, d = 24;
    const BinnedRowStore store = MakeRowStore(n, d, 0.3, &rng);
    const GradientBuffer grads = MakeGrads(n, dims, &rng);
    const auto nodes = AssignNodes(n, 3, &rng);

    std::vector<Histogram> built;
    for (int k = 0; k < 3; ++k) built.emplace_back(d, kBins, dims);
    std::vector<HistogramBuilder::NodeRows> tasks;
    for (int k = 0; k < 3; ++k) {
      tasks.push_back({&built[k], std::span<const InstanceId>(nodes[k])});
    }
    HistogramBuilder builder(1);
    builder.BuildRowStoreLayer(store, grads,
                               std::span<const HistogramBuilder::NodeRows>(
                                   tasks),
                               0, d, d);

    for (int k = 0; k < 3; ++k) {
      Histogram naive(d, kBins, dims);
      NaiveRowScan(store, grads, std::span<const InstanceId>(nodes[k]),
                   &naive);
      EXPECT_TRUE(SameBits(built[k], naive)) << "dims=" << dims
                                             << " node=" << k;
    }
    EXPECT_EQ(builder.last_threads_used(), 1u);
    EXPECT_GE(builder.last_build_seconds(), 0.0);
  }
}

TEST(HistBuilderTest, RowLayerParallelBitIdenticalToSerial) {
  for (uint32_t dims : {1u, 3u}) {
    Rng rng(202 + dims);
    const uint32_t n = 700, d = 13;  // d not divisible by the thread counts.
    const BinnedRowStore store = MakeRowStore(n, d, 0.4, &rng);
    const GradientBuffer grads = MakeGrads(n, dims, &rng);
    const auto nodes = AssignNodes(n, 2, &rng);

    auto build = [&](uint32_t threads) {
      std::vector<Histogram> hists;
      for (int k = 0; k < 2; ++k) hists.emplace_back(d, kBins, dims);
      std::vector<HistogramBuilder::NodeRows> tasks;
      for (int k = 0; k < 2; ++k) {
        tasks.push_back({&hists[k], std::span<const InstanceId>(nodes[k])});
      }
      HistogramBuilder builder(threads);
      builder.BuildRowStoreLayer(
          store, grads,
          std::span<const HistogramBuilder::NodeRows>(tasks), 0, d, d);
      return hists;
    };

    const std::vector<Histogram> serial = build(1);
    for (uint32_t threads : {2u, 4u, 7u}) {
      const std::vector<Histogram> parallel = build(threads);
      for (int k = 0; k < 2; ++k) {
        EXPECT_TRUE(SameBits(serial[k], parallel[k]))
            << "dims=" << dims << " threads=" << threads << " node=" << k;
      }
    }
  }
}

TEST(HistBuilderTest, RowLayerWindowMatchesFullBuildSlice) {
  Rng rng(303);
  const uint32_t n = 400, d = 20, fb = 7, fe = 15;
  const BinnedRowStore store = MakeRowStore(n, d, 0.35, &rng);
  const GradientBuffer grads = MakeGrads(n, 1, &rng);
  std::vector<InstanceId> all(n);
  for (InstanceId i = 0; i < n; ++i) all[i] = i;

  Histogram full(d, kBins, 1);
  NaiveRowScan(store, grads, std::span<const InstanceId>(all), &full);

  auto window = [&](uint32_t threads) {
    Histogram hist(fe - fb, kBins, 1);
    std::vector<HistogramBuilder::NodeRows> tasks = {
        {&hist, std::span<const InstanceId>(all)}};
    HistogramBuilder builder(threads);
    // Histogram column f - fb holds global feature f (the feature-parallel
    // slice convention).
    builder.BuildRowStoreLayer(store, grads,
                               std::span<const HistogramBuilder::NodeRows>(
                                   tasks),
                               fb, fe, d);
    return hist;
  };

  const Histogram serial = window(1);
  for (uint32_t f = fb; f < fe; ++f) {
    for (uint32_t b = 0; b < kBins; ++b) {
      EXPECT_EQ(serial.at(f - fb, b, 0).g, full.at(f, b, 0).g);
      EXPECT_EQ(serial.at(f - fb, b, 0).h, full.at(f, b, 0).h);
    }
  }
  for (uint32_t threads : {2u, 4u, 7u}) {
    EXPECT_TRUE(SameBits(serial, window(threads))) << "threads=" << threads;
  }
}

// The full rows of `rows` as dense blocks of `block_rows` rows each (the
// form of a Higgs-shaped QD4 shard).
BinnedRowStore DenseStore(const BinnedRowStore& rows, uint32_t block_rows) {
  const uint32_t d = rows.num_features();
  BinnedRowStore dense(d);
  for (InstanceId begin = 0; begin < rows.num_rows(); begin += block_rows) {
    const InstanceId end = std::min(rows.num_rows(), begin + block_rows);
    std::vector<BinId> bins;
    for (InstanceId i = begin; i < end; ++i) {
      const auto row = rows.RowBins(i);
      EXPECT_EQ(row.size(), d);
      bins.insert(bins.end(), row.begin(), row.end());
    }
    dense.AppendBlock(
        BinnedRowStore::Block::Dense(begin, d, std::move(bins)));
  }
  return dense;
}

TEST(HistBuilderTest, DenseBlocksBuildLikeSparseBlocks) {
  for (uint32_t dims : {1u, 3u}) {
    Rng rng(505 + dims);
    const uint32_t n = 600, d = 9;
    const BinnedRowStore store = MakeRowStore(n, d, 1.0, &rng);
    const BinnedRowStore dense = DenseStore(store, 130);
    ASSERT_EQ(dense.num_blocks(), 5u);
    ASSERT_TRUE(dense.block(0).dense());
    const GradientBuffer grads = MakeGrads(n, dims, &rng);
    const auto nodes = AssignNodes(n, 2, &rng);

    // Full width, and a window whose histogram column f - fb holds f.
    for (const auto& [fb, fe] : {std::pair(0u, d), std::pair(2u, 7u)}) {
      auto build = [&](const BinnedRowStore& s, uint32_t threads) {
        std::vector<Histogram> hists;
        for (int k = 0; k < 2; ++k) hists.emplace_back(fe - fb, kBins, dims);
        std::vector<HistogramBuilder::NodeRows> tasks;
        for (int k = 0; k < 2; ++k) {
          tasks.push_back({&hists[k], std::span<const InstanceId>(nodes[k])});
        }
        HistogramBuilder builder(threads);
        builder.BuildRowStoreLayer(
            s, grads, std::span<const HistogramBuilder::NodeRows>(tasks), fb,
            fe, d);
        return hists;
      };
      for (uint32_t threads : {1u, 3u}) {
        const std::vector<Histogram> want = build(store, threads);
        const std::vector<Histogram> got = build(dense, threads);
        for (int k = 0; k < 2; ++k) {
          EXPECT_TRUE(SameBits(want[k], got[k]))
              << "dims=" << dims << " window=[" << fb << "," << fe
              << ") threads=" << threads << " node=" << k;
        }
      }
    }
  }
}

TEST(HistBuilderTest, ColumnSweepMatchesNaiveAndIsParallelStable) {
  for (uint32_t dims : {1u, 3u}) {
    Rng rng(404 + dims);
    const uint32_t n = 600, d = 15;
    const BinnedRowStore rows = MakeRowStore(n, d, 0.3, &rng);
    const BinnedColumnStore store = BinnedColumnStore::FromRows(rows);
    const GradientBuffer grads = MakeGrads(n, dims, &rng);

    // Frontier nodes 1 and 2; node 0 entries stay unattributed (nullptr).
    InstanceToNode node_of;
    node_of.Init(n);
    for (InstanceId i = 0; i < n; ++i) {
      node_of.Set(i, static_cast<NodeId>(rng.Uniform(3)));
    }

    auto sweep = [&](uint32_t threads) {
      std::vector<Histogram> hists;
      for (int k = 0; k < 2; ++k) hists.emplace_back(d, kBins, dims);
      std::vector<Histogram*> hist_of_node = {nullptr, &hists[0], &hists[1]};
      HistogramBuilder builder(threads);
      builder.BuildColumnStoreSweep(store, grads, node_of, hist_of_node);
      return hists;
    };

    std::vector<Histogram> naive;
    for (int k = 0; k < 2; ++k) naive.emplace_back(d, kBins, dims);
    for (uint32_t f = 0; f < d; ++f) {
      const auto col_rows = store.ColumnRows(f);
      const auto col_bins = store.ColumnBins(f);
      for (size_t k = 0; k < col_rows.size(); ++k) {
        const NodeId node = node_of.Get(col_rows[k]);
        if (node == 0) continue;
        naive[node - 1].Add(f, col_bins[k], grads.row(col_rows[k]));
      }
    }

    const std::vector<Histogram> serial = sweep(1);
    for (int k = 0; k < 2; ++k) {
      EXPECT_TRUE(SameBits(serial[k], naive[k])) << "dims=" << dims;
    }
    for (uint32_t threads : {2u, 4u, 7u}) {
      const std::vector<Histogram> parallel = sweep(threads);
      for (int k = 0; k < 2; ++k) {
        EXPECT_TRUE(SameBits(serial[k], parallel[k]))
            << "dims=" << dims << " threads=" << threads;
      }
    }
  }
}

TEST(HistBuilderTest, ColumnLayerPoliciesAgreeBitForBit) {
  Rng rng(505);
  const uint32_t n = 500, d = 12;
  const BinnedRowStore rows = MakeRowStore(n, d, 0.4, &rng);
  const BinnedColumnStore store = BinnedColumnStore::FromRows(rows);
  const GradientBuffer grads = MakeGrads(n, 1, &rng);

  // One split of the root: partition + instance-to-node kept in sync, the
  // QD3 arrangement.
  RowPartition partition;
  partition.Init(n, /*max_layers=*/3);
  Bitmap go_left(n);
  for (InstanceId i = 0; i < n; ++i) go_left.Assign(i, rng.Bernoulli(0.6));
  partition.Split(0, go_left);
  InstanceToNode node_of;
  node_of.Init(n);
  for (NodeId child : {NodeId{1}, NodeId{2}}) {
    for (InstanceId i : partition.Instances(child)) node_of.Set(i, child);
  }
  const std::vector<NodeId> build_nodes = {1, 2};

  auto layer = [&](HistogramBuilder::ColumnScan policy, uint32_t threads) {
    std::vector<Histogram> hists;
    for (int k = 0; k < 2; ++k) hists.emplace_back(d, kBins, 1);
    std::vector<Histogram*> hist_of_node = {nullptr, &hists[0], &hists[1]};
    HistogramBuilder builder(threads);
    builder.BuildColumnStoreLayer(store, grads, node_of, partition,
                                  build_nodes, hist_of_node, policy);
    return hists;
  };

  const auto linear = layer(HistogramBuilder::ColumnScan::kLinear, 1);
  // Binary search visits each node's instances in partition order (ascending
  // after a stable root split) — the same per-cell order as the linear scan.
  for (auto policy : {HistogramBuilder::ColumnScan::kBinarySearch,
                      HistogramBuilder::ColumnScan::kAuto}) {
    for (uint32_t threads : {1u, 4u}) {
      const auto other = layer(policy, threads);
      for (int k = 0; k < 2; ++k) {
        EXPECT_TRUE(SameBits(linear[k], other[k]))
            << "policy=" << static_cast<int>(policy)
            << " threads=" << threads;
      }
    }
  }
}

TEST(HistBuilderTest, SubtractionPathUnchangedByRawKernels) {
  Rng rng(606);
  const uint32_t d = 6, q = 8, c = 3;
  Histogram parent(d, q, c), left(d, q, c), right_direct(d, q, c);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t f = rng.Uniform(d);
    const uint32_t b = rng.Uniform(q);
    std::vector<GradPair> g(c);
    for (auto& p : g) p = {rng.NextGaussian(), rng.NextDouble()};
    parent.Add(f, b, g.data());
    (rng.Bernoulli(0.5) ? left : right_direct).Add(f, b, g.data());
  }
  Histogram right_sub(d, q, c);
  right_sub.SetToDifference(parent, left);
  // The raw-array kernel must compute exactly parent[i] - left[i] cell-wise.
  for (size_t i = 0; i < right_sub.raw_size(); ++i) {
    EXPECT_EQ(right_sub.raw_data()[i],
              parent.raw_data()[i] - left.raw_data()[i]);
  }
  // The raw-array AddHistogram kernel must compute exactly a[i] + b[i].
  Histogram sum(d, q, c);
  sum.AddHistogram(left);
  sum.AddHistogram(right_direct);
  for (size_t i = 0; i < sum.raw_size(); ++i) {
    EXPECT_EQ(sum.raw_data()[i],
              left.raw_data()[i] + right_direct.raw_data()[i]);
  }
}

TEST(HistBuilderTest, AccumulateEntriesMatchesAddLoop) {
  Rng rng(707);
  const uint32_t d = 10;
  const size_t entries = 5000;
  std::vector<FeatureId> features(entries);
  std::vector<BinId> bins(entries);
  for (size_t i = 0; i < entries; ++i) {
    features[i] = static_cast<FeatureId>(rng.Uniform(d));
    bins[i] = static_cast<BinId>(rng.Uniform(kBins));
  }
  const GradPair g{0.75, 0.25};
  Histogram fast(d, kBins, 1), naive(d, kBins, 1);
  HistogramBuilder::AccumulateEntries(&fast, features, bins, &g);
  for (size_t i = 0; i < entries; ++i) naive.Add(features[i], bins[i], &g);
  EXPECT_TRUE(SameBits(fast, naive));
}

TEST(HistBuilderTest, ThreadsUsedIsCappedByBlockCount) {
  Rng rng(808);
  const uint32_t n = 50, d = 3;
  const BinnedRowStore store = MakeRowStore(n, d, 0.5, &rng);
  const GradientBuffer grads = MakeGrads(n, 1, &rng);
  std::vector<InstanceId> all(n);
  for (InstanceId i = 0; i < n; ++i) all[i] = i;
  Histogram hist(d, kBins, 1);
  std::vector<HistogramBuilder::NodeRows> tasks = {
      {&hist, std::span<const InstanceId>(all)}};
  HistogramBuilder builder(8);
  builder.BuildRowStoreLayer(
      store, grads, std::span<const HistogramBuilder::NodeRows>(tasks), 0, d,
      d);
  // Only d=3 feature blocks exist, so at most 3 threads can be used.
  EXPECT_EQ(builder.last_threads_used(), 3u);
}

TEST(HistBuilderTest, PoolFreelistRecyclesAcrossShapes) {
  HistogramPool pool;
  Histogram* a = pool.Acquire(0, 4, kBins, 1);
  Histogram* b = pool.Acquire(1, 8, kBins, 1);
  Histogram* c = pool.Acquire(2, 4, kBins, 1);
  const uint64_t small = a->MemoryBytes();
  const uint64_t large = b->MemoryBytes();
  GradPair g{1.0, 1.0};
  a->Add(0, 0, &g);
  b->Add(0, 0, &g);
  c->Add(0, 0, &g);
  pool.Release(0);
  pool.Release(1);
  pool.Release(2);
  EXPECT_EQ(pool.CurrentBytes(), 0u);
  // Mixed-shape freelist: every re-acquire finds a matching buffer (the
  // swap-with-back pop must not lose or corrupt entries) and hands it back
  // cleared.
  Histogram* large_again = pool.Acquire(3, 8, kBins, 1);
  EXPECT_EQ(large_again->MemoryBytes(), large);
  EXPECT_DOUBLE_EQ(large_again->at(0, 0, 0).g, 0.0);
  Histogram* small_again = pool.Acquire(4, 4, kBins, 1);
  Histogram* small_third = pool.Acquire(5, 4, kBins, 1);
  EXPECT_EQ(small_again->MemoryBytes(), small);
  EXPECT_EQ(small_third->MemoryBytes(), small);
  EXPECT_DOUBLE_EQ(small_again->at(0, 0, 0).g, 0.0);
  EXPECT_DOUBLE_EQ(small_third->at(0, 0, 0).g, 0.0);
  EXPECT_EQ(pool.CurrentBytes(), large + 2 * small);
}

TEST(HistBuilderTest, FillGoLeftMatchesPerRowFindBin) {
  Rng rng(909);
  const uint32_t n = 300, d = 10;
  const BinnedRowStore store = MakeRowStore(n, d, 0.3, &rng);
  std::vector<InstanceId> all;
  for (InstanceId i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.7)) all.push_back(i);
  }
  // Prefixes around the 64-bit word boundaries, plus the whole list.
  for (const size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                           size_t{65}, size_t{127}, size_t{128},
                           size_t{129}, all.size()}) {
    const std::span<const InstanceId> instances(all.data(), len);
    for (const bool default_left : {true, false}) {
      const FeatureId feature = static_cast<FeatureId>(rng.Uniform(d));
      const BinId split_bin = static_cast<BinId>(rng.Uniform(kBins));
      Bitmap go_left(len);
      store.FillGoLeft(instances, feature, split_bin, default_left,
                       &go_left);
      Bitmap expected(len);
      for (size_t j = 0; j < len; ++j) {
        const auto bin = store.FindBin(instances[j], feature);
        expected.Assign(j, bin.has_value() ? (*bin <= split_bin)
                                           : default_left);
        EXPECT_EQ(go_left.Get(j), expected.Get(j)) << "j=" << j;
      }
      EXPECT_TRUE(go_left == expected) << "len=" << len;
    }
  }
}

TEST(HistBuilderTest, ComputeGradientsParallelMatchesSerial) {
  Rng rng(111);
  const uint32_t n = 1001;
  for (uint32_t dims : {1u, 3u}) {
    const auto loss = dims == 1 ? MakeLossForTask(Task::kBinary, 2)
                                : MakeLossForTask(Task::kMultiClass, dims);
    std::vector<float> labels(n);
    std::vector<double> margins(static_cast<size_t>(n) * dims);
    for (uint32_t i = 0; i < n; ++i) {
      labels[i] = static_cast<float>(rng.Uniform(dims == 1 ? 2 : dims));
      for (uint32_t k = 0; k < dims; ++k) {
        margins[static_cast<size_t>(i) * dims + k] = rng.NextGaussian();
      }
    }
    GradientBuffer serial(n, dims);
    loss->ComputeGradients(labels, margins, 0, n, &serial);
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      GradientBuffer parallel(n, dims);
      ComputeGradientsParallel(*loss, labels, margins, n, threads, &parallel);
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t k = 0; k < dims; ++k) {
          EXPECT_TRUE(parallel.at(i, k) == serial.at(i, k))
              << "dims=" << dims << " threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

// End-to-end form of the determinism contract: whole training runs produce
// byte-identical models at any thread count.
TEST(HistBuilderTest, TrainerBitIdenticalAcrossThreadCounts) {
  SyntheticConfig config;
  config.num_instances = 800;
  config.num_features = 20;
  config.num_classes = 2;
  config.density = 0.4;
  config.seed = 17;
  const Dataset train = GenerateSynthetic(config);
  for (const GrowthPolicy growth :
       {GrowthPolicy::kLevelWise, GrowthPolicy::kLeafWise}) {
    GbdtParams params;
    params.num_trees = 4;
    params.num_layers = 4;
    params.num_candidate_splits = 12;
    params.growth = growth;
    auto reference = Trainer(params).Train(train);
    ASSERT_TRUE(reference.ok());
    const std::string reference_text = ModelToText(*reference);
    for (const uint32_t threads : {2u, 4u, 7u}) {
      params.num_threads = threads;
      auto model = Trainer(params).Train(train);
      ASSERT_TRUE(model.ok());
      EXPECT_EQ(ModelToText(*model), reference_text)
          << "growth=" << static_cast<int>(growth)
          << " num_threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vero
