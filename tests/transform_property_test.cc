// Property sweep over the horizontal-to-vertical transformation: for every
// combination of worker count, shape, grouping strategy, and wire encoding,
// the transform must conserve entries, preserve bins exactly, cover every
// feature exactly once, and deliver identical labels everywhere. Fully
// dense data must arrive as dense column-group blocks.

#include <gtest/gtest.h>
#include <tuple>

#include "core/binned.h"
#include "data/synthetic.h"
#include "partition/transform.h"

namespace vero {
namespace {

using Param = std::tuple<int,                     // workers
                         uint32_t,                // features
                         double,                  // density
                         ColumnGroupingStrategy,  // grouping
                         TransformEncoding>;      // encoding

class TransformPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(TransformPropertyTest, ConservesEveryEntryBinAndLabel) {
  const auto [w, d, density, grouping, encoding] = GetParam();
  SyntheticConfig config;
  config.num_instances = 400;
  config.num_features = d;
  config.density = density;
  config.seed = 1000 + w * 13 + d;
  const Dataset data = GenerateSynthetic(config);

  std::vector<Dataset> shards;
  for (int r = 0; r < w; ++r) {
    const auto [begin, end] = HorizontalRange(data.num_instances(), w, r);
    shards.emplace_back(data.matrix().SliceRows(begin, end),
                        std::vector<float>(data.labels().begin() + begin,
                                           data.labels().begin() + end),
                        data.task(), data.num_classes());
  }

  Cluster cluster(w);
  TransformOptions options;
  options.grouping = grouping;
  options.encoding = encoding;
  options.num_candidate_splits = 12;
  std::vector<VerticalShard> verticals(w);
  cluster.Run([&](WorkerContext& ctx) {
    verticals[ctx.rank()] =
        HorizontalToVertical(ctx, shards[ctx.rank()], options);
  });

  // Feature coverage: every feature owned exactly once, consistently.
  std::vector<int> owner_count(d, 0);
  for (int r = 0; r < w; ++r) {
    EXPECT_EQ(verticals[r].feature_owner, verticals[0].feature_owner);
    for (FeatureId f : verticals[r].owned_features) ++owner_count[f];
  }
  for (uint32_t f = 0; f < d; ++f) EXPECT_EQ(owner_count[f], 1);

  // Labels identical and complete on every worker.
  for (int r = 0; r < w; ++r) {
    EXPECT_EQ(verticals[r].labels, data.labels());
  }

  // Entry + bin conservation against direct binning of the full dataset.
  const BinnedRowStore reference =
      BinnedRowStore::FromCsr(data.matrix(), verticals[0].splits);
  uint64_t total_entries = 0;
  for (int r = 0; r < w; ++r) {
    const VerticalShard& v = verticals[r];
    total_entries += v.data.num_entries();
    // Full rows are stored dense (bins only), whatever the encoding.
    if (density == 1.0 && !v.owned_features.empty()) {
      for (size_t b = 0; b < v.data.num_blocks(); ++b) {
        EXPECT_TRUE(v.data.block(b).dense()) << "W=" << w << " block " << b;
      }
    }
    for (InstanceId i = 0; i < data.num_instances(); ++i) {
      auto features = v.data.RowFeatures(i);
      auto bins = v.data.RowBins(i);
      for (size_t k = 0; k < features.size(); ++k) {
        const FeatureId global_f = v.owned_features[features[k]];
        const auto expected = reference.FindBin(i, global_f);
        ASSERT_TRUE(expected.has_value());
        ASSERT_EQ(bins[k], *expected)
            << "W=" << w << " D=" << d << " instance " << i;
      }
    }
  }
  EXPECT_EQ(total_entries, data.num_nonzeros());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransformPropertyTest,
    ::testing::Combine(
        ::testing::Values(1, 3, 8),
        ::testing::Values(10u, 100u),
        ::testing::Values(0.1, 0.8, 1.0),
        ::testing::Values(ColumnGroupingStrategy::kGreedyBalance,
                          ColumnGroupingStrategy::kRange),
        ::testing::Values(TransformEncoding::kNaive,
                          TransformEncoding::kBlockified)));

}  // namespace
}  // namespace vero
