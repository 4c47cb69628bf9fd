#include "core/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>

#include "common/serialize.h"

namespace vero {
namespace {

// One feature, three bins, binary task. Gradients arranged so that
// splitting after bin 0 is clearly best.
CandidateSplits MakeSplits() {
  return CandidateSplits(3, {{1.0f, 2.0f, 3.0f}});
}

TEST(SplitFinderTest, FindsHandComputableSplit) {
  // Bin 0: g=-10,h=5; bin 1: g=+10,h=5; bin 2: g=0,h=0.
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0}, pos{10.0, 5.0};
  hist.Add(0, 0, &neg);
  hist.Add(0, 1, &pos);
  GradStats node = {{0.0, 10.0}};

  SplitFinder finder(/*lambda=*/1.0, /*gamma=*/0.0, /*min_gain=*/0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.feature, 0u);
  EXPECT_EQ(best.split_bin, 0);
  EXPECT_EQ(best.split_value, 1.0f);
  // gain = 0.5 * (100/6 + 100/6 - 0/11).
  EXPECT_NEAR(best.gain, 0.5 * (100.0 / 6 + 100.0 / 6), 1e-9);
  EXPECT_DOUBLE_EQ(best.left_stats[0].g, -10.0);
  EXPECT_DOUBLE_EQ(best.right_stats[0].g, 10.0);
}

TEST(SplitFinderTest, GammaSubtractsFromGain) {
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0}, pos{10.0, 5.0};
  hist.Add(0, 0, &neg);
  hist.Add(0, 1, &pos);
  GradStats node = {{0.0, 10.0}};
  SplitFinder finder(1.0, /*gamma=*/2.0, 0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  EXPECT_NEAR(best.gain, 0.5 * (100.0 / 6 + 100.0 / 6) - 2.0, 1e-9);
}

TEST(SplitFinderTest, MinGainFiltersWeakSplits) {
  Histogram hist(1, 3, 1);
  GradPair a{-0.1, 5.0}, b{0.1, 5.0};
  hist.Add(0, 0, &a);
  hist.Add(0, 1, &b);
  GradStats node = {{0.0, 10.0}};
  SplitFinder finder(1.0, 0.0, /*min_gain=*/1.0);
  EXPECT_FALSE(finder.FindBest(hist, node, {0}, MakeSplits()).valid);
}

TEST(SplitFinderTest, MissingValuesPickBetterDefaultSide) {
  // Present mass: bin 0 has g=-10 (wants to isolate); missing mass g=+8.
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0};
  hist.Add(0, 0, &neg);
  GradStats node = {{-2.0, 9.0}};  // Missing: g=8, h=4.
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  ASSERT_TRUE(best.valid);
  // Sending missing right separates -10 from +8 cleanly.
  EXPECT_FALSE(best.default_left);
  EXPECT_DOUBLE_EQ(best.left_stats[0].g, -10.0);
  EXPECT_DOUBLE_EQ(best.right_stats[0].g, 8.0);
}

TEST(SplitFinderTest, SkipsConstantFeatures) {
  Histogram hist(1, 3, 1);
  GradPair g{1.0, 1.0};
  hist.Add(0, 0, &g);
  GradStats node = {{1.0, 1.0}};
  CandidateSplits one_bin(3, {{5.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  EXPECT_FALSE(finder.FindBest(hist, node, {0}, one_bin).valid);
}

TEST(SplitFinderTest, MultiClassGainSumsOverClasses) {
  Histogram hist(1, 2, 2);
  GradPair bin0[2] = {{-5.0, 2.0}, {5.0, 2.0}};
  GradPair bin1[2] = {{5.0, 2.0}, {-5.0, 2.0}};
  hist.Add(0, 0, bin0);
  hist.Add(0, 1, bin1);
  GradStats node = {{0.0, 4.0}, {0.0, 4.0}};
  CandidateSplits splits(2, {{1.0f, 2.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best = finder.FindBest(hist, node, {0}, splits);
  ASSERT_TRUE(best.valid);
  // Per class: 25/3 left + 25/3 right; parent 0. Two classes.
  EXPECT_NEAR(best.gain, 0.5 * 4 * (25.0 / 3), 1e-9);
}

TEST(SplitFinderTest, LeafWeightsFormula) {
  SplitFinder finder(1.0, 0.0, 0.0);
  const std::vector<float> w = finder.LeafWeights({{4.0, 3.0}, {-2.0, 1.0}});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_FLOAT_EQ(w[0], -1.0f);  // -4 / (3+1)
  EXPECT_FLOAT_EQ(w[1], 1.0f);   // 2 / (1+1)
}

TEST(SplitCandidateTest, OrderingPrefersHigherGain) {
  SplitCandidate a, b;
  a.valid = b.valid = true;
  a.gain = 2.0;
  b.gain = 1.0;
  EXPECT_TRUE(a.IsBetterThan(b));
  EXPECT_FALSE(b.IsBetterThan(a));
}

TEST(SplitCandidateTest, TieBreaksByFeatureThenBin) {
  SplitCandidate a, b;
  a.valid = b.valid = true;
  a.gain = b.gain = 1.0;
  a.feature = 2;
  b.feature = 5;
  EXPECT_TRUE(a.IsBetterThan(b));
  b.feature = 2;
  a.split_bin = 1;
  b.split_bin = 3;
  EXPECT_TRUE(a.IsBetterThan(b));
}

TEST(SplitCandidateTest, InvalidNeverWins) {
  SplitCandidate invalid, valid;
  valid.valid = true;
  valid.gain = -5.0;
  EXPECT_FALSE(invalid.IsBetterThan(valid));
  EXPECT_TRUE(valid.IsBetterThan(invalid));
  EXPECT_FALSE(invalid.IsBetterThan(invalid));
}

TEST(SplitCandidateTest, SerializeRoundTrip) {
  SplitCandidate s;
  s.valid = true;
  s.feature = 17;
  s.split_bin = 3;
  s.split_value = 2.5f;
  s.default_left = true;
  s.gain = 4.75;
  s.left_stats = {{1.0, 2.0}, {3.0, 4.0}};
  s.right_stats = {{-1.0, 0.5}, {0.0, 0.25}};
  ByteWriter w;
  s.SerializeTo(&w);
  ByteReader r(w.data());
  SplitCandidate t;
  ASSERT_TRUE(SplitCandidate::Deserialize(&r, &t).ok());
  EXPECT_EQ(t.feature, 17u);
  EXPECT_EQ(t.split_bin, 3);
  EXPECT_EQ(t.split_value, 2.5f);
  EXPECT_TRUE(t.default_left);
  EXPECT_DOUBLE_EQ(t.gain, 4.75);
  EXPECT_EQ(t.left_stats.size(), 2u);
  EXPECT_DOUBLE_EQ(t.right_stats[0].h, 0.5);
}

TEST(SplitFinderTest, LeftRightStatsSumToNodeStats) {
  // Property: whatever split wins, left + right must equal the node totals.
  Histogram hist(2, 3, 1);
  GradPair g1{-3.0, 1.0}, g2{2.0, 1.5}, g3{4.0, 2.0};
  hist.Add(0, 0, &g1);
  hist.Add(0, 1, &g2);
  hist.Add(1, 2, &g3);
  GradStats node = {{3.5, 5.0}};  // Includes some missing mass.
  CandidateSplits splits(3, {{1.0f, 2.0f, 3.0f}, {1.0f, 2.0f, 3.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best = finder.FindBest(hist, node, {0, 1}, splits);
  ASSERT_TRUE(best.valid);
  EXPECT_NEAR(best.left_stats[0].g + best.right_stats[0].g, node[0].g, 1e-12);
  EXPECT_NEAR(best.left_stats[0].h + best.right_stats[0].h, node[0].h, 1e-12);
}

// ---- Exactness oracle ------------------------------------------------------
//
// A verbatim copy of the original SplitFinder::FindBest (one GradStats per
// feature from Histogram::FeatureTotal, every feature scanned, SplitValue
// read per candidate). The production scan must return bit-identical
// candidates on every input below.

constexpr double kRefMinSideHessian = 1e-10;

double RefSideHessian(const GradStats& stats) {
  double h = 0.0;
  for (const GradPair& s : stats) h += s.h;
  return h;
}

SplitCandidate ReferenceFindBest(double reg_lambda, double reg_gamma,
                                 double min_split_gain, const Histogram& hist,
                                 const GradStats& node_stats,
                                 const std::vector<FeatureId>& global_ids,
                                 const CandidateSplits& splits,
                                 const std::vector<bool>* feature_mask) {
  const uint32_t dims = hist.num_dims();
  SplitCandidate best;
  const double parent_term = GainTerm(node_stats, reg_lambda);

  GradStats left(dims), right(dims), prefix(dims), missing(dims);
  for (uint32_t f = 0; f < hist.num_features(); ++f) {
    const FeatureId global_f = global_ids[f];
    if (feature_mask != nullptr && !(*feature_mask)[global_f]) continue;
    const uint32_t nbins = splits.NumBins(global_f);
    if (nbins < 2) continue;

    GradStats present = hist.FeatureTotal(f);
    for (uint32_t k = 0; k < dims; ++k) {
      missing[k] = node_stats[k] - present[k];
    }

    std::fill(prefix.begin(), prefix.end(), GradPair{});
    for (uint32_t b = 0; b + 1 < nbins; ++b) {
      for (uint32_t k = 0; k < dims; ++k) prefix[k] += hist.at(f, b, k);

      for (int missing_left = 0; missing_left <= 1; ++missing_left) {
        for (uint32_t k = 0; k < dims; ++k) {
          left[k] = prefix[k];
          if (missing_left != 0) left[k] += missing[k];
          right[k] = node_stats[k] - left[k];
        }
        if (RefSideHessian(left) < kRefMinSideHessian ||
            RefSideHessian(right) < kRefMinSideHessian) {
          continue;
        }
        const double gain =
            0.5 * (GainTerm(left, reg_lambda) + GainTerm(right, reg_lambda) -
                   parent_term) -
            reg_gamma;
        if (gain < min_split_gain) continue;
        SplitCandidate candidate;
        candidate.valid = true;
        candidate.feature = global_f;
        candidate.split_bin = static_cast<BinId>(b);
        candidate.split_value = splits.SplitValue(global_f, b);
        candidate.default_left = (missing_left != 0);
        candidate.gain = gain;
        if (candidate.IsBetterThan(best)) {
          candidate.left_stats = left;
          candidate.right_stats = right;
          best = candidate;
        }
      }
    }
  }
  return best;
}

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void ExpectSameStats(const GradStats& got, const GradStats& want,
                     const char* side, int trial) {
  ASSERT_EQ(got.size(), want.size()) << side << " trial " << trial;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(SameBits(got[k].g, want[k].g))
        << side << "[" << k << "].g trial " << trial << ": " << got[k].g
        << " vs " << want[k].g;
    EXPECT_TRUE(SameBits(got[k].h, want[k].h))
        << side << "[" << k << "].h trial " << trial << ": " << got[k].h
        << " vs " << want[k].h;
  }
}

void ExpectSameCandidate(const SplitCandidate& got, const SplitCandidate& want,
                         int trial) {
  EXPECT_EQ(got.valid, want.valid) << "trial " << trial;
  EXPECT_EQ(got.feature, want.feature) << "trial " << trial;
  EXPECT_EQ(got.split_bin, want.split_bin) << "trial " << trial;
  EXPECT_TRUE(SameBits(got.split_value, want.split_value))
      << "trial " << trial << ": " << got.split_value << " vs "
      << want.split_value;
  EXPECT_EQ(got.default_left, want.default_left) << "trial " << trial;
  EXPECT_TRUE(SameBits(got.gain, want.gain))
      << "trial " << trial << ": " << got.gain << " vs " << want.gain;
  ExpectSameStats(got.left_stats, want.left_stats, "left_stats", trial);
  ExpectSameStats(got.right_stats, want.right_stats, "right_stats", trial);
}

// How one local feature's histogram column is filled.
enum class FeatureFill {
  kAllZero,        // every cell +0.0
  kZeroHessian,    // h == 0 in every bin, g != 0
  kSignedZeros,    // mix of +0.0 / -0.0 in g and h
  kSmallIntegers,  // coarse values: many exact gain ties across bins
  kRandom,         // continuous values
  kDuplicate,      // copy of the previous feature: forced cross-feature tie
  kSparse,         // mostly ±0.0 cells; sometimes bin 0 empty, sometimes
                   // only the last bin set
  kNearTie,        // the trial's shared column, nudged: gains less than
                   // 1e-10 apart across features and across bins
  kNumFills,
};

TEST(SplitFinderTest, MatchesReferenceScanBitwise) {
  std::mt19937_64 rng(20190717);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](uint32_t n) {
    return static_cast<uint32_t>(rng() % n);
  };
  int valid_results = 0, invalid_results = 0, skippable_features = 0,
      empty_bin_features = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const uint32_t dims = (trial % 2 == 0) ? 1 : 3;
    const uint32_t q = 2 + pick(19);
    const uint32_t num_local = 1 + pick(10);
    const uint32_t num_global = num_local + pick(6);

    // Candidate splits for the global feature space; NumBins ranges over
    // [0, q], so nbins < q and unsplittable (< 2) features both occur.
    std::vector<std::vector<float>> split_values(num_global);
    for (auto& values : split_values) {
      const uint32_t nbins = pick(q + 1);
      float v = static_cast<float>(uniform(-5.0, 0.0));
      for (uint32_t b = 0; b < nbins; ++b) {
        v += static_cast<float>(uniform(0.1, 2.0));
        values.push_back(v);
      }
    }
    const CandidateSplits splits(q, split_values);

    // Local feature f maps to a distinct global id.
    std::vector<FeatureId> all_ids(num_global);
    for (uint32_t g = 0; g < num_global; ++g) all_ids[g] = g;
    std::shuffle(all_ids.begin(), all_ids.end(), rng);
    std::vector<FeatureId> global_ids(all_ids.begin(),
                                      all_ids.begin() + num_local);

    // The column kNearTie features nudge: whole cells in some bins, cells
    // of ~1e-12 in the others, so neighbouring prefix sums nearly agree.
    std::vector<GradPair> tie_column(q * dims);
    for (GradPair& cell : tie_column) {
      cell = (pick(2) == 0)
                 ? GradPair{uniform(-4.0, 4.0), uniform(0.0, 2.0)}
                 : GradPair{uniform(-1e-12, 1e-12), 1e-12 * pick(2)};
    }

    Histogram hist(num_local, q, dims);
    for (uint32_t f = 0; f < num_local; ++f) {
      auto fill = static_cast<FeatureFill>(
          pick(static_cast<uint32_t>(FeatureFill::kNumFills)));
      if (fill == FeatureFill::kDuplicate && f == 0) {
        fill = FeatureFill::kRandom;
      }
      const uint32_t nbins = splits.NumBins(global_ids[f]);
      // kSparse: bin 0 left empty, or only the last bin (meaningful or
      // histogram) set.
      const bool empty_bin0 = pick(3) == 0;
      const int only_bin =
          (pick(4) != 0) ? -1
                         : static_cast<int>((nbins > 0 && pick(2) == 0)
                                                ? nbins - 1
                                                : q - 1);
      bool zero_h = true;
      for (uint32_t b = 0; b < q; ++b) {
        for (uint32_t k = 0; k < dims; ++k) {
          GradPair& cell = hist.at(f, b, k);
          switch (fill) {
            case FeatureFill::kAllZero:
              cell = GradPair{};
              break;
            case FeatureFill::kZeroHessian:
              cell.g = uniform(-3.0, 3.0);
              cell.h = (pick(2) == 0) ? 0.0 : -0.0;
              break;
            case FeatureFill::kSignedZeros:
              cell.g = (pick(3) == 0) ? -0.0 : static_cast<double>(pick(3));
              cell.h = (pick(2) == 0) ? -0.0 : 0.5 * pick(3);
              break;
            case FeatureFill::kSmallIntegers:
              cell.g = static_cast<double>(pick(5)) - 2.0;
              cell.h = 0.5 * pick(3);
              break;
            case FeatureFill::kRandom:
              cell.g = uniform(-4.0, 4.0);
              cell.h = (pick(8) == 0) ? 0.0 : uniform(0.0, 2.0);
              break;
            case FeatureFill::kDuplicate:
              cell = hist.at(f - 1, b, k);
              break;
            case FeatureFill::kSparse: {
              const bool set = (only_bin >= 0)
                                   ? static_cast<int>(b) == only_bin
                                   : !(b == 0 && empty_bin0) && pick(4) == 0;
              cell = set ? GradPair{uniform(-4.0, 4.0), uniform(0.0, 2.0)}
                         : GradPair{(pick(2) == 0) ? 0.0 : -0.0,
                                    (pick(2) == 0) ? 0.0 : -0.0};
              break;
            }
            case FeatureFill::kNearTie:
              cell = tie_column[b * dims + k];
              cell.g += 4e-11 * (static_cast<double>(pick(5)) - 2.0);
              break;
            case FeatureFill::kNumFills:
              break;
          }
          zero_h = zero_h && cell.h == 0.0;
        }
      }
      if (zero_h) ++skippable_features;
      // Interior bins [1, nbins - 2] that hold ±0.0 in every class are the
      // ones the scan skips.
      bool empty_interior = false;
      for (uint32_t b = 1; b + 1 < nbins; ++b) {
        bool empty = true;
        for (uint32_t k = 0; k < dims; ++k) {
          empty = empty && hist.at(f, b, k).g == 0.0 &&
                  hist.at(f, b, k).h == 0.0;
        }
        empty_interior = empty_interior || empty;
      }
      if (empty_interior && !zero_h) ++empty_bin_features;
    }

    // Node totals: the first feature's present mass plus a random missing
    // bucket (sometimes none, sometimes negative-hessian noise).
    GradStats node = hist.FeatureTotal(0);
    for (uint32_t k = 0; k < dims; ++k) {
      switch (pick(4)) {
        case 0:
          break;
        case 1:
          node[k].g += uniform(-3.0, 3.0);
          node[k].h += uniform(0.0, 3.0);
          break;
        case 2:
          node[k].g += static_cast<double>(pick(5)) - 2.0;
          node[k].h += 0.5 * pick(4);
          break;
        default:
          node[k].g = uniform(-5.0, 5.0);
          node[k].h = uniform(-0.5, 6.0);
          break;
      }
    }
    if (pick(40) == 0) {
      node[pick(dims)].h = (pick(2) == 0)
                               ? std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::quiet_NaN();
    }

    std::vector<bool> mask;
    const bool masked = pick(3) == 0;
    if (masked) {
      mask.resize(num_global);
      for (uint32_t g = 0; g < num_global; ++g) mask[g] = pick(3) != 0;
    }
    const double lambda = (pick(2) == 0) ? 1.0 : 0.25;
    const double gamma = (pick(3) == 0) ? 0.3 : 0.0;
    const double min_gain = (pick(3) == 0) ? 0.05 : 0.0;

    const SplitFinder finder(lambda, gamma, min_gain);
    const std::vector<bool>* mask_ptr = masked ? &mask : nullptr;
    const SplitCandidate got =
        finder.FindBest(hist, node, global_ids, splits, mask_ptr);
    const SplitCandidate want = ReferenceFindBest(
        lambda, gamma, min_gain, hist, node, global_ids, splits, mask_ptr);
    ExpectSameCandidate(got, want, trial);
    if (::testing::Test::HasFailure()) return;
    (want.valid ? valid_results : invalid_results) += 1;
  }
  // The generator must actually exercise both outcomes, the zero-hessian
  // features a sparsity-aware scan may skip, and the empty bins it skips in
  // the features it does scan.
  EXPECT_GT(valid_results, 500);
  EXPECT_GT(invalid_results, 50);
  EXPECT_GT(skippable_features, 1000);
  EXPECT_GT(empty_bin_features, 1000);
}

}  // namespace
}  // namespace vero
