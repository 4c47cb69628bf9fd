#include "quadrants/advisor.h"

#include <gtest/gtest.h>

namespace vero {
namespace {

EnvironmentSpec LabEnv(int workers = 8) {
  EnvironmentSpec env;
  env.num_workers = workers;
  env.network = NetworkModel::Lab1Gbps();
  return env;
}

WorkloadSpec MakeWorkload(uint64_t n, uint64_t d, uint32_t c,
                          double density) {
  WorkloadSpec w;
  w.num_instances = n;
  w.num_features = d;
  w.num_classes = c;
  w.density = density;
  return w;
}

TEST(AdvisorTest, SizehistMatchesPaperFormula) {
  // The Age example of §3.1.4: 330K features, q=20, 9 classes -> ~906 MB.
  WorkloadSpec w = MakeWorkload(48000000, 330000, 9, 0.001);
  const uint64_t bytes = QuadrantAdvisor::HistogramBytesPerNode(w);
  EXPECT_EQ(bytes, 2ull * 330000 * 20 * 9 * 8);
  EXPECT_NEAR(bytes / 1e6, 950.4, 0.1);
}

TEST(AdvisorTest, BinaryUsesOneGradientDim) {
  WorkloadSpec w = MakeWorkload(1000, 100, 2, 0.1);
  EXPECT_EQ(w.gradient_dim(), 1u);
  w.num_classes = 9;
  EXPECT_EQ(w.gradient_dim(), 9u);
}

TEST(AdvisorTest, HighDimensionalPrefersVertical) {
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec w = MakeWorkload(1000000, 100000, 2, 0.001);
  EXPECT_TRUE(IsVertical(advisor.Recommend(w)))
      << QuadrantToString(advisor.Recommend(w));
}

TEST(AdvisorTest, MultiClassPrefersVertical) {
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec w = MakeWorkload(500000, 20000, 50, 0.01);
  EXPECT_TRUE(IsVertical(advisor.Recommend(w)));
}

TEST(AdvisorTest, LowDimHugeNPrefersHorizontal) {
  // SUSY-like: 5M x 18 dense, binary — LightGBM's (QD2's) home turf.
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec w = MakeWorkload(5000000, 18, 2, 1.0);
  EXPECT_EQ(advisor.Recommend(w), Quadrant::kQD2);
}

TEST(AdvisorTest, Qd1NeverBeatsQd2) {
  // All-reduce moves 2x a reduce-scatter and QD1 lacks subtraction; for any
  // workload QD2 should be estimated at most as expensive.
  QuadrantAdvisor advisor(LabEnv());
  for (const WorkloadSpec& w :
       {MakeWorkload(100000, 100, 2, 1.0), MakeWorkload(10000, 50000, 2, 0.01),
        MakeWorkload(1000000, 5000, 10, 0.05)}) {
    const QuadrantEstimate qd1 = advisor.Estimate(w, Quadrant::kQD1);
    const QuadrantEstimate qd2 = advisor.Estimate(w, Quadrant::kQD2);
    EXPECT_GE(qd1.total_seconds(), qd2.total_seconds());
    EXPECT_GE(qd1.comm_bytes_per_tree, qd2.comm_bytes_per_tree);
  }
}

TEST(AdvisorTest, VerticalMemoryIsWTimesSmaller) {
  QuadrantAdvisor advisor(LabEnv(8));
  const WorkloadSpec w = MakeWorkload(100000, 10000, 2, 0.01);
  const QuadrantEstimate qd2 = advisor.Estimate(w, Quadrant::kQD2);
  const QuadrantEstimate qd4 = advisor.Estimate(w, Quadrant::kQD4);
  EXPECT_NEAR(static_cast<double>(qd2.histogram_bytes) / qd4.histogram_bytes,
              8.0, 0.01);
}

TEST(AdvisorTest, HorizontalCommGrowsWithDVerticalDoesNot) {
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec small_d = MakeWorkload(100000, 1000, 2, 0.05);
  WorkloadSpec big_d = small_d;
  big_d.num_features = 100000;
  EXPECT_GT(advisor.Estimate(big_d, Quadrant::kQD2).comm_seconds,
            10 * advisor.Estimate(small_d, Quadrant::kQD2).comm_seconds);
  EXPECT_NEAR(advisor.Estimate(big_d, Quadrant::kQD4).comm_seconds,
              advisor.Estimate(small_d, Quadrant::kQD4).comm_seconds, 1e-9);
}

TEST(AdvisorTest, VerticalCommGrowsWithNHorizontalDoesNot) {
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec small_n = MakeWorkload(100000, 10000, 2, 0.01);
  WorkloadSpec big_n = small_n;
  big_n.num_instances = 10000000;
  EXPECT_GT(advisor.Estimate(big_n, Quadrant::kQD4).comm_seconds,
            10 * advisor.Estimate(small_n, Quadrant::kQD4).comm_seconds);
  EXPECT_NEAR(advisor.Estimate(big_n, Quadrant::kQD2).comm_seconds,
              advisor.Estimate(small_n, Quadrant::kQD2).comm_seconds, 1e-9);
}

TEST(AdvisorTest, HorizontalCommProportionalToClasses) {
  QuadrantAdvisor advisor(LabEnv());
  const WorkloadSpec c3 = MakeWorkload(100000, 10000, 3, 0.01);
  WorkloadSpec c9 = c3;
  c9.num_classes = 9;
  EXPECT_NEAR(advisor.Estimate(c9, Quadrant::kQD2).comm_bytes_per_tree /
                  static_cast<double>(
                      advisor.Estimate(c3, Quadrant::kQD2).comm_bytes_per_tree),
              3.0, 0.01);
  EXPECT_EQ(advisor.Estimate(c9, Quadrant::kQD4).comm_bytes_per_tree,
            advisor.Estimate(c3, Quadrant::kQD4).comm_bytes_per_tree);
}

TEST(AdvisorTest, MemoryBudgetDemotesOversizedQuadrants) {
  EnvironmentSpec env = LabEnv();
  env.memory_budget_bytes = 100 << 20;  // 100 MB.
  QuadrantAdvisor advisor(env);
  // Big multi-class histograms: horizontal cannot fit.
  const WorkloadSpec w = MakeWorkload(1000000, 50000, 10, 0.002);
  const auto ranking = advisor.Rank(w);
  EXPECT_FALSE(advisor.Estimate(w, Quadrant::kQD2).fits_memory);
  // Every infeasible quadrant ranks after every feasible one.
  bool seen_infeasible = false;
  for (const QuadrantEstimate& e : ranking) {
    if (!e.fits_memory) seen_infeasible = true;
    if (seen_infeasible) {
      EXPECT_FALSE(e.fits_memory);
    }
  }
  EXPECT_TRUE(IsVertical(ranking.front().quadrant));
}

TEST(AdvisorTest, FasterNetworkShiftsTowardHorizontal) {
  // The paper's Gender finding: on the 10 Gbps production network DimBoost
  // (QD2) overtakes Vero for the huge-N low-ish-D binary workload.
  const WorkloadSpec gender = MakeWorkload(122000000, 330000, 2, 0.0001);
  EnvironmentSpec slow = LabEnv();
  EnvironmentSpec fast = LabEnv();
  fast.network = NetworkModel::Production10Gbps();
  const double slow_gap =
      QuadrantAdvisor(slow).Estimate(gender, Quadrant::kQD2).total_seconds() /
      QuadrantAdvisor(slow).Estimate(gender, Quadrant::kQD4).total_seconds();
  const double fast_gap =
      QuadrantAdvisor(fast).Estimate(gender, Quadrant::kQD2).total_seconds() /
      QuadrantAdvisor(fast).Estimate(gender, Quadrant::kQD4).total_seconds();
  EXPECT_LT(fast_gap, slow_gap);  // QD2 relatively better on fast network.
}

TEST(AdvisorTest, ExplainMentionsEveryQuadrant) {
  QuadrantAdvisor advisor(LabEnv());
  const std::string report =
      advisor.Explain(MakeWorkload(10000, 1000, 2, 0.1));
  for (Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                     Quadrant::kQD4}) {
    EXPECT_NE(report.find(QuadrantToString(q)), std::string::npos);
  }
}

TEST(AdvisorTest, CalibrateProducesPositiveThroughputs) {
  const EnvironmentSpec env = QuadrantAdvisor::Calibrate(LabEnv());
  EXPECT_GT(env.scan_throughput, 1e6);
  EXPECT_GT(env.gain_throughput, 1e6);
}

TEST(AdvisorTest, RankIsTotalOrderOverFourQuadrants) {
  QuadrantAdvisor advisor(LabEnv());
  const auto ranking = advisor.Rank(MakeWorkload(50000, 5000, 2, 0.02));
  ASSERT_EQ(ranking.size(), 4u);
  for (size_t i = 1; i < ranking.size(); ++i) {
    if (ranking[i - 1].fits_memory == ranking[i].fits_memory) {
      EXPECT_LE(ranking[i - 1].total_seconds(), ranking[i].total_seconds());
    }
  }
}

}  // namespace
}  // namespace vero
