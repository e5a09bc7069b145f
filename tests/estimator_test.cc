#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "estimator/combined.h"
#include "estimator/count_estimator.h"
#include "estimator/goodman.h"
#include "util/random.h"
#include "util/stats.h"

namespace tcq {
namespace {

TEST(ClusterEstimateTest, BasicRatio) {
  // B=100 space blocks, 10 covered, 7 hits -> 70.
  auto e = ClusterCountEstimate(100.0, 10.0, 7, 50.0, 500.0);
  EXPECT_DOUBLE_EQ(e.value, 70.0);
  EXPECT_GT(e.variance, 0.0);
}

TEST(ClusterEstimateTest, FullCoverageZeroVariance) {
  auto e = ClusterCountEstimate(100.0, 100.0, 42, 500.0, 500.0);
  EXPECT_DOUBLE_EQ(e.value, 42.0);
  EXPECT_DOUBLE_EQ(e.variance, 0.0);
}

TEST(ClusterEstimateTest, EmptySampleSafe) {
  auto e = ClusterCountEstimate(100.0, 0.0, 0, 0.0, 500.0);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
  EXPECT_DOUBLE_EQ(e.variance, 0.0);
}

TEST(SrsEstimateTest, MatchesDefinition) {
  // û = N·y/m = 1000·(3/10).
  auto e = SrsCountEstimate(1000.0, 10.0, 3);
  EXPECT_DOUBLE_EQ(e.value, 300.0);
  double sel = 0.3;
  double expected_var =
      1000.0 * 1000.0 * sel * (1 - sel) * (1000.0 - 10.0) / (10.0 * 999.0);
  EXPECT_NEAR(e.variance, expected_var, 1e-9);
}

TEST(EstimatorTest, ZeroHitIntervalNotDegenerate) {
  // Zero observed hits must not yield a zero-width interval: the upper
  // end reflects the rule-of-three bound 1 − 0.05^(1/m).
  auto e = ClusterCountEstimate(2000.0, 100.0, 0, 500.0, 10000.0);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
  EXPECT_GT(e.variance, 0.0);
  auto ci = NormalConfidenceInterval(e, 0.95);
  double bound = 10000.0 * (1.0 - std::pow(0.05, 1.0 / 500.0));
  EXPECT_NEAR(ci.hi, bound, 1.0);
  auto srs = SrsCountEstimate(10000.0, 500.0, 0);
  EXPECT_GT(srs.variance, 0.0);
}

TEST(SrsEstimateTest, VarianceShrinksWithSample) {
  auto small = SrsCountEstimate(1000.0, 10.0, 3);
  auto big = SrsCountEstimate(1000.0, 100.0, 30);
  EXPECT_GT(small.variance, big.variance);
}

TEST(ConfidenceIntervalTest, WidthMatchesQuantile) {
  CountEstimate e;
  e.value = 100.0;
  e.variance = 25.0;  // sd 5
  auto ci = NormalConfidenceInterval(e, 0.95);
  EXPECT_NEAR(ci.lo, 100.0 - 1.96 * 5.0, 0.01);
  EXPECT_NEAR(ci.hi, 100.0 + 1.96 * 5.0, 0.01);
  EXPECT_NEAR(ci.HalfWidth(), 1.96 * 5.0, 0.01);
}

TEST(ConfidenceIntervalTest, HigherLevelWider) {
  CountEstimate e;
  e.value = 0.0;
  e.variance = 1.0;
  EXPECT_GT(NormalConfidenceInterval(e, 0.99).HalfWidth(),
            NormalConfidenceInterval(e, 0.90).HalfWidth());
}

TEST(GoodmanTest, FullCensusReturnsDistinct) {
  // N = n = 6, three classes.
  EXPECT_DOUBLE_EQ(GoodmanEstimate(6.0, {3, 2, 1}), 3.0);
}

TEST(GoodmanTest, HandWorkedSmallCase) {
  // Population {a,a,b} (N=3), sample n=2.
  // Sample {a,b}: d=2, f1=2 -> 2 + C(1,1)/C(2,1)*2 = 3.
  EXPECT_NEAR(GoodmanEstimate(3.0, {1, 1}), 3.0, 1e-9);
  // Sample {a,a}: d=1, f2=1 -> 1 − C(2,2)/C(2,2) = 0, out of [d,N] ->
  // falls back to Chao1 = d = 1.
  EXPECT_NEAR(GoodmanEstimate(3.0, {2}), 1.0, 1e-9);
}

TEST(GoodmanTest, UnbiasedOverAllSamples) {
  // Exhaustive check of unbiasedness on a small population where the
  // condition (n > max multiplicity) holds: population of N=6 units with
  // classes sizes {2,2,1,1} (D=4), samples of size n=3.
  // Enumerate all C(6,3)=20 samples.
  std::vector<int> pop{0, 0, 1, 1, 2, 3};
  const double N = 6.0;
  double sum = 0.0;
  int count = 0;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      for (int c = b + 1; c < 6; ++c) {
        std::map<int, int64_t> occ;
        ++occ[pop[a]];
        ++occ[pop[b]];
        ++occ[pop[c]];
        std::vector<int64_t> occupancies;
        for (auto& [cls, n] : occ) occupancies.push_back(n);
        sum += GoodmanRawEstimate(N, occupancies);
        ++count;
      }
    }
  }
  EXPECT_EQ(count, 20);
  // The raw estimator is exactly unbiased: mean over all equally likely
  // samples equals the true D = 4.
  EXPECT_NEAR(sum / count, 4.0, 1e-9);
}

TEST(GoodmanTest, GuardedVersionStaysInRange) {
  // Same enumeration: every guarded estimate lies in [d, N].
  std::vector<int> pop{0, 0, 1, 1, 2, 3};
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      for (int c = b + 1; c < 6; ++c) {
        std::map<int, int64_t> occ;
        ++occ[pop[a]];
        ++occ[pop[b]];
        ++occ[pop[c]];
        std::vector<int64_t> occupancies;
        for (auto& [cls, n] : occ) occupancies.push_back(n);
        double est = GoodmanEstimate(6.0, occupancies);
        EXPECT_GE(est, static_cast<double>(occupancies.size()));
        EXPECT_LE(est, 6.0);
      }
    }
  }
}

TEST(GoodmanTest, LargePopulationSmallSampleFallsBack) {
  // Tiny sampling fraction: raw Goodman explodes; the guard must yield a
  // finite value in [d, N].
  std::vector<int64_t> occ{1, 1, 1, 2, 5};
  double est = GoodmanEstimate(1e6, occ);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 5.0);
  EXPECT_LE(est, 1e6);
}

TEST(Chao1Test, KnownValues) {
  // d=4, f1=2, f2=1 -> 4 + 4/2 = 6.
  EXPECT_DOUBLE_EQ(Chao1Estimate(100.0, {1, 1, 2, 3}), 6.0);
  // f2=0: d + f1(f1-1)/2 = 3 + 1 = 4.
  EXPECT_DOUBLE_EQ(Chao1Estimate(100.0, {1, 1, 3}), 4.0);
  // Clamped to N.
  EXPECT_DOUBLE_EQ(Chao1Estimate(3.0, {1, 1, 1}), 3.0);
}

TEST(CombineTest, SignedSum) {
  CountEstimate a;
  a.value = 100.0;
  a.variance = 16.0;
  CountEstimate b;
  b.value = 30.0;
  b.variance = 9.0;
  auto combined = CombineSignedEstimates({1, -1}, {a, b});
  EXPECT_DOUBLE_EQ(combined.value, 70.0);
  // Independent sum: 16 + 9 = 25.
  EXPECT_DOUBLE_EQ(combined.variance, 25.0);
}

TEST(CombineTest, SingleTermPassThrough) {
  CountEstimate a;
  a.value = 5.0;
  a.variance = 2.0;
  auto combined = CombineSignedEstimates({1}, {a});
  EXPECT_DOUBLE_EQ(combined.value, 5.0);
  EXPECT_NEAR(combined.variance, 2.0, 1e-12);
}

TEST(CombineTest, VarianceBoundDominatesIndependentSum) {
  CountEstimate a;
  a.variance = 4.0;
  CountEstimate b;
  b.variance = 9.0;
  auto combined = CombineSignedEstimates({1, 1}, {a, b});
  EXPECT_DOUBLE_EQ(combined.variance, 13.0);  // 4 + 9
  // The Cauchy-Schwarz bound (sum |a_i| sigma_i)^2 holds whatever the
  // correlations: (2 + 3)^2 = 25, always dominating the independent sum.
  const double sigma_sum = std::sqrt(a.variance) + std::sqrt(b.variance);
  const double bound = sigma_sum * sigma_sum;
  EXPECT_DOUBLE_EQ(bound, 25.0);
  EXPECT_GE(bound, combined.variance);
}

// Monte-Carlo calibration of the combination rule: for independent
// per-term estimators X_i ~ N(mu_i, sigma_i^2) combined as X1 - X2 + X3,
// the independent sum must match the empirical variance of the combined
// estimator. 1000 seeds, each combining fresh draws.
TEST(CombineTest, MonteCarloVarianceCalibration) {
  const std::vector<int> signs{1, -1, 1};
  const double mu[3] = {500.0, 120.0, 60.0};
  const double var[3] = {400.0, 150.0, 90.0};
  RunningStat combined_values;
  double mean_independent = 0.0;
  const int kSeeds = 1000;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(9000 + static_cast<uint64_t>(seed));
    std::vector<CountEstimate> terms(3);
    for (int i = 0; i < 3; ++i) {
      terms[i].value = mu[i] + std::sqrt(var[i]) * rng.Gaussian();
      terms[i].variance = var[i];
    }
    auto independent = CombineSignedEstimates(signs, terms);
    combined_values.Add(independent.value);
    mean_independent += independent.variance / kSeeds;
  }
  const double empirical = combined_values.variance();
  const double true_var = var[0] + var[1] + var[2];  // 640
  // The independent sum is calibrated: within Monte-Carlo noise of the
  // empirical variance of the combined estimator.
  // Exact up to summation rounding: each per-seed reported variance is
  // exactly Σaᵢ²σᵢ² because the term variances are seed-independent.
  EXPECT_NEAR(mean_independent, true_var, 1e-9 * true_var);
  EXPECT_NEAR(empirical, mean_independent, 0.15 * true_var);
}

/// Property: SRS estimator is unbiased and its variance formula matches
/// the empirical spread, on a synthetic 0/1 population.
class SrsCalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(SrsCalibrationTest, EmpiricalMomentsMatch) {
  const double selectivity = GetParam();
  const int N = 2000;
  const int m = 100;
  std::vector<int> population(N, 0);
  int ones = static_cast<int>(selectivity * N);
  for (int i = 0; i < ones; ++i) population[i] = 1;
  Rng rng(4242 + static_cast<uint64_t>(selectivity * 1000));
  const int reps = 3000;
  RunningStat stats;
  for (int rep = 0; rep < reps; ++rep) {
    auto idx = rng.SampleWithoutReplacement(N, m);
    int64_t y = 0;
    for (uint32_t i : idx) y += population[i];
    stats.Add(SrsCountEstimate(N, m, y).value);
  }
  double true_count = static_cast<double>(ones);
  double theory_var = N * static_cast<double>(N) * selectivity *
                      (1 - selectivity) * (N - m) / (m * (N - 1.0));
  EXPECT_NEAR(stats.mean(), true_count, 0.05 * N);
  EXPECT_NEAR(stats.variance(), theory_var, 0.15 * theory_var + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, SrsCalibrationTest,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8));

}  // namespace
}  // namespace tcq
