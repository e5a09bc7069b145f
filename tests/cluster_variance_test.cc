#include "estimator/cluster_variance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ra/predicate.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace tcq {
namespace {

TEST(ClusterVarianceTest, ZeroForConstantBlocks) {
  // Every block has the same hit count -> no between-block variance.
  EXPECT_DOUBLE_EQ(ClusterVarianceEstimate(100.0, {3, 3, 3, 3}), 0.0);
}

TEST(ClusterVarianceTest, ZeroForDegenerateSamples) {
  EXPECT_DOUBLE_EQ(ClusterVarianceEstimate(100.0, {}), 0.0);
  EXPECT_DOUBLE_EQ(ClusterVarianceEstimate(100.0, {5}), 0.0);
}

TEST(ClusterVarianceTest, MatchesHandComputation) {
  // B=10, b=4, y = {0, 2, 4, 6}: ȳ=3, s² = (9+1+1+9)/3 = 20/3.
  // Var = 100 · (1 − 0.4) · (20/3) / 4 = 100.
  EXPECT_NEAR(ClusterVarianceEstimate(10.0, {0, 2, 4, 6}), 100.0, 1e-9);
}

TEST(ClusterVarianceTest, FpcZeroWhenCensus) {
  EXPECT_DOUBLE_EQ(ClusterVarianceEstimate(4.0, {0, 2, 4, 6}), 0.0);
}

TEST(SrsApproxTest, MatchesCountEstimatorFormula) {
  double v = SrsApproxVarianceEstimate(10000.0, 500.0, 100);
  double sel = 0.2;
  double expected = 1e8 * sel * (1 - sel) * (10000.0 - 500.0) /
                    (500.0 * 9999.0);
  EXPECT_NEAR(v, expected, 1e-6);
}

TEST(DesignEffectTest, NearOneForUniformData) {
  auto w = MakeSelectionWorkload(2000, 5);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  auto pred =
      BoundPredicate::Bind(w->query->predicate, (*rel)->schema());
  ASSERT_TRUE(pred.ok());
  Rng rng(3);
  RunningStat deff;
  for (int rep = 0; rep < 100; ++rep) {
    auto idx = rng.SampleWithoutReplacement(2000, 100);
    std::vector<int64_t> hits;
    int64_t points = 0;
    for (uint32_t i : idx) {
      int64_t y = 0;
      for (Row t : (*rel)->ViewBlock(i).rows()) {
        if (pred->Eval(t)) ++y;
      }
      hits.push_back(y);
      points += 5;
    }
    deff.Add(DesignEffect(2000.0, 10000.0, static_cast<double>(points),
                          hits));
  }
  EXPECT_NEAR(deff.mean(), 1.0, 0.15);
}

TEST(DesignEffectTest, GrowsWithClustering) {
  Rng rng(7);
  RunningStat deff_uniform, deff_clustered;
  for (int variant = 0; variant < 2; ++variant) {
    double clustering = variant == 0 ? 0.0 : 0.9;
    auto w = MakeSelectionWorkload(2000, 11, kPaperTuples,
                                   kPaperTupleBytes, clustering);
    ASSERT_TRUE(w.ok());
    auto rel = w->catalog.Find("r1");
    auto pred =
        BoundPredicate::Bind(w->query->predicate, (*rel)->schema());
    ASSERT_TRUE(pred.ok());
    RunningStat& out = variant == 0 ? deff_uniform : deff_clustered;
    for (int rep = 0; rep < 100; ++rep) {
      auto idx = rng.SampleWithoutReplacement(2000, 100);
      std::vector<int64_t> hits;
      int64_t points = 0;
      for (uint32_t i : idx) {
        int64_t y = 0;
        for (Row t : (*rel)->ViewBlock(i).rows()) {
          if (pred->Eval(t)) ++y;
        }
        hits.push_back(y);
        points += 5;
      }
      out.Add(DesignEffect(2000.0, 10000.0, static_cast<double>(points),
                           hits));
    }
  }
  EXPECT_GT(deff_clustered.mean(), 2.5 * deff_uniform.mean());
}

TEST(ClusterVarianceTest, TracksEmpiricalSpreadUnderClustering) {
  // The A8 ablation as a regression test: on clustered data the exact
  // cluster estimate stays within a factor of the empirical variance
  // while the SRS approximation falls far below it.
  auto w = MakeSelectionWorkload(2000, 13, kPaperTuples, kPaperTupleBytes,
                                 0.9);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  auto pred =
      BoundPredicate::Bind(w->query->predicate, (*rel)->schema());
  ASSERT_TRUE(pred.ok());
  Rng rng(17);
  RunningStat estimates, cluster_mean, srs_mean;
  for (int rep = 0; rep < 300; ++rep) {
    auto idx = rng.SampleWithoutReplacement(2000, 100);
    std::vector<int64_t> hits;
    int64_t total_hits = 0;
    for (uint32_t i : idx) {
      int64_t y = 0;
      for (Row t : (*rel)->ViewBlock(i).rows()) {
        if (pred->Eval(t)) ++y;
      }
      hits.push_back(y);
      total_hits += y;
    }
    estimates.Add(2000.0 * static_cast<double>(total_hits) / 100.0);
    cluster_mean.Add(ClusterVarianceEstimate(2000.0, hits));
    srs_mean.Add(SrsApproxVarianceEstimate(10000.0, 500.0, total_hits));
  }
  double empirical = estimates.variance();
  EXPECT_GT(cluster_mean.mean(), 0.5 * empirical);
  EXPECT_LT(cluster_mean.mean(), 1.5 * empirical);
  EXPECT_LT(srs_mean.mean(), 0.4 * empirical);
}

}  // namespace
}  // namespace tcq
