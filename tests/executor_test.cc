#include "engine/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "exec/exact.h"
#include "workload/generators.h"

namespace tcq {
namespace {

// Quota is unified into ExecutorOptions::quota_s (the pre-unification
// overloads are gone); set it via this copy-and-set helper.
ExecutorOptions WithQuota(ExecutorOptions options, double quota_s) {
  options.quota_s = quota_s;
  return options;
}


ExecutorOptions DefaultOptions(double d_beta = 12.0) {
  ExecutorOptions options;
  options.strategy.one_at_a_time.d_beta = d_beta;
  return options;
}

TEST(ExecutorTest, GenerousQuotaSamplesEverythingExactly) {
  // With a quota large enough to scan the whole relation, the estimator
  // covers the full point space and returns the exact count.
  auto w = MakeSelectionWorkload(2000, 101);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(), 100000.0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->estimate, 2000.0);
  EXPECT_NE(r->stop_reason, StopReason::kStageOverran);
  EXPECT_EQ(r->blocks_sampled, 2000);
  EXPECT_GT(r->stages_counted, 0);
}

TEST(ExecutorTest, TightQuotaStaysReasonablyAccurate) {
  auto w = MakeSelectionWorkload(2000, 102);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(), 10.0));
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->stages_counted, 0);
  EXPECT_GT(r->blocks_sampled, 0);
  EXPECT_LT(r->blocks_sampled, 2000);
  // Sampling error at ~50+ blocks should be well within 50%.
  EXPECT_NEAR(r->estimate, 2000.0, 1000.0);
  EXPECT_GT(r->utilization, 0.2);
}

TEST(ExecutorTest, DeterministicForSameSeed) {
  auto w = MakeSelectionWorkload(2000, 103);
  ASSERT_TRUE(w.ok());
  auto opts = DefaultOptions();
  opts.seed = 77;
  auto a = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  auto b = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
  EXPECT_EQ(a->blocks_sampled, b->blocks_sampled);
  EXPECT_EQ(a->stages_run, b->stages_run);
  EXPECT_DOUBLE_EQ(a->elapsed_seconds, b->elapsed_seconds);
}

TEST(ExecutorTest, DifferentSeedsDiffer) {
  auto w = MakeSelectionWorkload(2000, 104);
  ASSERT_TRUE(w.ok());
  // Individual estimates can collide (same hits/blocks ratio), so check
  // that a handful of seeds does not produce a single repeated outcome.
  std::set<std::pair<double, double>> outcomes;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto opts = DefaultOptions();
    opts.seed = seed;
    auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
    ASSERT_TRUE(r.ok());
    outcomes.insert({r->estimate, r->elapsed_seconds});
  }
  EXPECT_GT(outcomes.size(), 1u);
}

TEST(ExecutorTest, HardDeadlineDiscardsAbortedStage) {
  auto w = MakeSelectionWorkload(2000, 105);
  ASSERT_TRUE(w.ok());
  // dβ = 0 gives ~50% overspend probability; scan seeds until a run
  // overspends, then verify the hard-deadline bookkeeping.
  bool found = false;
  for (uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    auto opts = DefaultOptions(/*d_beta=*/0.0);
    opts.seed = seed;
    opts.deadline_mode = DeadlineMode::kHard;
    auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
    ASSERT_TRUE(r.ok());
    if (r->stop_reason != StopReason::kStageOverran) continue;
    found = true;
    EXPECT_GT(r->overspend_seconds, 0.0);
    EXPECT_GT(r->elapsed_seconds, 10.0);
    EXPECT_EQ(r->stages_counted, r->stages_run - 1);
    // The returned estimate must match the last within-quota stage.
    if (r->stages_counted > 0) {
      EXPECT_DOUBLE_EQ(
          r->estimate,
          r->stages()[static_cast<size_t>(r->stages_counted - 1)]
              .estimate_after);
    } else {
      EXPECT_DOUBLE_EQ(r->estimate, 0.0);
    }
  }
  EXPECT_TRUE(found) << "no overspending run found at d_beta = 0";
}

TEST(ExecutorTest, SoftDeadlineCountsFinalStage) {
  auto w = MakeSelectionWorkload(2000, 106);
  ASSERT_TRUE(w.ok());
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto opts = DefaultOptions(/*d_beta=*/0.0);
    opts.seed = seed;
    opts.deadline_mode = DeadlineMode::kSoft;
    auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
    ASSERT_TRUE(r.ok());
    if (r->stop_reason != StopReason::kStageOverran) continue;
    EXPECT_EQ(r->stages_counted, r->stages_run);
    EXPECT_DOUBLE_EQ(r->estimate, r->stages().back().estimate_after);
    return;
  }
  FAIL() << "no overspending run found";
}

TEST(ExecutorTest, IntersectionQueryEndToEnd) {
  auto w = MakeIntersectionWorkload(5000, 107);
  ASSERT_TRUE(w.ok());
  auto opts = DefaultOptions(12.0);
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->stages_counted, 0);
  // Intersection estimates are noisy at small samples; sanity band only.
  EXPECT_GT(r->estimate, 0.0);
  EXPECT_LT(r->estimate, 50000.0);
}

TEST(ExecutorTest, JoinQueryEndToEnd) {
  auto w = MakeJoinWorkload(70000, 108);
  ASSERT_TRUE(w.ok());
  auto opts = DefaultOptions(12.0);
  opts.selectivity.initial_join = 0.1;  // paper §5.C
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 2.5));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->stages_run, 1);
}

TEST(ExecutorTest, BareScanCountIsExactWithoutSampling) {
  // COUNT(r1) is known from the catalog: no stages, no sampling, zero
  // variance.
  auto w = MakeSelectionWorkload(2000, 120);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(Scan("r1"), w->catalog, WithQuota(DefaultOptions(), 0.001));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 10000.0);
  EXPECT_DOUBLE_EQ(r->variance, 0.0);
  EXPECT_EQ(r->stages_run, 0);
  EXPECT_EQ(r->blocks_sampled, 0);
}

TEST(ExecutorTest, UnionUsesConstantScanTerms) {
  // COUNT(r1 ∪ r2) = |r1| + |r2| − COUNT(r1 ∩ r2): the scan terms are
  // free, so the estimate is 20,000 minus the sampled intersect estimate
  // and can never stray below 10,000.
  auto w = MakeIntersectionWorkload(5000, 121);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(Union(Scan("r1"), Scan("r2")), w->catalog, WithQuota(DefaultOptions(), 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->estimate, 10000.0);
  EXPECT_LE(r->estimate, 20000.0);
}

TEST(ExecutorTest, UnionQueryViaInclusionExclusion) {
  auto w = MakeIntersectionWorkload(5000, 109);
  ASSERT_TRUE(w.ok());
  auto query = Union(Scan("r1"), Scan("r2"));
  auto exact = ExactCount(query, w->catalog);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 15000);
  // Generous quota: all three terms fully sampled -> exact.
  auto r = RunTimeConstrainedCount(query, w->catalog, WithQuota(DefaultOptions(), 100000.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 15000.0);
}

TEST(ExecutorTest, DifferenceQuery) {
  auto w = MakeIntersectionWorkload(4000, 110);
  ASSERT_TRUE(w.ok());
  auto query = Difference(Scan("r1"), Scan("r2"));
  auto r = RunTimeConstrainedCount(query, w->catalog, WithQuota(DefaultOptions(), 100000.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 6000.0);
}

TEST(ExecutorTest, ZeroMatchQueryDoesNotBlowUp) {
  auto w = MakeSelectionWorkload(0, 111);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(12.0), 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->estimate, 0.0);
  EXPECT_GT(r->stages_counted, 0);
}

TEST(ExecutorTest, PrecisionStopEndsEarly) {
  auto w = MakeSelectionWorkload(5000, 112);
  ASSERT_TRUE(w.ok());
  auto opts = DefaultOptions(12.0);
  opts.precision.rel_halfwidth = 0.5;  // very loose: met quickly
  opts.precision.confidence = 0.95;
  // A quota under the full-scan cost, so stage 1 is a partial sample and
  // the precision criterion (not exhaustion) is what stops the run.
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 30.0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stop_reason, StopReason::kPrecisionMet);
  EXPECT_LT(r->blocks_sampled, 2000);
}

TEST(ExecutorTest, ProjectionQuery) {
  // COUNT(DISTINCT key%) via projection: relation with 100 distinct keys.
  Catalog catalog;
  auto rel = MakeUniformRelation("u", 10000, 100, 7);
  ASSERT_TRUE(catalog.Register(rel).ok());
  auto query = Project(Scan("u"), {"key"});
  auto exact = ExactCount(query, catalog);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 100);
  auto r = RunTimeConstrainedCount(query, catalog, WithQuota(DefaultOptions(), 100000.0));
  ASSERT_TRUE(r.ok());
  // Full coverage: all keys observed.
  EXPECT_NEAR(r->estimate, 100.0, 1.0);
}

TEST(ExecutorTest, RejectsNonPositiveQuota) {
  auto w = MakeSelectionWorkload(2000, 113);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(
      RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(), 0.0))
          .ok());
}

TEST(ExecutorTest, StageReportsAreConsistent) {
  auto w = MakeSelectionWorkload(2000, 114);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(24.0), 10.0));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(static_cast<int>(r->stages().size()), r->stages_run);
  double time_left = 10.0;
  for (const StageReport& t : r->stages()) {
    EXPECT_NEAR(t.time_left_before, time_left, 1e-9);
    EXPECT_GT(t.planned_fraction, 0.0);
    EXPECT_GT(t.blocks_drawn, 0);
    EXPECT_GT(t.actual_seconds, 0.0);
    time_left -= t.actual_seconds;
  }
}

TEST(ExecutorTest, PredictionsAreHonoredWithinQuota) {
  // With a positive d_beta, the predicted stage cost should not exceed
  // the time left, and most stages should complete within it.
  auto w = MakeSelectionWorkload(2000, 115);
  ASSERT_TRUE(w.ok());
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(DefaultOptions(48.0), 10.0));
  ASSERT_TRUE(r.ok());
  for (const StageReport& t : r->stages()) {
    EXPECT_LE(t.predicted_seconds, t.time_left_before + 1e-9);
  }
}

TEST(ExecutorTest, SingleIntervalStrategyRuns) {
  auto w = MakeSelectionWorkload(2000, 116);
  ASSERT_TRUE(w.ok());
  ExecutorOptions opts;
  opts.strategy.kind = StrategyConfig::Kind::kSingleInterval;
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stages_counted, 0);
  EXPECT_NEAR(r->estimate, 2000.0, 1200.0);
}

TEST(ExecutorTest, HeuristicStrategyRuns) {
  auto w = MakeSelectionWorkload(2000, 117);
  ASSERT_TRUE(w.ok());
  ExecutorOptions opts;
  opts.strategy.kind = StrategyConfig::Kind::kHeuristic;
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stages_counted, 1);  // spends ~half the budget per stage
  EXPECT_NEAR(r->estimate, 2000.0, 1200.0);
}

TEST(ExecutorTest, HybridFinalPartialStagesUseResidualTime) {
  // The paper's §5.C join at large d_β cannot afford another full stage;
  // with final_partial_stages the residual time funds cheap partial
  // stages instead of being wasted.
  auto w = MakeJoinWorkload(70000, 130);
  ASSERT_TRUE(w.ok());
  auto base = DefaultOptions(48.0);
  base.selectivity.initial_join = 0.1;
  int64_t blocks_plain = 0, blocks_hybrid = 0;
  double util_plain = 0.0, util_hybrid = 0.0;
  const int reps = 20;
  for (int rep = 0; rep < reps; ++rep) {
    auto opts = base;
    opts.seed = 500 + static_cast<uint64_t>(rep);
    auto plain = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 2.5));
    opts.final_partial_stages = true;
    auto hybrid = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 2.5));
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(hybrid.ok());
    blocks_plain += plain->blocks_sampled;
    blocks_hybrid += hybrid->blocks_sampled;
    util_plain += plain->utilization;
    util_hybrid += hybrid->utilization;
  }
  EXPECT_GT(blocks_hybrid, blocks_plain);
  EXPECT_GT(util_hybrid, util_plain);
}

TEST(ExecutorTest, PartialFulfillmentRuns) {
  auto w = MakeIntersectionWorkload(5000, 118);
  ASSERT_TRUE(w.ok());
  auto opts = DefaultOptions(12.0);
  opts.fulfillment = Fulfillment::kPartial;
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(opts, 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stages_counted, 0);
}

}  // namespace
}  // namespace tcq
