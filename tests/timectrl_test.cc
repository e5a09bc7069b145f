#include <gtest/gtest.h>

#include <cmath>

#include "exec/staged.h"
#include "timectrl/sample_size.h"
#include "timectrl/selectivity.h"
#include "timectrl/stopping.h"
#include "timectrl/strategy.h"
#include "workload/generators.h"

namespace tcq {
namespace {

std::unique_ptr<StagedTermEvaluator> MakeEval(const Workload& w,
                                              Fulfillment f,
                                              CostLedger* ledger) {
  auto ev = StagedTermEvaluator::Create(w.query, w.catalog, f, ledger,
                                        CostModel::Sun360());
  EXPECT_TRUE(ev.ok()) << ev.status().ToString();
  return std::move(*ev);
}

std::map<std::string, std::vector<const Block*>> FirstBlocks(
    const Catalog& catalog, const std::vector<std::string>& names,
    int64_t count) {
  std::map<std::string, std::vector<const Block*>> out;
  for (const std::string& name : names) {
    auto rel = catalog.Find(name);
    EXPECT_TRUE(rel.ok());
    std::vector<const Block*> blocks;
    for (int64_t i = 0; i < count && i < (*rel)->NumBlocks(); ++i) {
      blocks.push_back((*rel)->ViewBlock(i).raw());
    }
    out[name] = std::move(blocks);
  }
  return out;
}

TEST(ReviseSelectivitiesTest, FirstStageDefaults) {
  auto w = MakeSelectionWorkload(2000, 1);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  SelectivityOptions opts;
  auto sels = ReviseSelectivities(*ev, opts);
  // Select node is the root (id 0); scan has no entry.
  ASSERT_EQ(sels.size(), 1u);
  EXPECT_DOUBLE_EQ(sels.at(0), 1.0);
}

TEST(ReviseSelectivitiesTest, IntersectDefaultIsOneOverMax) {
  auto w = MakeIntersectionWorkload(1000, 2);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  SelectivityOptions opts;
  auto sels = ReviseSelectivities(*ev, opts);
  ASSERT_EQ(sels.size(), 1u);
  EXPECT_DOUBLE_EQ(sels.at(0), 1.0 / 10000.0);
}

TEST(ReviseSelectivitiesTest, JoinInitialOverridable) {
  auto w = MakeJoinWorkload(70000, 3);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  SelectivityOptions opts;
  opts.initial_join = 0.1;  // the paper's §5.C choice
  auto sels = ReviseSelectivities(*ev, opts);
  EXPECT_DOUBLE_EQ(sels.at(0), 0.1);
}

TEST(ReviseSelectivitiesTest, AfterStageUsesSampleRatio) {
  auto w = MakeSelectionWorkload(2000, 4);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  ASSERT_TRUE(ev->ExecuteStage(FirstBlocks(w->catalog, {"r1"}, 100)).ok());
  SelectivityOptions opts;
  auto sels = ReviseSelectivities(*ev, opts);
  const StagedNode& root = ev->root();
  EXPECT_DOUBLE_EQ(
      sels.at(0),
      static_cast<double>(root.cum_tuples) / root.cum_points);
  // ~20% of tuples qualify.
  EXPECT_NEAR(sels.at(0), 0.2, 0.1);
}

TEST(ReviseSelectivitiesTest, ZeroHitsGetPositiveBound) {
  // A selection with no qualifying tuples anywhere.
  auto w = MakeSelectionWorkload(0, 5);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  ASSERT_TRUE(ev->ExecuteStage(FirstBlocks(w->catalog, {"r1"}, 50)).ok());
  SelectivityOptions opts;
  auto sels = ReviseSelectivities(*ev, opts);
  EXPECT_GT(sels.at(0), 0.0);
  // 250 sampled points, beta 0.05: bound = 1 - 0.05^(1/250) ≈ 0.012.
  EXPECT_NEAR(sels.at(0), 1.0 - std::pow(0.05, 1.0 / 250.0), 1e-9);
}

TEST(PredictNodePointsTest, SelectNewPointsMatchFraction) {
  auto w = MakeSelectionWorkload(2000, 6);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  auto points = PredictNodePoints(*ev, 0.01);  // 20 of 2000 blocks
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points.at(0).new_points, 100.0);  // 20 blocks × 5
  EXPECT_DOUBLE_EQ(points.at(0).remaining_points, 10000.0);
}

TEST(PredictNodePointsTest, IntersectFullFulfillmentGrows) {
  auto w = MakeIntersectionWorkload(1000, 7);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  auto p1 = PredictNodePoints(*ev, 0.01);
  // Stage 1 at f=0.01: 100×100 points.
  EXPECT_DOUBLE_EQ(p1.at(0).new_points, 10000.0);
  ASSERT_TRUE(
      ev->ExecuteStage(FirstBlocks(w->catalog, {"r1", "r2"}, 20)).ok());
  // Stage 2 same fraction: (200·200 − 100·100) new points.
  auto p2 = PredictNodePoints(*ev, 0.01);
  EXPECT_DOUBLE_EQ(p2.at(0).new_points, 30000.0);
}

TEST(ComputeSelPlusTest, InflationGrowsWithDBeta) {
  auto w = MakeSelectionWorkload(2000, 8);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  ASSERT_TRUE(ev->ExecuteStage(FirstBlocks(w->catalog, {"r1"}, 100)).ok());
  SelectivityOptions opts;
  auto sel = ReviseSelectivities(*ev, opts);
  auto plus0 = ComputeSelPlus(*ev, sel, 0.05, 0.0);
  auto plus12 = ComputeSelPlus(*ev, sel, 0.05, 12.0);
  auto plus48 = ComputeSelPlus(*ev, sel, 0.05, 48.0);
  EXPECT_DOUBLE_EQ(plus0.at(0), sel.at(0));
  EXPECT_GT(plus12.at(0), plus0.at(0));
  EXPECT_GT(plus48.at(0), plus12.at(0));
  EXPECT_LE(plus48.at(0), 1.0);
}

TEST(ComputeSelPlusTest, ClampedAtOne) {
  auto w = MakeSelectionWorkload(9900, 9);
  ASSERT_TRUE(w.ok());
  auto ev = MakeEval(*w, Fulfillment::kFull, nullptr);
  ASSERT_TRUE(ev->ExecuteStage(FirstBlocks(w->catalog, {"r1"}, 10)).ok());
  SelectivityOptions opts;
  auto sel = ReviseSelectivities(*ev, opts);
  auto plus = ComputeSelPlus(*ev, sel, 0.01, 1000.0);
  EXPECT_DOUBLE_EQ(plus.at(0), 1.0);
}

// ---------------------------------------------------------------------

TEST(SampleSizeTest, TakesEverythingWhenCheap) {
  auto qcost = [](double f) -> Result<double> { return f * 1.0; };
  auto r = SampleSizeDetermine(qcost, /*time_left=*/10.0, 0.01, 0.8, 0.001);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->fraction, 0.8);
}

TEST(SampleSizeTest, ZeroWhenNothingFits) {
  auto qcost = [](double f) -> Result<double> { return 5.0 + f; };
  auto r = SampleSizeDetermine(qcost, 1.0, 0.01, 1.0, 0.001);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->fraction, 0.0);
}

TEST(SampleSizeTest, BisectsToBudget) {
  // cost = 100·f: budget 5 -> f = 0.05.
  auto qcost = [](double f) -> Result<double> { return 100.0 * f; };
  auto r = SampleSizeDetermine(qcost, 5.0, 0.001, 1.0, 1e-5);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->fraction, 0.05, 0.001);
  EXPECT_LE(r->predicted_seconds, 5.0);
}

TEST(SampleSizeTest, NeverExceedsBudget) {
  // Step-function cost (block granularity).
  auto qcost = [](double f) -> Result<double> {
    return 0.5 * std::floor(f * 100.0);
  };
  auto r = SampleSizeDetermine(qcost, 3.2, 0.01, 1.0, 0.01);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->predicted_seconds, 3.2);
  EXPECT_GT(r->fraction, 0.0);
}

TEST(SampleSizeTest, PropagatesErrors) {
  auto qcost = [](double) -> Result<double> {
    return Status::Internal("boom");
  };
  EXPECT_FALSE(SampleSizeDetermine(qcost, 1.0, 0.01, 1.0, 0.001).ok());
}

// ---------------------------------------------------------------------

StagePlanContext LinearContext(double time_left) {
  StagePlanContext ctx;
  ctx.next_stage = 0;
  ctx.time_left = time_left;
  ctx.quota = time_left;
  ctx.f_max = 1.0;
  ctx.f_min_step = 1e-4;
  ctx.epsilon = 0.001;
  // Cost grows with f and with d_beta.
  ctx.qcost = [](double f, double d_beta) -> Result<double> {
    return f * (100.0 + 10.0 * d_beta);
  };
  ctx.qcost_sigma = [](double f) -> Result<double> { return 20.0 * f; };
  return ctx;
}

TEST(StrategyTest, OneAtATimeLargerDBetaSmallerStage) {
  auto ctx = LinearContext(5.0);
  OneAtATimeStrategy s0({.d_beta = 0.0, .decay_with_time_left = false});
  OneAtATimeStrategy s48({.d_beta = 48.0, .decay_with_time_left = false});
  auto p0 = s0.PlanStage(ctx);
  auto p48 = s48.PlanStage(ctx);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p48.ok());
  EXPECT_GT(p0->fraction, p48->fraction);
  EXPECT_NEAR(p0->fraction, 0.05, 0.002);
  EXPECT_NEAR(p48->fraction, 5.0 / 580.0, 0.002);
}

TEST(StrategyTest, OneAtATimeDecaySchedule) {
  OneAtATimeStrategy s({.d_beta = 48.0, .decay_with_time_left = true});
  auto ctx = LinearContext(5.0);
  ctx.quota = 10.0;  // half the quota left -> effective d_beta 24
  auto p = s.PlanStage(ctx);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->d_beta_used, 24.0, 1e-9);
}

TEST(StrategyTest, SingleIntervalReservesSigma) {
  auto ctx = LinearContext(5.0);
  SingleIntervalStrategy s({.d_alpha = 1.0});
  auto p = s.PlanStage(ctx);
  ASSERT_TRUE(p.ok());
  // Solves 100f + 20f = 5 -> f ≈ 0.0417 < 0.05.
  EXPECT_NEAR(p->fraction, 5.0 / 120.0, 0.002);
}

TEST(StrategyTest, HeuristicSpendsGammaShare) {
  auto ctx = LinearContext(10.0);
  HeuristicStrategy s;  // γ starts at 0.5, shrinks by 0.7, grows by 1.05
  auto p = s.PlanStage(ctx);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->fraction, 0.05, 0.002);  // 100f = 5 (half of 10)
  // After an overspend the share shrinks.
  s.OnStageOutcome(5.0, 6.0, /*overspent=*/true);
  EXPECT_NEAR(s.gamma(), 0.35, 1e-9);
  s.OnStageOutcome(5.0, 4.0, /*overspent=*/false);
  EXPECT_NEAR(s.gamma(), 0.3675, 1e-9);
}

// ---------------------------------------------------------------------

TEST(PrecisionStopTest, DisabledByDefault) {
  PrecisionStop stop;
  CountEstimate e;
  e.value = 100.0;
  e.variance = 1.0;
  EXPECT_FALSE(ShouldStopForPrecision(stop, e, std::nan("")));
}

TEST(PrecisionStopTest, RelativeHalfwidth) {
  PrecisionStop stop;
  stop.rel_halfwidth = 0.1;
  CountEstimate wide;
  wide.value = 100.0;
  wide.variance = 400.0;  // sd 20 -> half-width ~39
  CountEstimate narrow;
  narrow.value = 100.0;
  narrow.variance = 4.0;  // sd 2 -> half-width ~3.9
  EXPECT_FALSE(ShouldStopForPrecision(stop, wide, std::nan("")));
  EXPECT_TRUE(ShouldStopForPrecision(stop, narrow, std::nan("")));
}

TEST(PrecisionStopTest, AbsoluteHalfwidth) {
  PrecisionStop stop;
  stop.abs_halfwidth = 10.0;
  CountEstimate e;
  e.value = 1000.0;
  e.variance = 16.0;  // half-width ~7.8
  EXPECT_TRUE(ShouldStopForPrecision(stop, e, std::nan("")));
}

TEST(PrecisionStopTest, NoImprovement) {
  PrecisionStop stop;
  stop.min_improvement = 0.01;
  CountEstimate e;
  e.value = 100.0;
  e.variance = 1e6;
  EXPECT_FALSE(ShouldStopForPrecision(stop, e, std::nan("")));
  EXPECT_TRUE(ShouldStopForPrecision(stop, e, 100.5));
  EXPECT_FALSE(ShouldStopForPrecision(stop, e, 150.0));
}

}  // namespace
}  // namespace tcq
