#include <gtest/gtest.h>

#include <cmath>

#include "cost/adaptive_model.h"
#include "cost/predictor.h"
#include "exec/staged.h"
#include "util/random.h"

namespace tcq {
namespace {

TEST(BlocksForFractionTest, RoundingAndClamping) {
  EXPECT_EQ(BlocksForFraction(0.0, 100), 0);
  EXPECT_EQ(BlocksForFraction(-0.5, 100), 0);
  EXPECT_EQ(BlocksForFraction(0.5, 100), 50);
  EXPECT_EQ(BlocksForFraction(0.004, 100), 0);
  EXPECT_EQ(BlocksForFraction(0.006, 100), 1);
  EXPECT_EQ(BlocksForFraction(1.5, 100), 100);
  EXPECT_EQ(BlocksForFraction(1.0, 2000), 2000);
}

TEST(SortCostUnitsTest, Shape) {
  EXPECT_EQ(SortCostUnits(0.0), 0.0);
  EXPECT_GT(SortCostUnits(100.0), 100.0);
  // Superlinear but subquadratic.
  EXPECT_GT(SortCostUnits(200.0), 2.0 * SortCostUnits(100.0) * 0.99);
  EXPECT_LT(SortCostUnits(200.0), 4.0 * SortCostUnits(100.0));
}

TEST(AdaptiveCostModelTest, InitialValuesScaled) {
  CostModel physical;
  AdaptiveCostModel::Options opts;
  opts.initial_scale = 2.0;
  AdaptiveCostModel m(physical, opts);
  EXPECT_DOUBLE_EQ(m.Coef(0, CostStep::kFetch), 2.0 * physical.block_read_s);
  EXPECT_DOUBLE_EQ(m.Coef(5, CostStep::kSort),
                   2.0 * physical.sort_compare_s);
}

TEST(AdaptiveCostModelTest, FirstObservationReplacesInitial) {
  CostModel physical;
  AdaptiveCostModel m(physical);
  m.Observe(3, CostStep::kMerge, 1000.0, 0.5);
  EXPECT_DOUBLE_EQ(m.Coef(3, CostStep::kMerge), 0.0005);
  // Other nodes unaffected.
  EXPECT_NE(m.Coef(4, CostStep::kMerge), 0.0005);
}

TEST(AdaptiveCostModelTest, EwmaBlendsSubsequentObservations) {
  CostModel physical;
  AdaptiveCostModel m(physical);  // EWMA weight 0.5
  m.Observe(1, CostStep::kOutput, 100.0, 1.0);   // coef = 0.01
  m.Observe(1, CostStep::kOutput, 100.0, 3.0);   // obs 0.03 -> 0.02
  EXPECT_NEAR(m.Coef(1, CostStep::kOutput), 0.02, 1e-12);
}

TEST(AdaptiveCostModelTest, NonAdaptiveIgnoresObservations) {
  CostModel physical;
  AdaptiveCostModel::Options opts;
  opts.adaptive = false;
  AdaptiveCostModel m(physical, opts);
  double before = m.Coef(0, CostStep::kMerge);
  m.Observe(0, CostStep::kMerge, 100.0, 50.0);
  EXPECT_DOUBLE_EQ(m.Coef(0, CostStep::kMerge), before);
}

TEST(AdaptiveCostModelTest, IgnoresDegenerateObservations) {
  CostModel physical;
  AdaptiveCostModel m(physical);
  double before = m.Coef(0, CostStep::kSort);
  m.Observe(0, CostStep::kSort, 0.0, 5.0);
  m.Observe(0, CostStep::kSort, -10.0, 5.0);
  m.Observe(0, CostStep::kSort, 10.0, -5.0);
  EXPECT_DOUBLE_EQ(m.Coef(0, CostStep::kSort), before);
}

// ---------------------------------------------------------------------
// Predictor integration: after one observed stage, the adaptive formulas
// should predict the realized cost of the next stage closely.

Schema KV() {
  return Schema({{"k", DataType::kInt64, 0}, {"v", DataType::kInt64, 0}});
}

RelationPtr MakeUniformRel(const std::string& name, int64_t n,
                           uint64_t seed) {
  auto rel = Relation::Create(name, KV(), /*block_bytes=*/64);
  EXPECT_TRUE(rel.ok());
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    rel->AppendUnchecked({rng.UniformInt(0, 99), i});
  }
  return std::make_shared<Relation>(std::move(*rel));
}

std::vector<const Block*> SampleBlocks(const RelationPtr& rel, Rng* rng,
                                       int64_t count,
                                       std::vector<bool>* used) {
  std::vector<const Block*> out;
  std::vector<uint32_t> available;
  for (int64_t i = 0; i < rel->NumBlocks(); ++i) {
    if (!(*used)[static_cast<size_t>(i)]) {
      available.push_back(static_cast<uint32_t>(i));
    }
  }
  auto picks = rng->SampleWithoutReplacement(
      static_cast<uint32_t>(available.size()),
      static_cast<uint32_t>(std::min<int64_t>(
          count, static_cast<int64_t>(available.size()))));
  for (uint32_t p : picks) {
    (*used)[available[p]] = true;
    out.push_back(rel->ViewBlock(available[p]).raw());
  }
  return out;
}

TEST(PredictorTest, SelectPredictionConvergesAfterOneStage) {
  Catalog catalog;
  auto rel = MakeUniformRel("R", 400, 7);  // 100 blocks of 4 tuples
  ASSERT_TRUE(catalog.Register(rel).ok());
  auto term =
      Select(Scan("R"), CmpLiteral("k", CompareOp::kLt, int64_t{30}));

  VirtualClock clock;
  CostLedger ledger(&clock);
  CostModel physical;
  auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                        &ledger, physical);
  ASSERT_TRUE(ev.ok());
  AdaptiveCostModel coefs(physical);
  Rng rng(11);
  std::vector<bool> used(static_cast<size_t>(rel->NumBlocks()), false);

  // Stage 1: 20 blocks; observe.
  double t0 = clock.Now();
  ASSERT_TRUE(
      (*ev)->ExecuteStage({{"R", SampleBlocks(rel, &rng, 20, &used)}}).ok());
  double realized1 = clock.Now() - t0;
  ASSERT_GT(realized1, 0.0);
  ObserveTermStage(**ev, &coefs);

  // Predict stage 2 at f = 0.2 (20 more blocks) using the *true* realized
  // selectivity as sel+.
  const StagedNode& root = (*ev)->root();
  double sel = static_cast<double>(root.cum_tuples) / root.cum_points;
  std::map<int, double> sel_plus{{root.id, sel}};
  auto prediction = PredictTermStageCost(**ev, 0.2, sel_plus, coefs);
  ASSERT_TRUE(prediction.ok());

  double t1 = clock.Now();
  ASSERT_TRUE(
      (*ev)->ExecuteStage({{"R", SampleBlocks(rel, &rng, 20, &used)}}).ok());
  double realized2 = clock.Now() - t1;
  // The prediction excludes block fetches (engine's job); compare to the
  // operator-side realized cost.
  double op_realized = root.stages[1].seconds;
  EXPECT_NEAR(prediction->seconds, op_realized, 0.25 * op_realized);
  EXPECT_DOUBLE_EQ(prediction->new_points, 80.0);
  (void)realized2;
}

TEST(PredictorTest, IntersectFullFulfillmentCostGrowsWithStage) {
  Catalog catalog;
  auto r1 = MakeUniformRel("R1", 400, 21);
  auto r2 = MakeUniformRel("R2", 400, 22);
  ASSERT_TRUE(catalog.Register(r1).ok());
  ASSERT_TRUE(catalog.Register(r2).ok());
  auto term = Intersect(Scan("R1"), Scan("R2"));
  CostModel physical;
  auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                        nullptr, physical);
  ASSERT_TRUE(ev.ok());
  AdaptiveCostModel coefs(physical);
  Rng rng(31);
  std::vector<bool> used1(static_cast<size_t>(r1->NumBlocks()), false);
  std::vector<bool> used2(static_cast<size_t>(r2->NumBlocks()), false);

  const StagedNode& root = (*ev)->root();
  std::map<int, double> sel_plus{{root.id, 1e-4}};
  auto p0 = PredictTermStageCost(**ev, 0.1, sel_plus, coefs);
  ASSERT_TRUE(p0.ok());

  ASSERT_TRUE(
      (*ev)
          ->ExecuteStage({{"R1", SampleBlocks(r1, &rng, 10, &used1)},
                          {"R2", SampleBlocks(r2, &rng, 10, &used2)}})
          .ok());
  ObserveTermStage(**ev, &coefs);
  // At stage 2 the same fraction must cost more: full fulfillment merges
  // the new runs against all previous runs.
  auto p1 = PredictTermStageCost(**ev, 0.1, sel_plus, coefs);
  ASSERT_TRUE(p1.ok());
  EXPECT_GT(p1->new_points, p0->new_points);

  // And the predicted operator cost at stage 2 should approximate the
  // realized one.
  ASSERT_TRUE(
      (*ev)
          ->ExecuteStage({{"R1", SampleBlocks(r1, &rng, 10, &used1)},
                          {"R2", SampleBlocks(r2, &rng, 10, &used2)}})
          .ok());
  double realized = root.stages[1].seconds;
  EXPECT_NEAR(p1->seconds, realized, 0.35 * realized);
}

TEST(PredictorTest, MissingSelPlusIsError) {
  Catalog catalog;
  auto rel = MakeUniformRel("R", 100, 5);
  ASSERT_TRUE(catalog.Register(rel).ok());
  auto term = Select(Scan("R"), CmpLiteral("k", CompareOp::kLt, int64_t{3}));
  CostModel physical;
  auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                        nullptr, physical);
  ASSERT_TRUE(ev.ok());
  AdaptiveCostModel coefs(physical);
  auto p = PredictTermStageCost(**ev, 0.1, {}, coefs);
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(PredictorTest, ScanFractionCappedByRemainingBlocks) {
  Catalog catalog;
  auto rel = MakeUniformRel("R", 40, 5);  // 10 blocks
  ASSERT_TRUE(catalog.Register(rel).ok());
  auto term = Select(Scan("R"), CmpLiteral("k", CompareOp::kLt, int64_t{50}));
  CostModel physical;
  auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                        nullptr, physical);
  ASSERT_TRUE(ev.ok());
  // Sample 8 of 10 blocks first.
  std::vector<const Block*> blocks;
  for (int64_t i = 0; i < 8; ++i) blocks.push_back(rel->ViewBlock(i).raw());
  ASSERT_TRUE((*ev)->ExecuteStage({{"R", blocks}}).ok());
  AdaptiveCostModel coefs(physical);
  const StagedNode& root = (*ev)->root();
  std::map<int, double> sel_plus{{root.id, 0.5}};
  // Asking for f = 0.5 (5 blocks) can only deliver the 2 remaining.
  auto p = PredictTermStageCost(**ev, 0.5, sel_plus, coefs);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->new_points, 8.0);  // 2 blocks × 4 tuples
}

}  // namespace
}  // namespace tcq
