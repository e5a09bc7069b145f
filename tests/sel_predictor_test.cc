// Hybrid stage-0 selectivity predictor (DESIGN.md §12): chooser
// convergence on a drifting query stream, predictor-off bit-identity
// across thread counts under warm start and fault injection, and the
// sel⁺ edge-case fixes that rode along (zero-prior sanitizing, the
// exhausted-side m = 0 guard, the intersect stage-1 fallback).

#include "cost/sel_predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "api/tcq.h"
#include "cache/signature.h"
#include "cache/warm_start.h"
#include "engine/executor.h"
#include "exec/staged.h"
#include "ra/expr.h"
#include "ra/predicate.h"
#include "sim/ledger.h"
#include "timectrl/selectivity.h"
#include "util/stats.h"
#include "workload/generators.h"

namespace tcq {
namespace {

ExprPtr KeyBelow(int64_t bound) {
  return Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, bound));
}

// ---------------------------------------------------------------------
// Options and structural signatures.

TEST(SelPredictorOptionsTest, ValidateRejectsNonsense) {
  SelPredictorOptions good;
  EXPECT_TRUE(good.Validate().ok());

  SelPredictorOptions bad = good;
  bad.max_ngram = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.table_size = 1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.error_alpha = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.width_scale_min = 0.8;
  bad.width_scale_max = 0.5;  // min > max
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(SelPredictorTest, StructuralSignatureStripsPredicates) {
  ExprPtr a = KeyBelow(100);
  ExprPtr b = KeyBelow(7000);
  EXPECT_EQ(StructuralSignature(*a), StructuralSignature(*b));
  // Canonical signatures, in contrast, must differ (different constants).
  EXPECT_FALSE(CanonicalSignature(*a) == CanonicalSignature(*b));
  // Different shape or relation set changes the structural key.
  ExprPtr c = Intersect(Scan("r1"), Scan("r2"));
  EXPECT_NE(StructuralSignature(*a), StructuralSignature(*c));
  // Commutative children order-insensitively.
  ExprPtr d = Intersect(Scan("r2"), Scan("r1"));
  EXPECT_EQ(StructuralSignature(*c), StructuralSignature(*d));
}

// ---------------------------------------------------------------------
// Chooser convergence on a drifting stream.

// Two regimes A/B alternate per epoch. Each epoch starts with a
// regime-specific marker query, then the shared main query runs. The
// exact-signature prior is always one regime stale; the 2-gram history
// context (marker, main) is regime-specific, so after one full A/B cycle
// the history component predicts the main query's new-regime selectivity
// at the epoch boundary and the chooser should learn to prefer it.
TEST(SelPredictorTest, ChooserConvergesOnDriftingStream) {
  SelPredictorOptions options;
  options.enabled = true;
  SelPredictor predictor(options);

  const ExprPtr marker_a = KeyBelow(100);
  const ExprPtr marker_b = KeyBelow(200);
  const ExprPtr main_q = KeyBelow(150);
  const std::string structural = StructuralSignature(*main_q);
  const double sel_a = 0.1;
  const double sel_b = 0.5;

  std::optional<double> prior;  // simulated warm-start prior (stale)
  SelPrediction last_epoch_start;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const bool regime_a = (epoch % 2) == 0;
    const double realized = regime_a ? sel_a : sel_b;
    const ExprPtr& marker = regime_a ? marker_a : marker_b;

    // Marker run: one stage.
    predictor.BeginQuery(CanonicalSignature(*marker));
    (void)predictor.Predict(CanonicalSignature(*marker),
                            StructuralSignature(*marker), std::nullopt,
                            std::nullopt, 1.0);
    predictor.Update(CanonicalSignature(*marker),
                     StructuralSignature(*marker), realized);

    // Main run: three stages; stage 0 has no observation yet.
    predictor.BeginQuery(CanonicalSignature(*main_q));
    last_epoch_start =
        predictor.Predict(CanonicalSignature(*main_q), structural,
                          std::nullopt, prior, 1.0);
    predictor.Update(CanonicalSignature(*main_q), structural, realized);
    for (int stage = 1; stage < 3; ++stage) {
      (void)predictor.Predict(CanonicalSignature(*main_q), structural,
                              realized, prior, 1.0);
      predictor.Update(CanonicalSignature(*main_q), structural, realized);
    }
    prior = realized;  // RecordPrior at end of run: stale next epoch
  }

  // Final epoch is regime B (epoch 7): the stale prior says 0.1, the
  // history context (marker_b, main) says 0.5.
  EXPECT_EQ(last_epoch_start.component, SelComponent::kHistory);
  EXPECT_TRUE(last_epoch_start.history_hit);
  EXPECT_NEAR(last_epoch_start.selectivity, sel_b, 0.05);
  // Confidence has accrued, so the inflation width dropped below the
  // cold maximum.
  EXPECT_GT(last_epoch_start.confidence, 0.0);
  EXPECT_LT(last_epoch_start.width_scale, options.width_scale_max);

  SelPredictorStats stats = predictor.stats();
  EXPECT_GT(stats.predictions, 0);
  EXPECT_GT(stats.updates, 0);
  EXPECT_GT(stats.history_hits, 0);
  EXPECT_GT(stats.chooser_entries, 0);
}

TEST(SelPredictorTest, PeekDoesNotMutate) {
  SelPredictorOptions options;
  options.enabled = true;
  SelPredictor predictor(options);
  const ExprPtr q = KeyBelow(500);

  predictor.BeginQuery(CanonicalSignature(*q));
  (void)predictor.Predict(CanonicalSignature(*q), StructuralSignature(*q),
                          std::nullopt, std::nullopt, 1.0);
  predictor.Update(CanonicalSignature(*q), StructuralSignature(*q), 0.25);
  SelPredictorStats before = predictor.stats();

  SelPrediction peeked = predictor.Peek(
      CanonicalSignature(*q), CanonicalSignature(*q),
      StructuralSignature(*q), std::nullopt, std::nullopt, 1.0);
  (void)peeked;
  SelPredictorStats after = predictor.stats();
  EXPECT_EQ(after.predictions, before.predictions);
  EXPECT_EQ(after.updates, before.updates);
  EXPECT_EQ(after.history_hits, before.history_hits);
  EXPECT_EQ(after.history_misses, before.history_misses);
}

// ---------------------------------------------------------------------
// Predictor-off bit-identity at threads 1|4|8 under warm start and
// fault injection.

void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.stages_run, b.stages_run);
  EXPECT_EQ(a.stages_counted, b.stages_counted);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.blocks_sampled, b.blocks_sampled);
  EXPECT_EQ(a.blocks_wasted, b.blocks_wasted);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.stage_reports.size(), b.stage_reports.size());
  for (size_t i = 0; i < a.stage_reports.size(); ++i) {
    const StageReport& ra = a.stage_reports[i];
    const StageReport& rb = b.stage_reports[i];
    EXPECT_EQ(ra.planned_fraction, rb.planned_fraction);
    EXPECT_EQ(ra.predicted_seconds, rb.predicted_seconds);
    EXPECT_EQ(ra.blocks_drawn, rb.blocks_drawn);
    EXPECT_EQ(ra.estimate_after, rb.estimate_after);
    EXPECT_EQ(ra.variance_after, rb.variance_after);
    EXPECT_EQ(ra.ledger_spend_s, rb.ledger_spend_s);
    EXPECT_EQ(ra.transient_faults, rb.transient_faults);
    EXPECT_EQ(ra.blocks_lost, rb.blocks_lost);
    EXPECT_FALSE(ra.predictor_used);
    EXPECT_FALSE(rb.predictor_used);
    ASSERT_EQ(ra.selectivities.size(), rb.selectivities.size());
    for (size_t s = 0; s < ra.selectivities.size(); ++s) {
      EXPECT_EQ(ra.selectivities[s].selectivity,
                rb.selectivities[s].selectivity);
      // Off-path reports carry the neutral annotations.
      EXPECT_TRUE(ra.selectivities[s].component.empty());
      EXPECT_EQ(ra.selectivities[s].width_scale, 1.0);
    }
  }
}

QueryResult RunWarmFaultyQuery(Session* session, int threads,
                               bool explicit_off) {
  FaultOptions faults;
  faults.enabled = true;
  faults.transient_rate = 0.05;
  faults.permanent_rate = 0.01;
  faults.straggler_rate = 0.05;
  faults.fault_seed = 17;
  QueryBuilder builder = session->Query("SELECT[key < 3000](r1)");
  builder.WithSeed(42)
      .WithQuota(1.5)
      .WithThreads(threads)
      .WithWarmStart()
      .WithFaults(faults);
  if (explicit_off) builder.WithSelPredictor(false);
  auto result = builder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : QueryResult{};
}

TEST(SelPredictorTest, OffIsBitIdenticalAcrossThreadsWarmAndFaulty) {
  std::vector<QueryResult> defaulted;
  std::vector<QueryResult> explicit_off;
  for (int threads : {1, 4, 8}) {
    auto workload = MakeSelectionWorkload(3000, 7);
    ASSERT_TRUE(workload.ok());
    Session session(std::move(workload->catalog));
    // Two warm runs back to back: the second replays pools and priors.
    (void)RunWarmFaultyQuery(&session, threads, /*explicit_off=*/false);
    defaulted.push_back(
        RunWarmFaultyQuery(&session, threads, /*explicit_off=*/false));

    auto workload2 = MakeSelectionWorkload(3000, 7);
    ASSERT_TRUE(workload2.ok());
    Session session2(std::move(workload2->catalog));
    (void)RunWarmFaultyQuery(&session2, threads, /*explicit_off=*/true);
    explicit_off.push_back(
        RunWarmFaultyQuery(&session2, threads, /*explicit_off=*/true));
  }
  // Explicitly disabling the predictor changes nothing...
  for (size_t i = 0; i < defaulted.size(); ++i) {
    ExpectIdenticalResults(defaulted[i], explicit_off[i]);
  }
  // ...and every thread count agrees bit for bit.
  ExpectIdenticalResults(defaulted[0], defaulted[1]);
  ExpectIdenticalResults(defaulted[0], defaulted[2]);
}

// ---------------------------------------------------------------------
// Satellite regressions: zero-prior sanitizing, intersect stage-1
// fallback, exhausted-side m = 0 guard.

TEST(SelectivityFixTest, SanitizedStagePriorFloorsZeroAtZeroHitBound) {
  const double beta = 0.05;
  const double floor10k = ZeroHitUpperBound(10000, beta);
  EXPECT_EQ(SanitizedStagePrior(0.0, 10000, beta), floor10k);
  EXPECT_EQ(SanitizedStagePrior(-3.0, 10000, beta), floor10k);  // clamped
  EXPECT_EQ(SanitizedStagePrior(1e-9, 10000, beta), floor10k);
  // Healthy priors pass through untouched; > 1 clamps to 1.
  EXPECT_EQ(SanitizedStagePrior(0.3, 10000, beta), 0.3);
  EXPECT_EQ(SanitizedStagePrior(7.0, 10000, beta), 1.0);
  // Unset total_points degrades to the m = 1 bound, never a crash.
  EXPECT_EQ(SanitizedStagePrior(0.0, 0.0, beta), ZeroHitUpperBound(1, beta));
}

TEST(SelectivityFixTest, ZeroPriorDoesNotFreezeStageZeroPlanning) {
  auto workload = MakeSelectionWorkload(3000, 7);
  ASSERT_TRUE(workload.ok());
  // Poison the cache with a hard 0.0 prior for the query's select node —
  // exactly what a recorded zero-hit run (or an external writer) could
  // leave behind.
  WarmStartCache cache;
  ExprPtr node_expr = KeyBelow(3000);
  cache.RecordPrior(CanonicalSignature(*node_expr), 0.0);

  ExecutorOptions options;
  options.quota_s = 1.0;
  options.seed = 11;
  options.warm_cache = &cache;
  auto result =
      RunTimeConstrainedCount(workload->query, workload->catalog, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->stages_run, 0);
  const StageReport& first = result->stage_reports[0];
  ASSERT_FALSE(first.selectivities.empty());
  // The planner saw the sanitized floor, not a frozen 0.
  const double floor =
      ZeroHitUpperBound(10000, SelectivityOptions().zero_hit_beta);
  EXPECT_EQ(first.selectivities[0].selectivity, floor);
  EXPECT_GT(result->estimate, 0.0);
}

TEST(SelectivityFixTest, IntersectInitialFallsBackWhenTotalPointsUnset) {
  StagedNode node;
  node.kind = ExprKind::kIntersect;
  node.left = std::make_unique<StagedNode>();
  node.right = std::make_unique<StagedNode>();
  SelectivityOptions options;
  options.initial_select = 0.37;

  bool fell_back = false;
  EXPECT_EQ(InitialSelectivity(node, options, &fell_back), 0.37);
  EXPECT_TRUE(fell_back);

  // With a known point space the paper's 1/max(|r1|, |r2|) applies.
  node.left->total_points = 100.0;
  node.right->total_points = 50.0;
  EXPECT_EQ(InitialSelectivity(node, options, &fell_back), 1.0 / 100.0);
  EXPECT_FALSE(fell_back);
  // The flag pointer is optional.
  EXPECT_EQ(InitialSelectivity(node, options), 1.0 / 100.0);
}

TEST(SelectivityFixTest, StageZeroInflatesOnlyWithPredictorWidths) {
  auto workload = MakeSelectionWorkload(3000, 7);
  ASSERT_TRUE(workload.ok());
  CostLedger ledger;
  auto ev = StagedTermEvaluator::Create(workload->query, workload->catalog,
                                        Fulfillment::kFull, &ledger,
                                        CostModel::Sun360());
  ASSERT_TRUE(ev.ok());
  SelectivityOptions sel_options;
  sel_options.initial_select = 0.5;  // s(1-s) > 0 so variance is visible
  std::map<int, double> sel_prev =
      ReviseSelectivities(**ev, sel_options);
  ASSERT_FALSE(sel_prev.empty());
  const int node_id = sel_prev.begin()->first;

  // Flat path: stage 0 never inflates (no samples, no variance basis).
  std::map<int, double> flat = ComputeSelPlus(**ev, sel_prev, 0.25, 2.0,
                                              Fulfillment::kFull, nullptr);
  EXPECT_EQ(flat.at(node_id), 0.5);

  // Predictor widths supply the basis: inflation applies at stage 0 and
  // scales with the width.
  std::map<int, double> narrow{{node_id, 0.25}};
  std::map<int, double> wide{{node_id, 1.25}};
  std::map<int, double> inflated_narrow = ComputeSelPlus(
      **ev, sel_prev, 0.25, 2.0, Fulfillment::kFull, &narrow);
  std::map<int, double> inflated_wide = ComputeSelPlus(
      **ev, sel_prev, 0.25, 2.0, Fulfillment::kFull, &wide);
  EXPECT_GT(inflated_narrow.at(node_id), 0.5);
  EXPECT_GT(inflated_wide.at(node_id), inflated_narrow.at(node_id));
  EXPECT_LE(inflated_wide.at(node_id), 1.0);
}

TEST(SelectivityFixTest, ExhaustedSideUnderPartialFulfillmentStaysFinite) {
  // r1 is 20x smaller than r2: it exhausts long before r2, after which a
  // partial-fulfillment stage predicts new_points = 0 for the intersect
  // node (nothing new on the exhausted side). The m = 0 guard must leave
  // those stages' selectivities finite and uninflated instead of feeding
  // a zero sample into the variance.
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(MakeUniformRelation("r1", 500, 500, 3)).ok());
  ASSERT_TRUE(
      catalog.Register(MakeUniformRelation("r2", 10000, 10000, 4)).ok());
  ExprPtr query = Intersect(Scan("r1"), Scan("r2"));

  ExecutorOptions options;
  options.quota_s = 60.0;  // generous: sampling exhausts r1 well within it
  options.seed = 5;
  options.fulfillment = Fulfillment::kPartial;
  options.sel_predictor.enabled = true;  // widths force can_inflate
  auto result = RunTimeConstrainedCount(query, catalog, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::isfinite(result->estimate));
  EXPECT_TRUE(std::isfinite(result->variance));
  for (const StageReport& report : result->stage_reports) {
    for (const OperatorSelectivity& sel : report.selectivities) {
      EXPECT_TRUE(std::isfinite(sel.selectivity));
      EXPECT_GE(sel.selectivity, 0.0);
      EXPECT_LE(sel.selectivity, 1.0);
    }
  }
}

// ---------------------------------------------------------------------
// Engine + API integration: reports, stats, EXPLAIN.

TEST(SelPredictorIntegrationTest, WarmSessionReportsComponentsAndStats) {
  auto workload = MakeSelectionWorkload(3000, 7);
  ASSERT_TRUE(workload.ok());
  Session session(std::move(workload->catalog));
  for (int run = 0; run < 3; ++run) {
    auto result = session.Query("SELECT[key < 3000](r1)")
                      .WithSeed(42 + run)
                      .WithQuota(1.5)
                      .WithWarmStart()
                      .WithSelPredictor()
                      .Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->stages_run, 0);
    for (const StageReport& report : result->stage_reports) {
      EXPECT_TRUE(report.predictor_used);
      for (const OperatorSelectivity& sel : report.selectivities) {
        EXPECT_FALSE(sel.component.empty());
        EXPECT_GE(sel.confidence, 0.0);
        EXPECT_LE(sel.confidence, 1.0);
        EXPECT_GT(sel.width_scale, 0.0);
      }
    }
  }
  WarmStartStats stats = session.CacheStats();
  EXPECT_GT(stats.predictor_entries, 0);
  EXPECT_GT(stats.predictor_updates, 0);
  EXPECT_GT(stats.predictor_history_hits + stats.predictor_history_misses,
            0);
  // Clearing the cache drops the predictor with the priors.
  session.ClearCache();
  EXPECT_EQ(session.CacheStats().predictor_entries, 0);
}

TEST(SelPredictorIntegrationTest, ExplainPeeksWithoutSideEffects) {
  auto workload = MakeSelectionWorkload(3000, 7);
  ASSERT_TRUE(workload.ok());
  Session session(std::move(workload->catalog));
  auto seed_run = session.Query("SELECT[key < 3000](r1)")
                      .WithSeed(42)
                      .WithQuota(1.5)
                      .WithWarmStart()
                      .WithSelPredictor()
                      .Run();
  ASSERT_TRUE(seed_run.ok()) << seed_run.status().ToString();
  WarmStartStats before = session.CacheStats();

  auto plan = session.Query("SELECT[key < 3000](r1)")
                  .WithQuota(1.5)
                  .WithWarmStart()
                  .WithSelPredictor()
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->predictor_active);
  ASSERT_FALSE(plan->predictor_nodes.empty());
  EXPECT_FALSE(plan->predictor_nodes[0].component.empty());
  EXPECT_GT(plan->predictor_nodes[0].selectivity, 0.0);
  EXPECT_NE(plan->ToString().find("predictor"), std::string::npos);

  // The peek moved no counters: prior hits/misses and predictor stats
  // are exactly what the seeding run left behind.
  WarmStartStats after = session.CacheStats();
  EXPECT_EQ(after.prior_hits, before.prior_hits);
  EXPECT_EQ(after.prior_misses, before.prior_misses);
  EXPECT_EQ(after.predictor_updates, before.predictor_updates);

  // Predictor-off EXPLAIN reports inactive and lists no nodes.
  auto cold = session.Query("SELECT[key < 3000](r1)").WithQuota(1.5).Explain();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->predictor_active);
  EXPECT_TRUE(cold->predictor_nodes.empty());
}

}  // namespace
}  // namespace tcq
