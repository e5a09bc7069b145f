// Cross-query warm-start cache: pooled-prefix replay, selectivity priors,
// cost-snapshot reuse, and the accounting bugfixes that rode along
// (blocks_wasted reconciliation, unclamped utilization).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/tcq.h"
#include "cache/sample_pool.h"
#include "cache/signature.h"
#include "cache/warm_start.h"
#include "exec/exact.h"
#include "obs/metrics.h"
#include "ra/expr.h"
#include "ra/predicate.h"
#include "sampling/block_sampler.h"
#include "util/random.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Session MakeSelectSession(Session::Options options = {},
                          int64_t output_tuples = 3000, uint64_t seed = 7) {
  auto workload = MakeSelectionWorkload(output_tuples, seed);
  EXPECT_TRUE(workload.ok());
  return Session(std::move(workload->catalog), std::move(options));
}

/// The deterministic slice of a QueryResult: everything except the
/// wall-time measurements (work/span seconds are real-clock and vary run
/// to run even in simulation).
void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.stages_run, b.stages_run);
  EXPECT_EQ(a.stages_counted, b.stages_counted);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.blocks_sampled, b.blocks_sampled);
  EXPECT_EQ(a.blocks_wasted, b.blocks_wasted);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
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
    ASSERT_EQ(ra.selectivities.size(), rb.selectivities.size());
    for (size_t s = 0; s < ra.selectivities.size(); ++s) {
      EXPECT_EQ(ra.selectivities[s].selectivity,
                rb.selectivities[s].selectivity);
    }
  }
}

// ---------------------------------------------------------------------
// Canonical signatures.

TEST(CacheKeyTest, CommutativeAndSetCanonicalization) {
  ExprPtr a = Scan("r1");
  ExprPtr b = Scan("r2");
  EXPECT_TRUE(CanonicalSignature(*Intersect(a, b)) ==
              CanonicalSignature(*Intersect(b, a)));
  EXPECT_FALSE(CanonicalSignature(*Difference(a, b)) ==
               CanonicalSignature(*Difference(b, a)));
  EXPECT_TRUE(CanonicalSignature(*Project(a, {"key", "id"})) ==
              CanonicalSignature(*Project(a, {"id", "key"})));
  EXPECT_FALSE(CanonicalSignature(*a) == CanonicalSignature(*b));
}

// ---------------------------------------------------------------------
// Sample pool without-replacement invariants.

TEST(SamplePoolTest, ReplayPrefixThenFreshWithoutReplacement) {
  auto workload = MakeSelectionWorkload(3000, /*seed=*/7);
  ASSERT_TRUE(workload.ok());
  RelationPtr rel = *workload->catalog.Find("r1");
  RelationSamplePool pool(rel->NumBlocks());

  // Query 1: draw 40 fresh blocks.
  BlockSampler first(rel, &pool);
  Rng rng1(11);
  auto q1 = first.Draw(40, &rng1);
  EXPECT_EQ(static_cast<int64_t>(q1.size()), 40);
  EXPECT_EQ(first.last_draw_replayed(), 0);
  EXPECT_EQ(pool.size(), 40);
  EXPECT_EQ(pool.fresh_total(), 40);
  EXPECT_EQ(pool.replayed_total(), 0);

  // Query 2: the first 40 draws replay the pooled prefix in draw order,
  // then fresh draws extend the pool without ever repeating a block.
  BlockSampler second(rel, &pool);
  EXPECT_EQ(second.pooled_remaining(), 40);
  Rng rng2(12);
  auto q2a = second.Draw(25, &rng2);
  EXPECT_EQ(second.last_draw_replayed(), 25);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(q2a[i], q1[i]);
  auto q2b = second.Draw(30, &rng2);
  EXPECT_EQ(second.last_draw_replayed(), 15);  // prefix exhausted mid-draw
  EXPECT_EQ(pool.size(), 55);                  // 40 + 15 fresh
  EXPECT_EQ(pool.replayed_total(), 40);

  // WOR within query 2 across replay + fresh.
  std::vector<const Block*> all(q2a);
  all.insert(all.end(), q2b.begin(), q2b.end());
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]);
    }
  }
  // Every pooled block is marked consumed exactly once.
  int64_t marked = 0;
  for (int64_t blk = 0; blk < pool.total_blocks(); ++blk) {
    if (pool.Contains(static_cast<uint32_t>(blk))) ++marked;
  }
  EXPECT_EQ(marked, pool.size());
}

// ---------------------------------------------------------------------
// Determinism contract.

TEST(WarmStartTest, WarmOffSessionsAreBitIdentical) {
  for (int threads : {1, 4, 8}) {
    Session a = MakeSelectSession();
    Session b = MakeSelectSession();
    auto ra = a.Query("SELECT[key < 3000](r1)")
                  .WithSeed(42)
                  .WithQuota(3.0)
                  .WithThreads(threads)
                  .Run();
    auto rb = b.Query("SELECT[key < 3000](r1)")
                  .WithSeed(42)
                  .WithQuota(3.0)
                  .WithThreads(threads)
                  .Run();
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectIdenticalResults(*ra, *rb);
  }
}

TEST(WarmStartTest, ColdWarmQueryIsBitIdenticalToWarmOff) {
  // The first warm query of a session sees only empty pools and missing
  // priors, so it must take exactly the cold code paths: same estimate,
  // variance, and stage reports, at every thread count.
  for (int threads : {1, 4, 8}) {
    Session off = MakeSelectSession();
    Session on = MakeSelectSession();
    auto r_off = off.Query("SELECT[key < 3000](r1)")
                     .WithSeed(42)
                     .WithQuota(3.0)
                     .WithThreads(threads)
                     .WithWarmStart(false)
                     .Run();
    auto r_on = on.Query("SELECT[key < 3000](r1)")
                    .WithSeed(42)
                    .WithQuota(3.0)
                    .WithThreads(threads)
                    .WithWarmStart(true)
                    .Run();
    ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
    ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
    ExpectIdenticalResults(*r_off, *r_on);
  }
}

TEST(WarmStartTest, WarmSequenceIsBitIdenticalAcrossThreadCounts) {
  std::vector<QueryResult> per_width;
  for (int threads : {1, 4, 8}) {
    Session session = MakeSelectSession();
    session.SetWarmStart(true);
    auto first = session.Query("SELECT[key < 3000](r1)")
                     .WithSeed(42)
                     .WithQuota(2.0)
                     .WithThreads(threads)
                     .Run();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = session.Query("SELECT[key < 3000](r1)")
                      .WithSeed(43)
                      .WithQuota(2.0)
                      .WithThreads(threads)
                      .Run();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    per_width.push_back(*second);
  }
  ExpectIdenticalResults(per_width[0], per_width[1]);
  ExpectIdenticalResults(per_width[0], per_width[2]);
}

// ---------------------------------------------------------------------
// Warm-start effectiveness.

TEST(WarmStartTest, SecondQueryStageZeroPredictionImproves) {
  // Cold stage 0 plans with the generic pessimistic priors; a warm
  // second query plans from the first run's fitted coefficients and
  // observed selectivities, so its stage-0 |predicted - actual| relative
  // error must not exceed the cold one's.
  Session session = MakeSelectSession();
  session.SetWarmStart(true);
  auto cold = session.Query("SELECT[key < 3000](r1)")
                  .WithSeed(42)
                  .WithQuota(2.0)
                  .Run();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->stages_run, 0);
  auto warm = session.Query("SELECT[key < 3000](r1)")
                  .WithSeed(43)
                  .WithQuota(2.0)
                  .Run();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_GT(warm->stages_run, 0);
  auto rel_error = [](const StageReport& s) {
    return std::abs(s.predicted_seconds - s.actual_seconds) /
           std::max(s.actual_seconds, 1e-9);
  };
  EXPECT_LE(rel_error(warm->stage_reports[0]),
            rel_error(cold->stage_reports[0]));

  WarmStartStats stats = session.CacheStats();
  EXPECT_GT(stats.pooled_blocks, 0);
  EXPECT_GT(stats.replayed_blocks, 0);
  EXPECT_GT(stats.prior_entries, 0);
  EXPECT_GT(stats.prior_hits, 0);
  EXPECT_EQ(stats.cost_snapshot_hits, 1);  // second run restored one
}

TEST(WarmStartTest, PriorSeedsStageZeroSelectivity) {
  // Cold stage 0 assumes the maximally pessimistic select selectivity
  // (1.0). After one warm run on a 30%-selective predicate, the second
  // query's stage-0 revision must start from the cached prior instead.
  Session session = MakeSelectSession();
  session.SetWarmStart(true);
  auto first = session.Query("SELECT[key < 3000](r1)")
                   .WithSeed(42)
                   .WithQuota(2.0)
                   .Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->stages_run, 0);
  EXPECT_EQ(first->stage_reports[0].selectivities[0].selectivity, 1.0);
  auto second = session.Query("SELECT[key < 3000](r1)")
                    .WithSeed(43)
                    .WithQuota(2.0)
                    .Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_GT(second->stages_run, 0);
  double prior = second->stage_reports[0].selectivities[0].selectivity;
  EXPECT_LT(prior, 1.0);
  EXPECT_NEAR(prior, 0.3, 0.1);

  // The prior is keyed canonically: a WarmStartCache fed directly must
  // return the same value for the canonically equal expression.
  WarmStartCache cache;
  ExprPtr expr =
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, 3000));
  cache.RecordPrior(CanonicalSignature(*expr), prior);
  std::optional<double> looked_up =
      cache.LookupPrior(CanonicalSignature(*expr));
  ASSERT_TRUE(looked_up.has_value());
  EXPECT_EQ(*looked_up, prior);
}

TEST(WarmStartTest, CacheStatsAndClear) {
  Session session = MakeSelectSession();
  // No warm query yet: stats are all-zero and ClearCache is a no-op.
  WarmStartStats empty = session.CacheStats();
  EXPECT_EQ(empty.relations, 0);
  EXPECT_EQ(empty.pooled_blocks, 0);
  session.ClearCache();

  auto r = session.Query("SELECT[key < 3000](r1)")
               .WithSeed(42)
               .WithQuota(2.0)
               .WithWarmStart()
               .Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  WarmStartStats warm = session.CacheStats();
  EXPECT_EQ(warm.relations, 1);
  EXPECT_EQ(warm.pooled_blocks, r->blocks_sampled + r->blocks_wasted);
  EXPECT_EQ(warm.fresh_blocks, warm.pooled_blocks);
  EXPECT_EQ(warm.cost_snapshots, 1);

  session.ClearCache();
  WarmStartStats cleared = session.CacheStats();
  EXPECT_EQ(cleared.relations, 0);
  EXPECT_EQ(cleared.pooled_blocks, 0);
  EXPECT_EQ(cleared.prior_entries, 0);
  EXPECT_EQ(cleared.cost_snapshots, 0);
}

// ---------------------------------------------------------------------
// Accounting bugfixes.

TEST(AccountingTest, BlocksWastedReconcilesWithStageReportsAndMetric) {
  // Find hard-deadline runs whose final stage aborts (d_beta = 0 gives
  // ~50% overspend risk) and check the reconciliation identity on every
  // run, aborted or not.
  bool saw_abort = false;
  for (uint64_t seed = 1; seed <= 30 && !saw_abort; ++seed) {
    Session session = MakeSelectSession();
    Metrics metrics;
    auto r = session.Query("SELECT[key < 3000](r1)")
                 .WithSeed(seed)
                 .WithQuota(2.0)
                 .WithRiskMargin(0.0)
                 .WithDeadline(DeadlineMode::kHard)
                 .WithMetrics(&metrics)
                 .Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t reported = 0;
    for (const StageReport& s : r->stage_reports) reported += s.blocks_drawn;
    EXPECT_EQ(r->blocks_sampled + r->blocks_wasted, reported);
    EXPECT_EQ(metrics.counter("engine.blocks_drawn")->value(), reported);
    if (r->stop_reason == StopReason::kStageOverran) {
      saw_abort = true;
      EXPECT_GT(r->blocks_wasted, 0);
      EXPECT_EQ(r->blocks_wasted,
                r->stage_reports.back().blocks_drawn);
    }
  }
  EXPECT_TRUE(saw_abort) << "no seed in 1..30 aborted a hard-deadline stage";
}

TEST(AccountingTest, FaultRetriesNeverDoubleCountBlocksDrawn) {
  // With transient faults armed, a retried read is another *attempt* at
  // the same drawn block — blocks_drawn (stage reports and the
  // engine.blocks_drawn counter) must count it exactly once, and the
  // reconciliation identity must keep holding with lost blocks wasted.
  bool saw_retry = false;
  bool saw_loss = false;
  for (uint64_t seed = 1; seed <= 30 && !(saw_retry && saw_loss); ++seed) {
    Session session = MakeSelectSession();
    Metrics metrics;
    FaultOptions faults;
    faults.enabled = true;
    faults.transient_rate = 0.15;
    faults.permanent_rate = 0.03;
    faults.fault_seed = seed;
    auto r = session.Query("SELECT[key < 3000](r1)")
                 .WithSeed(seed)
                 .WithQuota(2.0)
                 .WithRiskMargin(0.0)
                 .WithDeadline(DeadlineMode::kHard)
                 .WithMetrics(&metrics)
                 .WithFaults(faults)
                 .Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t reported = 0;
    for (const StageReport& s : r->stage_reports) reported += s.blocks_drawn;
    EXPECT_EQ(r->blocks_sampled + r->blocks_wasted, reported);
    EXPECT_EQ(metrics.counter("engine.blocks_drawn")->value(), reported);
    // Attempts exceed draws by exactly the retry count, never more.
    int64_t attempts = 0;
    for (const RelationFaultCounts& rf : r->faults.per_relation) {
      attempts += rf.read_attempts;
    }
    EXPECT_EQ(attempts, reported + r->faults.retries);
    if (r->faults.retries > 0) {
      saw_retry = true;
      EXPECT_EQ(metrics.counter("fault.retries")->value(),
                r->faults.retries);
    }
    if (r->faults.blocks_lost > 0) {
      saw_loss = true;
      if (r->stop_reason == StopReason::kStageOverran) {
        // The aborted stage wastes all its draws, lost or not.
        EXPECT_GE(r->blocks_wasted, r->faults.blocks_lost);
      } else {
        // Every stage counted: wasted quota is exactly the lost blocks.
        EXPECT_EQ(r->blocks_wasted, r->faults.blocks_lost);
      }
    }
  }
  EXPECT_TRUE(saw_retry) << "no seed in 1..30 retried a transient fault";
  EXPECT_TRUE(saw_loss) << "no seed in 1..30 lost a block";
}

TEST(AccountingTest, SoftOverrunReportsUtilizationAboveOne) {
  // Under a soft deadline the overrunning final stage counts, so the true
  // quota-spend ratio exceeds 1 and must no longer be clamped away.
  bool saw_overrun = false;
  for (uint64_t seed = 1; seed <= 30 && !saw_overrun; ++seed) {
    Session session = MakeSelectSession();
    auto r = session.Query("SELECT[key < 3000](r1)")
                 .WithSeed(seed)
                 .WithQuota(2.0)
                 .WithRiskMargin(0.0)
                 .WithDeadline(DeadlineMode::kSoft)
                 .Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->stop_reason == StopReason::kStageOverran) {
      saw_overrun = true;
      EXPECT_GT(r->utilization, 1.0);
      EXPECT_NEAR(r->utilization, r->elapsed_seconds / 2.0, 1e-9);
      EXPECT_GT(r->overspend_seconds, 0.0);
    } else {
      EXPECT_LE(r->utilization, 1.0);
    }
  }
  EXPECT_TRUE(saw_overrun) << "no seed in 1..30 overran the soft deadline";
}

}  // namespace
}  // namespace tcq
