#include "serve/server.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "api/tcq.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "util/status.h"
#include "workload/generators.h"

namespace tcq {
namespace {

constexpr int kTuples = 2000;
constexpr uint64_t kWorkloadSeed = 7;

Catalog MakeCatalog() {
  auto workload = MakeIntersectionWorkload(kTuples, kWorkloadSeed);
  EXPECT_TRUE(workload.ok());
  return std::move(workload->catalog);
}

Server::Options GenerousOptions() {
  Server::Options options;
  options.admission.global_budget_s = 100.0;
  options.admission.max_concurrent = 32;
  return options;
}

TEST(ServerTest, SingleQueryBitIdenticalToStandaloneSession) {
  Session standalone(MakeCatalog());
  auto lone = standalone.Query("r1 INTERSECT r2").WithSeed(21).Run();
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();

  Server server(MakeCatalog(), GenerousOptions());
  Session session = server.OpenSession();
  auto served = session.Query("r1 INTERSECT r2").WithSeed(21).Run();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_EQ(served->estimate, lone->estimate);
  EXPECT_EQ(served->variance, lone->variance);
  EXPECT_EQ(served->blocks_sampled, lone->blocks_sampled);

  // The standalone run is unserved; the served run carries its ledger.
  EXPECT_EQ(lone->admission.outcome, AdmissionReport::Outcome::kStandalone);
  EXPECT_EQ(served->admission.outcome, AdmissionReport::Outcome::kAdmitted);
  EXPECT_EQ(served->admission.requested_quota_s, 5.0);
  EXPECT_EQ(served->admission.granted_quota_s, 5.0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.submitted, 1);
  EXPECT_EQ(stats.admission.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.admission.active, 0);
  EXPECT_EQ(stats.admission.outstanding_s, 0.0);
}

TEST(ServerTest, OversizedQuotaIsRejectedWithTypedStatus) {
  Server::Options options;
  options.admission.global_budget_s = 2.0;
  options.admission.allow_shrink = false;
  options.admission.allow_queue = false;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto r = session.Query("r1 INTERSECT r2").WithQuota(20.0).Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.submitted, 1);
  EXPECT_EQ(stats.admission.rejected, 1);
  EXPECT_EQ(stats.completed, 0);  // a rejected submission never executes
}

TEST(ServerTest, ShrunkGrantRunsAtReducedQuotaBitIdentically) {
  Server::Options options;
  options.admission.global_budget_s = 2.0;
  options.admission.min_shrunk_quota_s = 0.25;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto shrunk = session.Query("r1 INTERSECT r2")
                    .WithSeed(21)
                    .WithQuota(8.0)
                    .Run();
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_EQ(shrunk->admission.outcome, AdmissionReport::Outcome::kShrunk);
  EXPECT_EQ(shrunk->admission.requested_quota_s, 8.0);
  EXPECT_EQ(shrunk->admission.granted_quota_s, 2.0);

  // The engine saw exactly the shrunk quota: a standalone run asking for
  // 2 s outright reproduces the estimate bit for bit.
  Session standalone(MakeCatalog());
  auto direct =
      standalone.Query("r1 INTERSECT r2").WithSeed(21).WithQuota(2.0).Run();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(shrunk->estimate, direct->estimate);
  EXPECT_EQ(shrunk->variance, direct->variance);
  EXPECT_EQ(shrunk->blocks_sampled, direct->blocks_sampled);
}

TEST(ServerTest, ParseErrorsNeverReachAdmission) {
  Server server(MakeCatalog(), GenerousOptions());
  Session session = server.OpenSession();

  QueryBuilder bad = session.Query("SELECT[key <](r1)");
  EXPECT_FALSE(bad.status().ok());
  auto r = bad.Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The malformed query was turned away before it could draw budget.
  EXPECT_EQ(server.stats().admission.submitted, 0);
}

TEST(ServerTest, DeadlineMissIsRecorded) {
  Metrics metrics;
  Server::Options options = GenerousOptions();
  options.metrics = &metrics;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  // An unmeetable serving deadline: the (simulated) run completes, but
  // its real latency exceeds a nanosecond-scale deadline.
  auto r = session.Query("r1 INTERSECT r2")
               .WithSeed(21)
               .WithServeDeadline(1e-9)
               .Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->admission.deadline_missed);
  EXPECT_EQ(r->admission.deadline_s, 1e-9);
  EXPECT_GT(r->admission.serve_latency_s, 0.0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.deadline_missed, 1);
  EXPECT_EQ(metrics.counter("serve.deadline_missed")->value(), 1);
  EXPECT_EQ(metrics.histogram("serve.deadline_miss_s")->count(), 1);
  EXPECT_EQ(metrics.histogram("serve.latency_s")->count(), 1);
}

TEST(ServerTest, QueuedSubmissionRunsAfterRelease) {
  Server::Options options;
  options.admission.global_budget_s = 5.0;  // exactly one default quota
  Server server(MakeCatalog(), options);

  ThreadPool submitters(1);  // two concurrent submitters
  Result<QueryResult> first = Status::Internal("not run");
  Result<QueryResult> second = Status::Internal("not run");
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    Session session = server.OpenSession();
    first = session.Query("r1 INTERSECT r2")
                .WithSeed(21)
                .WithServeDeadline(30.0)
                .Run();
  });
  tasks.push_back([&] {
    Session session = server.OpenSession();
    second = session.Query("r1 INTERSECT r2")
                 .WithSeed(21)
                 .WithServeDeadline(30.0)
                 .Run();
  });
  RunTasks(&submitters, &tasks);

  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Same seed, same catalog: however the two interleaved, both estimates
  // are the bit-identical sim-mode result.
  EXPECT_EQ(first->estimate, second->estimate);
  EXPECT_EQ(first->blocks_sampled, second->blocks_sampled);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.admission.admitted + stats.admission.shrunk +
                stats.admission.queued + stats.admission.rejected,
            2);
  EXPECT_EQ(stats.admission.rejected, 0);
  EXPECT_EQ(stats.admission.outstanding_s, 0.0);
}

// The TSan target of the serving layer: many sessions of one server run
// concurrently, sharing the fixed-width ThreadPool, the sharded warm
// cache, and the admission books.
TEST(ServerTest, EightConcurrentWarmQueriesShareOnePoolAndCache) {
  Metrics metrics;
  Server::Options options = GenerousOptions();
  options.pool_workers = 3;
  options.session.warm_start = true;
  options.session.threads = 2;
  options.metrics = &metrics;
  Server server(MakeCatalog(), options);
  EXPECT_EQ(server.pool_workers(), 3);

  constexpr int kQueries = 8;
  ThreadPool submitters(kQueries - 1);
  std::vector<Result<QueryResult>> results(kQueries,
                                           Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kQueries; ++i) {
    tasks.push_back([&, i] {
      Session session = server.OpenSession();
      results[static_cast<size_t>(i)] =
          session.Query(i % 2 == 0 ? "r1 INTERSECT r2" : "r1 UNION r2")
              .WithSeed(100 + static_cast<uint64_t>(i))
              .WithServeDeadline(60.0)
              .Run();
    });
  }
  RunTasks(&submitters, &tasks);

  for (int i = 0; i < kQueries; ++i) {
    const auto& r = results[static_cast<size_t>(i)];
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    // A sparse intersection can estimate 0 from the blocks it sampled;
    // what admission guarantees is that every run got its full grant.
    EXPECT_EQ(r->admission.granted_quota_s, r->admission.requested_quota_s)
        << i;
  }

  // Admission at this budget is deterministic whatever the interleaving:
  // the budget fits all eight, so every submission is plainly admitted.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.submitted, kQueries);
  EXPECT_EQ(stats.admission.admitted, kQueries);
  EXPECT_EQ(stats.admission.shrunk, 0);
  EXPECT_EQ(stats.admission.queued, 0);
  EXPECT_EQ(stats.admission.rejected, 0);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.admission.active, 0);
  EXPECT_EQ(stats.admission.outstanding_s, 0.0);
  EXPECT_EQ(metrics.counter("serve.submitted")->value(), kQueries);
  EXPECT_EQ(metrics.counter("serve.completed")->value(), kQueries);

  // The shared cache's books reconcile: every pooled block was retained
  // from a fresh draw exactly once, concurrent appends included.
  WarmStartStats cache = server.CacheStats();
  EXPECT_GT(cache.relations, 0);
  EXPECT_GT(cache.pooled_blocks, 0);
  EXPECT_EQ(cache.pooled_blocks, cache.fresh_blocks);
  EXPECT_GT(cache.prior_hits + cache.prior_misses, 0);

  // A later warm query replays the pools those eight filled.
  const int64_t replayed_before = cache.replayed_blocks;
  Session warm = server.OpenSession();
  auto replay = warm.Query("r1 INTERSECT r2").WithSeed(500).Run();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(server.CacheStats().replayed_blocks, replayed_before);
}

TEST(ServerTest, AdminSurfacesMatchSessions) {
  Server server(MakeCatalog(), GenerousOptions());
  Session session = server.OpenSession();

  // Catalog and cache views are the same shared state through either
  // handle.
  EXPECT_EQ(&server.catalog(), &session.catalog());
  Session warm = server.OpenSession();
  auto r = warm.Query("r1 INTERSECT r2").WithWarmStart().Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(server.CacheStats().pooled_blocks, 0);
  EXPECT_EQ(server.CacheStats().pooled_blocks,
            session.CacheStats().pooled_blocks);
  server.ClearCache();
  EXPECT_EQ(session.CacheStats().pooled_blocks, 0);
}

TEST(ServerTest, HardAbortAndServeDeadlineStayConsistent) {
  // A hard-deadline abort inside the engine and a serving-deadline miss
  // at the server are independent events; whatever their combination,
  // the report must stay self-consistent: the aborted stage appears in
  // stages_run but not stages_counted, and deadline_missed reflects the
  // *serving* clock, never the simulated abort.
  bool saw_abort = false;
  for (uint64_t seed = 1; seed <= 30 && !saw_abort; ++seed) {
    auto workload = MakeSelectionWorkload(3000, 7);
    ASSERT_TRUE(workload.ok());
    Server server(std::move(workload->catalog), GenerousOptions());
    Session session = server.OpenSession();
    auto r = session.Query("SELECT[key < 3000](r1)")
                 .WithSeed(seed)
                 .WithQuota(2.0)
                 .WithRiskMargin(0.0)
                 .WithDeadline(DeadlineMode::kHard)
                 .WithServeDeadline(60.0)
                 .Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->admission.outcome, AdmissionReport::Outcome::kAdmitted);
    EXPECT_EQ(r->admission.deadline_s, 60.0);
    EXPECT_FALSE(r->admission.deadline_missed);  // a real minute is ample
    EXPECT_EQ(r->stages_run,
              static_cast<int>(r->stage_reports.size()));
    if (r->stop_reason == StopReason::kStageOverran) {
      saw_abort = true;
      EXPECT_EQ(r->stages_counted, r->stages_run - 1);
      EXPECT_FALSE(r->stage_reports.back().within_quota);
      EXPECT_EQ(server.stats().deadline_missed, 0);
    } else {
      EXPECT_EQ(r->stages_counted, r->stages_run);
    }
  }
  EXPECT_TRUE(saw_abort) << "no seed in 1..30 aborted a hard-deadline stage";

  // The reverse combination: the simulated run finishes cleanly but the
  // serving deadline (nanosecond-scale) is missed.
  Server server(MakeCatalog(), GenerousOptions());
  Session session = server.OpenSession();
  auto r = session.Query("r1 INTERSECT r2")
               .WithSeed(21)
               .WithQuota(2.0)
               .WithDeadline(DeadlineMode::kHard)
               .WithServeDeadline(1e-9)
               .Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->admission.deadline_missed);
  EXPECT_EQ(r->admission.deadline_s, 1e-9);
  EXPECT_EQ(r->stages_run, static_cast<int>(r->stage_reports.size()));
  EXPECT_EQ(server.stats().deadline_missed, 1);
}

// ---------------------------------------------------------------------
// Circuit breaker: fault storms at the serving layer.

FaultOptions StormFaults(uint64_t fault_seed) {
  FaultOptions f;
  f.enabled = true;
  f.transient_rate = 0.30;
  f.permanent_rate = 0.05;
  f.fault_seed = fault_seed;
  return f;
}

TEST(ServerTest, BreakerTripsOnAStormThenProbesAndRecloses) {
  // Deterministic walk through the breaker state machine: closed → open
  // (faulty run) → half-open (zero cooldown) → closed (clean probe).
  Server::Options options = GenerousOptions();
  options.admission.breaker.enabled = true;
  options.admission.breaker.fault_rate_threshold = 0.05;
  options.admission.breaker.min_reads = 10;
  options.admission.breaker.cooldown_s = 0.0;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto stormy = session.Query("r1 INTERSECT r2")
                    .WithSeed(21)
                    .WithFaults(StormFaults(3))
                    .Run();
  ASSERT_TRUE(stormy.ok()) << stormy.status().ToString();
  EXPECT_TRUE(stormy->faults.any());
  EXPECT_GE(server.stats().breaker.trips, 1);

  // Cooldown already over: the next query is the half-open probe. Its
  // clean (faults-off) completion recloses the breaker, so a third
  // query passes without shedding or probing.
  auto probe = session.Query("r1 INTERSECT r2").WithSeed(22).Run();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto after = session.Query("r1 INTERSECT r2").WithSeed(23).Run();
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  ServerStats stats = server.stats();
  EXPECT_GE(stats.breaker.probes, 1);
  EXPECT_EQ(stats.breaker.sheds, 0);
  EXPECT_EQ(stats.breaker.open, 0);  // reclosed
  EXPECT_EQ(stats.completed, 3);
}

TEST(ServerTest, OpenBreakerShedsWithTypedUnavailable) {
  Server::Options options = GenerousOptions();
  options.admission.breaker.enabled = true;
  options.admission.breaker.fault_rate_threshold = 0.05;
  options.admission.breaker.min_reads = 10;
  options.admission.breaker.cooldown_s = 3600.0;  // stays open
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto stormy = session.Query("r1 INTERSECT r2")
                    .WithSeed(21)
                    .WithFaults(StormFaults(3))
                    .Run();
  ASSERT_TRUE(stormy.ok()) << stormy.status().ToString();
  ASSERT_GE(server.stats().breaker.trips, 1);

  auto shed = session.Query("r1 INTERSECT r2").WithSeed(22).Run();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  ServerStats stats = server.stats();
  EXPECT_GE(stats.breaker.sheds, 1);
  EXPECT_GE(stats.breaker.open, 1);
  // A shed query never reached admission or execution.
  EXPECT_EQ(stats.admission.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServerTest, OpenBreakerShrinksInsteadWhenConfigured) {
  Server::Options options = GenerousOptions();
  options.admission.breaker.enabled = true;
  options.admission.breaker.fault_rate_threshold = 0.05;
  options.admission.breaker.min_reads = 10;
  options.admission.breaker.cooldown_s = 3600.0;
  options.admission.breaker.shed = false;
  options.admission.breaker.shrink_factor = 0.5;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto stormy = session.Query("r1 INTERSECT r2")
                    .WithSeed(21)
                    .WithQuota(4.0)
                    .WithFaults(StormFaults(3))
                    .Run();
  ASSERT_TRUE(stormy.ok()) << stormy.status().ToString();
  ASSERT_GE(server.stats().breaker.trips, 1);

  auto shrunk = session.Query("r1 INTERSECT r2")
                    .WithSeed(22)
                    .WithQuota(4.0)
                    .Run();
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_EQ(shrunk->admission.granted_quota_s, 2.0);
  EXPECT_GE(server.stats().breaker.shrinks, 1);
}

// ---------------------------------------------------------------------
// Breaker probe lifecycle: granted probes are tracked by token and can
// never wedge a relation. Direct unit tests on the virtual clock.

CircuitBreakerOptions TightBreaker() {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.fault_rate_threshold = 0.10;
  o.min_reads = 10;
  o.cooldown_s = 5.0;
  return o;
}

using ProbeGrant = RelationCircuitBreaker::ProbeGrant;
using BreakerState = RelationCircuitBreaker::State;

TEST(CircuitBreakerTest, AbortedProbeIsHandedBackToTheNextArrival) {
  RelationCircuitBreaker breaker(TightBreaker());
  breaker.UseVirtualClockForTest();
  breaker.Report("r1", 100, 50);  // 50% storm trips the breaker
  ASSERT_EQ(breaker.state("r1"), BreakerState::kOpen);
  breaker.AdvanceClockForTest(5.0);

  double scale = 1.0;
  std::vector<ProbeGrant> probes;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &probes).ok());
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kHalfOpen);

  // While the probe is fresh, concurrent arrivals are shed.
  std::vector<ProbeGrant> other;
  EXPECT_EQ(breaker.Check({"r1"}, &scale, &other).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(other.empty());

  // The probe's query never ran (admission rejection / engine error):
  // the grant is handed back and the next arrival probes instead of
  // being shed until the reclaim backstop.
  breaker.AbortProbes(probes);
  EXPECT_EQ(breaker.stats().probe_aborts, 1);
  std::vector<ProbeGrant> retry;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &retry).ok());
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_NE(retry[0].token, probes[0].token);

  breaker.Report("r1", 20, 0, retry[0].token);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().open, 0);
}

TEST(CircuitBreakerTest, LostProbeIsReclaimedAfterACooldown) {
  RelationCircuitBreaker breaker(TightBreaker());
  breaker.UseVirtualClockForTest();
  breaker.Report("r1", 100, 50);
  breaker.AdvanceClockForTest(5.0);

  double scale = 1.0;
  std::vector<ProbeGrant> probes;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &probes).ok());
  ASSERT_EQ(probes.size(), 1u);
  // The probe's query hangs: no Report, no AbortProbes. After another
  // cooldown the probe is presumed lost and the relation probes again.
  breaker.AdvanceClockForTest(5.0);
  std::vector<ProbeGrant> retry;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &retry).ok());
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_NE(retry[0].token, probes[0].token);
  EXPECT_EQ(breaker.stats().probes, 2);
  EXPECT_EQ(breaker.stats().probe_aborts, 1);

  // The lost probe's verdict, arriving after the reclaim, is stale and
  // must not drive the state machine.
  breaker.Report("r1", 20, 20, probes[0].token);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kHalfOpen);
  breaker.Report("r1", 20, 0, retry[0].token);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenVerdictRequiresTheProbeToken) {
  RelationCircuitBreaker breaker(TightBreaker());
  breaker.UseVirtualClockForTest();
  breaker.Report("r1", 100, 50);
  breaker.AdvanceClockForTest(5.0);

  double scale = 1.0;
  std::vector<ProbeGrant> probes;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &probes).ok());
  ASSERT_EQ(probes.size(), 1u);

  // A faulty query admitted before the trip completes during the
  // half-open window. Its tallies fold into the window, but it is not
  // the probe: the breaker must not re-trip on its verdict.
  breaker.Report("r1", 200, 100);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.stats().trips, 1);

  // The actual probe's clean verdict still closes the breaker.
  breaker.Report("r1", 20, 0, probes[0].token);
  EXPECT_EQ(breaker.state("r1"), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().open, 0);
}

TEST(CircuitBreakerTest, ShedHandsBackProbesGrantedInTheSameCall) {
  RelationCircuitBreaker breaker(TightBreaker());
  breaker.UseVirtualClockForTest();
  breaker.Report("r1", 100, 50);
  breaker.Report("r2", 100, 50);
  breaker.AdvanceClockForTest(5.0);

  // Occupy r2's probe with a fresh grant.
  double scale = 1.0;
  std::vector<ProbeGrant> r2_probe;
  ASSERT_TRUE(breaker.Check({"r2"}, &scale, &r2_probe).ok());
  ASSERT_EQ(r2_probe.size(), 1u);

  // A query scanning both relations is granted r1's probe, then shed on
  // r2 — the r1 grant must be handed back within the same call.
  std::vector<ProbeGrant> both;
  EXPECT_EQ(breaker.Check({"r1", "r2"}, &scale, &both).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(both.empty());
  EXPECT_EQ(breaker.stats().probe_aborts, 1);
  std::vector<ProbeGrant> r1_probe;
  ASSERT_TRUE(breaker.Check({"r1"}, &scale, &r1_probe).ok());
  ASSERT_EQ(r1_probe.size(), 1u);
}

TEST(ServerTest, AdmissionRejectedProbeDoesNotWedgeTheBreaker) {
  // The end-to-end shape of the probe-leak bug: the query that won the
  // half-open probe is rejected by admission before it runs, so it can
  // never report a verdict. The abort guard must hand the probe back.
  Server::Options options = GenerousOptions();
  options.admission.allow_shrink = false;
  options.admission.allow_queue = false;
  options.admission.breaker.enabled = true;
  options.admission.breaker.fault_rate_threshold = 0.05;
  options.admission.breaker.min_reads = 10;
  options.admission.breaker.cooldown_s = 0.0;
  Server server(MakeCatalog(), options);
  Session session = server.OpenSession();

  auto stormy = session.Query("r1 INTERSECT r2")
                    .WithSeed(21)
                    .WithFaults(StormFaults(3))
                    .Run();
  ASSERT_TRUE(stormy.ok()) << stormy.status().ToString();
  ASSERT_GE(server.stats().breaker.trips, 1);

  // Cooldown over: this query is granted the probe, then rejected for
  // an oversized quota without ever executing.
  auto rejected = session.Query("r1 INTERSECT r2")
                      .WithSeed(22)
                      .WithQuota(1000.0)
                      .Run();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server.stats().breaker.probe_aborts, 1);

  // The relation is not wedged: the next clean query probes and
  // recloses the breaker.
  auto after = session.Query("r1 INTERSECT r2").WithSeed(23).Run();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker.sheds, 0);
  EXPECT_EQ(stats.breaker.open, 0);
  EXPECT_EQ(stats.completed, 2);
}

// The TSan target of the fault path: concurrent faulty queries exercise
// retry/backoff inside the engine and the breaker's shared books at once.
TEST(ServerTest, ConcurrentFaultStormKeepsTheServerCoherent) {
  Metrics metrics;
  Server::Options options = GenerousOptions();
  options.pool_workers = 3;
  options.session.threads = 2;
  options.metrics = &metrics;
  options.admission.breaker.enabled = true;
  options.admission.breaker.fault_rate_threshold = 0.05;
  options.admission.breaker.min_reads = 20;
  options.admission.breaker.cooldown_s = 3600.0;
  Server server(MakeCatalog(), options);

  constexpr int kQueries = 8;
  ThreadPool submitters(kQueries - 1);
  std::vector<Result<QueryResult>> results(kQueries,
                                           Status::Internal("not run"));
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kQueries; ++i) {
    tasks.push_back([&, i] {
      Session session = server.OpenSession();
      results[static_cast<size_t>(i)] =
          session.Query(i % 2 == 0 ? "r1 INTERSECT r2" : "r1 UNION r2")
              .WithSeed(100 + static_cast<uint64_t>(i))
              .WithFaults(StormFaults(40 + static_cast<uint64_t>(i)))
              .WithServeDeadline(60.0)
              .Run();
    });
  }
  RunTasks(&submitters, &tasks);

  // Depending on the interleaving a query either ran (possibly degraded)
  // or was shed once an earlier report tripped the breaker — nothing
  // else.
  int ran = 0;
  int shed = 0;
  for (int i = 0; i < kQueries; ++i) {
    const auto& r = results[static_cast<size_t>(i)];
    if (r.ok()) {
      ++ran;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << i;
      ++shed;
    }
  }
  EXPECT_EQ(ran + shed, kQueries);
  EXPECT_GT(ran, 0);  // the first reporter ran before any trip

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, ran);
  EXPECT_EQ(stats.breaker.sheds, shed);
  EXPECT_GE(stats.breaker.trips, 1);  // a 30%+ storm cannot stay unnoticed
  EXPECT_EQ(stats.admission.active, 0);
  EXPECT_EQ(stats.admission.outstanding_s, 0.0);
  if (shed > 0) {
    EXPECT_EQ(metrics.counter("serve.breaker_sheds")->value(), shed);
  }
}

}  // namespace
}  // namespace tcq
