// Golden digests of simulated runs. Each case hashes (FNV-1a) everything
// a simulated run reports at a fixed seed: the QueryResult, every
// StageReport except the wall-time work/span seconds, the fault report,
// the deterministic metric sections and, at threads 1, the Chrome trace.
// A change to the stage loop that moves any estimate, plan, ledger
// charge, metric or trace event fails here.
//
// The digests were recorded by compiling this file against the engine
// before the stage loop was split into QueryPlan / StagePlanner /
// StageRunner, so they also pin that the split moved nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "cache/warm_start.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ra/expr.h"
#include "ra/predicate.h"
#include "workload/generators.h"

namespace tcq {
namespace {

class Digest {
 public:
  void Int(int64_t x) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(x >> (8 * i)));
  }
  void Double(double x) {
    int64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    Int(bits);
  }
  void Text(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    for (char ch : s) Byte(static_cast<uint8_t>(ch));
  }

  void Add(const StageReport& s) {
    Int(s.index);
    Double(s.time_left_before);
    Double(s.planned_fraction);
    Double(s.d_beta_used);
    Double(s.predicted_seconds);
    Double(s.actual_seconds);
    Int(s.blocks_drawn);
    Int(s.within_quota ? 1 : 0);
    Double(s.estimate_after);
    Double(s.variance_after);
    Double(s.quota_s);
    Double(s.ledger_spend_s);
    Double(s.cumulative_spend_s);
    Int(s.parallel_tasks);
    Int(static_cast<int64_t>(s.selectivities.size()));
    for (const OperatorSelectivity& sel : s.selectivities) {
      Int(sel.term);
      Int(sel.node);
      Text(sel.op);
      Double(sel.selectivity);
      Text(sel.component);
      Double(sel.confidence);
      Double(sel.width_scale);
    }
    Int(s.predictor_used ? 1 : 0);
    Int(s.transient_faults);
    Int(s.retries);
    Int(s.blocks_lost);
    Int(s.stragglers);
    Double(s.fault_delay_s);
  }

  void Add(const FaultReport& f) {
    Int(f.transient_faults);
    Int(f.retries);
    Int(f.blocks_lost);
    Int(f.stragglers);
    Double(f.fault_delay_s);
    Double(f.variance_widening);
    Int(static_cast<int64_t>(f.per_relation.size()));
    for (const RelationFaultCounts& r : f.per_relation) {
      Text(r.relation);
      Int(r.read_attempts);
      Int(r.transient_faults);
      Int(r.blocks_lost);
      Int(r.stragglers);
    }
  }

  void Add(const QueryResult& r) {
    Double(r.estimate);
    Double(r.variance);
    Double(r.ci.lo);
    Double(r.ci.hi);
    Double(r.ci.level);
    Int(r.stages_run);
    Int(r.stages_counted);
    Double(r.overspend_seconds);
    Double(r.utilization);
    Int(r.blocks_sampled);
    Int(r.blocks_wasted);
    Double(r.elapsed_seconds);
    Int(static_cast<int64_t>(r.stage_reports.size()));
    for (const StageReport& s : r.stage_reports) Add(s);
    Int(static_cast<int>(r.admission.outcome));
    Double(r.admission.granted_quota_s);
    Int(r.degraded ? 1 : 0);
    Add(r.faults);
  }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Byte(uint8_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ull;
  }

  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Runs one query with metrics (and, at threads 1, a tracer) attached and
/// folds its whole output into `digest`.
void RunInto(Digest* digest, const ExprPtr& expr,
             const AggregateSpec& aggregate, const Catalog& catalog,
             ExecutorOptions options) {
  Metrics metrics;
  Tracer tracer;
  options.obs.metrics = &metrics;
  if (options.threads == 1) options.obs.tracer = &tracer;
  Result<QueryResult> r =
      RunTimeConstrainedAggregate(expr, aggregate, catalog, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  digest->Add(*r);
  digest->Text(metrics.DeterministicJson());
  if (options.threads == 1) digest->Text(tracer.ExportChromeJson());
}

std::string Golden(const ExprPtr& expr, const AggregateSpec& aggregate,
                   const Catalog& catalog, const ExecutorOptions& options) {
  Digest digest;
  RunInto(&digest, expr, aggregate, catalog, options);
  return digest.Hex();
}

ExecutorOptions Options(double quota_s, uint64_t seed = 3) {
  ExecutorOptions options;
  options.quota_s = quota_s;
  options.seed = seed;
  return options;
}

const Workload& Intersection() {
  static const Workload* w = [] {
    auto made = MakeIntersectionWorkload(2000, 7);
    EXPECT_TRUE(made.ok());
    return new Workload(std::move(*made));
  }();
  return *w;
}

const Workload& Selection() {
  static const Workload* w = [] {
    auto made = MakeSelectionWorkload(2000, 5);
    EXPECT_TRUE(made.ok());
    return new Workload(std::move(*made));
  }();
  return *w;
}

const AggregateSpec kCount = AggregateSpec::Count();

TEST(EngineGoldenTest, OneAtATime) {
  const Workload& w = Intersection();
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, Options(15.0)),
            "91f24dcc4f7219b4");
}

TEST(EngineGoldenTest, IntersectionAtFourThreads) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.threads = 4;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "e1388c021f718eed");
}

TEST(EngineGoldenTest, SingleInterval) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.strategy.kind = StrategyConfig::Kind::kSingleInterval;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "e36e53e7e36054a7");
}

TEST(EngineGoldenTest, Heuristic) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.strategy.kind = StrategyConfig::Kind::kHeuristic;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "25002acb980e6ba0");
}

TEST(EngineGoldenTest, PartialFulfillment) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.fulfillment = Fulfillment::kPartial;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "9d3e8e77cd2de6b9");
}

TEST(EngineGoldenTest, FinalPartialStages) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.final_partial_stages = true;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "df9b83457a88c43e");
}

TEST(EngineGoldenTest, SoftDeadline) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.deadline_mode = DeadlineMode::kSoft;
  options.strategy.one_at_a_time.d_beta = 0.0;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "c4279260b63f65d9");
}

TEST(EngineGoldenTest, PrecisionStop) {
  const Workload& w = Selection();
  ExecutorOptions options = Options(60.0);
  options.precision.rel_halfwidth = 0.2;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "26deb0c0b87c14dd");
}

TEST(EngineGoldenTest, SumAndAvg) {
  const Workload& w = Selection();
  EXPECT_EQ(Golden(w.query, AggregateSpec::Sum("key"), w.catalog,
                   Options(4.0)),
            "6bc0d1d5d58e1ce6");
  EXPECT_EQ(Golden(w.query, AggregateSpec::Avg("key"), w.catalog,
                   Options(4.0)),
            "88d4d68c78a700d3");
}

TEST(EngineGoldenTest, UnionAndMinusCarryConstantTerms) {
  const Workload& w = Intersection();
  EXPECT_EQ(Golden(Union(Scan("r1"), Scan("r2")), kCount, w.catalog,
                   Options(15.0)),
            "a593ca779b571e13");
  EXPECT_EQ(Golden(Difference(Scan("r1"), Scan("r2")), kCount, w.catalog,
                   Options(15.0)),
            "e70a4a0b171fb61d");
}

TEST(EngineGoldenTest, TwoSampledTerms) {
  // σ(r1) ∪ r2 expands to σ(r1) + r2 − σ(r1) ∩ r2: two sampled terms
  // whose ledgers fold, and whose coefficients re-fit, in term order.
  const Workload& w = Intersection();
  const ExprPtr query = Union(
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, int64_t{4000})),
      Scan("r2"));
  EXPECT_EQ(Golden(query, kCount, w.catalog, Options(15.0)),
            "85dc020007c9769a");
  ExecutorOptions wide = Options(15.0);
  wide.threads = 4;
  EXPECT_EQ(Golden(query, kCount, w.catalog, wide), "61f335e9db3ccb56");
}

TEST(EngineGoldenTest, RelationsOfDifferentSizes) {
  // σ(r1) ∪ u over a 2,000-block r1 and a 601-block u: each stage draws a
  // different block count per relation, so the per-relation fetch
  // observations (made in relation-name order) differ in their last bits.
  const Workload& w = Intersection();
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(*w.catalog.Find("r1")).ok());
  ASSERT_TRUE(catalog.Register(MakeUniformRelation("u", 3003, 100, 9)).ok());
  const ExprPtr query = Union(
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, int64_t{4000})),
      Scan("u"));
  EXPECT_EQ(Golden(query, kCount, catalog, Options(40.0)),
            "d84109430f841591");
  ExecutorOptions faulty = Options(40.0, 5);
  faulty.faults.enabled = true;
  faulty.faults.transient_rate = 0.1;
  faulty.faults.permanent_rate = 0.05;
  faulty.faults.straggler_rate = 0.05;
  EXPECT_EQ(Golden(query, kCount, catalog, faulty), "980f9315aef09da7");
}

TEST(EngineGoldenTest, Projection) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(MakeUniformRelation("r1", 20000, 500, 11)).ok());
  EXPECT_EQ(Golden(Project(Scan("r1"), {"key"}), kCount, catalog,
                   Options(3.0)),
            "cf811a3c6d9694ae");
}

std::string WarmSession(bool predictor) {
  const Workload& w = Intersection();
  const ExprPtr select =
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, int64_t{4000}));
  WarmStartCache cache;
  Digest digest;
  for (int q = 0; q < 3; ++q) {
    ExecutorOptions options = Options(15.0, 11 + static_cast<uint64_t>(q));
    options.warm_cache = &cache;
    options.sel_predictor.enabled = predictor;
    // Two repeats of the intersection around a selection over its r1:
    // priors, pools, cost snapshots and the predictor's query stream all
    // carry across.
    RunInto(&digest, q == 1 ? select : w.query, kCount, w.catalog, options);
  }
  return digest.Hex();
}

TEST(EngineGoldenTest, WarmSessionWithoutPredictor) {
  EXPECT_EQ(WarmSession(false), "742f4b0052189c36");
}

TEST(EngineGoldenTest, WarmSessionWithPredictor) {
  EXPECT_EQ(WarmSession(true), "9b6454376b820927");
}

TEST(EngineGoldenTest, Faults) {
  const Workload& w = Intersection();
  ExecutorOptions options = Options(15.0);
  options.faults.enabled = true;
  options.faults.transient_rate = 0.1;
  options.faults.permanent_rate = 0.05;
  options.faults.straggler_rate = 0.05;
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, options), "ae1fe406d3b90a7d");
}

TEST(EngineGoldenTest, Census) {
  const Workload& w = Selection();
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, Options(2000.0)), "4c2a0154f53d60ee");
}

TEST(EngineGoldenTest, QuotaThatFitsNoStage) {
  const Workload& w = Intersection();
  EXPECT_EQ(Golden(w.query, kCount, w.catalog, Options(0.01)), "832bfdd0fcbd32c6");
}

}  // namespace
}  // namespace tcq
