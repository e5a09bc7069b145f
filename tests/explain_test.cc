// Session::Explain / QueryBuilder::Explain — the planner's stage-0 view:
// runs the strategy and Sample-Size-Determine over the priors without
// drawing a sample, and agrees with a real run wherever the real run has
// not yet learned anything (stage 1 uses exactly the same priors).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "api/tcq.h"
#include "cache/warm_start.h"
#include "engine/executor.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Session MakeSession(int64_t tuples = 2000, uint64_t seed = 7) {
  auto workload = MakeIntersectionWorkload(tuples, seed);
  EXPECT_TRUE(workload.ok());
  return Session(std::move(workload->catalog));
}

TEST(ExplainTest, PredictsStagesWithoutRunning) {
  Session session = MakeSession();
  auto plan = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->strategy.empty());
  EXPECT_EQ(plan->quota_s, 5.0);
  EXPECT_EQ(plan->num_sampled_terms, 1);
  EXPECT_GT(plan->total_blocks, 0);
  ASSERT_GE(plan->stages.size(), 1u);
  const StagePrediction& first = plan->stages[0];
  EXPECT_EQ(first.index, 0);  // stage indices are 0-based, as in a run
  EXPECT_EQ(first.time_left_before, 5.0);
  EXPECT_GT(first.planned_fraction, 0.0);
  EXPECT_GT(first.blocks_planned, 0);
  // Explaining again is free of side effects: identical output.
  auto again = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plan->ToString(), again->ToString());
}

TEST(ExplainTest, FirstStageMatchesARealRunsFirstStage) {
  // Stage 1 of a real run plans from the same priors EXPLAIN uses, so the
  // first predicted stage must coincide with the first executed one.
  Session session = MakeSession();
  auto plan = session.Query("r1 INTERSECT r2").WithQuota(2.0).Explain();
  auto run = session.Query("r1 INTERSECT r2").WithQuota(2.0).WithSeed(3).Run();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GE(plan->stages.size(), 1u);
  ASSERT_GE(run->stages().size(), 1u);
  const StagePrediction& predicted = plan->stages[0];
  const StageReport& actual = run->stages()[0];
  EXPECT_EQ(predicted.time_left_before, actual.time_left_before);
  EXPECT_EQ(predicted.planned_fraction, actual.planned_fraction);
  EXPECT_EQ(predicted.d_beta_used, actual.d_beta_used);
  EXPECT_EQ(predicted.predicted_seconds, actual.predicted_seconds);
}

TEST(ExplainTest, StageCountTracksTheActualRun) {
  // EXPLAIN does not simulate what the run learns from its samples, but
  // its stage count must stay in the same ballpark as a real run's: both
  // are driven by the same quota and block-exhaustion accounting.
  Session session = MakeSession();
  auto plan = session.Query("r1 INTERSECT r2").WithQuota(2.0).Explain();
  auto run = session.Query("r1 INTERSECT r2").WithQuota(2.0).WithSeed(3).Run();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(static_cast<int>(plan->stages.size()), 1);
  EXPECT_GE(run->stages_run, 1);
}

TEST(ExplainTest, ToStringIsHumanReadable) {
  Session session = MakeSession();
  auto plan = session.Explain("r1 INTERSECT r2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("strategy"), std::string::npos);
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("quota"), std::string::npos);
}

TEST(ExplainTest, ConstantQueryNeedsNoStages) {
  // COUNT(r1) is answered from the catalog; the plan has no sampled terms.
  Session session = MakeSession();
  auto plan = session.Explain("r1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_sampled_terms, 0);
  EXPECT_EQ(plan->num_constant_terms, 1);
  EXPECT_EQ(plan->stages.size(), 0u);
}

TEST(ExplainTest, ParseErrorsCarryLineAndColumn) {
  Session session = MakeSession();
  auto plan = session.Explain("SELECT[key <\n  !2000](r1)");
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().message();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("column"), std::string::npos) << message;
}

TEST(ExplainTest, InvalidOptionsAreRejected) {
  Session session = MakeSession();
  auto plan = session.Query("r1 INTERSECT r2").WithQuota(-1.0).Explain();
  EXPECT_FALSE(plan.ok());
}


/// EXPLAIN is a dry run of the run: its stage 0 is the run's stage 0.
void ExpectSameFirstStage(const ExplainResult& plan, const QueryResult& run,
                          const std::string& mode) {
  SCOPED_TRACE(mode);
  ASSERT_GE(plan.stages.size(), 1u);
  ASSERT_GE(run.stages().size(), 1u);
  const StagePrediction& predicted = plan.stages[0];
  const StageReport& actual = run.stages()[0];
  EXPECT_EQ(predicted.time_left_before, actual.time_left_before);
  EXPECT_EQ(predicted.planned_fraction, actual.planned_fraction);
  EXPECT_EQ(predicted.d_beta_used, actual.d_beta_used);
  EXPECT_EQ(predicted.predicted_seconds, actual.predicted_seconds);
  EXPECT_EQ(predicted.blocks_planned, actual.blocks_drawn);
}

void ExpectSameCacheStats(const WarmStartStats& a, const WarmStartStats& b) {
  EXPECT_EQ(a.relations, b.relations);
  EXPECT_EQ(a.pooled_blocks, b.pooled_blocks);
  EXPECT_EQ(a.replayed_blocks, b.replayed_blocks);
  EXPECT_EQ(a.fresh_blocks, b.fresh_blocks);
  EXPECT_EQ(a.prior_entries, b.prior_entries);
  EXPECT_EQ(a.prior_hits, b.prior_hits);
  EXPECT_EQ(a.prior_misses, b.prior_misses);
  EXPECT_EQ(a.cost_snapshots, b.cost_snapshots);
  EXPECT_EQ(a.cost_snapshot_hits, b.cost_snapshot_hits);
  EXPECT_EQ(a.predictor_entries, b.predictor_entries);
  EXPECT_EQ(a.predictor_history_hits, b.predictor_history_hits);
  EXPECT_EQ(a.predictor_history_misses, b.predictor_history_misses);
  EXPECT_EQ(a.predictor_updates, b.predictor_updates);
}

/// Explains, then runs, the query `configure` builds; EXPLAIN must leave
/// the session's cache exactly as it found it.
void ExplainThenRun(Session* session,
                    const std::function<QueryBuilder(Session*)>& configure,
                    const std::string& mode) {
  const WarmStartStats before = session->CacheStats();
  auto plan = configure(session).Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectSameCacheStats(before, session->CacheStats());
  auto run = configure(session).Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectSameFirstStage(*plan, *run, mode);
}

TEST(ExplainTest, FirstStageMatchesTheRunInEveryMode) {
  auto base = [](uint64_t seed) {
    return [seed](Session* s) {
      return s->Query("r1 INTERSECT r2").WithQuota(15.0).WithSeed(seed);
    };
  };
  Session cold = MakeSession();
  ExplainThenRun(&cold, base(3), "cold");
  ExplainThenRun(
      &cold,
      [&](Session* s) {
        StrategyConfig strategy;
        strategy.kind = StrategyConfig::Kind::kSingleInterval;
        return base(3)(s).WithStrategy(strategy);
      },
      "single interval");
  ExplainThenRun(
      &cold,
      [&](Session* s) {
        StrategyConfig strategy;
        strategy.kind = StrategyConfig::Kind::kHeuristic;
        return base(3)(s).WithStrategy(strategy);
      },
      "heuristic");
  ExplainThenRun(
      &cold,
      [&](Session* s) {
        return base(3)(s).WithFulfillment(Fulfillment::kPartial);
      },
      "partial fulfillment");
  ExplainThenRun(
      &cold,
      [&](Session* s) {
        FaultOptions faults;
        faults.enabled = true;
        faults.transient_rate = 0.05;
        faults.permanent_rate = 0.02;
        faults.straggler_rate = 0.05;
        return base(3)(s).WithFaults(faults);
      },
      "faults");

  auto warm_workload = MakeIntersectionWorkload(2000, 7);
  ASSERT_TRUE(warm_workload.ok());
  Session::Options warm_options;
  warm_options.warm_start = true;
  Session warm(std::move(warm_workload->catalog), warm_options);
  ASSERT_TRUE(base(1)(&warm).Run().ok());
  ExplainThenRun(&warm, base(2), "warm after one run");
  ExplainThenRun(&warm, base(3), "warm after two runs");

  auto predictor_workload = MakeIntersectionWorkload(2000, 7);
  ASSERT_TRUE(predictor_workload.ok());
  Session predicted(std::move(predictor_workload->catalog), warm_options);
  auto with_predictor = [&](uint64_t seed) {
    return [&, seed](Session* s) { return base(seed)(s).WithSelPredictor(); };
  };
  ASSERT_TRUE(with_predictor(1)(&predicted).Run().ok());
  ExplainThenRun(&predicted, with_predictor(2), "warm with the predictor");
}

/// FNV-1a over every field of every predicted stage of `plan`.
std::string PlanDigest(const ExplainResult& plan) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint8_t>(x >> (8 * i));
      h *= 0x100000001b3ull;
    }
  };
  auto add_double = [&add](double x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    add(bits);
  };
  add(plan.stages.size());
  for (const StagePrediction& s : plan.stages) {
    add(static_cast<uint64_t>(s.index));
    add_double(s.time_left_before);
    add_double(s.planned_fraction);
    add_double(s.d_beta_used);
    add_double(s.predicted_seconds);
    add(static_cast<uint64_t>(s.blocks_planned));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(ExplainTest, FinalPartialStagesPlanIsPinned) {
  // EngineGoldenTest.FinalPartialStages's query and options, explained.
  // The digest was recorded against the planner that kept the switched
  // mode beside the evaluators instead of in them.
  Session session = MakeSession();
  auto explain = [&](bool final_partial_stages) {
    return session.Query("r1 INTERSECT r2")
        .WithQuota(15.0)
        .WithSeed(3)
        .WithFinalPartialStages(final_partial_stages)
        .Explain();
  };
  auto hybrid = explain(true);
  auto full_only = explain(false);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ASSERT_TRUE(full_only.ok()) << full_only.status().ToString();
  // The full-only plan stops because no further stage fits, before the
  // blocks or the stage cap run out: that is where the hybrid plan
  // switches its dry evaluators to partial stages and plans again.
  EXPECT_FALSE(full_only->exhausts_samples);
  EXPECT_LT(full_only->stages.size(), 200u);
  // A dry evaluator never runs a stage, so it prices every planned stage
  // as a first stage, where partial and full fulfillment cost the same:
  // the switched plan finds no affordable stage either and equals the
  // full-only plan.
  EXPECT_EQ(PlanDigest(*hybrid), PlanDigest(*full_only));
  EXPECT_EQ(PlanDigest(*hybrid), "423abafdf4f55dbb");
}

TEST(ExplainTest, WallClockPlansForTheRunsWidth) {
  // Wall-clock planning prices the run's execution width (the cost
  // model's worker count), so EXPLAIN at four threads plans a larger
  // first stage than at one. Planning reads no clock, so the plans are
  // deterministic.
  Session session = MakeSession();
  auto plan = [&](int threads) {
    return session.Query("r1 INTERSECT r2")
        .WithQuota(15.0)
        .WithWallClock()
        .WithThreads(threads)
        .Explain();
  };
  auto serial = plan(1);
  auto wide = plan(4);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_GE(serial->stages.size(), 1u);
  ASSERT_GE(wide->stages.size(), 1u);
  EXPECT_GT(wide->stages[0].planned_fraction,
            serial->stages[0].planned_fraction);
}

}  // namespace
}  // namespace tcq
