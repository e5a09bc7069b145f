// Every exit from the time-constrained stage loop sets exactly one typed
// stop reason.

#include <gtest/gtest.h>

#include <string>

#include "engine/executor.h"
#include "ra/expr.h"
#include "ra/predicate.h"
#include "workload/generators.h"

namespace tcq {
namespace {

StopReason StopOf(const ExprPtr& expr, const Catalog& catalog,
                  const ExecutorOptions& options) {
  auto r = RunTimeConstrainedCount(expr, catalog, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->stop_reason : StopReason::kNoSampledTerm;
}

ExecutorOptions Quota(double quota_s) {
  ExecutorOptions options;
  options.quota_s = quota_s;
  options.seed = 3;
  return options;
}

TEST(StopReasonTest, EveryExitNamesItsReason) {
  auto w = MakeIntersectionWorkload(2000, 7);
  ASSERT_TRUE(w.ok());
  const Catalog& catalog = w->catalog;
  const ExprPtr select =
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, int64_t{2000}));

  // Answered from the catalog, or expanding to no term at all.
  EXPECT_EQ(StopOf(Scan("r1"), catalog, Quota(15.0)),
            StopReason::kNoSampledTerm);
  EXPECT_EQ(StopOf(Difference(Scan("r1"), Scan("r1")), catalog, Quota(15.0)),
            StopReason::kNoSampledTerm);
  // A quota large enough for a census.
  EXPECT_EQ(StopOf(select, catalog, Quota(2000.0)),
            StopReason::kSamplesExhausted);
  // Single-Interval's second stage overruns a 15 s quota at this seed,
  // under either deadline mode.
  ExecutorOptions overrun = Quota(15.0);
  overrun.strategy.kind = StrategyConfig::Kind::kSingleInterval;
  EXPECT_EQ(StopOf(w->query, catalog, overrun), StopReason::kStageOverran);
  overrun.deadline_mode = DeadlineMode::kSoft;
  EXPECT_EQ(StopOf(w->query, catalog, overrun), StopReason::kStageOverran);
  // Not even one block fits.
  EXPECT_EQ(StopOf(w->query, catalog, Quota(0.01)),
            StopReason::kNoAffordableStage);
  ExecutorOptions precise = Quota(60.0);
  precise.precision.rel_halfwidth = 0.2;
  EXPECT_EQ(StopOf(select, catalog, precise), StopReason::kPrecisionMet);
  ExecutorOptions capped = Quota(15.0);
  capped.max_stages = 1;
  EXPECT_EQ(StopOf(w->query, catalog, capped), StopReason::kMaxStages);
  // A wall-clock quota of one nanosecond has run out by the first stage.
  ExecutorOptions instant = Quota(1e-9);
  instant.use_wall_clock = true;
  EXPECT_EQ(StopOf(w->query, catalog, instant), StopReason::kQuotaUsedUp);
}

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_EQ(StopReasonName(StopReason::kNoSampledTerm), "no_sampled_term");
  EXPECT_EQ(StopReasonName(StopReason::kSamplesExhausted),
            "samples_exhausted");
  EXPECT_EQ(StopReasonName(StopReason::kQuotaUsedUp), "quota_used_up");
  EXPECT_EQ(StopReasonName(StopReason::kStageOverran), "stage_overran");
  EXPECT_EQ(StopReasonName(StopReason::kNoAffordableStage),
            "no_affordable_stage");
  EXPECT_EQ(StopReasonName(StopReason::kPrecisionMet), "precision_met");
  EXPECT_EQ(StopReasonName(StopReason::kMaxStages), "max_stages");
}

}  // namespace
}  // namespace tcq
