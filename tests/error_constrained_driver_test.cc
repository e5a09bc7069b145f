// The error-constrained driver on the engine's shared stage runner: its
// estimates come from the same per-term estimators as a time-constrained
// run, and its options are validated before any data is touched.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "engine/error_constrained.h"
#include "ra/expr.h"
#include "workload/generators.h"

namespace tcq {
namespace {

TEST(ErrorConstrainedTest, ProjectionCountsDistinctGroups) {
  // COUNT(PROJECT[key](r1)) counts distinct keys, 500 of them here — not
  // the 20,000 tuples a cluster estimate of the projection's points
  // would report.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Register(MakeUniformRelation("r1", 20000, 500, 11)).ok());
  for (uint64_t seed : {1, 2, 3}) {
    ErrorConstrainedOptions options;
    options.rel_halfwidth = 0.10;
    options.seed = seed;
    auto r = RunErrorConstrainedCount(Project(Scan("r1"), {"key"}), catalog,
                                      options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->met_target);
    EXPECT_NEAR(r->estimate, 500.0, 50.0) << "seed " << seed;
    EXPECT_LE(r->ci.lo, 500.0);
    EXPECT_GE(r->ci.hi, 500.0);
  }
}

/// Runs over a relation the catalog does not hold: invalid options must
/// be rejected before the driver looks it up.
StatusCode RunWith(const ErrorConstrainedOptions& options) {
  Catalog empty;
  return RunErrorConstrainedCount(Scan("missing"), empty, options)
      .status()
      .code();
}

TEST(ErrorConstrainedTest, NanTargetIsRejected) {
  ErrorConstrainedOptions options;
  options.rel_halfwidth = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunWith(options), StatusCode::kInvalidArgument);
}

TEST(ErrorConstrainedTest, GrowthBelowTheRuleFloorIsRejected) {
  ErrorConstrainedOptions options;
  options.max_growth = 1.0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunWith(options), StatusCode::kInvalidArgument);
}

TEST(ErrorConstrainedTest, ConfidenceOutsideTheUnitIntervalIsRejected) {
  ErrorConstrainedOptions options;
  options.confidence = 1.5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunWith(options), StatusCode::kInvalidArgument);
}

TEST(ErrorConstrainedTest, StageCapBelowOneIsRejected) {
  ErrorConstrainedOptions options;
  options.max_stages = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunWith(options), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tcq
