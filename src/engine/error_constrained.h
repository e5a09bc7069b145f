#ifndef TCQ_ENGINE_ERROR_CONSTRAINED_H_
#define TCQ_ENGINE_ERROR_CONSTRAINED_H_

#include "engine/executor.h"

namespace tcq {

/// Options for error-constrained COUNT(E) evaluation — the companion
/// problem the paper names in §3.2 ("error-constrained query evaluation")
/// but leaves to other work: instead of fitting the best estimate into a
/// time quota, spend as little time as possible to reach a target
/// precision.
struct ErrorConstrainedOptions {
  /// Stop when the CI half-width ≤ rel_halfwidth × estimate (0 disables).
  double rel_halfwidth = 0.10;
  /// Stop when the CI half-width ≤ this absolute count (0 disables).
  double abs_halfwidth = 0.0;
  double confidence = 0.95;

  Fulfillment fulfillment = Fulfillment::kFull;
  CostModel physical = CostModel::Sun360();
  uint64_t seed = 1;
  int max_stages = 200;

  /// Blocks of the largest relation at the first stage; every stage
  /// draws the same fraction of each relation.
  int64_t initial_blocks = 20;
  /// Cap (>= 1.2) on the per-stage sample growth factor. The planner
  /// solves the variance formula for the sample size the target needs
  /// (variance shrinks ≈ 1/m) and grows toward it, never faster.
  double max_growth = 4.0;

  /// Rejects a missing or non-finite target, confidence outside (0, 1),
  /// max_growth < 1.2 and max_stages < 1; called before any data access.
  [[nodiscard]] Status Validate() const;
};

struct ErrorConstrainedResult {
  double estimate = 0.0;
  double variance = 0.0;
  ConfidenceInterval ci;
  bool met_target = false;  // false when the samples ran out first
  int stages = 0;
  int64_t blocks_sampled = 0;  // total over relations
  /// Simulated time the evaluation consumed (the quantity a
  /// time-constrained caller would have had to budget).
  double elapsed_seconds = 0.0;
};

/// Iteratively samples until the confidence interval of the COUNT(expr)
/// estimate meets the precision target:
///   repeat: run a stage on the engine's StageRunner → stop once
///   ShouldStopForPrecision holds, otherwise size the next stage from the
///   variance ratio (m_needed ≈ m · Var_now / Var_target, growth-capped).
/// Deterministic in `options.seed`; spends simulated time through the
/// same cost-charged substrate as the time-constrained engine.
[[nodiscard]] Result<ErrorConstrainedResult> RunErrorConstrainedCount(
    const ExprPtr& expr, const Catalog& catalog,
    const ErrorConstrainedOptions& options);

}  // namespace tcq

#endif  // TCQ_ENGINE_ERROR_CONSTRAINED_H_
