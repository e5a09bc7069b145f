#include "timectrl/strategy.h"

#include <algorithm>

namespace tcq {

Result<StagePlan> OneAtATimeStrategy::PlanStage(
    const StagePlanContext& context) {
  double d_beta = options_.d_beta;
  if (options_.decay_with_time_left && context.quota > 0.0) {
    d_beta *= std::clamp(context.time_left / context.quota, 0.0, 1.0);
  }
  QCostFn qcost = [&context, d_beta](double f) {
    return context.qcost(f, d_beta);
  };
  TCQ_ASSIGN_OR_RETURN(
      SampleSizeResult r,
      SampleSizeDetermine(qcost, context.time_left, context.epsilon,
                          context.f_max, context.f_min_step, &context.obs));
  StagePlan plan;
  plan.fraction = r.fraction;
  plan.predicted_seconds = r.predicted_seconds;
  plan.d_beta_used = d_beta;
  return plan;
}

Result<StagePlan> SingleIntervalStrategy::PlanStage(
    const StagePlanContext& context) {
  const double d_alpha = options_.d_alpha;
  QCostFn qcost = [&context, d_alpha](double f) -> Result<double> {
    TCQ_ASSIGN_OR_RETURN(double mean, context.qcost(f, 0.0));
    TCQ_ASSIGN_OR_RETURN(double sigma, context.qcost_sigma(f));
    return mean + d_alpha * sigma;
  };
  TCQ_ASSIGN_OR_RETURN(
      SampleSizeResult r,
      SampleSizeDetermine(qcost, context.time_left, context.epsilon,
                          context.f_max, context.f_min_step, &context.obs));
  StagePlan plan;
  plan.fraction = r.fraction;
  plan.predicted_seconds = r.predicted_seconds;
  plan.d_beta_used = 0.0;
  return plan;
}

Result<StagePlan> HeuristicStrategy::PlanStage(
    const StagePlanContext& context) {
  double target = gamma_ * context.time_left;
  QCostFn qcost = [&context](double f) { return context.qcost(f, 0.0); };
  TCQ_ASSIGN_OR_RETURN(
      SampleSizeResult r,
      SampleSizeDetermine(qcost, target, context.epsilon, context.f_max,
                          context.f_min_step, &context.obs));
  StagePlan plan;
  plan.fraction = r.fraction;
  plan.predicted_seconds = r.predicted_seconds;
  plan.d_beta_used = 0.0;
  return plan;
}

void HeuristicStrategy::OnStageOutcome(double predicted_seconds,
                                       double actual_seconds,
                                       bool overspent) {
  (void)predicted_seconds;
  (void)actual_seconds;
  if (overspent) {
    gamma_ *= kShrink;
  } else {
    gamma_ = std::min(kMaxGamma, gamma_ * kGrow);
  }
}

}  // namespace tcq
