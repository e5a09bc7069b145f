#include "engine/executor.h"

#include <cmath>
#include <cstdio>

namespace tcq {

std::unique_ptr<TimeControlStrategy> MakeStrategy(
    const StrategyConfig& config) {
  switch (config.kind) {
    case StrategyConfig::Kind::kOneAtATime:
      return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
    case StrategyConfig::Kind::kSingleInterval:
      return std::make_unique<SingleIntervalStrategy>(
          config.single_interval);
    case StrategyConfig::Kind::kHeuristic:
      return std::make_unique<HeuristicStrategy>();
  }
  return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
}

Status ExecutorOptions::Validate() const {
  // Explicit finiteness checks everywhere: NaN compares false against
  // everything, so a plain `x < 0` guard lets NaN through (and +inf
  // passes any one-sided bound) — each would corrupt the deadline
  // arithmetic much later with no typed error.
  if (!std::isfinite(quota_s) || !(quota_s > 0.0)) {
    return Status::InvalidArgument(
        "time quota must be finite and positive; got " +
        std::to_string(quota_s));
  }
  if (!std::isfinite(epsilon_s) || !(epsilon_s > 0.0 && epsilon_s < 1.0)) {
    return Status::InvalidArgument(
        "epsilon_s must lie in (0, 1); got " + std::to_string(epsilon_s));
  }
  if (!std::isfinite(confidence) ||
      !(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument(
        "confidence must lie in (0, 1); got " + std::to_string(confidence));
  }
  if (threads < 1) {
    return Status::InvalidArgument(
        "threads must be >= 1 (it counts the calling thread); got " +
        std::to_string(threads));
  }
  if (max_stages < 1) {
    return Status::InvalidArgument("max_stages must be >= 1; got " +
                                   std::to_string(max_stages));
  }
  if (!std::isfinite(serve_deadline_s) || serve_deadline_s < 0.0) {
    return Status::InvalidArgument(
        "serve_deadline_s must be finite and >= 0 (0 means quota_s); got " +
        std::to_string(serve_deadline_s));
  }
  // Precision-stop targets: NaN compares false against the > 0 "enabled"
  // probes, so a NaN target would silently disable the stop the caller
  // asked for instead of erroring.
  if (!std::isfinite(precision.rel_halfwidth) ||
      precision.rel_halfwidth < 0.0 ||
      !std::isfinite(precision.abs_halfwidth) ||
      precision.abs_halfwidth < 0.0 ||
      !std::isfinite(precision.min_improvement) ||
      precision.min_improvement < 0.0) {
    return Status::InvalidArgument(
        "precision-stop targets must be finite and >= 0 (0 disables)");
  }
  if (precision.enabled() &&
      (!std::isfinite(precision.confidence) ||
       !(precision.confidence > 0.0 && precision.confidence < 1.0))) {
    return Status::InvalidArgument(
        "precision.confidence must lie in (0, 1); got " +
        std::to_string(precision.confidence));
  }
  TCQ_RETURN_NOT_OK(faults.Validate());
  TCQ_RETURN_NOT_OK(sel_predictor.Validate());
  return Status::OK();
}

Result<QueryResult> RunTimeConstrainedCount(const ExprPtr& expr,
                                            const Catalog& catalog,
                                            const ExecutorOptions& options) {
  return RunTimeConstrainedAggregate(expr, AggregateSpec::Count(), catalog,
                                     options);
}

std::string_view StopReasonName(StopReason reason) {
  static constexpr std::string_view kNames[] = {
      "no_sampled_term", "samples_exhausted",     "quota_used_up",
      "stage_overran",   "no_affordable_stage",   "precision_met",
      "max_stages"};
  return kNames[static_cast<int>(reason)];
}

std::string ExplainResult::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "time-constrained aggregate plan (strategy %s, quota %.3f s)\n",
                strategy.c_str(), quota_s);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "terms: %d sampled, %d answered from the catalog; %lld blocks total\n",
      num_sampled_terms, num_constant_terms,
      static_cast<long long>(total_blocks));
  out += line;
  if (stages.empty()) {
    out += "no sampling stage fits the quota\n";
    return out;
  }
  out += "stage  time_left_s  fraction  d_beta  predicted_s   blocks\n";
  for (const StagePrediction& s : stages) {
    std::snprintf(line, sizeof(line),
                  "%5d  %11.4f  %8.5f  %6.2f  %11.4f  %7lld\n", s.index,
                  s.time_left_before, s.planned_fraction, s.d_beta_used,
                  s.predicted_seconds, static_cast<long long>(s.blocks_planned));
    out += line;
  }
  out += exhausts_samples
             ? "plan exhausts every relation's blocks within the quota\n"
             : "plan stops when no further stage fits the remaining time\n";
  if (predictor_active) {
    out += "predictor (stage-0 peek): term node op         component  "
           "selectivity  conf  width\n";
    for (const OperatorSelectivity& n : predictor_nodes) {
      std::snprintf(line, sizeof(line),
                    "predictor:                %4d %4d %-10s %-9s  %11.6f  "
                    "%4.2f  %5.2f\n",
                    n.term, n.node, n.op.c_str(), n.component.c_str(),
                    n.selectivity, n.confidence, n.width_scale);
      out += line;
    }
  }
  return out;
}

}  // namespace tcq
