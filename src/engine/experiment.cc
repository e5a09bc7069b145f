#include "engine/experiment.h"

#include <cmath>
#include <cstdio>

namespace tcq {

Result<ExperimentRow> RunExperiment(const ExperimentConfig& config) {
  if (config.catalog == nullptr || config.query == nullptr) {
    return Status::InvalidArgument("experiment needs a query and a catalog");
  }
  if (config.repetitions <= 0) {
    return Status::InvalidArgument("repetitions must be positive");
  }
  ExperimentRow row;
  row.d_beta = config.options.strategy.one_at_a_time.d_beta;
  double stages_sum = 0.0, util_sum = 0.0, blocks_sum = 0.0;
  double ovsp_sum = 0.0, estimate_sum = 0.0, rel_err_sum = 0.0;
  int overspent_runs = 0, counted_runs = 0;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    ExecutorOptions options = config.options;
    options.seed = config.base_seed + static_cast<uint64_t>(rep) * 7919;
    options.quota_s = config.quota_s;
    TCQ_ASSIGN_OR_RETURN(
        QueryResult result,
        RunTimeConstrainedCount(config.query, *config.catalog, options));
    stages_sum += result.stages_run;
    util_sum += result.utilization;
    blocks_sum += static_cast<double>(result.blocks_sampled);
    if (result.stop_reason == StopReason::kStageOverran) {
      ++overspent_runs;
      ovsp_sum += result.overspend_seconds;
    }
    if (result.stages_counted > 0) {
      ++counted_runs;
      estimate_sum += result.estimate;
      if (config.exact_count > 0) {
        rel_err_sum +=
            std::abs(result.estimate -
                     static_cast<double>(config.exact_count)) /
            static_cast<double>(config.exact_count);
      }
    } else {
      ++row.zero_stage_runs;
    }
  }
  const double n = static_cast<double>(config.repetitions);
  row.runs = config.repetitions;
  row.mean_stages = stages_sum / n;
  row.risk_pct = 100.0 * static_cast<double>(overspent_runs) / n;
  row.mean_ovsp_s =
      overspent_runs > 0 ? ovsp_sum / static_cast<double>(overspent_runs)
                         : 0.0;
  row.utilization_pct = 100.0 * util_sum / n;
  row.mean_blocks = blocks_sum / n;
  if (counted_runs > 0) {
    row.mean_estimate = estimate_sum / counted_runs;
    row.mean_abs_rel_error_pct = 100.0 * rel_err_sum / counted_runs;
  }
  return row;
}

std::string FormatExperimentTable(const std::string& title,
                                  const std::vector<ExperimentRow>& rows) {
  std::string out = title + "\n";
  out +=
      "  d_beta  stages   risk%   ovsp(s)  utiliz%   blocks   est(mean)  "
      "|rel.err|%  runs\n";
  char line[160];
  for (const ExperimentRow& row : rows) {
    std::snprintf(line, sizeof(line),
                  "  %6.0f  %6.2f  %6.1f  %8.3f  %7.1f  %7.1f  %10.1f  "
                  "%9.1f  %4d\n",
                  row.d_beta, row.mean_stages, row.risk_pct, row.mean_ovsp_s,
                  row.utilization_pct, row.mean_blocks, row.mean_estimate,
                  row.mean_abs_rel_error_pct, row.runs);
    out += line;
  }
  return out;
}

}  // namespace tcq
