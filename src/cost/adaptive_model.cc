#include "cost/adaptive_model.h"

#include <cmath>

namespace tcq {

std::string_view CostStepName(CostStep step) {
  switch (step) {
    case CostStep::kFetch:
      return "fetch";
    case CostStep::kFilter:
      return "filter";
    case CostStep::kTempWrite:
      return "temp_write";
    case CostStep::kSort:
      return "sort";
    case CostStep::kMerge:
      return "merge";
    case CostStep::kOutput:
      return "output";
    case CostStep::kSetup:
      return "setup";
    case CostStep::kNumSteps:
      break;
  }
  return "unknown";
}

bool StepParallelizable(CostStep step) {
  switch (step) {
    case CostStep::kFetch:
    case CostStep::kFilter:
    case CostStep::kTempWrite:
    case CostStep::kSort:
    case CostStep::kMerge:
    case CostStep::kOutput:
      return true;
    case CostStep::kSetup:
    case CostStep::kNumSteps:
      break;
  }
  return false;
}

AdaptiveCostModel::AdaptiveCostModel(const CostModel& physical,
                                     Options options)
    : options_(options),
      physical_(physical),
      efficiency_(physical.parallel_efficiency) {}

double AdaptiveCostModel::ParallelSpeedup(CostStep step) const {
  if (physical_.workers <= 1 || !StepParallelizable(step)) return 1.0;
  double s = 1.0 + efficiency_ * static_cast<double>(physical_.workers - 1);
  return s >= 1.0 ? s : 1.0;
}

void AdaptiveCostModel::ObserveParallelism(double work_seconds,
                                           double span_seconds) {
  if (!options_.adaptive) return;
  if (physical_.workers <= 1) return;
  if (work_seconds <= 0.0 || span_seconds <= 0.0) return;
  double speedup = work_seconds / span_seconds;
  double observed =
      (speedup - 1.0) / static_cast<double>(physical_.workers - 1);
  if (observed < 0.0) observed = 0.0;
  if (observed > 1.0) observed = 1.0;
  efficiency_ =
      (1.0 - options_.ewma) * efficiency_ + options_.ewma * observed;
}

AdaptiveCostModel::Snapshot AdaptiveCostModel::ExportSnapshot() const {
  Snapshot s;
  s.coefs = coefs_;
  s.efficiency = efficiency_;
  return s;
}

void AdaptiveCostModel::RestoreSnapshot(const Snapshot& snapshot) {
  if (!options_.adaptive) return;
  coefs_ = snapshot.coefs;
  efficiency_ = snapshot.efficiency;
}

double AdaptiveCostModel::Initial(CostStep step) const {
  const double scale = options_.initial_scale;
  const double bf = options_.assumed_blocking_factor;
  switch (step) {
    case CostStep::kFetch:
      return scale * physical_.block_read_s;
    case CostStep::kFilter:
      return scale * options_.assumed_comparisons *
             physical_.predicate_compare_s;
    case CostStep::kTempWrite:
    case CostStep::kOutput:
      return scale *
             (physical_.tuple_move_s + physical_.block_write_s / bf);
    case CostStep::kSort:
      return scale * physical_.sort_compare_s;
    case CostStep::kMerge:
      return scale * physical_.merge_compare_s;
    case CostStep::kSetup:
      return scale * physical_.op_setup_s;
    case CostStep::kNumSteps:
      break;
  }
  return 0.0;
}

double AdaptiveCostModel::Coef(int node_id, CostStep step) const {
  auto it = coefs_.find({node_id, static_cast<int>(step)});
  if (it != coefs_.end()) return it->second;
  return Initial(step) / ParallelSpeedup(step);
}

void AdaptiveCostModel::Observe(int node_id, CostStep step, double units,
                                double seconds) {
  if (!options_.adaptive) return;
  if (units <= 0.0 || seconds < 0.0) return;
  double observed = seconds / units;
  auto key = std::make_pair(node_id, static_cast<int>(step));
  auto it = coefs_.find(key);
  if (it == coefs_.end()) {
    // First observation replaces the generic initial value outright.
    coefs_[key] = observed;
    return;
  }
  it->second = (1.0 - options_.ewma) * it->second + options_.ewma * observed;
}

double SortCostUnits(double n) {
  if (n <= 0.0) return 0.0;
  return n * std::log2(n + 2.0);
}

int64_t BlocksForFraction(double fraction, int64_t total_blocks) {
  if (fraction <= 0.0) return 0;
  double d = std::llround(fraction * static_cast<double>(total_blocks));
  if (d < 0.0) d = 0.0;
  if (d > static_cast<double>(total_blocks)) {
    d = static_cast<double>(total_blocks);
  }
  return static_cast<int64_t>(d);
}

}  // namespace tcq
