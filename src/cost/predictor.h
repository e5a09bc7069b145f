#ifndef TCQ_COST_PREDICTOR_H_
#define TCQ_COST_PREDICTOR_H_

#include <map>

#include "cost/adaptive_model.h"
#include "exec/staged.h"
#include "util/result.h"

namespace tcq {

/// Predicted resource usage of one term for the *next* stage at sample
/// fraction `f`.
struct TermStagePrediction {
  /// Predicted operator-evaluation seconds (excludes block fetches and the
  /// per-stage overhead, which the engine prices once per stage across all
  /// terms sharing the samples).
  double seconds = 0.0;
  /// Predicted newly covered points at the term's root.
  double new_points = 0.0;
  /// Predicted new output tuples at the term's root.
  double new_tuples = 0.0;
};

/// Evaluates the term's time-cost formula QCOST(f, SEL⁺) (paper §4) against
/// the current stage history in `term`, for a next stage in the term's
/// current fulfillment mode. `sel_plus` maps operator node ids
/// (pre-order, as assigned by StagedTermEvaluator) to the inflated
/// selectivities sel⁺ chosen by the time-control strategy; every non-scan
/// node id must be present.
///
/// The per-operator formulas mirror the execution engine exactly:
///  - Select (eq 4.1):  filter·n  +  output·(sel⁺·n)  +  setup
///  - Join/Intersect (eqs 4.2–4.5): temp-write of the new runs, sort
///    (n·log2 n basis), merges of every run pair whose newest run is this
///    stage (full fulfillment) or new×new (partial), output writing of
///    sel⁺ × (new points), plus setup;
///  - Project: temp-write + sort of the new run, merge with the cumulative
///    sorted sample, dedup scan, output of the distinct groups.
[[nodiscard]] Result<TermStagePrediction> PredictTermStageCost(
    const StagedTermEvaluator& term, double f,
    const std::map<int, double>& sel_plus, const AdaptiveCostModel& coefs);

/// Feeds the realized step times of the term's most recent stage back into
/// the adaptive model (paper §4's run-time coefficient adjustment). Block
/// fetches are observed by the engine under `kGlobalCostNode`.
void ObserveTermStage(const StagedTermEvaluator& term,
                      AdaptiveCostModel* coefs);

}  // namespace tcq

#endif  // TCQ_COST_PREDICTOR_H_
