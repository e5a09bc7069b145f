#ifndef TCQ_OBS_REPORT_H_
#define TCQ_OBS_REPORT_H_

/// Per-stage reports emitted by the staged evaluator loop (the paper's
/// Figure 3.1 while-body) and the observer interface that receives them
/// live. Kept free of engine/ra dependencies so callers can consume
/// reports without pulling in the executor.

#include <cstdint>
#include <string>
#include <vector>

namespace tcq {

/// One operator's revised sample selectivity at the start of a stage
/// (paper §3.1, Figure 3.3): `term` is the inclusion–exclusion term index,
/// `node` the operator's pre-order id inside the term, `op` the operator
/// kind name ("Select", "Join", ...).
struct OperatorSelectivity {
  int term = 0;
  int node = 0;
  std::string op;
  double selectivity = 0.0;
  /// Hybrid-predictor annotations (DESIGN.md §12); defaults when the
  /// predictor is off. `component` names the chooser's pick ("observed",
  /// "prior", "history", "default"), `confidence` its saturating-counter
  /// confidence in [0, 1], `width_scale` the resulting d_β multiplier.
  std::string component;
  double confidence = 0.0;
  double width_scale = 1.0;
};

/// What happened during one stage. The first block of fields is the
/// planning/outcome record the engine always kept; the second block is
/// the observability extension: ledger spend against the quota, the
/// parallel sections' realized work/span, and the per-operator revised
/// selectivities the planner saw (ŝ of §3.1).
struct StageReport {
  int index = 0;                  // 0-based
  double time_left_before = 0.0;  // Ti
  double planned_fraction = 0.0;  // fi
  double d_beta_used = 0.0;
  double predicted_seconds = 0.0;
  double actual_seconds = 0.0;
  int64_t blocks_drawn = 0;       // over all relations
  bool within_quota = false;      // stage finished before the deadline
  double estimate_after = 0.0;
  double variance_after = 0.0;    // V̂ after this stage

  double quota_s = 0.0;            // T
  double ledger_spend_s = 0.0;     // clock advance during this stage
  double cumulative_spend_s = 0.0; // clock advance since the query started
  /// Realized parallelism of the stage's fan-out sections — block draws,
  /// term tasks, and each evaluator's sort and merge-chunk tasks (nested
  /// inside its term task): Σ task durations, the sections' elapsed
  /// time, and the task count. The count depends only on the data.
  double work_seconds = 0.0;
  double span_seconds = 0.0;
  int parallel_tasks = 0;
  std::vector<OperatorSelectivity> selectivities;
  /// True when the hybrid selectivity predictor planned this stage.
  bool predictor_used = false;

  // Fault-injection tally of this stage (all zero with faults disabled;
  // see DESIGN.md §10). Retried reads are *attempts*, never fresh draws:
  // `blocks_drawn` counts each drawn block exactly once however many
  // times it was re-read.
  int64_t transient_faults = 0;  // read attempts that failed transiently
  int64_t retries = 0;           // re-read attempts performed
  int64_t blocks_lost = 0;       // drawn blocks excluded as unreadable
  int64_t stragglers = 0;        // reads at inflated latency
  double fault_delay_s = 0.0;    // backoff + straggler seconds charged
};

/// Receives live progress from a running query. Invoked synchronously
/// from the engine's serial sections (once per stage, never from worker
/// threads), so implementations need no locking against the engine; a
/// slow observer slows the query. Virtual dispatch happens once per
/// stage, never on the per-tuple hot path.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;
  /// Before stage 0. `num_terms` counts the sampled inclusion–exclusion
  /// terms of the expanded query.
  virtual void OnQueryBegin(double quota_s, int num_terms) {
    (void)quota_s;
    (void)num_terms;
  }
  /// After every stage, including a final aborted one (report.within_quota
  /// is false for it).
  virtual void OnStage(const StageReport& report) { (void)report; }
  /// After the loop, with the returned estimate.
  virtual void OnQueryEnd(double estimate, double variance, bool overspent) {
    (void)estimate;
    (void)variance;
    (void)overspent;
  }
};

}  // namespace tcq

#endif  // TCQ_OBS_REPORT_H_
