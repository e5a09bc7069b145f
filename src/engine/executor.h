#ifndef TCQ_ENGINE_EXECUTOR_H_
#define TCQ_ENGINE_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cost/adaptive_model.h"
#include "cost/sel_predictor.h"
#include "estimator/count_estimator.h"
#include "exec/staged.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "ra/expr.h"
#include "sim/cost_model.h"
#include "storage/relation.h"
#include "timectrl/selectivity.h"
#include "timectrl/stopping.h"
#include "timectrl/strategy.h"
#include "util/random.h"
#include "util/result.h"

namespace tcq {

class WarmStartCache;

/// Which time-control strategy to run (§3.3).
struct StrategyConfig {
  enum class Kind { kOneAtATime, kSingleInterval, kHeuristic };
  Kind kind = Kind::kOneAtATime;
  OneAtATimeStrategy::Options one_at_a_time;
  SingleIntervalStrategy::Options single_interval;
};

std::unique_ptr<TimeControlStrategy> MakeStrategy(
    const StrategyConfig& config);

/// Options of a time-constrained COUNT(E) run.
struct ExecutorOptions {
  /// The query's time quota T in seconds (simulated unless
  /// `use_wall_clock`): the hard constraint the paper's title promises.
  /// Lives here — not as a separate entry-point argument — so observers,
  /// EXPLAIN, and option edits all see one authoritative value.
  double quota_s = 5.0;
  StrategyConfig strategy;
  Fulfillment fulfillment = Fulfillment::kFull;
  /// §5.B's suggestion: when no further *full*-fulfillment stage fits in
  /// the residual time, switch to partial fulfillment (new×new only) for
  /// the remaining stages instead of stopping, using up time that would
  /// otherwise be wasted. Only meaningful with `fulfillment = kFull`.
  bool final_partial_stages = false;
  DeadlineMode deadline_mode = DeadlineMode::kHard;
  PrecisionStop precision;  // disabled by default
  SelectivityOptions selectivity;
  AdaptiveCostModel::Options cost;
  CostModel physical = CostModel::Sun360();
  /// Figure 3.4's ε: acceptable slack when targeting the remaining time.
  double epsilon_s = 0.05;
  /// Confidence level of the reported interval.
  double confidence = 0.95;
  /// Safety bound on the number of stages.
  int max_stages = 200;
  /// Seed of the block-sampling RNG (every run is reproducible).
  uint64_t seed = 1;
  /// Run against real elapsed time instead of the simulator: the
  /// deadline, stage planning, and cost-coefficient fitting all use the
  /// machine's monotonic clock, and the CostModel constants only seed the
  /// initial coefficients (re-fitted from real measurements after
  /// stage 1). Sampling stays reproducible; timing does not.
  bool use_wall_clock = false;
  /// Execution width of the stage loop, counting the calling thread: the
  /// per-relation block draws, the inclusion–exclusion term evaluators,
  /// and the merge-pair partitions inside each evaluator fan out across
  /// `threads - 1` pool workers plus the caller (see DESIGN.md "Threading
  /// model"). Estimates are bit-identical for any value at the same seed;
  /// in wall-clock mode the cost model additionally plans stage fractions
  /// sized for the parallel throughput.
  int threads = 1;
  /// Shared pool to run on instead of creating a per-run one (not owned;
  /// e.g. tcq::Session's). When set it defines the execution width cap
  /// min(threads, pool width) when threads > 1, or the pool's full width
  /// when threads is left at 1 — so a high-water pool can serve narrower
  /// queries.
  ThreadPool* pool = nullptr;
  /// Observability sinks (tracer, metrics, progress observer), all
  /// optional and non-owning. The default-empty handle costs one pointer
  /// check per instrumentation site; no virtual dispatch on hot paths.
  ObsHandle obs;
  /// Session-lifetime warm-start state (not owned; normally
  /// tcq::Session's): per-relation sample pools replayed as this run's
  /// first draws, selectivity priors seeding stage-0 planning, and the
  /// previous run's fitted cost coefficients. Null (the default) runs
  /// cold and is bit-identical to a build without the cache subsystem at
  /// any seed and thread count.
  WarmStartCache* warm_cache = nullptr;
  /// Serving-layer completion deadline in real (serving-clock) seconds,
  /// measured from submission to a tcq::Server: the admission queue
  /// orders waiters by it (earliest first) and stops waiting for budget
  /// once it expires; finishing later counts as a deadline miss in the
  /// serve metrics. 0 (the default) means "use quota_s". The standalone
  /// engine ignores it — quota_s alone bounds execution time.
  double serve_deadline_s = 0.0;
  /// Hybrid stage-0 selectivity prediction (DESIGN.md §12): a tournament
  /// chooser over the within-query observation, the warm-start prior and
  /// a query-stream history table, whose confidence also scales the sel⁺
  /// inflation width per node. Default-off; with `enabled == false`
  /// every run is bit-identical to a build without the predictor at any
  /// seed and thread count. When enabled with a warm cache attached the
  /// predictor's history persists across runs; without a cache it is
  /// query-local (only the observed/default components ever win).
  SelPredictorOptions sel_predictor;
  /// Deterministic fault injection at the storage boundary (DESIGN.md
  /// §10): transient read errors retried with quota-charged exponential
  /// backoff, permanently unreadable blocks excluded from the sampling
  /// frame (degraded answers with widened variance), and straggler reads
  /// charged at inflated latency. Disabled by default; a disabled
  /// injector leaves every result bit-identical to a fault-free build at
  /// any seed and thread count.
  FaultOptions faults;

  /// Rejects nonsense configurations: non-finite or non-positive
  /// quota_s, epsilon_s or confidence outside (0, 1), threads < 1,
  /// max_stages < 1, serve_deadline_s negative or non-finite, NaN or
  /// negative precision-stop targets, and invalid fault or predictor
  /// options. The Run* entry points call this before touching any data.
  [[nodiscard]] Status Validate() const;
};

/// How the serving layer admitted a query (filled in by tcq::Server;
/// every standalone engine run reports kStandalone with zeroed timings).
/// Rejected submissions never produce a QueryResult — they surface as a
/// typed non-OK Status (kResourceExhausted / kDeadlineExceeded) instead.
struct AdmissionReport {
  enum class Outcome {
    kStandalone,  // not served through an admission controller
    kAdmitted,    // full requested quota granted immediately
    kShrunk,      // admitted immediately at a reduced quota
    kQueued,      // waited in the EDF queue before being granted
  };
  Outcome outcome = Outcome::kStandalone;
  double requested_quota_s = 0.0;  // quota asked for at submission
  double granted_quota_s = 0.0;    // quota the ledger actually drew
  double queue_wait_s = 0.0;       // serving-clock seconds spent queued
  double serve_latency_s = 0.0;    // submission → completion, serving clock
  double deadline_s = 0.0;         // effective serving deadline applied
  bool deadline_missed = false;    // serve_latency_s exceeded deadline_s
};

/// Why the stage loop stopped. Every run sets exactly one.
enum class StopReason {
  kNoSampledTerm,      // nothing to sample: the answer is exact (or empty)
  kSamplesExhausted,   // every relation was fully drawn
  kQuotaUsedUp,        // the quota ran out between stages
  kStageOverran,       // a stage overran the quota (aborted if hard)
  kNoAffordableStage,  // no further stage fits the time left
  kPrecisionMet,       // the precision target was met
  kMaxStages,          // ExecutorOptions::max_stages stages ran
};

/// Stable snake_case name of `reason` ("stage_overran", ...).
std::string_view StopReasonName(StopReason reason);

/// Result of a time-constrained COUNT(E) evaluation.
struct QueryResult {
  /// The returned estimate: after the last within-quota stage under a
  /// hard deadline; after the final stage under a soft one.
  double estimate = 0.0;
  double variance = 0.0;
  ConfidenceInterval ci;

  int stages_run = 0;        // stages started (incl. an aborted one)
  int stages_counted = 0;    // stages contributing to `estimate`
  StopReason stop_reason = StopReason::kNoSampledTerm;
  /// Time past the quota spent finishing the stage that overran it
  /// (stop_reason kStageOverran).
  double overspend_seconds = 0.0;
  /// Share of the quota spent in the counted stages ("successfully used").
  double utilization = 0.0;
  int64_t blocks_sampled = 0;  // blocks contributing to `estimate`
  /// Blocks drawn by a hard-deadline-aborted final stage: they cost time
  /// and I/O but contribute nothing to `estimate`. Always
  /// blocks_sampled + blocks_wasted == Σ stage_reports[i].blocks_drawn
  /// (== the `engine.blocks_drawn` metric when metering).
  int64_t blocks_wasted = 0;
  double elapsed_seconds = 0.0;  // total, incl. any aborted stage
  /// Per-stage reports, aborted final stage included. In simulation the
  /// reports' `ledger_spend_s` values telescope: their sum equals
  /// `elapsed_seconds` (the virtual clock only advances inside stages).
  std::vector<StageReport> stage_reports;
  /// Serving-layer admission record (kStandalone outside a tcq::Server).
  AdmissionReport admission;
  /// True when at least one sampled block was permanently lost during
  /// execution: the estimate was computed over a reduced sampling frame
  /// and `variance`/`ci` carry the widening factor in `faults`.
  bool degraded = false;
  /// Fault tally of the whole run (zeroed unless faults were injected);
  /// per-stage counts live in the stage reports.
  FaultReport faults;

  const std::vector<StageReport>& stages() const { return stage_reports; }
};

/// Which aggregate of the expression's output to estimate. The paper
/// restricts itself to COUNT (§1); SUM and AVG are the natural extension
/// it alludes to — the same sampling, time-control and cost machinery
/// with the 0/1 point value replaced by an output column's value.
struct AggregateSpec {
  enum class Kind { kCount, kSum, kAvg };
  Kind kind = Kind::kCount;
  /// Numeric output column for kSum / kAvg (name in the expression's
  /// output schema).
  std::string column;

  static AggregateSpec Count() { return {}; }
  static AggregateSpec Sum(std::string column) {
    return {Kind::kSum, std::move(column)};
  }
  static AggregateSpec Avg(std::string column) {
    return {Kind::kAvg, std::move(column)};
  }
};

/// Evaluates the estimator of an aggregate of `expr` within
/// `options.quota_s` (simulated) seconds. AVG is estimated as the ratio
/// of the SUM and COUNT estimates, with a first-order (delta-method)
/// variance that neglects their covariance.
[[nodiscard]] Result<QueryResult> RunTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options);

/// Evaluates the estimator of COUNT(expr) within `options.quota_s`
/// simulated seconds (Figure 3.1):
///
///   expand COUNT(E) by inclusion–exclusion; then repeat
///     revise selectivities → plan the stage (strategy + Sample-Size-
///     Determine over the adaptive cost formulas) → draw cluster samples →
///     evaluate all terms (full/partial fulfillment) → re-fit cost
///     coefficients → recompute the combined estimate
///   until the quota, a precision target, or sample exhaustion stops it.
///
/// Deterministic: all timing flows through a fresh VirtualClock and all
/// randomness through Rng(options.seed).
[[nodiscard]] Result<QueryResult> RunTimeConstrainedCount(
    const ExprPtr& expr, const Catalog& catalog,
    const ExecutorOptions& options);

/// One predicted stage of an EXPLAIN plan.
struct StagePrediction {
  int index = 0;
  double time_left_before = 0.0;   // Ti the planner would see
  double planned_fraction = 0.0;   // fi
  double d_beta_used = 0.0;
  double predicted_seconds = 0.0;  // QCOST at the chosen fraction
  int64_t blocks_planned = 0;      // over all relations
};

/// The planner's view of a query before any sample is drawn.
struct ExplainResult {
  std::string strategy;       // time-control strategy name
  double quota_s = 0.0;       // T
  int num_sampled_terms = 0;  // inclusion–exclusion terms to sample
  int num_constant_terms = 0;  // bare-scan terms answered from the catalog
  int64_t total_blocks = 0;   // across all scanned relations
  std::vector<StagePrediction> stages;
  /// True when the predicted stages exhaust every relation's blocks
  /// before the quota runs out.
  bool exhausts_samples = false;
  /// Hybrid-predictor view (DESIGN.md §12): set when the run would
  /// consult the predictor, with one entry per sampled operator node
  /// showing the component the chooser would pick at stage 0, its
  /// selectivity, confidence and the resulting inflation width.
  bool predictor_active = false;
  std::vector<OperatorSelectivity> predictor_nodes;

  /// Multi-line human-readable plan (the `Session::Explain` output).
  std::string ToString() const;
};

/// A dry run of RunTimeConstrainedAggregate (EXPLAIN, not EXPLAIN
/// ANALYZE): the run's planner over hypothetical block counts and time,
/// reading the warm cache and the predictor without moving a counter and
/// drawing no sample. Its stage 0 is the run's (exactly, in simulation);
/// later stages keep the stage-0 selectivities and coefficients, since
/// re-fits need samples. Deterministic and side-effect free.
[[nodiscard]] Result<ExplainResult> ExplainTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options);

}  // namespace tcq

#endif  // TCQ_ENGINE_EXECUTOR_H_
