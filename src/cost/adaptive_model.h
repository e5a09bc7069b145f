#ifndef TCQ_COST_ADAPTIVE_MODEL_H_
#define TCQ_COST_ADAPTIVE_MODEL_H_

#include <map>
#include <string>
#include <utility>

#include "sim/cost_model.h"

namespace tcq {

/// The time-consuming steps of the operator-evaluation algorithms (paper
/// §4: "we identify the time-consuming steps of an RA operation and derive
/// a cost formula for each such step"). Each (operator, step) pair carries
/// its own fitted coefficient: seconds per basis unit.
enum class CostStep {
  kFetch = 0,   // random block reads; basis = blocks
  kFilter,      // selection-formula evaluation; basis = input tuples
  kTempWrite,   // writing runs to temp files; basis = tuples written
  kSort,        // sorting runs; basis = n·log2(n+2)
  kMerge,       // merge/dedup scans; basis = tuples read by the merges
  kOutput,      // result writing; basis = output tuples
  kSetup,       // per-operator constant; basis = 1 per stage
  kNumSteps,    // sentinel
};

std::string_view CostStepName(CostStep step);

/// True for steps whose work the engine fans out across pool workers
/// (block fetches per relation; filter/write/sort/merge/output per term,
/// merge pair, or partition). Per-stage setup work stays serial.
bool StepParallelizable(CostStep step);

/// Node id used for coefficients not tied to one operator (block fetches,
/// per-stage overhead), maintained by the engine.
inline constexpr int kGlobalCostNode = -1;

/// Per-(operator, step) cost coefficients with run-time re-fitting.
///
/// The paper's *adaptive time-cost formulas*: coefficients start from
/// deliberately generic values (the authors initialized from experiments
/// with the largest tuple size and two-comparison formulas) and are
/// adjusted after every stage from the realized (units, seconds) of each
/// step, so the formulas converge to the specific query's behaviour. With
/// `adaptive = false` the initial values are used throughout (the
/// fixed-form alternative the paper argues against; kept for ablation).
class AdaptiveCostModel {
 public:
  struct Options {
    bool adaptive = true;
    /// EWMA weight of the newest observation when re-fitting.
    double ewma = 0.5;
    /// Multiplier applied to the physically derived initial values,
    /// modelling the paper's deliberately pessimistic initialization.
    double initial_scale = 1.5;
    /// Assumed tuples-per-page for the initial write coefficients (the
    /// paper initialized for its largest tuples; 2/page keeps the
    /// pessimism while still letting a 2.5 s quota fund a first stage).
    double assumed_blocking_factor = 2.0;
    /// Assumed comparisons per tuple in selection formulas.
    double assumed_comparisons = 2.0;
  };

  /// Portable image of the fitted state: the per-(node, step) coefficient
  /// map and the parallel-efficiency coefficient η. Used by the warm-start
  /// cache to carry a converged model across queries of one session — the
  /// node ids only stay meaningful for a structurally identical query, so
  /// snapshots are keyed by the whole-query canonical signature.
  struct Snapshot {
    std::map<std::pair<int, int>, double> coefs;
    double efficiency = 0.0;

    bool empty() const { return coefs.empty(); }
  };

  explicit AdaptiveCostModel(const CostModel& physical, Options options);
  explicit AdaptiveCostModel(const CostModel& physical)
      : AdaptiveCostModel(physical, Options()) {}

  /// The current fitted state (initial values are not materialized: a
  /// fresh model exports an empty snapshot).
  Snapshot ExportSnapshot() const;

  /// Replaces the fitted state with `snapshot`, as if this model had made
  /// the donor's observations itself. No-op for a non-adaptive model (the
  /// fixed-form ablation must keep its initial coefficients).
  void RestoreSnapshot(const Snapshot& snapshot);

  /// Current coefficient (seconds per basis unit) for a node's step.
  ///
  /// Parallelism-aware: while a (node, step) pair is still unobserved, the
  /// physically derived initial value — which describes *serial* work — is
  /// divided by the current parallel speedup for parallelizable steps, so
  /// that Sample-Size-Determine plans stage fractions sized for what W
  /// workers can actually evaluate instead of under-filling the quota.
  /// Once observations arrive they are used as-is: in wall-clock mode the
  /// measured step times are spans of the parallel execution, so fitted
  /// coefficients absorb the realized parallelism automatically.
  double Coef(int node_id, CostStep step) const;

  /// Feeds one realized (units, seconds) observation; no-op when units are
  /// non-positive or the model is not adaptive.
  void Observe(int node_id, CostStep step, double units, double seconds);

  /// Feeds one stage's realized parallel work (Σ task seconds) and span
  /// (elapsed seconds of the parallel section): re-fits the efficiency
  /// coefficient η of the speedup model S(W) = 1 + η·(W−1) by EWMA from
  /// the observed speedup work/span. No-op with W ≤ 1 or degenerate
  /// inputs.
  void ObserveParallelism(double work_seconds, double span_seconds);

  /// Predicted speedup of `step` under the current (W, η); 1 for serial
  /// steps and for W = 1.
  double ParallelSpeedup(CostStep step) const;

  bool adaptive() const { return options_.adaptive; }
  int workers() const { return physical_.workers; }
  double efficiency() const { return efficiency_; }

 private:
  double Initial(CostStep step) const;

  Options options_;
  CostModel physical_;
  double efficiency_;
  std::map<std::pair<int, int>, double> coefs_;
};

/// The shared sort-cost basis n·log2(n+2).
double SortCostUnits(double n);

/// Number of blocks a sample fraction maps to: round(f·D), clamped to
/// [0, D]. Both the sampler and the predictor use this rounding so
/// predictions match draws exactly.
int64_t BlocksForFraction(double fraction, int64_t total_blocks);

}  // namespace tcq

#endif  // TCQ_COST_ADAPTIVE_MODEL_H_
