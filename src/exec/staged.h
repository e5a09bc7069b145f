#ifndef TCQ_EXEC_STAGED_H_
#define TCQ_EXEC_STAGED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/tuple_set.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "ra/expr.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/ledger.h"
#include "storage/relation.h"
#include "util/result.h"

namespace tcq {

/// How samples from different stages are combined in binary operators
/// (paper §4, Figure 4.5).
enum class Fulfillment {
  /// Stage s evaluates every (left-run, right-run) pair whose newest run is
  /// s: new×new, new×old and old×new. Makes full use of all sampled data;
  /// per-stage cost grows with the cumulative sample.
  kFull,
  /// Stage s evaluates only new×new. Cheaper per stage; covers fewer
  /// points ([HoOT 88a]'s partial fulfillment).
  kPartial,
};

/// Realized per-stage execution record of one operator node.
struct NodeStageRecord {
  double new_points = 0.0;   // newly covered points of this node's space
  int64_t new_tuples = 0;    // output tuples produced this stage
  int64_t new_blocks = 0;    // scan nodes: disk blocks fetched this stage
  double sort_units = 0.0;   // Σ n·log2(n+2) over the runs sorted this stage
  StepMetrics write;         // temp-file write step (binary ops, project)
  StepMetrics sort;          // sort step (binary ops, project)
  StepMetrics process;       // merge / scan / predicate-evaluation step
  StepMetrics output;        // result tuple moves + page writes
  double seconds = 0.0;      // total realized operator time this stage
                             // (scans: wall-clock mode only — simulated
                             // fetches are priced by the engine)
};

/// Per-operator evaluation state of a staged term. Nodes mirror the Expr
/// tree; `id` is the pre-order index, used by the time-control layer to
/// key selectivities and cost coefficients to operators.
///
/// Runs are reference runs (TupleRefs): they hold the addresses of tuples
/// that live in the resident blocks of the scanned relations — kept alive
/// by the scan nodes' `rel` — or in storage owned by a join or project
/// node of the same tree. No run owns or copies a tuple (DESIGN.md, "Run
/// representation").
struct StagedNode {
  int id = 0;
  ExprKind kind = ExprKind::kScan;
  const Expr* expr = nullptr;
  Schema out_schema;

  // kScan
  RelationPtr rel;  // owns the blocks every run of the tree may point into
  int64_t cum_blocks = 0;  // sampled blocks so far

  // kSelect
  std::unique_ptr<BoundPredicate> predicate;

  // kProject (root only)
  std::vector<int> proj_cols;
  // The projected tuples, one vector per stage (a projection creates new
  // tuples, so the node owns them; the vectors are never resized after
  // their stage, keeping the references below valid).
  std::vector<std::vector<Tuple>> projected_rows;
  TupleRefs cum_projected_sorted;  // all projected sample tuples, sorted
  KeyPrefixes cum_projected_prefixes;  // and their key prefixes
  std::vector<GroupCount> groups;  // current distinct groups

  // kJoin / kIntersect
  std::vector<int> lkey, rkey;  // key positions in the child schemas
  std::vector<TupleRefs> sorted_left;  // per-stage sorted runs
  std::vector<TupleRefs> sorted_right;
  // The key prefixes of each per-stage sorted run (indices aligned with
  // sorted_left/sorted_right): the merge, partition and lower-bound
  // kernels compare them first.
  std::vector<KeyPrefixes> sorted_left_prefixes;
  std::vector<KeyPrefixes> sorted_right_prefixes;

  // kJoin: the concatenated output tuples, one vector per merge chunk.
  // Built only when something reads the join's output (a parent operator,
  // or SUM/AVG value tracking at the root); a COUNT root only counts its
  // matches. Never resized once stored, so references stay valid.
  std::vector<std::vector<Tuple>> joined_rows;

  std::unique_ptr<StagedNode> left;
  std::unique_ptr<StagedNode> right;

  // This stage's output run (scan: fetched tuples; select: qualifying
  // tuples; binary: merged outputs of the stage's run pairs, left empty at
  // a COUNT root). A binary parent takes it over as its new sorted run.
  TupleRefs stage_out;

  // Accounting.
  double total_points = 0.0;  // full point-space size of this subtree
  double cum_points = 0.0;    // points covered so far
  int64_t cum_tuples = 0;     // cumulative output tuples (distinct groups
                              // for a root Project — not additive)
  std::vector<NodeStageRecord> stages;
};

/// Evaluates one Union/Difference-free term of COUNT(E) stage by stage
/// over cluster samples, implementing the paper's estimator-evaluation
/// algorithms (Figures 4.3–4.7) with full or partial fulfillment.
///
/// The caller (the engine) draws disk blocks per relation per stage,
/// charges their random reads once, and passes them to every term sharing
/// the relation via `ExecuteStage`. Restrictions (documented in
/// DESIGN.md): no Union/Difference (expand first), Project only as the
/// root operator, and no relation may appear in two scans of one term.
class StagedTermEvaluator {
 public:
  [[nodiscard]] static Result<std::unique_ptr<StagedTermEvaluator>> Create(
      ExprPtr term, const Catalog& catalog, Fulfillment fulfillment,
      CostLedger* ledger, const CostModel& model);

  /// Wall-clock mode: realized step times in the stage records are taken
  /// from deltas of `clock` (real elapsed time) instead of the simulated
  /// charges, and scan records carry the real seconds of building their
  /// runs (the engine folds them into the fetch observation). Pass the
  /// same clock the engine's deadline uses.
  void MeasureStepsWith(const Clock* clock) { timing_clock_ = clock; }

  /// Fans each stage's scan fills, selections, run sorts and merge-pair
  /// partitions out across `pool` workers (null or 0-worker pool = inline
  /// execution). The task decomposition depends only on the data —
  /// fixed-size chunks, partition cuts, chunks split at key-group
  /// boundaries — and all cost charges happen post-barrier in a fixed
  /// order, so results and simulated charges are bit-identical for any
  /// pool width. `pool` is not owned and must outlive this evaluator.
  /// `max_width` > 0 caps the threads participating in this evaluator's
  /// batches (counting the caller) — a query narrower than a shared
  /// high-water pool passes its configured width here; 0 = uncapped.
  void UseThreadPool(ThreadPool* pool, int max_width = 0) {
    pool_ = pool;
    pool_max_width_ = max_width;
  }

  /// Realized work/span of the last executed stage's fan-out sections
  /// (scan, selection, sort and merge); the engine folds it into the
  /// stage's work/span.
  const ParallelStats& last_stage_parallelism() const {
    return stage_parallel_;
  }

  /// Attaches observability sinks: each executed stage records a
  /// `term_stage` trace span and adds its scans' fetched tuples to the
  /// `exec.tuples_scanned` counter. ExecuteStage may run on a pool worker;
  /// both sinks are safe there (lock-free trace buffers, atomic counter)
  /// and the counter total is deterministic at a fixed seed because the
  /// scanned tuples are. `term_index` labels this evaluator's spans.
  void SetObs(const ObsHandle& obs, int term_index);

  /// Runs one stage over the newly drawn blocks. The map must contain an
  /// entry for every relation scanned by this term (value = pointers to
  /// the new blocks; may be empty).
  [[nodiscard]] Status ExecuteStage(
      const std::map<std::string, std::vector<const Block*>>& new_blocks);

  /// Runs one stage with an explicit per-stage fulfillment mode (the
  /// paper's §5.B hybrid: full stages first, then partial ones to use up
  /// residual time). Once a partial stage has run, a later full stage is
  /// rejected — its all-pairs merges would assume prior pairs that the
  /// partial stage never evaluated, corrupting the coverage accounting.
  [[nodiscard]] Status ExecuteStageWithMode(
      const std::map<std::string, std::vector<const Block*>>& new_blocks,
      Fulfillment mode);

  int num_stages() const { return num_stages_; }

  /// Root-level estimation inputs.
  int64_t cum_hits() const { return root_->cum_tuples; }
  double cum_points() const { return root_->cum_points; }
  double total_points() const { return root_->total_points; }

  /// Space-block coverage for the cluster estimator Ŷb = B·(Σ yi)/b.
  double total_space_blocks() const;
  double cum_space_blocks() const;

  /// True when the root is a projection, in which case the Goodman
  /// estimator applies and `RootOccupancies` is meaningful.
  bool root_is_project() const {
    return root_->kind == ExprKind::kProject;
  }
  /// Occupancy counts of the distinct groups in the cumulative sample.
  std::vector<int64_t> RootOccupancies() const;

  const StagedNode& root() const { return *root_; }
  /// Nodes in pre-order (id order); pointers remain owned by the tree.
  std::vector<const StagedNode*> NodesPreOrder() const;
  /// The term this evaluator runs.
  const ExprPtr& term() const { return term_; }
  Fulfillment fulfillment() const { return fulfillment_; }

  /// Enables aggregate-value tracking for SUM/AVG estimators: the numeric
  /// output column at `index` (position in the root output schema) is
  /// accumulated over every sampled output tuple of the later stages (a
  /// join root then materializes its output). Not supported for
  /// projection roots (distinct-group sums need different machinery).
  [[nodiscard]] Status TrackValueColumn(int index);
  /// Σ v over sampled output tuples (0-valued points contribute nothing).
  double cum_value_sum() const { return value_sum_; }
  /// Σ v² over sampled output tuples.
  double cum_value_sq_sum() const { return value_sq_sum_; }
  bool tracking_values() const { return value_col_ >= 0; }

 private:
  StagedTermEvaluator(ExprPtr term, Fulfillment fulfillment,
                      CostLedger* ledger, CostModel model)
      : term_(std::move(term)),
        fulfillment_(fulfillment),
        ledger_(ledger),
        model_(model) {}

  [[nodiscard]] static Result<std::unique_ptr<StagedNode>> BuildNode(
      const ExprPtr& expr, const Catalog& catalog, bool is_root, int* next_id);

  [[nodiscard]] Status ExecuteNode(
      StagedNode* node,
      const std::map<std::string, std::vector<const Block*>>& new_blocks,
      Fulfillment mode);

  void CollectScanNodes(const StagedNode* node,
                        std::vector<const StagedNode*>* out) const;

  ExprPtr term_;
  Fulfillment fulfillment_;
  CostLedger* ledger_;
  const Clock* timing_clock_ = nullptr;
  Tracer* tracer_ = nullptr;
  Counter* tuples_counter_ = nullptr;
  int term_index_ = 0;
  ThreadPool* pool_ = nullptr;
  int pool_max_width_ = 0;
  ParallelStats stage_parallel_;
  CostModel model_;
  std::unique_ptr<StagedNode> root_;
  int num_stages_ = 0;
  int value_col_ = -1;
  double value_sum_ = 0.0;
  double value_sq_sum_ = 0.0;
  bool ran_partial_stage_ = false;
  double covered_space_blocks_ = 0.0;
  // Per-stage per-scan new block counts (scan id -> counts), for the
  // partial-fulfillment space-block bookkeeping.
  std::vector<std::vector<int64_t>> stage_scan_blocks_;
};

}  // namespace tcq

#endif  // TCQ_EXEC_STAGED_H_
