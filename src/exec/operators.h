#ifndef TCQ_EXEC_OPERATORS_H_
#define TCQ_EXEC_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/tuple_set.h"
#include "parallel/thread_pool.h"
#include "ra/predicate.h"
#include "sim/cost_model.h"
#include "sim/ledger.h"
#include "storage/relation.h"

namespace tcq {

/// Realized resource counts of one operator step, used both for cost
/// accounting and for fitting the adaptive cost-formula coefficients
/// (paper §4: "record the actual amount of time spent on each step").
struct StepMetrics {
  int64_t in_tuples = 0;
  int64_t out_tuples = 0;
  int64_t out_pages = 0;
  int64_t comparisons = 0;
  double seconds = 0.0;  // realized (simulated) time of the step
};

/// Step-separated metrics of one operator invocation: the paper's adaptive
/// cost formulas fit a coefficient per *step*, so reading/comparing time is
/// recorded separately from result-writing time.
struct OpMetrics {
  StepMetrics process;  // reading, predicate evaluation, merge comparisons
  StepMetrics output;   // tuple moves and page writes of the results
};

/// ---- Fan-out ------------------------------------------------------------
///
/// The staged evaluator's passes over a run — the scan's reference fill,
/// selection, the sort's prefix build and the sort itself — split into
/// tasks whose boundaries depend only on the data: fixed-size chunks, and
/// the sort's own partition cuts. A null pool runs the identical task list
/// inline, so every output, count and charge is the same at any width
/// (DESIGN.md, "Threading model"). A pass that fits in one chunk runs
/// inline with no task at all.

/// Tuples per chunk of a chunked pass (selection, a sort's prefix build,
/// and — in blocks of that many rows — a scan's reference fill).
inline constexpr size_t kPassChunk = 16384;

/// A sort forks both halves of every partition of more than this many
/// tuples; smaller ranges sort serially on one task.
inline constexpr size_t kSortForkCutoff = 8192;

/// Realized work/span of parallel sections: `work` is the sum of per-task
/// durations, `span` the elapsed time of the fan-out sections. work/span
/// is the realized speedup the engine feeds to
/// AdaptiveCostModel::ObserveParallelism in wall-clock mode.
struct ParallelStats {
  double work_seconds = 0.0;
  double span_seconds = 0.0;
  int tasks = 0;

  void Add(const ParallelStats& other) {
    work_seconds += other.work_seconds;
    span_seconds += other.span_seconds;
    tasks += other.tasks;
  }
};

/// Where a kernel may fan out, and what it ran there. `stats` gathers the
/// sections the kernel ran on the calling thread: their span, their tasks'
/// summed work and the task count (nested sections folded into their
/// task's work, never into the span).
struct FanOut {
  ThreadPool* pool = nullptr;  // null: the same tasks run inline, in order
  int max_width = 0;           // forwarded to RunTasks
  ParallelStats stats;
};

/// Runs `count` tasks as one section on `fan_out`'s pool: task i calls
/// `body(i, inner)`, where `inner` is a fresh FanOut on the same pool for
/// the kernels the task calls. A task's work is its duration less the
/// span of its inner sections plus their work. Adds the section's span,
/// its tasks' work and their count (inner tasks included) to
/// `fan_out->stats`.
void RunSection(FanOut* fan_out, size_t count,
                const std::function<void(size_t, FanOut*)>& body);

/// Runs `fill(lo, hi, out)` over the items [0, n) in chunks of `chunk`,
/// each call appending at most `refs_per_item` references per item to
/// `*out`, and returns them in item order. When n fits in one chunk or
/// `fan_out` is null, one call fills the result inline; otherwise each
/// chunk fills its own run on its own task (RunSection) and the runs
/// concatenate in chunk order. The chunk runs are reserved to their bound
/// on the calling thread, so the tasks do not allocate.
TupleRefs CollectChunks(
    FanOut* fan_out, size_t n, size_t chunk, size_t refs_per_item,
    const std::function<void(size_t, size_t, TupleRefs*)>& fill);

/// Evaluates a selection formula over `tuples`, charging one predicate
/// comparison per formula leaf per tuple plus output-page writes, and
/// returns the references of the qualifying tuples. The input tuples are
/// assumed already paid for (block fetch happens at sampling time;
/// intermediate inputs were paid for by the producer). Given `fan_out`, a
/// run of more than kPassChunk tuples evaluates chunk by chunk on its
/// pool; the survivors concatenate in chunk order and the charges come
/// from the totals after the barrier, as in one pass.
TupleRefs SelectTuples(TupleRefSpan tuples, const BoundPredicate& predicate,
                       const Schema& schema, CostLedger* ledger,
                       const CostModel& model, OpMetrics* metrics,
                       FanOut* fan_out = nullptr);

/// Writes `tuples` to a temporary file (step 1 of the paper's intersect/
/// join/project algorithms, Figures 4.4/4.6/4.7): charges one tuple move
/// per tuple and one page write per output page.
void ChargeTempWrite(const Schema& schema, int64_t num_tuples,
                     CostLedger* ledger, const CostModel& model,
                     StepMetrics* metrics);

/// ---- Key prefixes -------------------------------------------------------
///
/// Every sort keeps, beside each reference, an 8-byte order-preserving
/// prefix of the tuple's leading key column (column 0 when the key is
/// empty), compared as an unsigned integer: an int64 with its sign bit
/// flipped; a double's IEEE-754 bits (-0.0 normalized to +0.0) with every
/// bit flipped when negative and only the sign bit flipped otherwise; a
/// string's first 8 bytes, big-endian, zero-padded. A smaller prefix means
/// a smaller key; equal prefixes leave the order to the full key
/// comparison, which the kernels then call. A numeric prefix is exact
/// (equal prefixes, equal values), so a single numeric key column is never
/// compared any other way. Every comparator returns the same sign as the
/// plain tuple comparison for every pair, so sorts make the same decisions
/// and the kernels count the same comparisons (DESIGN.md, "Run
/// representation").

/// Prefixes of a sorted run, index-aligned with its references.
using KeyPrefixes = std::vector<uint64_t>;
using KeyPrefixSpan = std::span<const uint64_t>;

/// The order-preserving 8-byte prefix of one value. NaN has none: storage
/// rejects it at every entry point (Schema::ValidateTuple, page decoding).
uint64_t KeyPrefix(const Value& v);

/// The prefixes of `run`'s leading key column (column 0 when `key` is
/// empty), in run order.
KeyPrefixes KeyPrefixesOf(TupleRefSpan run, const std::vector<int>& key);

/// Sorts the run in place on the given key columns (all columns when
/// `key` is empty), charging each realized comparison (step 2, external
/// sort; eq. 4.3's `C2·n·log n + C3·n` shape emerges from the realized
/// comparison count). Leaves the sorted run's prefixes in `*prefixes`
/// when non-null.
void SortRun(TupleRefs* run, const std::vector<int>& key, CostLedger* ledger,
             const CostModel& model, StepMetrics* metrics,
             KeyPrefixes* prefixes = nullptr);

/// ---- Merge kernels ------------------------------------------------------
///
/// The raw sorted-run merge logic, exposed over index ranges so the staged
/// evaluator can partition one merge across pool workers: a left run is
/// split at key-group boundaries (PartitionSortedRun), each chunk merges
/// against its right subrange (LowerBoundCrossKey) on its own task, and
/// the chunk outputs concatenated in chunk order equal the serial merge's
/// output exactly. The kernels do no cost accounting — they only count
/// comparisons; callers charge ledgers/metrics from the counts afterwards,
/// in a fixed order, so results and charges are identical for any worker
/// count. Each merge kernel returns its output count and appends the
/// output to `*out` only when `out` is non-null: a result nobody reads
/// (the root of a COUNT term) is counted, never built. The prefix spans
/// run beside their reference spans (same length); the overloads without
/// them encode the prefixes first.

/// Sort kernel: sorts the run in place on `key` (all columns when empty)
/// as (prefix, reference) pairs, appending the comparison count to
/// `*comparisons` (must be non-null) and leaving the sorted run's
/// prefixes in `*prefixes` when non-null. Same comparator decisions —
/// hence the same permutation and comparison count — as sorting the
/// tuples themselves. No cost accounting.
///
/// The sort is an in-repo introsort that repeats libstdc++'s std::sort
/// step for step (median of three moved to the front, unguarded
/// partition, a 2·⌊log₂ n⌋ depth limit with a heap-sort fallback, a final
/// insertion pass over 16-element runs), so whichever standard library
/// builds it, it makes the comparisons libstdc++'s std::sort makes, on
/// which the simulated sort charges were pinned. Given `fan_out`, the prefix
/// build runs in kPassChunk chunks on its pool and both halves of every
/// partition above kSortForkCutoff fork; each leaf range sorts serially
/// and runs its own slice of the insertion pass. The one comparison an
/// insertion would make across a leaf's left cut is always false (the
/// partitions are ordered), so the leaf counts it without making it: no
/// task reads outside its range, and permutation, count and prefixes
/// equal std::sort's at any width.
void SortRunRange(TupleRefs* run, const std::vector<int>& key,
                  int64_t* comparisons, KeyPrefixes* prefixes = nullptr,
                  FanOut* fan_out = nullptr);

/// Merge-join kernel over sorted ranges: appends one concatenated tuple
/// per matching (left, right) pair to `*out` (if non-null) and the
/// comparison count to `*comparisons` (must be non-null).
int64_t MergeJoinRange(TupleRefSpan left, KeyPrefixSpan left_prefixes,
                       const std::vector<int>& left_key, TupleRefSpan right,
                       KeyPrefixSpan right_prefixes,
                       const std::vector<int>& right_key,
                       std::vector<Tuple>* out, int64_t* comparisons);
int64_t MergeJoinRange(TupleRefSpan left, const std::vector<int>& left_key,
                       TupleRefSpan right, const std::vector<int>& right_key,
                       std::vector<Tuple>* out, int64_t* comparisons);

/// Appends the concatenation of every (left[a], right[b]) pair, a in
/// [lbeg, lend) and b in [rbeg, rend), to `*out` in left-major order: the
/// output of one matching key group of a merge join.
void AppendJoined(TupleRefSpan left, size_t lbeg, size_t lend,
                  TupleRefSpan right, size_t rbeg, size_t rend,
                  std::vector<Tuple>* out);

/// Merge-intersect kernel over ranges sorted on all columns: each matching
/// group contributes (left multiplicity × right multiplicity) outputs, the
/// left tuples' references, appended to `*out` (if non-null). Appends the
/// comparison count to `*comparisons` (must be non-null).
int64_t MergeIntersectRange(TupleRefSpan left, KeyPrefixSpan left_prefixes,
                            TupleRefSpan right, KeyPrefixSpan right_prefixes,
                            TupleRefs* out, int64_t* comparisons);
int64_t MergeIntersectRange(TupleRefSpan left, TupleRefSpan right,
                            TupleRefs* out, int64_t* comparisons);

/// Merges two runs sorted on all columns, with their prefixes, into one
/// sorted run and its prefixes, as std::merge does: on equal keys the
/// tuples of `first` come first. Counts nothing (a projection charges its
/// merge per output tuple).
void MergeSortedRuns(TupleRefSpan first, KeyPrefixSpan first_prefixes,
                     TupleRefSpan second, KeyPrefixSpan second_prefixes,
                     TupleRefs* out, KeyPrefixes* out_prefixes);

/// Splits a run sorted on `key` (all columns when empty) into at most
/// `max_parts` contiguous chunks of roughly equal size, each at least
/// `min_chunk` tuples, with every boundary on a key-group start (equal-key
/// tuples never straddle chunks). Returns the boundary indices, starting
/// with 0 and ending with run.size(); size() - 1 is the chunk count.
/// Depends only on the data — not on the worker count — so a partitioned
/// evaluation is bit-identical at any parallelism.
std::vector<size_t> PartitionSortedRun(TupleRefSpan run,
                                       KeyPrefixSpan prefixes,
                                       const std::vector<int>& key,
                                       size_t max_parts, size_t min_chunk);

/// First index in `run` (sorted on `run_key`) whose key compares >= the
/// probe's key (probe read through `probe_key`, its prefix
/// `probe_prefix`). Empty keys compare whole tuples. Binary search;
/// charges nothing.
size_t LowerBoundCrossKey(TupleRefSpan run, KeyPrefixSpan run_prefixes,
                          const std::vector<int>& run_key,
                          const Tuple& probe, uint64_t probe_prefix,
                          const std::vector<int>& probe_key);

/// Merge-intersects two runs sorted on all columns. Each matching group
/// contributes (left multiplicity × right multiplicity) output references
/// — the number of 1-points in the point space. Charges merge comparisons
/// and output-page writes.
TupleRefs MergeIntersect(TupleRefSpan left, TupleRefSpan right,
                         const Schema& schema, CostLedger* ledger,
                         const CostModel& model, OpMetrics* metrics);

/// Merge-joins two runs sorted on the given key columns, producing
/// concatenated tuples. Charges merge comparisons and output-page writes.
std::vector<Tuple> MergeJoin(TupleRefSpan left,
                             const std::vector<int>& left_key,
                             const Schema& left_schema, TupleRefSpan right,
                             const std::vector<int>& right_key,
                             const Schema& right_schema, CostLedger* ledger,
                             const CostModel& model, OpMetrics* metrics);

/// One distinct tuple (a reference to its first occurrence in the deduped
/// run) and how many times it occurred.
struct GroupCount {
  const Tuple* tuple = nullptr;
  int64_t count = 0;
};

/// Scans a run sorted on all columns, with its prefixes, and collapses
/// duplicates, returning each distinct tuple with its occupancy (step 3
/// of the paper's Project algorithm, which writes "distinct tuples with
/// their occupancy"). Charges one merge comparison per input tuple and
/// output-page writes.
std::vector<GroupCount> DedupSorted(TupleRefSpan tuples,
                                    KeyPrefixSpan prefixes,
                                    const Schema& schema, CostLedger* ledger,
                                    const CostModel& model,
                                    OpMetrics* metrics);

/// Projects `tuples` onto the given column positions, materializing the
/// new tuples (no dedup; charges tuple moves only — dedup is SortRun +
/// DedupSorted).
std::vector<Tuple> ProjectColumns(TupleRefSpan tuples,
                                  const std::vector<int>& columns,
                                  CostLedger* ledger, const CostModel& model,
                                  StepMetrics* metrics);

}  // namespace tcq

#endif  // TCQ_EXEC_OPERATORS_H_
