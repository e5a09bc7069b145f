#ifndef TCQ_EXEC_OPERATORS_H_
#define TCQ_EXEC_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
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
/// The staged evaluator's passes over a run — the scan's row fill,
/// selection, the sort's prefix build and the sort itself — split into
/// tasks whose boundaries depend only on the data: fixed-size chunks, and
/// the sort's own partition cuts. A null pool runs the identical task list
/// inline, so every output, count and charge is the same at any width
/// (DESIGN.md, "Threading model"). A pass that fits in one chunk runs
/// inline with no task at all.

/// Tuples per chunk of a chunked pass (selection, a sort's prefix build,
/// and — in blocks of that many rows — a scan's row fill).
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
/// each call appending at most `rows_per_item` rows per item to `*out`,
/// and returns them in item order. When n fits in one chunk or
/// `fan_out` is null, one call fills the result inline; otherwise each
/// chunk fills its own run on its own task (RunSection) and the runs
/// concatenate in chunk order. The chunk runs are reserved to their bound
/// on the calling thread, so the tasks do not allocate.
Rows CollectChunks(FanOut* fan_out, size_t n, size_t chunk,
                   size_t rows_per_item,
                   const std::function<void(size_t, size_t, Rows*)>& fill);

/// Evaluates a selection formula over `tuples`, charging one predicate
/// comparison per formula leaf per tuple plus output-page writes, and
/// returns the handles of the qualifying rows. The input tuples are
/// assumed already paid for (block fetch happens at sampling time;
/// intermediate inputs were paid for by the producer). Given `fan_out`, a
/// run of more than kPassChunk tuples evaluates chunk by chunk on its
/// pool; the survivors concatenate in chunk order and the charges come
/// from the totals after the barrier, as in one pass.
Rows SelectTuples(RowSpan tuples, const BoundPredicate& predicate,
                  const Schema& schema, CostLedger* ledger,
                  const CostModel& model, OpMetrics* metrics,
                  FanOut* fan_out = nullptr);

/// Writes `tuples` to a temporary file (step 1 of the paper's intersect/
/// join/project algorithms, Figures 4.4/4.6/4.7): charges one tuple move
/// per tuple and one page write per output page.
void ChargeTempWrite(const Schema& schema, int64_t num_tuples,
                     CostLedger* ledger, const CostModel& model,
                     StepMetrics* metrics);

/// ---- Keyed runs ---------------------------------------------------------
///
/// A key lists the columns a kernel compares, in order, each with its
/// type, and is never empty: an intersection, a projection's dedup and the
/// oracle's set operations compare every column, AllColumns(schema). A
/// key's length is the arity of its comparisons and its types are those of
/// the cells it reads, so no kernel reads a row's width or a cell's type
/// from the row.
///
/// A sorted run is one array of keyed rows: each row's handle beside an
/// 8-byte order-preserving prefix of its leading key column, compared as
/// an unsigned integer: an int64 with its sign bit flipped; a double's
/// IEEE-754 bits (-0.0 normalized to +0.0) with every bit flipped when
/// negative and only the sign bit flipped otherwise; a string's first 8
/// bytes, big-endian, zero-padded. A smaller prefix means a smaller key;
/// equal prefixes leave the order to the full key comparison, which the
/// kernels then call. A numeric prefix is exact (equal prefixes, equal
/// values), so a single numeric key column is never compared any other
/// way. Every comparator returns the same sign as the plain tuple
/// comparison for every pair, so sorts make the same decisions and the
/// kernels count the same comparisons (DESIGN.md, "Run representation").

/// One compared column: its position in the row and its type.
struct KeyColumn {
  int column = 0;
  DataType type = DataType::kInt64;
};
using Key = std::vector<KeyColumn>;

/// The key of `schema`'s columns at `columns`, in that order.
Key KeyOf(const Schema& schema, const std::vector<int>& columns);

/// The key of every column of `schema`, in order.
Key AllColumns(const Schema& schema);

/// Resolves a join's (left, right) key column names against its operands'
/// schemas into its two keys: NotFound for an unknown name,
/// InvalidArgument when a pair's column types differ, since the merge
/// reads both cells as one type.
[[nodiscard]] Status BindJoinKeys(
    const std::vector<std::pair<std::string, std::string>>& names,
    const Schema& left, const Schema& right, Key* left_key, Key* right_key);

/// The order-preserving 8-byte prefix of a `type` cell. NaN has none:
/// storage rejects it at every entry point (Schema::ValidateTuple, page
/// decoding).
uint64_t KeyPrefix(Cell cell, DataType type);

/// One element of a sorted run: the prefix of a row's leading key column
/// and the row's first cell. Trivially default-constructible, unlike Row,
/// whose handle starts out null, so a run's array is allocated for
/// overwrite and the sort fills it in one (chunked) pass.
struct KeyedRow {
  uint64_t prefix;
  const Cell* cells;

  Row row() const { return Row(cells); }
};
static_assert(std::is_trivially_default_constructible_v<KeyedRow>);

/// Read-only view of a sorted run (or of a contiguous part of one).
using KeyedSpan = std::span<const KeyedRow>;

/// A sorted run: `size()` keyed rows in one array allocated for overwrite.
/// Sizing a run writes no element, so no page is touched before the
/// sort's fill.
class KeyedRun {
 public:
  KeyedRun() = default;
  explicit KeyedRun(size_t size)
      : rows_(std::make_unique_for_overwrite<KeyedRow[]>(size)),
        size_(size) {}

  size_t size() const { return size_; }
  KeyedRow* begin() { return rows_.get(); }
  KeyedRow* end() { return rows_.get() + size_; }
  const KeyedRow* begin() const { return rows_.get(); }
  const KeyedRow* end() const { return rows_.get() + size_; }
  const KeyedRow& operator[](size_t i) const { return rows_[i]; }

 private:
  std::unique_ptr<KeyedRow[]> rows_;
  size_t size_ = 0;
};

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
/// (the root of a COUNT term) is counted, never built.

/// Sort kernel: fills `*run`, which the caller sized to rows.size(), with
/// the keyed rows of `rows` sorted on `key`, appending the comparison
/// count to `*comparisons` (must be non-null). Same comparator decisions —
/// hence the same permutation and comparison count — as sorting the rows
/// themselves. Allocates no run-sized buffer. No cost accounting.
///
/// The sort is an in-repo introsort that repeats libstdc++'s std::sort
/// step for step (median of three moved to the front, unguarded
/// partition, a 2·⌊log₂ n⌋ depth limit with a heap-sort fallback, a final
/// insertion pass over 16-element runs), so whichever standard library
/// builds it, it makes the comparisons libstdc++'s std::sort makes, on
/// which the simulated sort charges were pinned. Given `fan_out`, the fill
/// runs in kPassChunk chunks on its pool and both halves of every
/// partition above kSortForkCutoff fork; each leaf range sorts serially
/// and runs its own slice of the insertion pass. The one comparison an
/// insertion would make across a leaf's left cut is always false (the
/// partitions are ordered), so the leaf counts it without making it: no
/// task reads outside its range, and permutation and count equal
/// std::sort's at any width.
void SortRunRange(RowSpan rows, const Key& key, KeyedRun* run,
                  int64_t* comparisons, FanOut* fan_out = nullptr);

/// Charges a sort of `tuples` tuples that made `comparisons` comparisons
/// (step 2, external sort; eq. 4.3's `C2·n·log n + C3·n` shape emerges
/// from the realized comparison count) and records it into `step`. Called
/// after the sort's barrier, once per sorted run, in a fixed order.
void ChargeSort(int64_t tuples, int64_t comparisons, CostLedger* ledger,
                const CostModel& model, StepMetrics* step);

/// The rows a join creates, cell by cell: each row is a left row's
/// `left_arity` cells followed by a right row's `right_arity` cells. A
/// string cell is copied as its reference, so it reads the bytes of the
/// block the input row lies in.
struct JoinedCells {
  size_t left_arity = 0;
  size_t right_arity = 0;
  std::vector<Cell> cells;

  size_t arity() const { return left_arity + right_arity; }
  size_t size() const { return arity() == 0 ? 0 : cells.size() / arity(); }
  bool empty() const { return cells.empty(); }
  Row row(size_t i) const { return Row(cells.data() + i * arity()); }
  bool operator==(const JoinedCells&) const = default;
};

/// Merge-join kernel over sorted ranges: appends one concatenated row per
/// matching (left, right) pair to `*out` (if non-null) and the comparison
/// count to `*comparisons` (must be non-null).
int64_t MergeJoinRange(KeyedSpan left, const Key& left_key, KeyedSpan right,
                       const Key& right_key, JoinedCells* out,
                       int64_t* comparisons);

/// Appends the concatenation of every (left[a], right[b]) pair, a in
/// [lbeg, lend) and b in [rbeg, rend), to `*out` in left-major order: the
/// output of one matching key group of a merge join.
void AppendJoined(KeyedSpan left, size_t lbeg, size_t lend, KeyedSpan right,
                  size_t rbeg, size_t rend, JoinedCells* out);

/// Merge-intersect kernel over ranges of rows sorted on `all_columns`, the
/// key of every column: each matching group contributes (left
/// multiplicity × right multiplicity) outputs, the left rows' handles,
/// appended to `*out` (if non-null). Appends the comparison count to
/// `*comparisons` (must be non-null).
int64_t MergeIntersectRange(KeyedSpan left, KeyedSpan right,
                            const Key& all_columns, Rows* out,
                            int64_t* comparisons);

/// Merges two runs sorted on `all_columns`, the key of every column, into
/// one sorted run, as std::merge does: on equal keys the rows of `first`
/// come first. Counts nothing (a projection charges its merge per output
/// tuple).
KeyedRun MergeSortedRuns(KeyedSpan first, KeyedSpan second,
                         const Key& all_columns);

/// Splits a run sorted on `key` into at most
/// `max_parts` contiguous chunks of roughly equal size, each at least
/// `min_chunk` tuples, with every boundary on a key-group start (equal-key
/// tuples never straddle chunks). Returns the boundary indices, starting
/// with 0 and ending with run.size(); size() - 1 is the chunk count.
/// Depends only on the data — not on the worker count — so a partitioned
/// evaluation is bit-identical at any parallelism.
std::vector<size_t> PartitionSortedRun(KeyedSpan run, const Key& key,
                                       size_t max_parts, size_t min_chunk);

/// First index in `run` (sorted on `run_key`) whose key compares >= the
/// probe's key (probe read through `probe_key`, its prefix that of
/// probe_key's leading column). Binary search; charges nothing.
size_t LowerBoundCrossKey(KeyedSpan run, const Key& run_key,
                          const KeyedRow& probe, const Key& probe_key);

/// One distinct tuple (the handle of its first occurrence in the deduped
/// run) and how many times it occurred.
struct GroupCount {
  Row tuple;
  int64_t count = 0;
};

/// Scans a run sorted on all columns and collapses duplicates, returning
/// each distinct tuple with its occupancy (step 3 of the paper's Project
/// algorithm, which writes "distinct tuples with their occupancy").
/// Charges one merge comparison per input tuple after the first, and
/// output-page writes.
std::vector<GroupCount> DedupSorted(KeyedSpan tuples, const Schema& schema,
                                    CostLedger* ledger,
                                    const CostModel& model,
                                    OpMetrics* metrics);

/// Projects `tuples` onto the given column positions, materializing the
/// new rows' cells, columns.size() per row, back to back (no dedup;
/// charges tuple moves only — dedup is SortRunRange + DedupSorted). String
/// cells are copied as references, as a join's are.
std::vector<Cell> ProjectColumns(RowSpan tuples,
                                  const std::vector<int>& columns,
                                  CostLedger* ledger, const CostModel& model,
                                  StepMetrics* metrics);

}  // namespace tcq

#endif  // TCQ_EXEC_OPERATORS_H_
