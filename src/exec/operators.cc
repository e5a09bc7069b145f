#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace tcq {

namespace {

/// Accumulates charges into both the ledger and a local step counter so
/// each operator step knows the simulated time it consumed.
class ChargeScope {
 public:
  ChargeScope(CostLedger* ledger, StepMetrics* metrics)
      : ledger_(ledger), metrics_(metrics) {}

  void ChargeN(CostCategory category, int64_t count, double unit_seconds) {
    if (count <= 0) return;
    // The one sanctioned pass-through: callers of this scope already name
    // their CostCategory::k... literally at every ChargeN call site.
    if (ledger_ != nullptr) {
      ledger_->ChargeN(  // tcq-lint: allow(ledger-category-charged)
          category, count, unit_seconds);
    }
    if (metrics_ != nullptr) {
      metrics_->seconds += unit_seconds * static_cast<double>(count);
    }
  }

 private:
  CostLedger* ledger_;
  StepMetrics* metrics_;
};

/// Charges the output-writing step (tuple moves + page writes) and records
/// it into `step`.
void ChargeOutput(const Schema& schema, int64_t out_tuples,
                  CostLedger* ledger, const CostModel& model,
                  StepMetrics* step) {
  ChargeScope charge(ledger, step);
  int64_t pages = PagesFor(schema, out_tuples);
  charge.ChargeN(CostCategory::kTupleMove, out_tuples, model.tuple_move_s);
  charge.ChargeN(CostCategory::kBlockWrite, pages, model.block_write_s);
  if (step != nullptr) {
    step->out_tuples += out_tuples;
    step->out_pages += pages;
  }
}

/// KeyPrefix, inlined into the per-tuple loops of the sort kernels.
[[gnu::always_inline]] inline uint64_t PrefixOf(Cell cell, DataType type) {
  switch (type) {
    case DataType::kInt64:
      // Flipping the sign bit turns two's-complement order into unsigned
      // order.
      return static_cast<uint64_t>(cell.int64()) ^ (1ull << 63);
    case DataType::kDouble: {
      double d = cell.float64();
      if (d == 0.0) d = 0.0;  // -0.0, which CompareCells ties with +0.0
      uint64_t u = 0;
      std::memcpy(&u, &d, sizeof(u));
      // Negative: reverse the order of the whole range; positive: lift
      // above every negative.
      return (u >> 63) != 0 ? ~u : u ^ (1ull << 63);
    }
    case DataType::kString:
      break;
  }
  // A string's first 8 bytes, zero-padded.
  const std::string_view s = cell.string();
  uint64_t u = 0;
  const size_t n = std::min<size_t>(s.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    u |= uint64_t{static_cast<uint8_t>(s[i])} << (56 - 8 * i);
  }
  return u;
}

/// The prefix of `row`'s leading key column.
[[gnu::always_inline]] inline uint64_t LeadPrefix(Row row, const Key& key) {
  return PrefixOf(row[static_cast<size_t>(key[0].column)], key[0].type);
}

/// Prefix-first three-way comparison of two keyed rows, `a` read through
/// `a_key` and `b` through `b_key` (keys of one length and of the same
/// column types, the arity of the comparison). Unequal prefixes decide.
/// Equal ones fall through to the key columns — from the leading column
/// when it is a string, whose prefix holds only its first bytes, and from
/// the next one when it is numeric, whose prefix is exact — so a single
/// numeric key column never reaches a cell. Same sign as the plain tuple
/// comparison for every pair.
class PrefixCompare {
 public:
  PrefixCompare(const Key& a_key, const Key& b_key)
      : a_key_(a_key),
        b_key_(b_key),
        first_(a_key[0].type == DataType::kString ? 0 : 1) {
    TCQ_DCHECK(!a_key.empty() && a_key.size() == b_key.size(),
               "compared keys are empty or differ in length");
  }

  int operator()(const KeyedRow& a, const KeyedRow& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
    for (size_t k = first_; k < a_key_.size(); ++k) {
      int c = CompareCells(a.cells[static_cast<size_t>(a_key_[k].column)],
                           b.cells[static_cast<size_t>(b_key_[k].column)],
                           a_key_[k].type);
      if (c != 0) return c;
    }
    return 0;
  }

 private:
  const Key& a_key_;
  const Key& b_key_;
  size_t first_;
};

/// The merge loop shared by the intersect and join kernels, over two runs
/// sorted on their keys: steps past unequal keys and hands each equal-key
/// group, left [i, i_end) × right [j, j_end), to `on_group`. Returns the
/// comparison count: one per cross probe and one per group-extension
/// probe.
template <typename OnGroup>
int64_t MergePrefixedRuns(KeyedSpan left, const Key& left_key,
                          KeyedSpan right, const Key& right_key,
                          OnGroup&& on_group) {
  const PrefixCompare cross(left_key, right_key);
  const PrefixCompare left_self(left_key, left_key);
  const PrefixCompare right_self(right_key, right_key);
  size_t i = 0, j = 0;
  int64_t comps = 0;
  while (i < left.size() && j < right.size()) {
    ++comps;
    int c = cross(left[i], right[j]);
    if (c != 0) {
      // Exactly one side advances, as in a branchy merge.
      i += static_cast<size_t>(c < 0);
      j += static_cast<size_t>(c > 0);
      continue;
    }
    size_t i_end = i + 1;
    while (i_end < left.size()) {
      ++comps;
      if (left_self(left[i_end], left[i]) != 0) break;
      ++i_end;
    }
    size_t j_end = j + 1;
    while (j_end < right.size()) {
      ++comps;
      if (right_self(right[j_end], right[j]) != 0) break;
      ++j_end;
    }
    on_group(i, i_end, j, j_end);
    i = i_end;
    j = j_end;
  }
  return comps;
}

/// A pass over a run reads the handles in order and chases one pointer
/// per row, into a block's cell array scattered over the heap. Prefetching
/// the cell the pass reads this many rows ahead overlaps those misses.
constexpr size_t kPrefetchAhead = 8;

/// Prefetches for step i of a pass over run[lo, hi) that reads `column`.
[[gnu::always_inline]] inline void PrefetchAhead(RowSpan run, size_t i,
                                                 size_t hi, size_t column) {
  if (i + kPrefetchAhead < hi) {
    __builtin_prefetch(run[i + kPrefetchAhead].data() + column);
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The chunks of `chunk` items a pass over `n` items splits into: one,
/// run inline with no task, when n fits in a chunk or there is no fan-out.
size_t PassChunks(const FanOut* fan_out, size_t n, size_t chunk) {
  return fan_out == nullptr || n <= chunk ? 1 : (n + chunk - 1) / chunk;
}

/// ---- Introsort -----------------------------------------------------------
///
/// libstdc++'s std::sort, step for step (bits/stl_algo.h, stl_heap.h):
/// the same comparisons on the same positions in the same order, so the
/// permutation and the comparison count equal std::sort's. `less` counts
/// every comparison it makes.

/// Runs of at most this many elements are left to the insertion pass
/// (_S_threshold).
constexpr ptrdiff_t kInsertionRun = 16;

template <typename T, typename Less>
void MoveMedianToFirst(T* result, T* a, T* b, T* c, Less& less) {
  if (less(*a, *b)) {
    if (less(*b, *c)) {
      std::iter_swap(result, b);
    } else if (less(*a, *c)) {
      std::iter_swap(result, c);
    } else {
      std::iter_swap(result, a);
    }
  } else if (less(*a, *c)) {
    std::iter_swap(result, a);
  } else if (less(*b, *c)) {
    std::iter_swap(result, c);
  } else {
    std::iter_swap(result, b);
  }
}

/// Partitions [first, last) around `*pivot` (at first − 1, which bounds
/// the scans), returning the cut: nothing before it is greater than the
/// pivot, nothing from it on is less.
template <typename T, typename Less>
T* UnguardedPartition(T* first, T* last, T* pivot, Less& less) {
  for (;;) {
    while (less(*first, *pivot)) ++first;
    --last;
    while (less(*pivot, *last)) --last;
    if (!(first < last)) return first;
    std::iter_swap(first, last);
    ++first;
  }
}

template <typename T, typename Less>
T* UnguardedPartitionPivot(T* first, T* last, Less& less) {
  T* mid = first + (last - first) / 2;
  MoveMedianToFirst(first, first + 1, mid, last - 1, less);
  return UnguardedPartition(first + 1, last, first, less);
}

/// std::__adjust_heap followed by its std::__push_heap.
template <typename T, typename Less>
void AdjustHeap(T* first, ptrdiff_t hole, ptrdiff_t len, T value,
                Less& less) {
  const ptrdiff_t top = hole;
  ptrdiff_t child = hole;
  while (child < (len - 1) / 2) {
    child = 2 * (child + 1);
    if (less(first[child], first[child - 1])) --child;
    first[hole] = std::move(first[child]);
    hole = child;
  }
  if ((len & 1) == 0 && child == (len - 2) / 2) {
    child = 2 * (child + 1);
    first[hole] = std::move(first[child - 1]);
    hole = child - 1;
  }
  ptrdiff_t parent = (hole - 1) / 2;
  while (hole > top && less(first[parent], value)) {
    first[hole] = std::move(first[parent]);
    hole = parent;
    parent = (hole - 1) / 2;
  }
  first[hole] = std::move(value);
}

/// The depth-limit fallback, std::partial_sort(first, last, last):
/// make_heap, then sort_heap.
template <typename T, typename Less>
void HeapSort(T* first, T* last, Less& less) {
  const ptrdiff_t len = last - first;
  if (len >= 2) {
    for (ptrdiff_t parent = (len - 2) / 2;; --parent) {
      T value = std::move(first[parent]);
      AdjustHeap(first, parent, len, std::move(value), less);
      if (parent == 0) break;
    }
  }
  while (last - first > 1) {
    --last;
    T value = std::move(*last);
    *last = std::move(*first);
    AdjustHeap(first, ptrdiff_t{0}, last - first, std::move(value), less);
  }
}

template <typename T, typename Less>
void IntroSortLoop(T* first, T* last, ptrdiff_t depth, Less& less) {
  while (last - first > kInsertionRun) {
    if (depth == 0) {
      HeapSort(first, last, less);
      return;
    }
    --depth;
    T* cut = UnguardedPartitionPivot(first, last, less);
    IntroSortLoop(cut, last, depth, less);
    last = cut;
  }
}

/// std::sort's depth limit for `n` elements: 2·⌊log₂ n⌋.
ptrdiff_t DepthLimit(size_t n) {
  return 2 * static_cast<ptrdiff_t>(std::bit_width(n) - 1);
}

/// The final insertion pass (std::__final_insertion_sort) restricted to
/// the leaf range [lo, hi) of the array `a`, after IntroSortLoop sorted
/// every leaf: positions below 16 take std::__insertion_sort's guarded
/// step, which first compares against a[0]; the rest insert unguarded.
/// No element of a later leaf is less than one of an earlier leaf, so a
/// comparison against a[0] from a leaf with lo > 0, and the comparison an
/// insertion makes on reaching a[lo − 1], are always false: they are
/// counted without being made. Returns that count.
template <typename T, typename Less>
int64_t InsertionPass(T* a, size_t lo, size_t hi, Less& less) {
  int64_t skipped = 0;
  for (size_t i = std::max<size_t>(lo, 1); i < hi; ++i) {
    if (i < static_cast<size_t>(kInsertionRun)) {
      if (lo > 0) {
        ++skipped;
      } else if (less(a[i], a[0])) {
        T value = std::move(a[i]);
        std::move_backward(a, a + i, a + i + 1);
        a[0] = std::move(value);
        continue;
      }
    }
    T value = std::move(a[i]);
    size_t j = i;
    while (j > lo && less(value, a[j - 1])) {
      a[j] = std::move(a[j - 1]);
      --j;
    }
    if (j == lo && lo > 0) ++skipped;
    a[j] = std::move(value);
  }
  return skipped;
}

/// The counting prefix-first comparator of the sort kernel. Unequal
/// prefixes decide inline; only a tie calls into PrefixCompare.
class KeyedLess {
 public:
  explicit KeyedLess(const PrefixCompare& cmp) : cmp_(cmp) {}
  bool operator()(const KeyedRow& a, const KeyedRow& b) {
    ++count_;
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return cmp_(a, b) < 0;
  }
  int64_t count() const { return count_; }

 private:
  const PrefixCompare& cmp_;
  int64_t count_ = 0;
};

/// Sorts items[lo, hi) with `depth` levels left, forking both halves of a
/// partition above kSortForkCutoff when `fan_out` is given. Returns the
/// comparisons std::sort makes on the range.
int64_t SortRange(KeyedRow* items, const PrefixCompare& cmp, size_t lo,
                  size_t hi, ptrdiff_t depth, FanOut* fan_out) {
  KeyedLess less(cmp);
  if (fan_out != nullptr && hi - lo > kSortForkCutoff && depth > 0) {
    KeyedRow* cut = UnguardedPartitionPivot(items + lo, items + hi, less);
    const auto mid = static_cast<size_t>(cut - items);
    int64_t halves[2] = {0, 0};
    RunSection(fan_out, 2, [&](size_t i, FanOut* inner) {
      halves[i] = i == 0 ? SortRange(items, cmp, mid, hi, depth - 1, inner)
                         : SortRange(items, cmp, lo, mid, depth - 1, inner);
    });
    return less.count() + halves[0] + halves[1];
  }
  IntroSortLoop(items + lo, items + hi, depth, less);
  // The insertion pass counts through `less` too: read the count after it.
  const int64_t skipped = InsertionPass(items, lo, hi, less);
  return less.count() + skipped;
}

}  // namespace

void RunSection(FanOut* fan_out, size_t count,
                const std::function<void(size_t, FanOut*)>& body) {
  // Each task's work and the task count of its inner sections.
  struct TaskTally {
    double work = 0.0;
    int inner_tasks = 0;
  };
  std::vector<TaskTally> tallies(count);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tasks.push_back([fan_out, &body, &tallies, i] {
      FanOut sub{fan_out->pool, fan_out->max_width, {}};
      auto start = std::chrono::steady_clock::now();
      body(i, &sub);
      tallies[i] = {SecondsSince(start) - sub.stats.span_seconds +
                        sub.stats.work_seconds,
                    sub.stats.tasks};
    });
  }
  auto start = std::chrono::steady_clock::now();
  RunTasks(fan_out->pool, &tasks, fan_out->max_width);
  fan_out->stats.span_seconds += SecondsSince(start);
  fan_out->stats.tasks += static_cast<int>(count);
  for (const TaskTally& tally : tallies) {
    fan_out->stats.work_seconds += tally.work;
    fan_out->stats.tasks += tally.inner_tasks;
  }
}

Rows CollectChunks(FanOut* fan_out, size_t n, size_t chunk,
                   size_t rows_per_item,
                   const std::function<void(size_t, size_t, Rows*)>& fill) {
  Rows out;
  const size_t chunks = PassChunks(fan_out, n, chunk);
  if (chunks == 1) {
    fill(0, n, &out);
    return out;
  }
  std::vector<Rows> parts(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    parts[c].reserve((std::min(n, (c + 1) * chunk) - c * chunk) *
                     rows_per_item);
  }
  RunSection(fan_out, chunks, [&](size_t c, FanOut*) {
    fill(c * chunk, std::min(n, (c + 1) * chunk), &parts[c]);
  });
  size_t total = 0;
  for (const Rows& part : parts) total += part.size();
  out.reserve(total);
  for (const Rows& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Rows SelectTuples(RowSpan tuples, const BoundPredicate& predicate,
                  const Schema& schema, CostLedger* ledger,
                  const CostModel& model, OpMetrics* metrics,
                  FanOut* fan_out) {
  Rows out = CollectChunks(
      fan_out, tuples.size(), kPassChunk, /*rows_per_item=*/1,
      [tuples, &predicate](size_t lo, size_t hi, Rows* part) {
        const auto column = static_cast<size_t>(predicate.first_column());
        for (size_t i = lo; i < hi; ++i) {
          PrefetchAhead(tuples, i, hi, column);
          if (predicate.Eval(tuples[i])) part->push_back(tuples[i]);
        }
      });
  const auto n = static_cast<int64_t>(tuples.size());
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  ChargeScope charge(ledger, process);
  charge.ChargeN(CostCategory::kPredicate, n * predicate.num_comparisons(),
                 model.predicate_compare_s);
  if (process != nullptr) {
    process->in_tuples += n;
    process->comparisons += n * predicate.num_comparisons();
  }
  ChargeOutput(schema, static_cast<int64_t>(out.size()), ledger, model,
               metrics != nullptr ? &metrics->output : nullptr);
  return out;
}

void ChargeTempWrite(const Schema& schema, int64_t num_tuples,
                     CostLedger* ledger, const CostModel& model,
                     StepMetrics* metrics) {
  ChargeScope charge(ledger, metrics);
  int64_t pages = PagesFor(schema, num_tuples);
  charge.ChargeN(CostCategory::kTupleMove, num_tuples, model.tuple_move_s);
  charge.ChargeN(CostCategory::kBlockWrite, pages, model.block_write_s);
  if (metrics != nullptr) {
    metrics->in_tuples += num_tuples;
    metrics->out_tuples += num_tuples;
    metrics->out_pages += pages;
  }
}

uint64_t KeyPrefix(Cell cell, DataType type) { return PrefixOf(cell, type); }

Key KeyOf(const Schema& schema, const std::vector<int>& columns) {
  Key key;
  key.reserve(columns.size());
  for (int c : columns) key.push_back({c, schema.column(c).type});
  return key;
}

Key AllColumns(const Schema& schema) {
  Key key;
  key.reserve(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    key.push_back({c, schema.column(c).type});
  }
  return key;
}

Status BindJoinKeys(
    const std::vector<std::pair<std::string, std::string>>& names,
    const Schema& left, const Schema& right, Key* left_key, Key* right_key) {
  for (const auto& [lname, rname] : names) {
    TCQ_ASSIGN_OR_RETURN(int li, left.IndexOf(lname));
    TCQ_ASSIGN_OR_RETURN(int ri, right.IndexOf(rname));
    const DataType type = left.column(li).type;
    if (right.column(ri).type != type) {
      return Status::InvalidArgument("join key type mismatch: '" + lname +
                                     "' vs '" + rname + "'");
    }
    left_key->push_back({li, type});
    right_key->push_back({ri, type});
  }
  return Status::OK();
}

void SortRunRange(RowSpan rows, const Key& key, KeyedRun* run,
                  int64_t* comparisons, FanOut* fan_out) {
  TCQ_DCHECK(run->size() == rows.size(), "the run is not sized to the rows");
  const size_t n = rows.size();
  if (n == 0) return;
  KeyedRow* items = run->begin();
  const auto lead = static_cast<size_t>(key[0].column);
  auto fill = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      PrefetchAhead(rows, i, hi, lead);
      items[i] = KeyedRow{LeadPrefix(rows[i], key), rows[i].data()};
    }
  };
  const size_t chunks = PassChunks(fan_out, n, kPassChunk);
  if (chunks == 1) {
    fill(0, n);
  } else {
    RunSection(fan_out, chunks, [&](size_t c, FanOut*) {
      fill(c * kPassChunk, std::min(n, (c + 1) * kPassChunk));
    });
  }
  const PrefixCompare cmp(key, key);
  *comparisons += SortRange(items, cmp, 0, n, DepthLimit(n), fan_out);
}

void ChargeSort(int64_t tuples, int64_t comparisons, CostLedger* ledger,
                const CostModel& model, StepMetrics* step) {
  ChargeScope charge(ledger, step);
  charge.ChargeN(CostCategory::kSortCompare, comparisons,
                 model.sort_compare_s);
  if (step != nullptr) {
    step->in_tuples += tuples;
    step->out_tuples += tuples;
    step->comparisons += comparisons;
  }
}

void AppendJoined(KeyedSpan left, size_t lbeg, size_t lend, KeyedSpan right,
                  size_t rbeg, size_t rend, JoinedCells* out) {
  for (size_t a = lbeg; a < lend; ++a) {
    for (size_t b = rbeg; b < rend; ++b) {
      out->cells.insert(out->cells.end(), left[a].cells,
                        left[a].cells + out->left_arity);
      out->cells.insert(out->cells.end(), right[b].cells,
                        right[b].cells + out->right_arity);
    }
  }
}

int64_t MergeIntersectRange(KeyedSpan left, KeyedSpan right,
                            const Key& all_columns, Rows* out,
                            int64_t* comparisons) {
  int64_t emitted = 0;
  *comparisons += MergePrefixedRuns(
      left, all_columns, right, all_columns,
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        // Equal group: one output point per (left, right) pair.
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) {
          for (size_t a = i; a < i_end; ++a) {
            out->insert(out->end(), j_end - j, left[a].row());
          }
        }
      });
  return emitted;
}

int64_t MergeJoinRange(KeyedSpan left, const Key& left_key, KeyedSpan right,
                       const Key& right_key, JoinedCells* out,
                       int64_t* comparisons) {
  TCQ_DCHECK(left_key.size() == right_key.size(),
             "join key lists differ in length");
  int64_t emitted = 0;
  *comparisons += MergePrefixedRuns(
      left, left_key, right, right_key,
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) AppendJoined(left, i, i_end, right, j, j_end, out);
      });
  return emitted;
}

KeyedRun MergeSortedRuns(KeyedSpan first, KeyedSpan second,
                         const Key& all_columns) {
  const PrefixCompare cmp(all_columns, all_columns);
  KeyedRun out(first.size() + second.size());
  std::merge(first.begin(), first.end(), second.begin(), second.end(),
             out.begin(), [&cmp](const KeyedRow& a, const KeyedRow& b) {
               return cmp(a, b) < 0;
             });
  return out;
}

std::vector<size_t> PartitionSortedRun(KeyedSpan run, const Key& key,
                                       size_t max_parts, size_t min_chunk) {
  const size_t n = run.size();
  if (min_chunk == 0) min_chunk = 1;
  size_t parts = n / min_chunk;
  if (parts > max_parts) parts = max_parts;
  if (parts < 1) parts = 1;
  std::vector<size_t> bounds;
  bounds.push_back(0);
  const PrefixCompare cmp(key, key);
  for (size_t p = 1; p < parts; ++p) {
    size_t target = p * n / parts;
    // Advance to the start of the next key group so equal keys stay in
    // one chunk.
    while (target < n && target > 0 &&
           cmp(run[target - 1], run[target]) == 0) {
      ++target;
    }
    if (target > bounds.back() && target < n) bounds.push_back(target);
  }
  bounds.push_back(n);
  return bounds;
}

size_t LowerBoundCrossKey(KeyedSpan run, const Key& run_key,
                          const KeyedRow& probe, const Key& probe_key) {
  const PrefixCompare cmp(run_key, probe_key);
  const auto bound = std::partition_point(
      run.begin(), run.end(),
      [&](const KeyedRow& row) { return cmp(row, probe) < 0; });
  return static_cast<size_t>(bound - run.begin());
}

std::vector<GroupCount> DedupSorted(KeyedSpan tuples, const Schema& schema,
                                    CostLedger* ledger,
                                    const CostModel& model,
                                    OpMetrics* metrics) {
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  const Key all_columns = AllColumns(schema);
  const PrefixCompare cmp(all_columns, all_columns);
  std::vector<GroupCount> out;
  int64_t comparisons = 0;
  size_t head = 0;  // index of the current group's first tuple
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (!out.empty()) {
      ++comparisons;
      if (cmp(tuples[head], tuples[i]) == 0) {
        ++out.back().count;
        continue;
      }
    }
    out.push_back(GroupCount{tuples[i].row(), 1});
    head = i;
  }
  ChargeScope charge(ledger, process);
  charge.ChargeN(CostCategory::kMergeCompare, comparisons,
                 model.merge_compare_s);
  if (process != nullptr) {
    process->in_tuples += static_cast<int64_t>(tuples.size());
    process->comparisons += comparisons;
  }
  ChargeOutput(schema, static_cast<int64_t>(out.size()), ledger, model,
               metrics != nullptr ? &metrics->output : nullptr);
  return out;
}

std::vector<Cell> ProjectColumns(RowSpan tuples,
                                 const std::vector<int>& columns,
                                 CostLedger* ledger, const CostModel& model,
                                 StepMetrics* metrics) {
  std::vector<Cell> out;
  out.reserve(tuples.size() * columns.size());
  for (Row row : tuples) {
    for (int c : columns) out.push_back(row[static_cast<size_t>(c)]);
  }
  ChargeScope charge(ledger, metrics);
  charge.ChargeN(CostCategory::kTupleMove,
                 static_cast<int64_t>(tuples.size()), model.tuple_move_s);
  if (metrics != nullptr) {
    metrics->in_tuples += static_cast<int64_t>(tuples.size());
    metrics->out_tuples += static_cast<int64_t>(tuples.size());
  }
  return out;
}

}  // namespace tcq
