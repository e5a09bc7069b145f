#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
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
[[gnu::always_inline]] inline uint64_t PrefixOf(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    // Flipping the sign bit turns two's-complement order into unsigned
    // order.
    return static_cast<uint64_t>(*i) ^ (1ull << 63);
  }
  if (const double* x = std::get_if<double>(&v)) {
    double d = *x;
    if (d == 0.0) d = 0.0;  // -0.0, which CompareValues ties with +0.0
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    // Negative: reverse the order of the whole range; positive: lift
    // above every negative.
    return (u >> 63) != 0 ? ~u : u ^ (1ull << 63);
  }
  // A string's first 8 bytes, zero-padded.
  const std::string& s = std::get<std::string>(v);
  uint64_t u = 0;
  const size_t n = std::min<size_t>(s.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    u |= uint64_t{static_cast<uint8_t>(s[i])} << (56 - 8 * i);
  }
  return u;
}

/// The prefix of `t`'s leading key column (column 0 when `key` is empty).
[[gnu::always_inline]] inline uint64_t LeadPrefix(
    const Tuple& t, const std::vector<int>& key) {
  if (key.empty()) return t.empty() ? 0 : PrefixOf(t[0]);
  return PrefixOf(t[static_cast<size_t>(key[0])]);
}

/// Prefix-first three-way comparison of two tuples' keys, `a` read through
/// `a_key` and `b` through `b_key` (an empty key is all columns). Unequal
/// prefixes decide. Equal ones fall through to the key columns — from the
/// leading column when it is a string, whose prefix holds only its first
/// bytes, and from the next one when it is numeric, whose prefix is exact
/// — so a single numeric key column never reaches a tuple. Same sign as
/// CompareTuples/CompareTuplesOnKey for every pair.
class PrefixCompare {
 public:
  /// `run`'s first tuple, read through `a_key`, fixes the key arity and the
  /// leading column's type; an empty run leaves nothing to compare.
  PrefixCompare(const std::vector<int>& a_key, const std::vector<int>& b_key,
                TupleRefSpan run)
      : a_key_(a_key), b_key_(b_key) {
    if (run.empty()) return;
    const Tuple& t = *run[0];
    arity_ = a_key.empty() ? t.size() : a_key.size();
    if (arity_ > 0 &&
        ValueType(t[Column(a_key, 0)]) != DataType::kString) {
      first_ = 1;
    }
  }

  int operator()(uint64_t pa, const Tuple& a, uint64_t pb,
                 const Tuple& b) const {
    if (pa != pb) return pa < pb ? -1 : 1;
    for (size_t k = first_; k < arity_; ++k) {
      int c = CompareValues(a[Column(a_key_, k)], b[Column(b_key_, k)]);
      if (c != 0) return c;
    }
    return 0;
  }

 private:
  static size_t Column(const std::vector<int>& key, size_t k) {
    return key.empty() ? k : static_cast<size_t>(key[k]);
  }

  const std::vector<int>& a_key_;
  const std::vector<int>& b_key_;
  size_t arity_ = 0;
  size_t first_ = 0;
};

/// The merge loop shared by the intersect and join kernels, over two runs
/// sorted on their keys with their prefixes: steps past unequal keys and
/// hands each equal-key group, left [i, i_end) × right [j, j_end), to
/// `on_group`. Returns the comparison count: one per cross probe and one
/// per group-extension probe.
template <typename OnGroup>
int64_t MergePrefixedRuns(TupleRefSpan left, KeyPrefixSpan left_prefixes,
                          const std::vector<int>& left_key,
                          TupleRefSpan right, KeyPrefixSpan right_prefixes,
                          const std::vector<int>& right_key,
                          OnGroup&& on_group) {
  TCQ_DCHECK(left_prefixes.size() == left.size() &&
                 right_prefixes.size() == right.size(),
             "prefixes do not match their runs");
  const PrefixCompare cross(left_key, right_key, left);
  const PrefixCompare left_self(left_key, left_key, left);
  const PrefixCompare right_self(right_key, right_key, right);
  size_t i = 0, j = 0;
  int64_t comps = 0;
  while (i < left.size() && j < right.size()) {
    ++comps;
    int c = cross(left_prefixes[i], *left[i], right_prefixes[j], *right[j]);
    if (c != 0) {
      // Exactly one side advances, as in a branchy merge.
      i += static_cast<size_t>(c < 0);
      j += static_cast<size_t>(c > 0);
      continue;
    }
    size_t i_end = i + 1;
    while (i_end < left.size()) {
      ++comps;
      if (left_self(left_prefixes[i_end], *left[i_end], left_prefixes[i],
                    *left[i]) != 0) {
        break;
      }
      ++i_end;
    }
    size_t j_end = j + 1;
    while (j_end < right.size()) {
      ++comps;
      if (right_self(right_prefixes[j_end], *right[j_end], right_prefixes[j],
                     *right[j]) != 0) {
        break;
      }
      ++j_end;
    }
    on_group(i, i_end, j, j_end);
    i = i_end;
    j = j_end;
  }
  return comps;
}

/// A pass over a reference run chases two pointers per tuple: to the
/// Tuple (a vector header beside its block-mates), then to its cell array.
/// Prefetching the header twice this many tuples ahead and the cell the
/// pass reads this many ahead overlaps those misses.
constexpr size_t kPrefetchAhead = 8;

/// Prefetches for step i of a pass over run[lo, hi) that reads `column`.
[[gnu::always_inline]] inline void PrefetchAhead(TupleRefSpan run, size_t i,
                                                 size_t hi, size_t column) {
  if (i + 2 * kPrefetchAhead < hi) {
    __builtin_prefetch(run[i + 2 * kPrefetchAhead]);
  }
  if (i + kPrefetchAhead < hi) {
    __builtin_prefetch(run[i + kPrefetchAhead]->data() + column);
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

/// A reference with its key prefix: the element the sort kernel permutes.
/// No default member initializers: a run's buffer is allocated for
/// overwrite and filled in one (chunked) pass.
struct Keyed {
  uint64_t prefix;
  const Tuple* tuple;
};

/// The counting prefix-first comparator of the sort kernel. Unequal
/// prefixes decide inline; only a tie calls into PrefixCompare.
class KeyedLess {
 public:
  explicit KeyedLess(const PrefixCompare& cmp) : cmp_(cmp) {}
  bool operator()(const Keyed& a, const Keyed& b) {
    ++count_;
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return cmp_(a.prefix, *a.tuple, b.prefix, *b.tuple) < 0;
  }
  int64_t count() const { return count_; }

 private:
  const PrefixCompare& cmp_;
  int64_t count_ = 0;
};

/// One sort of keyed elements, writing the sorted references and prefixes
/// back to `run` and `prefixes` (when non-null) leaf by leaf.
struct SortJob {
  Keyed* items;
  const PrefixCompare* cmp;
  TupleRefs* run;
  KeyPrefixes* prefixes;
};

/// Sorts job.items[lo, hi) with `depth` levels left, forking both halves
/// of a partition above kSortForkCutoff when `fan_out` is given. Returns
/// the comparisons std::sort makes on the range.
int64_t SortRange(const SortJob& job, size_t lo, size_t hi, ptrdiff_t depth,
                  FanOut* fan_out) {
  KeyedLess less(*job.cmp);
  if (fan_out != nullptr && hi - lo > kSortForkCutoff && depth > 0) {
    Keyed* cut = UnguardedPartitionPivot(job.items + lo, job.items + hi, less);
    const auto mid = static_cast<size_t>(cut - job.items);
    int64_t halves[2] = {0, 0};
    RunSection(fan_out, 2, [&](size_t i, FanOut* inner) {
      halves[i] = i == 0 ? SortRange(job, mid, hi, depth - 1, inner)
                         : SortRange(job, lo, mid, depth - 1, inner);
    });
    return less.count() + halves[0] + halves[1];
  }
  IntroSortLoop(job.items + lo, job.items + hi, depth, less);
  const int64_t skipped = InsertionPass(job.items, lo, hi, less);
  for (size_t i = lo; i < hi; ++i) (*job.run)[i] = job.items[i].tuple;
  if (job.prefixes != nullptr) {
    for (size_t i = lo; i < hi; ++i) (*job.prefixes)[i] = job.items[i].prefix;
  }
  return less.count() + skipped;
}

}  // namespace

void RunSection(FanOut* fan_out, size_t count,
                const std::function<void(size_t, FanOut*)>& body) {
  std::vector<ParallelStats> inner(count);
  std::vector<double> work(count, 0.0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tasks.push_back([fan_out, &body, &inner, &work, i] {
      FanOut sub{fan_out->pool, fan_out->max_width, {}};
      auto start = std::chrono::steady_clock::now();
      body(i, &sub);
      work[i] = SecondsSince(start) - sub.stats.span_seconds +
                sub.stats.work_seconds;
      inner[i] = sub.stats;
    });
  }
  auto start = std::chrono::steady_clock::now();
  RunTasks(fan_out->pool, &tasks, fan_out->max_width);
  fan_out->stats.span_seconds += SecondsSince(start);
  fan_out->stats.tasks += static_cast<int>(count);
  for (size_t i = 0; i < count; ++i) {
    fan_out->stats.work_seconds += work[i];
    fan_out->stats.tasks += inner[i].tasks;
  }
}

TupleRefs CollectChunks(
    FanOut* fan_out, size_t n, size_t chunk, size_t refs_per_item,
    const std::function<void(size_t, size_t, TupleRefs*)>& fill) {
  TupleRefs out;
  const size_t chunks = PassChunks(fan_out, n, chunk);
  if (chunks == 1) {
    fill(0, n, &out);
    return out;
  }
  std::vector<TupleRefs> parts(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    parts[c].reserve((std::min(n, (c + 1) * chunk) - c * chunk) *
                     refs_per_item);
  }
  RunSection(fan_out, chunks, [&](size_t c, FanOut*) {
    fill(c * chunk, std::min(n, (c + 1) * chunk), &parts[c]);
  });
  size_t total = 0;
  for (const TupleRefs& part : parts) total += part.size();
  out.reserve(total);
  for (const TupleRefs& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TupleRefs SelectTuples(TupleRefSpan tuples, const BoundPredicate& predicate,
                       const Schema& schema, CostLedger* ledger,
                       const CostModel& model, OpMetrics* metrics,
                       FanOut* fan_out) {
  TupleRefs out = CollectChunks(
      fan_out, tuples.size(), kPassChunk, /*refs_per_item=*/1,
      [tuples, &predicate](size_t lo, size_t hi, TupleRefs* part) {
        const auto column = static_cast<size_t>(predicate.first_column());
        for (size_t i = lo; i < hi; ++i) {
          PrefetchAhead(tuples, i, hi, column);
          if (predicate.Eval(*tuples[i])) part->push_back(tuples[i]);
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

uint64_t KeyPrefix(const Value& v) { return PrefixOf(v); }

KeyPrefixes KeyPrefixesOf(TupleRefSpan run, const std::vector<int>& key) {
  KeyPrefixes out;
  out.reserve(run.size());
  for (const Tuple* t : run) out.push_back(LeadPrefix(*t, key));
  return out;
}

void SortRunRange(TupleRefs* run, const std::vector<int>& key,
                  int64_t* comparisons, KeyPrefixes* prefixes,
                  FanOut* fan_out) {
  const size_t n = run->size();
  if (prefixes != nullptr) prefixes->resize(n);
  if (n == 0) return;
  const auto items = std::make_unique_for_overwrite<Keyed[]>(n);
  const size_t lead = key.empty() ? 0 : static_cast<size_t>(key[0]);
  auto fill = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      PrefetchAhead(*run, i, hi, lead);
      items[i] = Keyed{LeadPrefix(*(*run)[i], key), (*run)[i]};
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
  const PrefixCompare cmp(key, key, *run);
  const SortJob job{items.get(), &cmp, run, prefixes};
  *comparisons += SortRange(job, 0, n, DepthLimit(n), fan_out);
}

void SortRun(TupleRefs* run, const std::vector<int>& key, CostLedger* ledger,
             const CostModel& model, StepMetrics* metrics,
             KeyPrefixes* prefixes) {
  int64_t comparisons = 0;
  SortRunRange(run, key, &comparisons, prefixes);
  ChargeScope charge(ledger, metrics);
  charge.ChargeN(CostCategory::kSortCompare, comparisons,
                 model.sort_compare_s);
  if (metrics != nullptr) {
    metrics->in_tuples += static_cast<int64_t>(run->size());
    metrics->out_tuples += static_cast<int64_t>(run->size());
    metrics->comparisons += comparisons;
  }
}

void AppendJoined(TupleRefSpan left, size_t lbeg, size_t lend,
                  TupleRefSpan right, size_t rbeg, size_t rend,
                  std::vector<Tuple>* out) {
  for (size_t a = lbeg; a < lend; ++a) {
    for (size_t b = rbeg; b < rend; ++b) {
      Tuple joined;
      joined.reserve(left[a]->size() + right[b]->size());
      joined.insert(joined.end(), left[a]->begin(), left[a]->end());
      joined.insert(joined.end(), right[b]->begin(), right[b]->end());
      out->push_back(std::move(joined));
    }
  }
}

int64_t MergeIntersectRange(TupleRefSpan left, KeyPrefixSpan left_prefixes,
                            TupleRefSpan right, KeyPrefixSpan right_prefixes,
                            TupleRefs* out, int64_t* comparisons) {
  const std::vector<int> all_columns;
  int64_t emitted = 0;
  *comparisons += MergePrefixedRuns(
      left, left_prefixes, all_columns, right, right_prefixes, all_columns,
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        // Equal group: one output point per (left, right) pair.
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) {
          for (size_t a = i; a < i_end; ++a) {
            out->insert(out->end(), j_end - j, left[a]);
          }
        }
      });
  return emitted;
}

int64_t MergeIntersectRange(TupleRefSpan left, TupleRefSpan right,
                            TupleRefs* out, int64_t* comparisons) {
  return MergeIntersectRange(left, KeyPrefixesOf(left, {}), right,
                             KeyPrefixesOf(right, {}), out, comparisons);
}

int64_t MergeJoinRange(TupleRefSpan left, KeyPrefixSpan left_prefixes,
                       const std::vector<int>& left_key, TupleRefSpan right,
                       KeyPrefixSpan right_prefixes,
                       const std::vector<int>& right_key,
                       std::vector<Tuple>* out, int64_t* comparisons) {
  TCQ_DCHECK(left_key.size() == right_key.size(),
             "join key lists differ in length");
  int64_t emitted = 0;
  *comparisons += MergePrefixedRuns(
      left, left_prefixes, left_key, right, right_prefixes, right_key,
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) AppendJoined(left, i, i_end, right, j, j_end, out);
      });
  return emitted;
}

int64_t MergeJoinRange(TupleRefSpan left, const std::vector<int>& left_key,
                       TupleRefSpan right, const std::vector<int>& right_key,
                       std::vector<Tuple>* out, int64_t* comparisons) {
  return MergeJoinRange(left, KeyPrefixesOf(left, left_key), left_key, right,
                        KeyPrefixesOf(right, right_key), right_key, out,
                        comparisons);
}

void MergeSortedRuns(TupleRefSpan first, KeyPrefixSpan first_prefixes,
                     TupleRefSpan second, KeyPrefixSpan second_prefixes,
                     TupleRefs* out, KeyPrefixes* out_prefixes) {
  const std::vector<int> all_columns;
  const PrefixCompare cmp(all_columns, all_columns,
                          first.empty() ? second : first);
  const size_t n = first.size() + second.size();
  out->clear();
  out->reserve(n);
  out_prefixes->clear();
  out_prefixes->reserve(n);
  size_t i = 0, j = 0;
  while (i < first.size() && j < second.size()) {
    if (cmp(second_prefixes[j], *second[j], first_prefixes[i], *first[i]) <
        0) {
      out->push_back(second[j]);
      out_prefixes->push_back(second_prefixes[j++]);
    } else {
      out->push_back(first[i]);
      out_prefixes->push_back(first_prefixes[i++]);
    }
  }
  out->insert(out->end(), first.begin() + static_cast<ptrdiff_t>(i),
              first.end());
  out_prefixes->insert(out_prefixes->end(),
                       first_prefixes.begin() + static_cast<ptrdiff_t>(i),
                       first_prefixes.end());
  out->insert(out->end(), second.begin() + static_cast<ptrdiff_t>(j),
              second.end());
  out_prefixes->insert(out_prefixes->end(),
                       second_prefixes.begin() + static_cast<ptrdiff_t>(j),
                       second_prefixes.end());
}

std::vector<size_t> PartitionSortedRun(TupleRefSpan run,
                                       KeyPrefixSpan prefixes,
                                       const std::vector<int>& key,
                                       size_t max_parts, size_t min_chunk) {
  const size_t n = run.size();
  if (min_chunk == 0) min_chunk = 1;
  size_t parts = min_chunk > 0 ? n / min_chunk : n;
  if (parts > max_parts) parts = max_parts;
  if (parts < 1) parts = 1;
  std::vector<size_t> bounds;
  bounds.push_back(0);
  const PrefixCompare cmp(key, key, run);
  for (size_t p = 1; p < parts; ++p) {
    size_t target = p * n / parts;
    // Advance to the start of the next key group so equal keys stay in
    // one chunk.
    while (target < n && target > 0 &&
           cmp(prefixes[target - 1], *run[target - 1], prefixes[target],
               *run[target]) == 0) {
      ++target;
    }
    if (target > bounds.back() && target < n) bounds.push_back(target);
  }
  bounds.push_back(n);
  return bounds;
}

size_t LowerBoundCrossKey(TupleRefSpan run, KeyPrefixSpan run_prefixes,
                          const std::vector<int>& run_key,
                          const Tuple& probe, uint64_t probe_prefix,
                          const std::vector<int>& probe_key) {
  const PrefixCompare cmp(run_key, probe_key, run);
  size_t lo = 0, hi = run.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cmp(run_prefixes[mid], *run[mid], probe_prefix, probe) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TupleRefs MergeIntersect(TupleRefSpan left, TupleRefSpan right,
                         const Schema& schema, CostLedger* ledger,
                         const CostModel& model, OpMetrics* metrics) {
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  int64_t comparisons = 0;
  TupleRefs out;
  MergeIntersectRange(left, right, &out, &comparisons);
  ChargeScope charge(ledger, process);
  charge.ChargeN(CostCategory::kMergeCompare, comparisons,
                 model.merge_compare_s);
  if (process != nullptr) {
    process->in_tuples += static_cast<int64_t>(left.size() + right.size());
    process->comparisons += comparisons;
  }
  ChargeOutput(schema, static_cast<int64_t>(out.size()), ledger, model,
               metrics != nullptr ? &metrics->output : nullptr);
  return out;
}

std::vector<Tuple> MergeJoin(TupleRefSpan left,
                             const std::vector<int>& left_key,
                             const Schema& left_schema, TupleRefSpan right,
                             const std::vector<int>& right_key,
                             const Schema& right_schema, CostLedger* ledger,
                             const CostModel& model, OpMetrics* metrics) {
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  Schema out_schema = left_schema.ConcatForJoin(right_schema);
  int64_t comparisons = 0;
  std::vector<Tuple> out;
  MergeJoinRange(left, left_key, right, right_key, &out, &comparisons);
  ChargeScope charge(ledger, process);
  charge.ChargeN(CostCategory::kMergeCompare, comparisons,
                 model.merge_compare_s);
  if (process != nullptr) {
    process->in_tuples += static_cast<int64_t>(left.size() + right.size());
    process->comparisons += comparisons;
  }
  ChargeOutput(out_schema, static_cast<int64_t>(out.size()), ledger, model,
               metrics != nullptr ? &metrics->output : nullptr);
  return out;
}

std::vector<GroupCount> DedupSorted(TupleRefSpan tuples,
                                    KeyPrefixSpan prefixes,
                                    const Schema& schema, CostLedger* ledger,
                                    const CostModel& model,
                                    OpMetrics* metrics) {
  TCQ_DCHECK(prefixes.size() == tuples.size(),
             "prefixes do not match the run");
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  const std::vector<int> all_columns;
  const PrefixCompare cmp(all_columns, all_columns, tuples);
  std::vector<GroupCount> out;
  int64_t comparisons = 0;
  size_t head = 0;  // index of the current group's first tuple
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (!out.empty()) {
      ++comparisons;
      if (cmp(prefixes[head], *tuples[head], prefixes[i], *tuples[i]) == 0) {
        ++out.back().count;
        continue;
      }
    }
    out.push_back(GroupCount{tuples[i], 1});
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

std::vector<Tuple> ProjectColumns(TupleRefSpan tuples,
                                  const std::vector<int>& columns,
                                  CostLedger* ledger, const CostModel& model,
                                  StepMetrics* metrics) {
  std::vector<Tuple> out;
  out.reserve(tuples.size());
  for (const Tuple* t : tuples) {
    Tuple projected;
    projected.reserve(columns.size());
    for (int c : columns) projected.push_back((*t)[static_cast<size_t>(c)]);
    out.push_back(std::move(projected));
  }
  ChargeScope charge(ledger, metrics);
  charge.ChargeN(CostCategory::kTupleMove,
                 static_cast<int64_t>(tuples.size()), model.tuple_move_s);
  if (metrics != nullptr) {
    metrics->in_tuples += static_cast<int64_t>(tuples.size());
    metrics->out_tuples += static_cast<int64_t>(out.size());
  }
  return out;
}

}  // namespace tcq
