#include "exec/operators.h"

#include <algorithm>
#include <cassert>

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

/// Charges the selection step of `n` input and `out_n` qualifying tuples;
/// shared by the row and columnar kernels so both charge identically.
void ChargeSelect(const BoundPredicate& predicate, const Schema& schema,
                  int64_t n, int64_t out_n, CostLedger* ledger,
                  const CostModel& model, OpMetrics* metrics) {
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  ChargeScope charge(ledger, process);
  charge.ChargeN(CostCategory::kPredicate, n * predicate.num_comparisons(),
                 model.predicate_compare_s);
  if (process != nullptr) {
    process->in_tuples += n;
    process->comparisons += n * predicate.num_comparisons();
  }
  ChargeOutput(schema, out_n, ledger, model,
               metrics != nullptr ? &metrics->output : nullptr);
}

}  // namespace

TupleRefs SelectTuples(TupleRefSpan tuples, const BoundPredicate& predicate,
                       const Schema& schema, CostLedger* ledger,
                       const CostModel& model, OpMetrics* metrics) {
  TupleRefs out;
  for (const Tuple* t : tuples) {
    if (predicate.Eval(*t)) out.push_back(t);
  }
  ChargeSelect(predicate, schema, static_cast<int64_t>(tuples.size()),
               static_cast<int64_t>(out.size()), ledger, model, metrics);
  return out;
}

TupleRefs SelectTuplesColumnar(TupleRefSpan tuples,
                               std::span<const ColumnBatch* const> batches,
                               const BoundPredicate& predicate,
                               const Schema& schema, CostLedger* ledger,
                               const CostModel& model, OpMetrics* metrics) {
  TupleRefs out;
  std::vector<uint8_t> mask;
  size_t offset = 0;
  for (const ColumnBatch* batch : batches) {
    predicate.EvalBatch(*batch, &mask);
    TCQ_DCHECK(offset + mask.size() <= tuples.size(),
               "column batches hold more rows than the run");
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] != 0) out.push_back(tuples[offset + i]);
    }
    offset += mask.size();
  }
  TCQ_DCHECK(offset == tuples.size(),
             "column batches do not cover the run");
  ChargeSelect(predicate, schema, static_cast<int64_t>(tuples.size()),
               static_cast<int64_t>(out.size()), ledger, model, metrics);
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

void SortRunRange(TupleRefs* run, const std::vector<int>& key,
                  int64_t* comparisons) {
  if (key.empty()) {
    std::sort(run->begin(), run->end(),
              [comparisons](const Tuple* a, const Tuple* b) {
                ++*comparisons;
                return CompareTuples(*a, *b) < 0;
              });
  } else {
    std::sort(run->begin(), run->end(),
              [comparisons, &key](const Tuple* a, const Tuple* b) {
                ++*comparisons;
                return CompareTuplesOnKey(*a, *b, key) < 0;
              });
  }
}

void SortRun(TupleRefs* run, const std::vector<int>& key, CostLedger* ledger,
             const CostModel& model, StepMetrics* metrics) {
  int64_t comparisons = 0;
  SortRunRange(run, key, &comparisons);
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

int64_t MergeIntersectRange(TupleRefSpan left, TupleRefSpan right,
                            TupleRefs* out, int64_t* comparisons) {
  int64_t emitted = 0;
  size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    ++*comparisons;
    int c = CompareTuples(*left[i], *right[j]);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Equal group: one output point per (left, right) pair.
      size_t i_end = i + 1;
      while (i_end < left.size()) {
        ++*comparisons;
        if (CompareTuples(*left[i_end], *left[i]) != 0) break;
        ++i_end;
      }
      size_t j_end = j + 1;
      while (j_end < right.size()) {
        ++*comparisons;
        if (CompareTuples(*right[j_end], *right[j]) != 0) break;
        ++j_end;
      }
      emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
      if (out != nullptr) {
        for (size_t a = i; a < i_end; ++a) {
          out->insert(out->end(), j_end - j, left[a]);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return emitted;
}

int64_t MergeJoinRange(TupleRefSpan left, const std::vector<int>& left_key,
                       TupleRefSpan right, const std::vector<int>& right_key,
                       std::vector<Tuple>* out, int64_t* comparisons) {
  assert(left_key.size() == right_key.size());
  int64_t emitted = 0;
  auto cmp_lr = [&](const Tuple& a, const Tuple& b) {
    ++*comparisons;
    for (size_t k = 0; k < left_key.size(); ++k) {
      int c = CompareValues(a[static_cast<size_t>(left_key[k])],
                            b[static_cast<size_t>(right_key[k])]);
      if (c != 0) return c;
    }
    return 0;
  };
  size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    int c = cmp_lr(*left[i], *right[j]);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      size_t i_end = i + 1;
      while (i_end < left.size()) {
        ++*comparisons;
        if (CompareTuplesOnKey(*left[i_end], *left[i], left_key) != 0) break;
        ++i_end;
      }
      size_t j_end = j + 1;
      while (j_end < right.size()) {
        ++*comparisons;
        if (CompareTuplesOnKey(*right[j_end], *right[j], right_key) != 0) {
          break;
        }
        ++j_end;
      }
      emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
      if (out != nullptr) AppendJoined(left, i, i_end, right, j, j_end, out);
      i = i_end;
      j = j_end;
    }
  }
  return emitted;
}

std::vector<size_t> PartitionSortedRun(TupleRefSpan run,
                                       const std::vector<int>& key,
                                       size_t max_parts, size_t min_chunk) {
  const size_t n = run.size();
  if (min_chunk == 0) min_chunk = 1;
  size_t parts = min_chunk > 0 ? n / min_chunk : n;
  if (parts > max_parts) parts = max_parts;
  if (parts < 1) parts = 1;
  std::vector<size_t> bounds;
  bounds.push_back(0);
  auto same_group = [&](const Tuple& a, const Tuple& b) {
    return key.empty() ? CompareTuples(a, b) == 0
                       : CompareTuplesOnKey(a, b, key) == 0;
  };
  for (size_t p = 1; p < parts; ++p) {
    size_t target = p * n / parts;
    // Advance to the start of the next key group so equal keys stay in
    // one chunk.
    while (target < n && target > 0 &&
           same_group(*run[target - 1], *run[target])) {
      ++target;
    }
    if (target > bounds.back() && target < n) bounds.push_back(target);
  }
  bounds.push_back(n);
  return bounds;
}

size_t LowerBoundCrossKey(TupleRefSpan run, const std::vector<int>& run_key,
                          const Tuple& probe,
                          const std::vector<int>& probe_key) {
  auto cmp = [&](const Tuple& elem) {
    if (run_key.empty()) return CompareTuples(elem, probe);
    int c = 0;
    for (size_t k = 0; k < run_key.size(); ++k) {
      c = CompareValues(elem[static_cast<size_t>(run_key[k])],
                        probe[static_cast<size_t>(probe_key[k])]);
      if (c != 0) break;
    }
    return c;
  };
  size_t lo = 0, hi = run.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cmp(*run[mid]) < 0) {
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
  assert(left_key.size() == right_key.size());
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

std::vector<GroupCount> DedupSorted(TupleRefSpan tuples, const Schema& schema,
                                    CostLedger* ledger,
                                    const CostModel& model,
                                    OpMetrics* metrics) {
  StepMetrics* process = metrics != nullptr ? &metrics->process : nullptr;
  std::vector<GroupCount> out;
  int64_t comparisons = 0;
  for (const Tuple* t : tuples) {
    if (!out.empty()) {
      ++comparisons;
      if (CompareTuples(*out.back().tuple, *t) == 0) {
        ++out.back().count;
        continue;
      }
    }
    out.push_back(GroupCount{t, 1});
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
