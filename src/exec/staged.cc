#include "exec/staged.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "util/check.h"

namespace tcq {

namespace {

/// The cost-formula basis for a sort of `n` tuples (eq. 4.3's n·log n
/// shape); shared with the cost predictor via the stage records.
double SortUnits(double n) {
  if (n <= 0) return 0.0;
  return n * std::log2(n + 2.0);
}

/// Merge-chunk granularity: a sorted left run is split into at most
/// kMaxMergeChunks pieces of at least kMinMergeChunk tuples each. Both are
/// constants (never derived from the worker count), so the task list — and
/// with it every charge — is identical at any parallelism. Small runs stay
/// one chunk, preserving the exact serial merge arithmetic.
constexpr size_t kMinMergeChunk = 2048;
constexpr size_t kMaxMergeChunks = 64;

}  // namespace

Result<std::unique_ptr<StagedNode>> StagedTermEvaluator::BuildNode(
    const ExprPtr& expr, const Catalog& catalog, bool is_root,
    int* next_id) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  auto node = std::make_unique<StagedNode>();
  node->id = (*next_id)++;
  node->kind = expr->kind;
  node->expr = expr.get();

  switch (expr->kind) {
    case ExprKind::kScan: {
      TCQ_ASSIGN_OR_RETURN(node->rel, catalog.Find(expr->relation));
      node->out_schema = node->rel->schema();
      node->total_points = static_cast<double>(node->rel->NumTuples());
      return node;
    }
    case ExprKind::kSelect: {
      TCQ_ASSIGN_OR_RETURN(
          node->left, BuildNode(expr->left, catalog, false, next_id));
      node->out_schema = node->left->out_schema;
      TCQ_ASSIGN_OR_RETURN(
          BoundPredicate bound,
          BoundPredicate::Bind(expr->predicate, node->out_schema));
      node->predicate = std::make_unique<BoundPredicate>(std::move(bound));
      node->total_points = node->left->total_points;
      return node;
    }
    case ExprKind::kProject: {
      if (!is_root) {
        return Status::NotImplemented(
            "sampled evaluation supports Project only as the outermost "
            "operator (Goodman's estimator applies to the whole "
            "expression); got nested " +
            expr->ToString());
      }
      TCQ_ASSIGN_OR_RETURN(
          node->left, BuildNode(expr->left, catalog, false, next_id));
      for (const std::string& name : expr->columns) {
        TCQ_ASSIGN_OR_RETURN(int idx,
                             node->left->out_schema.IndexOf(name));
        node->proj_cols.push_back(idx);
      }
      node->out_schema =
          node->left->out_schema.SelectColumns(node->proj_cols);
      node->total_points = node->left->total_points;
      return node;
    }
    case ExprKind::kJoin: {
      TCQ_ASSIGN_OR_RETURN(
          node->left, BuildNode(expr->left, catalog, false, next_id));
      TCQ_ASSIGN_OR_RETURN(
          node->right, BuildNode(expr->right, catalog, false, next_id));
      for (const auto& [lname, rname] : expr->join_keys) {
        TCQ_ASSIGN_OR_RETURN(int li,
                             node->left->out_schema.IndexOf(lname));
        TCQ_ASSIGN_OR_RETURN(int ri,
                             node->right->out_schema.IndexOf(rname));
        node->lkey.push_back(li);
        node->rkey.push_back(ri);
      }
      node->out_schema =
          node->left->out_schema.ConcatForJoin(node->right->out_schema);
      node->total_points =
          node->left->total_points * node->right->total_points;
      return node;
    }
    case ExprKind::kIntersect: {
      TCQ_ASSIGN_OR_RETURN(
          node->left, BuildNode(expr->left, catalog, false, next_id));
      TCQ_ASSIGN_OR_RETURN(
          node->right, BuildNode(expr->right, catalog, false, next_id));
      if (!node->left->out_schema.CompatibleWith(node->right->out_schema)) {
        return Status::InvalidArgument("intersect operands incompatible");
      }
      // Empty key means "all columns" for the sort/merge helpers.
      node->out_schema = node->left->out_schema;
      node->total_points =
          node->left->total_points * node->right->total_points;
      return node;
    }
    case ExprKind::kUnion:
    case ExprKind::kDifference:
      return Status::InvalidArgument(
          "staged evaluation requires Union/Difference-free terms; run "
          "ExpandCount first");
  }
  return Status::Internal("unknown expression kind");
}

Result<std::unique_ptr<StagedTermEvaluator>> StagedTermEvaluator::Create(
    ExprPtr term, const Catalog& catalog, Fulfillment fulfillment,
    CostLedger* ledger, const CostModel& model) {
  std::unique_ptr<StagedTermEvaluator> evaluator(
      new StagedTermEvaluator(std::move(term), fulfillment, ledger, model));
  int next_id = 0;
  TCQ_ASSIGN_OR_RETURN(
      evaluator->root_,
      BuildNode(evaluator->term_, catalog, /*is_root=*/true, &next_id));
  // The sampling plan assumes each operand relation is a distinct
  // dimension of the point space; a relation scanned twice would require
  // two independent sample streams from the same relation.
  std::vector<std::string> scans;
  CollectScans(evaluator->term_, &scans);
  std::set<std::string> unique(scans.begin(), scans.end());
  if (unique.size() != scans.size()) {
    return Status::NotImplemented(
        "a relation appears more than once in one term (self-join / "
        "self-intersect); not supported by the sampled evaluator");
  }
  return evaluator;
}

Status StagedTermEvaluator::ExecuteStage(
    const std::map<std::string, std::vector<const Block*>>& new_blocks) {
  return ExecuteStageWithMode(new_blocks, fulfillment_);
}

void StagedTermEvaluator::SetObs(const ObsHandle& obs, int term_index) {
  tracer_ = obs.tracer;
  tuples_counter_ =
      obs.metering() ? obs.metrics->counter("exec.tuples_scanned") : nullptr;
  term_index_ = term_index;
}

Status StagedTermEvaluator::ExecuteStageWithMode(
    const std::map<std::string, std::vector<const Block*>>& new_blocks,
    Fulfillment mode) {
  if (ran_partial_stage_ && mode == Fulfillment::kFull) {
    return Status::InvalidArgument(
        "a full-fulfillment stage cannot follow a partial one");
  }
  TraceSpan span(tracer_, "term_stage", "exec");
  span.Arg("term", static_cast<double>(term_index_));
  span.Arg("stage", static_cast<double>(num_stages_));
  stage_parallel_ = ParallelStats{};
  // Previous per-scan cumulative block counts, for coverage accounting.
  std::vector<const StagedNode*> scan_nodes;
  CollectScanNodes(root_.get(), &scan_nodes);
  std::vector<int64_t> prev_cum;
  for (const StagedNode* scan : scan_nodes) {
    prev_cum.push_back(scan->cum_blocks);
  }

  TCQ_RETURN_NOT_OK(ExecuteNode(root_.get(), new_blocks, mode));

  // Record per-scan new block counts and the space-block coverage gained
  // by this stage: full fulfillment covers every combination of the
  // cumulative samples; partial covers only the new×new combinations.
  std::vector<int64_t> counts;
  double prev_product = 1.0, cum_product = 1.0, new_product = 1.0;
  for (size_t i = 0; i < scan_nodes.size(); ++i) {
    auto it = new_blocks.find(scan_nodes[i]->rel->name());
    int64_t added =
        it == new_blocks.end() ? 0 : static_cast<int64_t>(it->second.size());
    counts.push_back(added);
    prev_product *= static_cast<double>(prev_cum[i]);
    cum_product *= static_cast<double>(scan_nodes[i]->cum_blocks);
    new_product *= static_cast<double>(added);
  }
  if (mode == Fulfillment::kFull) {
    // Cumulative per-scan block counts only grow, so the covered
    // product can never shrink; negative growth would mean the
    // coverage accounting (and with it every estimate scale factor)
    // ran backwards.
    TCQ_CHECK_INVARIANT(cum_product >= prev_product,
                        "space-block coverage decreased in a full stage");
    covered_space_blocks_ += cum_product - prev_product;
  } else {
    TCQ_CHECK_INVARIANT(new_product >= 0.0,
                        "negative new-block product in a partial stage");
    covered_space_blocks_ += new_product;
    ran_partial_stage_ = true;
  }
  stage_scan_blocks_.push_back(std::move(counts));
  if (tuples_counter_ != nullptr) {
    // Tuples fetched from disk blocks this stage: the scans' newest stage
    // records. Deterministic at a fixed seed, so the atomic adds keep the
    // counter bit-identical across thread counts.
    int64_t scanned = 0;
    for (const StagedNode* scan : scan_nodes) {
      if (!scan->stages.empty()) scanned += scan->stages.back().new_tuples;
    }
    if (scanned > 0) tuples_counter_->Add(scanned);
  }
  if (value_col_ >= 0) {
    for (const Tuple* t : root_->stage_out) {
      const Value& v = (*t)[static_cast<size_t>(value_col_)];
      double x = v.index() == 0
                     ? static_cast<double>(std::get<int64_t>(v))
                     : std::get<double>(v);
      value_sum_ += x;
      value_sq_sum_ += x * x;
    }
  }
  ++num_stages_;
  return Status::OK();
}

Status StagedTermEvaluator::TrackValueColumn(int index) {
  if (root_->kind == ExprKind::kProject) {
    return Status::NotImplemented(
        "SUM/AVG over a projection (distinct groups) is not supported");
  }
  if (index < 0 || index >= root_->out_schema.num_columns()) {
    return Status::InvalidArgument("aggregate column index out of range");
  }
  DataType type = root_->out_schema.column(index).type;
  if (type == DataType::kString) {
    return Status::InvalidArgument(
        "aggregate column must be numeric, got string column '" +
        root_->out_schema.column(index).name + "'");
  }
  value_col_ = index;
  return Status::OK();
}

Status StagedTermEvaluator::ExecuteNode(
    StagedNode* node,
    const std::map<std::string, std::vector<const Block*>>& new_blocks,
    Fulfillment mode) {
  const size_t s = static_cast<size_t>(num_stages_);
  NodeStageRecord rec;
  // Recorded step times must match what the clock actually advanced by,
  // including the stage's machine-speed noise factor — the adaptive cost
  // formulas are fitted from these "measured" times, noise and all, just
  // as the paper fit them from wall-clock measurements.
  const double speed =
      ledger_ != nullptr ? ledger_->current_stage_factor() : 1.0;
  auto scale_record = [speed](NodeStageRecord* r) {
    r->write.seconds *= speed;
    r->sort.seconds *= speed;
    r->process.seconds *= speed;
    r->output.seconds *= speed;
    r->seconds *= speed;
  };
  // Wall-clock mode helpers: steps are timed with real clock deltas; a
  // combined process+output delta is split proportionally to the two
  // steps' simulated charges (they interleave inside one operator call).
  auto now = [this] {
    return timing_clock_ != nullptr ? timing_clock_->Now() : 0.0;
  };
  // Each fan-out section runs on the evaluator's pool; its realized
  // work/span folds into the stage's tally.
  auto fan_out = [this] { return FanOut{pool_, pool_max_width_, {}}; };
  auto split_delta = [](double delta, StepMetrics* process,
                        StepMetrics* output) {
    double total = process->seconds + output->seconds;
    if (total > 0.0) {
      process->seconds = delta * process->seconds / total;
      output->seconds = delta - process->seconds;
    } else {
      process->seconds = delta;
      output->seconds = 0.0;
    }
  };

  switch (node->kind) {
    case ExprKind::kScan: {
      auto it = new_blocks.find(node->rel->name());
      if (it == new_blocks.end()) {
        return Status::InvalidArgument("no sample blocks for relation '" +
                                       node->rel->name() + "'");
      }
      // The run references the fetched blocks' resident rows, which the
      // relation this node holds keeps alive. A stage of more than
      // kPassChunk rows fills in chunks of blocks on the pool.
      double t0 = now();
      const std::vector<const Block*>& blocks = it->second;
      const auto rows_per_block =
          static_cast<size_t>(node->rel->blocking_factor());
      FanOut fan = fan_out();
      TupleRefs run = CollectChunks(
          &fan, blocks.size(), std::max<size_t>(1, kPassChunk / rows_per_block),
          rows_per_block,
          [&blocks, rows_per_block](size_t lo, size_t hi, TupleRefs* out) {
            out->reserve(out->size() + (hi - lo) * rows_per_block);
            for (size_t b = lo; b < hi; ++b) {
              for (const Tuple& t : BlockView(blocks[b]).rows()) {
                out->push_back(&t);
              }
            }
          });
      stage_parallel_.Add(fan.stats);
      if (timing_clock_ != nullptr) rec.seconds = now() - t0;
      node->cum_blocks += static_cast<int64_t>(it->second.size());
      rec.new_blocks = static_cast<int64_t>(it->second.size());
      rec.new_points = static_cast<double>(run.size());
      rec.new_tuples = static_cast<int64_t>(run.size());
      node->cum_points += rec.new_points;
      node->cum_tuples += rec.new_tuples;
      node->stage_out = std::move(run);
      node->stages.push_back(std::move(rec));
      return Status::OK();
    }

    case ExprKind::kSelect: {
      TCQ_RETURN_NOT_OK(ExecuteNode(node->left.get(), new_blocks, mode));
      if (ledger_ != nullptr) {
        ledger_->Charge(CostCategory::kOpSetup, model_.op_setup_s);
      }
      const StagedNode* child = node->left.get();
      OpMetrics om;
      double t0 = now();
      FanOut fan = fan_out();
      TupleRefs run = SelectTuples(child->stage_out, *node->predicate,
                                   node->out_schema, ledger_, model_, &om,
                                   &fan);
      double t1 = now();
      stage_parallel_.Add(fan.stats);
      rec.process = om.process;
      rec.output = om.output;
      rec.new_points = child->stages[s].new_points;
      rec.new_tuples = static_cast<int64_t>(run.size());
      if (timing_clock_ != nullptr) {
        split_delta(t1 - t0, &rec.process, &rec.output);
        rec.seconds = t1 - t0;
      } else {
        rec.seconds = rec.process.seconds + rec.output.seconds +
                      model_.op_setup_s;
        scale_record(&rec);
      }
      node->cum_points += rec.new_points;
      node->cum_tuples += rec.new_tuples;
      node->stage_out = std::move(run);
      node->stages.push_back(std::move(rec));
      return Status::OK();
    }

    case ExprKind::kProject: {
      TCQ_RETURN_NOT_OK(ExecuteNode(node->left.get(), new_blocks, mode));
      if (ledger_ != nullptr) {
        ledger_->Charge(CostCategory::kOpSetup, model_.op_setup_s);
      }
      // Step 1: project the new child run and write it to a temp file.
      // Projection creates new tuples; this node owns them.
      double t0 = now();
      const std::vector<Tuple>& projected =
          node->projected_rows.emplace_back(
              ProjectColumns(node->left->stage_out, node->proj_cols, ledger_,
                             model_, &rec.write));
      ChargeTempWrite(node->out_schema,
                      static_cast<int64_t>(projected.size()), ledger_,
                      model_, &rec.write);
      double t1 = now();
      // Step 2: sort the new run.
      TupleRefs run = RefsOf(projected);
      KeyPrefixes prefixes;
      rec.sort_units = SortUnits(static_cast<double>(run.size()));
      SortRun(&run, /*key=*/{}, ledger_, model_, &rec.sort, &prefixes);
      double t2 = now();
      // Step 3: merge with the previously sorted sample and re-derive the
      // distinct groups with occupancies.
      TupleRefs merged;
      KeyPrefixes merged_prefixes;
      MergeSortedRuns(node->cum_projected_sorted,
                      node->cum_projected_prefixes, run, prefixes, &merged,
                      &merged_prefixes);
      if (ledger_ != nullptr) {
        ledger_->ChargeN(CostCategory::kMergeCompare,
                         static_cast<int64_t>(merged.size()),
                         model_.merge_compare_s);
      }
      rec.process.seconds +=
          model_.merge_compare_s * static_cast<double>(merged.size());
      rec.process.comparisons += static_cast<int64_t>(merged.size());
      node->cum_projected_sorted = std::move(merged);
      node->cum_projected_prefixes = std::move(merged_prefixes);
      OpMetrics dedup_metrics;
      node->groups = DedupSorted(
          node->cum_projected_sorted, node->cum_projected_prefixes,
          node->out_schema, ledger_, model_, &dedup_metrics);
      rec.process.seconds += dedup_metrics.process.seconds;
      rec.process.comparisons += dedup_metrics.process.comparisons;
      rec.process.in_tuples += dedup_metrics.process.in_tuples;
      rec.output = dedup_metrics.output;
      int64_t prev_groups = node->cum_tuples;
      node->cum_tuples = static_cast<int64_t>(node->groups.size());
      rec.new_tuples = node->cum_tuples - prev_groups;
      rec.new_points = node->left->stages[s].new_points;
      if (timing_clock_ != nullptr) {
        double t3 = now();
        rec.write.seconds = t1 - t0;
        rec.sort.seconds = t2 - t1;
        split_delta(t3 - t2, &rec.process, &rec.output);
        rec.seconds = t3 - t0;
      } else {
        rec.seconds = rec.write.seconds + rec.sort.seconds +
                      rec.process.seconds + rec.output.seconds +
                      model_.op_setup_s;
        scale_record(&rec);
      }
      node->cum_points += rec.new_points;
      node->stages.push_back(std::move(rec));  // projection is terminal
      return Status::OK();
    }

    case ExprKind::kJoin:
    case ExprKind::kIntersect: {
      const double prev_l = node->left->cum_points;
      const double prev_r = node->right->cum_points;
      TCQ_RETURN_NOT_OK(ExecuteNode(node->left.get(), new_blocks, mode));
      TCQ_RETURN_NOT_OK(ExecuteNode(node->right.get(), new_blocks, mode));
      if (ledger_ != nullptr) {
        ledger_->Charge(CostCategory::kOpSetup, model_.op_setup_s);
      }
      const bool is_join = node->kind == ExprKind::kJoin;
      // A parent operator or the SUM/AVG value tracker reads this node's
      // output; the root of a COUNT term only counts its matches.
      const bool emit = node != root_.get() || value_col_ >= 0;
      // Steps 1–2 (Figures 4.4/4.6): write the new sample runs to temp
      // files and sort them (previous runs stay sorted from earlier
      // stages). The children's runs become this node's new runs.
      double t0 = now();
      TupleRefs new_l = std::exchange(node->left->stage_out, {});
      TupleRefs new_r = std::exchange(node->right->stage_out, {});
      ChargeTempWrite(node->left->out_schema,
                      static_cast<int64_t>(new_l.size()), ledger_, model_,
                      &rec.write);
      ChargeTempWrite(node->right->out_schema,
                      static_cast<int64_t>(new_r.size()), ledger_, model_,
                      &rec.write);
      double t1 = now();
      rec.sort_units = SortUnits(static_cast<double>(new_l.size())) +
                       SortUnits(static_cast<double>(new_r.size()));
      const std::vector<int> lkey =
          is_join ? node->lkey : std::vector<int>{};
      const std::vector<int> rkey =
          is_join ? node->rkey : std::vector<int>{};
      // Steps 1–2 parallel part: the two new runs sort on their own tasks,
      // each forking further on the pool when large; the realized
      // comparison counts are charged post-barrier in fixed (left, right)
      // order, mirroring the serial SortRun sequence. Each sorted run
      // keeps its key prefixes.
      KeyPrefixes lprefixes, rprefixes;
      {
        int64_t sort_comp[2] = {0, 0};
        FanOut fan = fan_out();
        RunSection(&fan, 2, [&](size_t k, FanOut* inner) {
          if (k == 0) {
            SortRunRange(&new_l, lkey, &sort_comp[0], &lprefixes, inner);
          } else {
            SortRunRange(&new_r, rkey, &sort_comp[1], &rprefixes, inner);
          }
        });
        stage_parallel_.Add(fan.stats);
        for (int k = 0; k < 2; ++k) {
          if (ledger_ != nullptr) {
            ledger_->ChargeN(CostCategory::kSortCompare, sort_comp[k],
                             model_.sort_compare_s);
          }
          rec.sort.seconds +=
              model_.sort_compare_s * static_cast<double>(sort_comp[k]);
          rec.sort.comparisons += sort_comp[k];
        }
        rec.sort.in_tuples +=
            static_cast<int64_t>(new_l.size() + new_r.size());
        rec.sort.out_tuples +=
            static_cast<int64_t>(new_l.size() + new_r.size());
      }
      double t2 = now();
      node->sorted_left.push_back(std::move(new_l));
      node->sorted_right.push_back(std::move(new_r));
      node->sorted_left_prefixes.push_back(std::move(lprefixes));
      node->sorted_right_prefixes.push_back(std::move(rprefixes));

      // Step 3: merge run pairs. Full fulfillment: every pair whose newest
      // run is this stage (Figure 4.5). Partial: new×new only. Each pair's
      // left run is chunked at key-group boundaries and every (pair, chunk)
      // merges on its own task; chunk outputs concatenated in task order
      // equal the serial pair-by-pair merge exactly.
      std::vector<std::pair<size_t, size_t>> pairs;
      if (mode == Fulfillment::kFull) {
        for (size_t j = 0; j <= s; ++j) pairs.emplace_back(s, j);
        for (size_t i = 0; i < s; ++i) pairs.emplace_back(i, s);
      } else {
        pairs.emplace_back(s, s);
      }
      struct MergeChunk {
        size_t pair = 0;  // index into `pairs`
        size_t lbeg = 0, lend = 0, rbeg = 0, rend = 0;
        int64_t out_count = 0;
        TupleRefs refs;           // intersect output, when emitted
        std::vector<Tuple> rows;  // join output, when emitted
        int64_t comparisons = 0;
      };
      std::vector<MergeChunk> chunks;
      for (size_t p = 0; p < pairs.size(); ++p) {
        const TupleRefs& lrun = node->sorted_left[pairs[p].first];
        const TupleRefs& rrun = node->sorted_right[pairs[p].second];
        const KeyPrefixes& lpre = node->sorted_left_prefixes[pairs[p].first];
        const KeyPrefixes& rpre =
            node->sorted_right_prefixes[pairs[p].second];
        std::vector<size_t> bounds = PartitionSortedRun(
            lrun, lpre, lkey, kMaxMergeChunks, kMinMergeChunk);
        for (size_t c = 0; c + 1 < bounds.size(); ++c) {
          MergeChunk chunk;
          chunk.pair = p;
          chunk.lbeg = bounds[c];
          chunk.lend = bounds[c + 1];
          // First chunk scans the right run from the top and the last to
          // its end, so a single-chunk pair reproduces the serial merge's
          // comparison count exactly; interior boundaries are located by
          // (uncharged) binary search.
          chunk.rbeg = c == 0 ? 0
                              : LowerBoundCrossKey(rrun, rpre, rkey,
                                                   *lrun[bounds[c]],
                                                   lpre[bounds[c]], lkey);
          chunk.rend = c + 2 == bounds.size()
                           ? rrun.size()
                           : LowerBoundCrossKey(rrun, rpre, rkey,
                                                *lrun[bounds[c + 1]],
                                                lpre[bounds[c + 1]], lkey);
          chunks.push_back(std::move(chunk));
        }
      }
      {
        FanOut fan = fan_out();
        RunSection(&fan, chunks.size(), [&](size_t t, FanOut*) {
          MergeChunk& chunk = chunks[t];
          const auto [l, r] = pairs[chunk.pair];
          const size_t lsize = chunk.lend - chunk.lbeg;
          const size_t rsize = chunk.rend - chunk.rbeg;
          TupleRefSpan lspan(node->sorted_left[l].data() + chunk.lbeg, lsize);
          TupleRefSpan rspan(node->sorted_right[r].data() + chunk.rbeg, rsize);
          KeyPrefixSpan lpspan(
              node->sorted_left_prefixes[l].data() + chunk.lbeg, lsize);
          KeyPrefixSpan rpspan(
              node->sorted_right_prefixes[r].data() + chunk.rbeg, rsize);
          if (is_join) {
            chunk.out_count = MergeJoinRange(
                lspan, lpspan, lkey, rspan, rpspan, rkey,
                emit ? &chunk.rows : nullptr, &chunk.comparisons);
          } else {
            chunk.out_count = MergeIntersectRange(
                lspan, lpspan, rspan, rpspan, emit ? &chunk.refs : nullptr,
                &chunk.comparisons);
          }
        });
        stage_parallel_.Add(fan.stats);
      }
      // Fixed-order reduction: per pair, sum the chunk counts and charge
      // merge comparisons + output writes exactly as the serial
      // MergeJoin/MergeIntersect calls did (pages from the pair's total
      // output, so the chunk count never changes the arithmetic). Emitted
      // outputs concatenate in chunk order; a join's materialized chunks
      // move into the node's storage, whose elements never move again.
      int64_t total_out = 0;
      for (const MergeChunk& chunk : chunks) total_out += chunk.out_count;
      TupleRefs out;
      if (emit) out.reserve(static_cast<size_t>(total_out));
      OpMetrics om;
      size_t ci = 0;
      for (size_t p = 0; p < pairs.size(); ++p) {
        int64_t comparisons = 0;
        int64_t out_tuples = 0;
        for (; ci < chunks.size() && chunks[ci].pair == p; ++ci) {
          MergeChunk& chunk = chunks[ci];
          comparisons += chunk.comparisons;
          out_tuples += chunk.out_count;
          out.insert(out.end(), chunk.refs.begin(), chunk.refs.end());
          if (!chunk.rows.empty()) {
            const std::vector<Tuple>& stored =
                node->joined_rows.emplace_back(std::move(chunk.rows));
            for (const Tuple& t : stored) out.push_back(&t);
          }
        }
        const TupleRefs& lrun = node->sorted_left[pairs[p].first];
        const TupleRefs& rrun = node->sorted_right[pairs[p].second];
        if (ledger_ != nullptr) {
          ledger_->ChargeN(CostCategory::kMergeCompare, comparisons,
                           model_.merge_compare_s);
        }
        om.process.seconds +=
            model_.merge_compare_s * static_cast<double>(comparisons);
        om.process.in_tuples +=
            static_cast<int64_t>(lrun.size() + rrun.size());
        om.process.comparisons += comparisons;
        int64_t pages = PagesFor(node->out_schema, out_tuples);
        if (ledger_ != nullptr) {
          ledger_->ChargeN(CostCategory::kTupleMove, out_tuples,
                           model_.tuple_move_s);
          ledger_->ChargeN(CostCategory::kBlockWrite, pages,
                           model_.block_write_s);
        }
        om.output.seconds +=
            model_.tuple_move_s * static_cast<double>(out_tuples) +
            model_.block_write_s * static_cast<double>(pages);
        om.output.out_tuples += out_tuples;
        om.output.out_pages += pages;
      }
      // The reduction cursor only moves forward and must end past the
      // last chunk: chunks are generated in pair order, and charging
      // them in any other order would break the bit-identical
      // any-thread-count guarantee (DESIGN.md, "Threading model").
      TCQ_CHECK_INVARIANT(ci == chunks.size(),
                          "merge-chunk reduction left chunks unconsumed "
                          "or out of pair order");

      if (mode == Fulfillment::kFull) {
        rec.new_points = node->left->cum_points * node->right->cum_points -
                         prev_l * prev_r;
      } else {
        rec.new_points = node->left->stages[s].new_points *
                         node->right->stages[s].new_points;
      }
      rec.process = om.process;
      rec.output = om.output;
      rec.new_tuples = total_out;
      if (timing_clock_ != nullptr) {
        double t3 = now();
        rec.write.seconds = t1 - t0;
        rec.sort.seconds = t2 - t1;
        split_delta(t3 - t2, &rec.process, &rec.output);
        rec.seconds = t3 - t0;
      } else {
        rec.seconds = rec.write.seconds + rec.sort.seconds +
                      rec.process.seconds + rec.output.seconds +
                      model_.op_setup_s;
        scale_record(&rec);
      }
      node->cum_points += rec.new_points;
      node->cum_tuples += rec.new_tuples;
      node->stage_out = std::move(out);
      node->stages.push_back(std::move(rec));
      return Status::OK();
    }

    case ExprKind::kUnion:
    case ExprKind::kDifference:
      return Status::Internal("set op in staged term");
  }
  return Status::Internal("unknown expression kind");
}

void StagedTermEvaluator::CollectScanNodes(
    const StagedNode* node, std::vector<const StagedNode*>* out) const {
  if (node == nullptr) return;
  if (node->kind == ExprKind::kScan) {
    out->push_back(node);
    return;
  }
  CollectScanNodes(node->left.get(), out);
  CollectScanNodes(node->right.get(), out);
}

double StagedTermEvaluator::total_space_blocks() const {
  std::vector<const StagedNode*> scans;
  CollectScanNodes(root_.get(), &scans);
  double b = 1.0;
  for (const StagedNode* scan : scans) {
    b *= static_cast<double>(scan->rel->NumBlocks());
  }
  return b;
}

double StagedTermEvaluator::cum_space_blocks() const {
  return covered_space_blocks_;
}

std::vector<int64_t> StagedTermEvaluator::RootOccupancies() const {
  std::vector<int64_t> out;
  if (!root_is_project()) return out;
  out.reserve(root_->groups.size());
  for (const GroupCount& g : root_->groups) out.push_back(g.count);
  return out;
}

std::vector<const StagedNode*> StagedTermEvaluator::NodesPreOrder() const {
  std::vector<const StagedNode*> out;
  // Pre-order matches the id assignment in BuildNode.
  std::vector<const StagedNode*> stack{root_.get()};
  while (!stack.empty()) {
    const StagedNode* node = stack.back();
    stack.pop_back();
    out.push_back(node);
    if (node->right != nullptr) stack.push_back(node->right.get());
    if (node->left != nullptr) stack.push_back(node->left.get());
  }
  std::sort(out.begin(), out.end(),
            [](const StagedNode* a, const StagedNode* b) {
              return a->id < b->id;
            });
  return out;
}

}  // namespace tcq
