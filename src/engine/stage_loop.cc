// The staged evaluation loop of the paper's Figure 3.1 and the three
// entry points that run it — the time-constrained run, EXPLAIN (a dry run
// of the same planner) and the error-constrained driver — each a short
// loop over three seams (DESIGN.md §5):
//
//   QueryPlan     the query's set-up, built once;
//   StagePlanner  Revise-Selectivities, the predictor, QCOST and the
//                 strategy's Sample-Size-Determine for the next stage;
//   StageRunner   draw, resolve faults, evaluate, fold the term ledgers,
//                 observe and estimate one stage.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/signature.h"
#include "cache/warm_start.h"
#include "cost/predictor.h"
#include "engine/error_constrained.h"
#include "engine/executor.h"
#include "estimator/combined.h"
#include "estimator/goodman.h"
#include "estimator/sum_estimator.h"
#include "obs/metric_names.h"
#include "ra/inclusion_exclusion.h"
#include "sampling/block_sampler.h"
#include "sim/clock.h"
#include "sim/ledger.h"
#include "util/check.h"
#include "util/stats.h"

namespace tcq {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The run's execution width, counting the calling thread: its own pool
/// has threads - 1 workers; on a shared (possibly wider) pool `threads`
/// > 1 caps the threads per batch and 1 means the pool's full width.
int ExecutionWidth(const ExecutorOptions& options) {
  if (options.pool == nullptr) return options.threads;
  return options.threads > 1
             ? std::min(options.threads, options.pool->width())
             : options.pool->width();
}

/// Virtual time always charges the serial machine's work (keeping
/// simulated runs bit-identical at any thread count), so only wall-clock
/// planning sees the real width.
CostModel PlanningModel(const ExecutorOptions& options, int width) {
  CostModel physical = options.physical;
  physical.workers = options.use_wall_clock ? width : 1;
  return physical;
}

/// The current estimate of one term (cluster estimator, or guarded
/// Goodman for projection roots).
CountEstimate EstimateTerm(const StagedTermEvaluator& ev) {
  if (!ev.root_is_project()) {
    return ClusterCountEstimate(ev.total_space_blocks(),
                                ev.cum_space_blocks(), ev.cum_hits(),
                                ev.cum_points(), ev.total_points());
  }
  // Projection: COUNT is the number of distinct groups among the
  // expression's output tuples. Estimate the qualifying population from
  // the child's selectivity, then apply Goodman's estimator to the sample
  // occupancies ([HoOT 88]'s revised-Goodman approach; see DESIGN.md).
  const StagedNode& root = ev.root();
  const StagedNode& child = *root.left;
  std::vector<int64_t> occupancies = ev.RootOccupancies();
  int64_t sample_n = 0;
  for (int64_t c : occupancies) sample_n += c;
  double sel_child =
      child.cum_points > 0.0
          ? static_cast<double>(child.cum_tuples) / child.cum_points
          : 0.0;
  double qualifying_pop = std::max(sel_child * ev.total_points(),
                                   static_cast<double>(sample_n));
  CountEstimate e;
  e.value = GoodmanEstimate(qualifying_pop, occupancies);
  e.hits = static_cast<int64_t>(occupancies.size());
  e.points = ev.cum_points();
  e.total_points = ev.total_points();
  if (sample_n > 0 && qualifying_pop > 0.0) {
    // Two uncertainty sources: the distinct share within the qualifying
    // population, and the size of that population itself (estimated from
    // the child's sample). With all-singleton samples the share variance
    // degenerates to 0, so the population term keeps the interval honest.
    double distinct_share = static_cast<double>(occupancies.size()) /
                            static_cast<double>(sample_n);
    double share_var = qualifying_pop * qualifying_pop *
                       SrsProportionVariance(distinct_share, qualifying_pop,
                                             static_cast<double>(sample_n));
    double pop_var = ev.total_points() * ev.total_points() *
                     SrsProportionVariance(sel_child, ev.total_points(),
                                           child.cum_points);
    e.variance = share_var + distinct_share * distinct_share * pop_var;
  }
  TCQ_CHECK_INVARIANT(e.variance >= 0.0,
                      "projection term variance went negative");
  return e;
}

/// One scanned relation as the planner sees it. A run reads the counts
/// from its sampler; a dry run has no sampler and tracks the hypothetical
/// counts its planned stages leave.
struct RelationBlocks {
  int64_t total = 0;
  std::optional<BlockSampler> sampler;  // empty on a dry run
  int64_t dry_remaining = 0;
  int64_t dry_pooled = 0;

  /// Blocks this query has not drawn yet.
  int64_t remaining() const {
    return sampler ? sampler->remaining_blocks() : dry_remaining;
  }
  /// Of those, the warm pool's replays still ahead of the fresh draws.
  int64_t pooled_remaining() const {
    return sampler ? sampler->pooled_remaining() : dry_pooled;
  }
};

/// Everything built once per query: schema and value column, the
/// inclusion–exclusion expansion and the constant-scan split, one
/// evaluator and term ledger per sampled term, the per-relation block
/// view, the warm-start priors and cost snapshot, and the predictor
/// wiring. A dry plan (EXPLAIN) reads the warm cache and the predictor
/// without moving a counter, records no metric, owns no pool and never
/// draws. Not movable: the ledger and deadline point at its own clocks.
struct QueryPlan {
  QueryPlan(const ExecutorOptions& run_options, bool dry)
      : options(run_options),
        dry_run(dry),
        wall(options.use_wall_clock),
        faults_on(options.faults.enabled),
        obs(dry ? ObsHandle{} : options.obs),
        clock{wall ? static_cast<const Clock&>(wall_clock) : virtual_clock},
        // Wall-clock set-up spends the quota; virtual time waits.
        deadline(Deadline::StartingNow(clock, options.quota_s)),
        ledger(wall ? nullptr : &virtual_clock),
        noise_rng(Rng(options.seed).Fork()),
        // Fault injection (DESIGN.md §10): a stateless oracle whose
        // decisions are pure in (fault_seed, relation, block, attempt).
        injector(options.faults),
        fault_overhead_s(options.faults.ExpectedOverheadSeconds(
            options.physical.block_read_s)),
        width(ExecutionWidth(options)),
        physical(PlanningModel(options, width)),
        coefs(physical, options.cost),
        strategy(MakeStrategy(options.strategy)),
        combine_rule(options.conservative_term_variance
                         ? CombineVariance::kConservative
                         : CombineVariance::kIndependent),
        cache(options.warm_cache),
        mode(options.fulfillment) {}
  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  /// Builds the plan of `aggregate` over `expr`. An expression that
  /// expands to no term leaves `has_terms` false and builds nothing else.
  [[nodiscard]] Status Build(const ExprPtr& expr,
                             const AggregateSpec& aggregate,
                             const Catalog& catalog) {
    TCQ_ASSIGN_OR_RETURN(Schema schema, InferSchema(expr, catalog));
    int value_col = -1;
    if (aggregate.kind != AggregateSpec::Kind::kCount) {
      TCQ_ASSIGN_OR_RETURN(value_col, schema.IndexOf(aggregate.column));
    }
    aggregate_kind = aggregate.kind;
    TCQ_ASSIGN_OR_RETURN(std::vector<SignedTerm> terms, ExpandCount(expr));
    if (terms.empty()) return Status::OK();
    has_terms = true;

    if (!dry_run && !wall) {
      // Simulated runs stamp trace events with virtual time: the
      // exported trace becomes a pure function of the seed.
      if (obs.tracer != nullptr) obs.tracer->UseClock(&virtual_clock);
      ledger.AttachNoise(&noise_rng, options.physical.stage_speed_cv,
                         options.physical.block_read_jitter);
    }
    if (!dry_run && options.pool == nullptr && options.threads > 1) {
      owned_pool = std::make_unique<ThreadPool>(options.threads - 1);
    }
    pool = options.pool != nullptr ? options.pool : owned_pool.get();
    if (options.pool != nullptr && options.threads > 1) max_width = width;
    if (obs.metering()) {
      obs.metrics->gauge(metric_names::kEngineQuotaS)->Set(options.quota_s);
      obs.metrics->gauge("pool.width")->Set(static_cast<double>(width));
      if (pool != nullptr) {
        obs.metrics->gauge("pool.workers")
            ->Set(static_cast<double>(pool->workers()));
      }
    }

    // Warm start: begin from the fitted cost coefficients of the last
    // run of a canonically equal query (node ids only transfer between
    // structurally identical plans, hence the whole-query key).
    const bool predictor_on =
        options.sel_predictor.enabled && !options.selectivity.freeze_initial;
    if (cache != nullptr || predictor_on) {
      query_signature = CanonicalSignature(*expr);
    }
    if (cache != nullptr) {
      std::optional<AdaptiveCostModel::Snapshot> snapshot;
      if (dry_run) {
        snapshot = cache->PeekCostSnapshot(*query_signature);
      } else {
        cache_stats_before = cache->Stats();
        snapshot = cache->LookupCostSnapshot(*query_signature);
      }
      if (snapshot.has_value()) coefs.RestoreSnapshot(*snapshot);
    }

    // Bare-scan terms have exactly known counts (the catalog knows |r|):
    // priced at zero and never sampled, so COUNT(r1 ∪ r2) spends its
    // whole quota on r1 ∩ r2. A SUM/AVG scan term would need a pass over
    // the relation, so it stays sampled.
    std::vector<SignedTerm> sampled;
    std::vector<int> constant_signs;
    for (const SignedTerm& term : terms) {
      if (term.expr->kind != ExprKind::kScan ||
          aggregate.kind != AggregateSpec::Kind::kCount) {
        sampled.push_back(term);
        continue;
      }
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel,
                           catalog.Find(term.expr->relation));
      const double tuples = static_cast<double>(rel->NumTuples());
      constants.push_back(
          {.value = tuples, .hits = rel->NumTuples(), .total_points = tuples});
      constant_signs.push_back(term.sign);
    }

    // One staged evaluator per sampled term, each charging a private
    // clockless ledger so terms can run on separate workers without
    // racing on the clock or the noise stream; the runner folds the
    // term ledgers into the clock in term order after each barrier.
    for (const SignedTerm& term : sampled) {
      term_ledgers.push_back(std::make_unique<CostLedger>());
      TCQ_ASSIGN_OR_RETURN(
          auto ev, StagedTermEvaluator::Create(term.expr, catalog,
                                               options.fulfillment,
                                               term_ledgers.back().get(),
                                               physical));
      if (value_col >= 0) {
        TCQ_RETURN_NOT_OK(ev->TrackValueColumn(value_col));
      }
      if (!dry_run) {
        if (wall) ev->MeasureStepsWith(&clock);
        ev->UseThreadPool(pool, max_width);
        ev->SetObs(obs, static_cast<int>(evaluators.size()));
      }
      std::vector<std::string> scans;
      CollectScans(term.expr, &scans);
      for (const std::string& name : scans) {
        if (relations.count(name) != 0) continue;
        TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(name));
        RelationBlocks& blocks = relations[name];
        blocks.total = rel->NumBlocks();
        if (dry_run) {
          blocks.dry_remaining = blocks.total;
          blocks.dry_pooled =
              cache != nullptr ? cache->PeekPoolSize(name) : 0;
          continue;
        }
        // With a warm cache the sampler replays the relation's pooled
        // prefix before drawing fresh blocks (see BlockSampler).
        RelationSamplePool* rel_pool =
            cache != nullptr ? cache->PoolFor(name, rel->NumBlocks())
                             : nullptr;
        blocks.sampler.emplace(std::move(rel), rel_pool);
        blocks.sampler->SetMetrics(obs.metrics);
      }
      evaluators.push_back(std::move(ev));
      signs.push_back(term.sign);
    }
    signs.insert(signs.end(), constant_signs.begin(), constant_signs.end());

    // Hybrid selectivity predictor (DESIGN.md §12): session-lifetime
    // with a warm cache (its history persists alongside the priors),
    // query-local otherwise. freeze_initial is the prestored-statistics
    // ablation — predictions would fight the frozen values, so it wins.
    if (predictor_on && !evaluators.empty()) {
      if (cache != nullptr) {
        predictor = dry_run ? cache->predictor()
                            : cache->PredictorFor(options.sel_predictor);
      }
      if (predictor == nullptr) {
        query_predictor =
            std::make_unique<SelPredictor>(options.sel_predictor);
        predictor = query_predictor.get();
      }
      if (!dry_run) predictor->BeginQuery(*query_signature);
      node_keys.resize(evaluators.size());
      node_structs.resize(evaluators.size());
    }
    // Per operator node, keyed by its subtree's canonical signature: the
    // warm-start prior, which seeds stage 0 of ReviseSelectivities until
    // the node has samples of its own, and the predictor's keys.
    priors.resize(evaluators.size());
    for (size_t t = 0;
         (cache != nullptr || predictor != nullptr) && t < evaluators.size();
         ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        CacheKey key = CanonicalSignature(*node->expr);
        if (cache != nullptr) {
          std::optional<double> prior =
              dry_run ? cache->PeekPrior(key) : cache->LookupPrior(key);
          if (prior.has_value()) priors[t][node->id] = *prior;
        }
        if (predictor == nullptr) continue;
        node_keys[t].emplace(node->id, std::move(key));
        node_structs[t].emplace(node->id, StructuralSignature(*node->expr));
      }
    }
    return Status::OK();
  }

  /// True when every relation is fully drawn (or the query scans none).
  bool Exhausted() const {
    for (const auto& [name, blocks] : relations) {
      if (blocks.total > 0 && blocks.remaining() > 0) return false;
    }
    return true;
  }

  /// Feeds the warm cache after a run: every operator node that sampled
  /// points records its revised selectivity (what the next stage of this
  /// run would have planned with), the fitted cost coefficients are
  /// snapshotted under the whole-query signature, and the run's deltas
  /// of the cache counters are exported.
  void RecordWarmStart() {
    if (cache == nullptr) return;
    for (const auto& ev : evaluators) {
      if (ev->num_stages() == 0) continue;
      std::map<int, double> revised =
          ReviseSelectivities(*ev, options.selectivity);
      for (const StagedNode* node : ev->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan || node->cum_points <= 0.0) {
          continue;
        }
        cache->RecordPrior(CanonicalSignature(*node->expr),
                           revised.at(node->id));
      }
    }
    cache->RecordCostSnapshot(*query_signature, coefs.ExportSnapshot());
    if (!obs.metering()) return;
    // Deterministic at a fixed seed and cache state: replay counts
    // depend only on pool contents and the plan, never on the width.
    WarmStartStats after = cache->Stats();
    const WarmStartStats& before = cache_stats_before;
    obs.metrics->counter(metric_names::kCacheBlocksReplayed)
        ->Add(after.replayed_blocks - before.replayed_blocks);
    obs.metrics->counter(metric_names::kCacheBlocksFresh)
        ->Add(after.fresh_blocks - before.fresh_blocks);
    obs.metrics->counter(metric_names::kCachePriorHits)
        ->Add(after.prior_hits - before.prior_hits);
    obs.metrics->counter(metric_names::kCachePriorMisses)
        ->Add(after.prior_misses - before.prior_misses);
    obs.metrics->gauge(metric_names::kCachePoolBlocks)
        ->Set(static_cast<double>(after.pooled_blocks));
    obs.metrics->gauge(metric_names::kCachePriorEntries)
        ->Set(static_cast<double>(after.prior_entries));
  }

  /// Exports the global ledger (stage overhead, block reads), the term
  /// ledgers folded in term order (operator work) and the pool counters.
  void ExportLedgers() const {
    if (!obs.metering()) return;
    ledger.ExportTo(obs.metrics, "ledger");
    for (size_t c = 0; c < static_cast<size_t>(CostCategory::kNumCategories);
         ++c) {
      auto cat = static_cast<CostCategory>(c);
      double total = 0.0;
      double ops = 0.0;
      for (const auto& term_ledger : term_ledgers) {
        total += term_ledger->Total(cat);
        ops += static_cast<double>(term_ledger->Count(cat));
      }
      const std::string base =
          std::string("ledger.terms.") + std::string(CostCategoryName(cat));
      obs.metrics->gauge(base + "_s")->Set(total);
      obs.metrics->gauge(base + "_ops")->Set(ops);
    }
    if (pool != nullptr) {
      // Scheduling-dependent: gauges, never counters, so the
      // deterministic metric sections stay bit-identical across widths.
      obs.metrics->gauge("pool.batches")
          ->Set(static_cast<double>(pool->batches_run()));
      obs.metrics->gauge("pool.tasks_by_workers")
          ->Set(static_cast<double>(pool->tasks_run_by_workers()));
      obs.metrics->gauge("pool.tasks_by_callers")
          ->Set(static_cast<double>(pool->tasks_run_by_callers()));
    }
  }

  const ExecutorOptions& options;
  const bool dry_run;
  const bool wall;
  const bool faults_on;
  const ObsHandle obs;  // empty on a dry run
  VirtualClock virtual_clock;
  WallClock wall_clock;
  const Clock& clock;
  const Deadline deadline;
  CostLedger ledger;
  Rng noise_rng;
  const FaultInjector injector;
  const double fault_overhead_s;

  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  int max_width = 0;
  const int width;
  const CostModel physical;  // workers = width under a wall clock
  AdaptiveCostModel coefs;
  std::unique_ptr<TimeControlStrategy> strategy;
  const CombineVariance combine_rule;

  WarmStartCache* const cache;
  WarmStartStats cache_stats_before;
  std::optional<CacheKey> query_signature;  // with a cache or predictor

  AggregateSpec::Kind aggregate_kind = AggregateSpec::Kind::kCount;
  bool has_terms = false;
  std::vector<std::unique_ptr<StagedTermEvaluator>> evaluators;
  std::vector<std::unique_ptr<CostLedger>> term_ledgers;
  std::vector<int> signs;  // the sampled terms', then the constants'
  std::vector<CountEstimate> constants;
  std::map<std::string, RelationBlocks> relations;  // by name

  std::vector<std::map<int, double>> priors;  // per term: node id → prior
  SelPredictor* predictor = nullptr;
  std::unique_ptr<SelPredictor> query_predictor;
  std::vector<std::map<int, CacheKey>> node_keys;
  std::vector<std::map<int, std::string>> node_structs;
  Fulfillment mode;  // §5.B may downgrade it to partial once
};

/// Plans one stage: Revise-Selectivities with the warm priors, the
/// predictor (Predict on a run, Peek on a dry run), the QCOST formulas,
/// then the strategy's Sample-Size-Determine.
class StagePlanner {
 public:
  explicit StagePlanner(QueryPlan* plan)
      : plan_(*plan),
        sel_prev_(plan->evaluators.size()),
        sel_widths_(plan->evaluators.size()),
        predictions_(plan->evaluators.size()) {}

  /// Plans stage `stage` with `time_left` seconds left. A fraction of 0
  /// means no stage fits; see FallBackToPartial.
  [[nodiscard]] Result<StagePlan> Plan(int stage, double time_left) {
    QueryPlan& q = plan_;
    const SelectivityOptions& sel_options = q.options.selectivity;
    // Largest drawable fraction and the one-block fraction step.
    double f_max = 0.0;
    double min_step = 1.0;
    for (const auto& [name, blocks] : q.relations) {
      double total = static_cast<double>(blocks.total);
      if (total <= 0.0) continue;
      f_max =
          std::max(f_max, static_cast<double>(blocks.remaining()) / total);
      min_step = std::min(min_step, 1.0 / total);
    }

    // Figure 3.3: revise per-operator selectivities from all samples.
    for (size_t t = 0; t < q.evaluators.size(); ++t) {
      sel_prev_[t] = ReviseSelectivities(
          *q.evaluators[t], sel_options, q.obs,
          q.cache != nullptr ? &q.priors[t] : nullptr);
    }

    // Hybrid predictor: the chooser overrides each node's planning
    // selectivity and supplies its inflation width for ComputeSelPlus.
    // Serial section, node order — deterministic at a fixed seed and
    // cache state at any thread count.
    for (size_t t = 0; q.predictor != nullptr && t < q.evaluators.size();
         ++t) {
      sel_widths_[t].clear();
      predictions_[t].clear();
      for (const StagedNode* node : q.evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        std::optional<double> observed;
        if (q.evaluators[t]->num_stages() > 0 && node->cum_points > 0.0) {
          observed = sel_prev_[t].at(node->id);
        }
        std::optional<double> prior;
        auto pit = q.priors[t].find(node->id);
        if (pit != q.priors[t].end()) {
          prior = SanitizedStagePrior(pit->second, node->total_points,
                                      sel_options.zero_hit_beta);
        }
        double fallback = InitialSelectivity(*node, sel_options, nullptr);
        const CacheKey& key = q.node_keys[t].at(node->id);
        const std::string& structure = q.node_structs[t].at(node->id);
        SelPrediction p =
            q.dry_run ? q.predictor->Peek(*q.query_signature, key, structure,
                                          observed, prior, fallback)
                      : q.predictor->Predict(key, structure, observed, prior,
                                             fallback);
        sel_prev_[t][node->id] = p.selectivity;
        sel_widths_[t][node->id] = p.width_scale;
        predictions_[t].emplace(node->id, p);
        if (q.obs.metering()) {
          q.obs.metrics->counter(metric_names::kPredictorPredictions)
              ->Increment();
          q.obs.metrics
              ->counter(p.history_hit ? metric_names::kPredictorHistoryHits
                                      : metric_names::kPredictorHistoryMisses)
              ->Increment();
          q.obs.metrics->histogram(metric_names::kPredictorWidthScale)
              ->Record(p.width_scale);
        }
      }
    }

    StagePlanContext context;
    context.next_stage = stage;
    context.time_left = time_left;
    context.quota = q.options.quota_s;
    context.f_max = f_max;
    context.f_min_step = min_step;
    context.epsilon = q.options.epsilon_s;
    context.predictor_active = q.predictor != nullptr;
    context.obs = q.obs;
    context.qcost = [this](double f, double d_beta) {
      return QCost(f, d_beta);
    };
    context.qcost_sigma = [this](double f) { return QCostSigma(f); };
    TraceSpan plan_span(q.obs.tracer, "plan_stage", "engine");
    TCQ_ASSIGN_OR_RETURN(StagePlan plan, q.strategy->PlanStage(context));
    plan_span.Arg("fraction", plan.fraction);
    plan_span.Arg("predicted_s", plan.predicted_seconds);
    return plan;
  }

  /// §5.B hybrid: when a full-fulfillment stage no longer fits and the
  /// options ask for it, switches the query to partial (new×new only)
  /// stages, which may still use the residual time. True when it
  /// switched: the caller re-plans the same stage.
  bool FallBackToPartial() {
    if (!plan_.options.final_partial_stages ||
        plan_.mode != Fulfillment::kFull) {
      return false;
    }
    plan_.mode = Fulfillment::kPartial;
    return true;
  }

  /// The operator selectivities the last Plan used, with the predictor's
  /// annotations.
  std::vector<OperatorSelectivity> Selectivities() const {
    std::vector<OperatorSelectivity> out;
    for (size_t t = 0; t < plan_.evaluators.size(); ++t) {
      for (const StagedNode* node : plan_.evaluators[t]->NodesPreOrder()) {
        auto it = sel_prev_[t].find(node->id);
        if (it == sel_prev_[t].end()) continue;
        OperatorSelectivity sel;
        sel.term = static_cast<int>(t);
        sel.node = node->id;
        sel.op = std::string(ExprKindName(node->kind));
        sel.selectivity = it->second;
        auto pit = predictions_[t].find(node->id);
        if (pit != predictions_[t].end()) {
          sel.component = std::string(SelComponentName(pit->second.component));
          sel.confidence = pit->second.confidence;
          sel.width_scale = pit->second.width_scale;
        }
        out.push_back(std::move(sel));
      }
    }
    return out;
  }

  const std::map<int, SelPrediction>& predictions(size_t term) const {
    return predictions_[term];
  }

 private:
  /// QCOST(f, SEL⁺(d_β)), the full-query cost formula: per-stage
  /// overhead + block fetches (priced once per relation) + every term's
  /// operator costs.
  [[nodiscard]] Result<double> QCost(double f, double d_beta) const {
    const QueryPlan& q = plan_;
    const double fetch_coef = q.coefs.Coef(kGlobalCostNode, CostStep::kFetch);
    double fetch_s = 0.0;
    for (const auto& [name, blocks] : q.relations) {
      int64_t d_new = std::min<int64_t>(BlocksForFraction(f, blocks.total),
                                        blocks.remaining());
      // Expected fault overhead (re-reads, backoff, stragglers) is priced
      // in, so the loop plans around retries instead of meeting them.
      if (q.faults_on) {
        fetch_s += static_cast<double>(d_new) * q.fault_overhead_s;
      }
      // In simulation the next pooled_remaining() draws replay cached
      // blocks at the discounted rate (without a pool, or under a wall
      // clock, `replayed` is 0 and this is d_new · coef).
      const int64_t replayed =
          q.wall ? 0 : std::min<int64_t>(d_new, blocks.pooled_remaining());
      fetch_s += (static_cast<double>(replayed) *
                      q.options.physical.cached_read_factor +
                  static_cast<double>(d_new - replayed)) *
                 fetch_coef;
    }
    double seconds = q.coefs.Coef(kGlobalCostNode, CostStep::kSetup) + fetch_s;
    for (size_t t = 0; t < q.evaluators.size(); ++t) {
      std::map<int, double> sel_plus = ComputeSelPlus(
          *q.evaluators[t], sel_prev_[t], f, d_beta, q.mode,
          q.predictor != nullptr ? &sel_widths_[t] : nullptr);
      TCQ_ASSIGN_OR_RETURN(TermStagePrediction p,
                           PredictTermStageCost(*q.evaluators[t], f, sel_plus,
                                                q.coefs, q.mode));
      seconds += p.seconds;
    }
    return seconds;
  }

  /// First-order std-dev of the stage cost: per-operator selectivity
  /// sigmas propagated through the cost formula, combined with the
  /// conservative perfect-correlation bound (§3.3.1's covariances are
  /// upper-bounded rather than estimated).
  [[nodiscard]] Result<double> QCostSigma(double f) const {
    const QueryPlan& q = plan_;
    double sigma = 0.0;
    for (size_t t = 0; t < q.evaluators.size(); ++t) {
      const StagedTermEvaluator& ev = *q.evaluators[t];
      std::map<int, NodePoints> points = PredictNodePoints(ev, f, q.mode);
      TCQ_ASSIGN_OR_RETURN(
          TermStagePrediction base,
          PredictTermStageCost(ev, f, sel_prev_[t], q.coefs, q.mode));
      for (const auto& [id, sel] : sel_prev_[t]) {
        auto it = points.find(id);
        if (it == points.end()) continue;
        double sd = std::sqrt(SrsProportionVariance(
            sel, it->second.remaining_points, it->second.new_points));
        if (sd <= 0.0) continue;
        std::map<int, double> bumped = sel_prev_[t];
        bumped[id] = std::min(1.0, sel + sd);
        TCQ_ASSIGN_OR_RETURN(
            TermStagePrediction hi,
            PredictTermStageCost(ev, f, bumped, q.coefs, q.mode));
        sigma += std::max(0.0, hi.seconds - base.seconds);
      }
    }
    return sigma;
  }

  QueryPlan& plan_;
  std::vector<std::map<int, double>> sel_prev_;
  std::vector<std::map<int, double>> sel_widths_;
  std::vector<std::map<int, SelPrediction>> predictions_;
};

/// Runs one planned stage: substream draws, post-barrier fault
/// resolution, term tasks, the ledger fold in term order, the fetch, η
/// and predictor observations, then the estimate; and publishes its
/// report to the metrics, the trace and the observer.
class StageRunner {
 public:
  /// `planner` supplies the report's selectivities and the predictions
  /// to score; null when the stages are sized without one.
  StageRunner(QueryPlan* plan, const StagePlanner* planner)
      : plan_(*plan), planner_(planner) {}

  [[nodiscard]] Result<StageReport> Run(int stage, double time_left,
                                        const StagePlan& stage_plan) {
    QueryPlan& q = plan_;
    const CostModel& physical = q.options.physical;
    StageReport report;
    report.index = stage;
    report.time_left_before = time_left;
    report.planned_fraction = stage_plan.fraction;
    report.d_beta_used = stage_plan.d_beta_used;
    report.predicted_seconds = stage_plan.predicted_seconds;
    report.predictor_used = stage_plan.predictor_used;
    report.quota_s = q.options.quota_s;

    const double stage_start = q.clock.Now();
    q.ledger.BeginStage();
    if (!q.wall) {
      // Simulated per-stage bookkeeping overhead; under a wall clock the
      // planning work took real time already.
      q.ledger.Charge(CostCategory::kStageOverhead, physical.stage_overhead_s);
      q.coefs.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                      physical.stage_overhead_s);
    } else {
      q.coefs.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                      q.clock.Now() - stage_start);
    }

    // Realized work/span of this stage's fan-out sections (η re-fit).
    ParallelStats parallel;
    TCQ_RETURN_NOT_OK(Draw(stage, stage_plan.fraction, &report, &parallel));
    TCQ_RETURN_NOT_OK(Evaluate(&parallel));

    // A wall-clock fetch is the draw plus the scans' run building over
    // the drawn blocks, summed over every term scanning the relation.
    if (q.wall) {
      for (const auto& ev : q.evaluators) {
        for (const StagedNode* node : ev->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan && !node->stages.empty()) {
            fetches_[node->rel->name()].seconds +=
                node->stages.back().seconds;
          }
        }
      }
    }
    for (const auto& [name, fetch] : fetches_) {
      q.coefs.Observe(kGlobalCostNode, CostStep::kFetch, fetch.blocks,
                      fetch.seconds);
    }
    if (q.predictor != nullptr) {
      // Score this stage's predictions against the realized per-node
      // selectivities, in node order. Aborted stages update too: their
      // samples are real even though they never count.
      for (size_t t = 0; t < q.evaluators.size(); ++t) {
        for (const StagedNode* node : q.evaluators[t]->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan || node->stages.empty()) {
            continue;
          }
          const NodeStageRecord& rec = node->stages.back();
          if (rec.new_points <= 0.0) continue;
          double realized =
              static_cast<double>(rec.new_tuples) / rec.new_points;
          q.predictor->Update(q.node_keys[t].at(node->id),
                              q.node_structs[t].at(node->id), realized);
          if (q.obs.metering()) {
            auto it = planner_->predictions(t).find(node->id);
            if (it != planner_->predictions(t).end()) {
              q.obs.metrics->histogram(metric_names::kPredictorAbsError)
                  ->Record(std::abs(it->second.selectivity - realized));
            }
          }
        }
      }
    }
    if (q.wall) {
      // Re-fit the parallel-efficiency coefficient η from the realized
      // speedup of this stage's fan-out sections.
      q.coefs.ObserveParallelism(parallel.work_seconds,
                                 parallel.span_seconds);
    }
    const double stage_end = q.clock.Now();
    report.actual_seconds = stage_end - stage_start;
    report.within_quota = q.deadline.Remaining(q.clock) >= 0.0;
    q.strategy->OnStageOutcome(stage_plan.predicted_seconds,
                               report.actual_seconds, !report.within_quota);

    CountEstimate combined = Combine();
    // Degraded answers (DESIGN.md §10): fault decisions are content-
    // agnostic, so the survivors stay a uniform sample and the estimator
    // unbiased; the smaller sample widens the variance by (1 + lost/read)
    // over the counted stages, this one included.
    fault_widening_ = 1.0;
    const int64_t stage_read = report.blocks_drawn - report.blocks_lost;
    const int64_t lost_blocks = lost_blocks_ + report.blocks_lost;
    if (q.faults_on && lost_blocks > 0) {
      fault_widening_ =
          1.0 + static_cast<double>(lost_blocks) /
                    static_cast<double>(
                        std::max<int64_t>(1, read_blocks_ + stage_read));
      combined.variance *= fault_widening_;
    }
    report.estimate_after = combined.value;
    report.variance_after = combined.variance;
    // In simulation the clock advances only inside the stage, so these
    // spends telescope: Σ ledger_spend_s over all reports equals the
    // query's elapsed_seconds (the acceptance identity).
    report.ledger_spend_s = stage_end - stage_start;
    report.cumulative_spend_s = q.deadline.Elapsed(q.clock);
    report.work_seconds = parallel.work_seconds;
    report.span_seconds = parallel.span_seconds;
    report.parallel_tasks = parallel.tasks;
    if (planner_ != nullptr) report.selectivities = planner_->Selectivities();

    const ObsHandle& obs = q.obs;
    if (obs.metering()) {
      obs.metrics->counter(metric_names::kEngineStagesRun)->Increment();
      obs.metrics->counter(metric_names::kEngineBlocksDrawn)
          ->Add(report.blocks_drawn);
      if (q.faults_on) {
        // Deterministic at a fixed fault seed: every increment happens
        // in this serial section, in relation-name order.
        obs.metrics->counter(metric_names::kFaultTransient)
            ->Add(report.transient_faults);
        obs.metrics->counter(metric_names::kFaultRetries)
            ->Add(report.retries);
        obs.metrics->counter(metric_names::kFaultBlocksLost)
            ->Add(report.blocks_lost);
        obs.metrics->counter(metric_names::kFaultStragglers)
            ->Add(report.stragglers);
      }
      obs.metrics->gauge(metric_names::kEngineSpendS)
          ->Set(report.cumulative_spend_s);
      obs.metrics->gauge(metric_names::kEngineTimeLeftS)
          ->Set(q.deadline.Remaining(q.clock));
      for (const OperatorSelectivity& sel : report.selectivities) {
        char name[64];
        std::snprintf(name, sizeof(name), "timectrl.sel.t%d.n%d", sel.term,
                      sel.node);
        obs.metrics->gauge(name)->Set(sel.selectivity);
      }
    }
    if (obs.tracing()) {
      obs.tracer->Counter("ledger_spend_s", report.cumulative_spend_s);
      obs.tracer->Counter("estimate", report.estimate_after);
      obs.tracer->Counter(
          "blocks_drawn",
          static_cast<double>(read_blocks_ + report.blocks_drawn));
    }
    if (obs.observer != nullptr) obs.observer->OnStage(report);
    read_blocks_ += stage_read;
    lost_blocks_ = lost_blocks;
    return report;
  }

  /// The combined estimate: EstimateTerm per sampled term, then the
  /// constants, then SUM/AVG.
  CountEstimate Combine() const {
    const QueryPlan& q = plan_;
    std::vector<CountEstimate> term_estimates;
    term_estimates.reserve(q.evaluators.size() + q.constants.size());
    for (const auto& ev : q.evaluators) {
      term_estimates.push_back(EstimateTerm(*ev));
    }
    term_estimates.insert(term_estimates.end(), q.constants.begin(),
                          q.constants.end());
    CountEstimate combined = CombineSignedEstimates(
        q.signs, term_estimates, q.obs, q.combine_rule);
    if (q.aggregate_kind == AggregateSpec::Kind::kCount) return combined;
    // SUM and AVG sample every term, so `signs` are the sampled terms'.
    std::vector<CountEstimate> sum_estimates;
    sum_estimates.reserve(q.evaluators.size());
    for (const auto& ev : q.evaluators) {
      sum_estimates.push_back(ClusterSumEstimate(
          ev->total_space_blocks(), ev->cum_space_blocks(),
          ev->cum_value_sum(), ev->cum_value_sq_sum(), ev->cum_points(),
          ev->total_points()));
    }
    CountEstimate sum_combined =
        CombineSignedEstimates(q.signs, sum_estimates, q.combine_rule);
    if (q.aggregate_kind == AggregateSpec::Kind::kSum) return sum_combined;
    // AVG = SUM / COUNT, delta-method variance (covariance ignored).
    CountEstimate avg;
    avg.points = combined.points;
    avg.total_points = combined.total_points;
    if (combined.value != 0.0) {
      double ratio = sum_combined.value / combined.value;
      avg.value = ratio;
      avg.variance =
          (sum_combined.variance + ratio * ratio * combined.variance) /
          (combined.value * combined.value);
    }
    return avg;
  }

  /// The variance widening of the last stage's estimate (1 without loss).
  double fault_widening() const { return fault_widening_; }

  /// Per-relation fault tallies of the whole run, by relation name.
  const std::map<std::string, RelationFaultCounts>& relation_faults() const {
    return relation_faults_;
  }

 private:
  /// Draws the stage's blocks: one task per relation, each from its own
  /// deterministic substream of (seed, relation, stage). Ledger charges —
  /// which consume the per-block jitter noise — and the fault resolution
  /// happen post-barrier in relation-name order, so neither depends on
  /// the worker count.
  [[nodiscard]] Status Draw(int stage, double fraction, StageReport* report,
                            ParallelStats* parallel) {
    QueryPlan& q = plan_;
    const CostModel& physical = q.options.physical;
    TraceSpan draw_span(q.obs.tracer, "draw_blocks", "engine");
    struct DrawSlot {
      const std::string* name = nullptr;
      BlockSampler* sampler = nullptr;
      int64_t count = 0;
      std::vector<const Block*> blocks;
      std::vector<uint32_t> indices;  // fault path: drawn block ids
      Status status;
      double seconds = 0.0;
    };
    std::vector<DrawSlot> draws;
    draws.reserve(q.relations.size());
    for (auto& [name, blocks] : q.relations) {
      DrawSlot slot;
      slot.name = &name;
      slot.sampler = &*blocks.sampler;
      slot.count = std::min<int64_t>(BlocksForFraction(fraction, blocks.total),
                                     blocks.remaining());
      draws.push_back(std::move(slot));
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(draws.size());
    for (DrawSlot& slot : draws) {
      tasks.push_back([sp = &slot, seed = q.options.seed,
                       stage_idx = static_cast<uint64_t>(stage),
                       checked = q.faults_on] {
        auto start = std::chrono::steady_clock::now();
        if (!checked) {
          sp->blocks = sp->sampler->DrawSubstream(sp->count, seed, stage_idx);
        } else {
          // Fault path: the draw is identical, but blocks come back with
          // their indices through the checked storage read API (the
          // injector keys on the physical block identity).
          Result<std::vector<DrawnBlock>> drawn =
              sp->sampler->DrawSubstreamChecked(sp->count, seed, stage_idx);
          if (!drawn.ok()) {
            sp->status = drawn.status();
          } else {
            sp->blocks.reserve(drawn->size());
            sp->indices.reserve(drawn->size());
            for (const DrawnBlock& b : *drawn) {
              sp->indices.push_back(b.index);
              sp->blocks.push_back(b.block);
            }
          }
        }
        sp->seconds = SecondsSince(start);
      });
    }
    auto section_start = std::chrono::steady_clock::now();
    RunTasks(q.pool, &tasks, q.max_width);
    parallel->span_seconds += SecondsSince(section_start);
    parallel->tasks += static_cast<int>(tasks.size());

    TraceSpan fault_span(q.faults_on ? q.obs.tracer : nullptr,
                         "inject_faults", "fault");
    double wall_fault_sleep_s = 0.0;
    int64_t blocks_replayed = 0;
    for (DrawSlot& slot : draws) {
      TCQ_RETURN_NOT_OK(slot.status);
      parallel->work_seconds += slot.seconds;
      report->blocks_drawn += static_cast<int64_t>(slot.blocks.size());
      const int64_t replayed = slot.sampler->last_draw_replayed();
      blocks_replayed += replayed;
      if (!q.wall) {
        // Replays charge the discounted rate, fresh draws a full read.
        // The charge count (and so the jitter stream) is the same split
        // or not; with no warm pool the first ChargeN is a no-op.
        const int64_t fresh =
            static_cast<int64_t>(slot.blocks.size()) - replayed;
        q.ledger.ChargeN(CostCategory::kBlockRead, replayed,
                         physical.block_read_s * physical.cached_read_factor);
        q.ledger.ChargeN(CostCategory::kBlockRead, fresh,
                         physical.block_read_s);
      }
      // The fetch coefficient means "seconds per *fresh* read" (QCost
      // applies the replay discount); Run adds the scans' real seconds to
      // a wall-clock observation after evaluation.
      const double drawn = static_cast<double>(slot.blocks.size());
      fetches_[*slot.name] = {
          drawn, q.wall ? slot.seconds : drawn * physical.block_read_s};
      if (q.faults_on) {
        // Resolve each drawn block's read through the injector: retry
        // transient faults with exponential backoff, drop permanently
        // unreadable blocks from the frame, and charge every retry,
        // backoff, and straggler second so the deadline sees them.
        std::vector<const Block*> survivors;
        survivors.reserve(slot.blocks.size());
        RelationFaultCounts& rf = relation_faults_[*slot.name];
        rf.relation = *slot.name;
        for (size_t i = 0; i < slot.blocks.size(); ++i) {
          const BlockReadOutcome outcome = ReadBlockWithFaults(
              q.injector, *slot.name, static_cast<int64_t>(slot.indices[i]),
              physical.block_read_s);
          rf.read_attempts += outcome.read_attempts;
          const int64_t retries = outcome.read_attempts - 1;
          if (retries > 0) {
            report->retries += retries;
            // A retry re-reads the block: charged like any other read
            // (consuming per-read jitter) but never a new draw.
            if (!q.wall) {
              q.ledger.ChargeN(CostCategory::kBlockRead, retries,
                               physical.block_read_s);
            }
          }
          report->transient_faults += outcome.transient_faults;
          rf.transient_faults += outcome.transient_faults;
          const double delay_s = outcome.backoff_s + outcome.straggler_extra_s;
          if (delay_s > 0.0) {
            report->fault_delay_s += delay_s;
            if (!q.wall) {
              q.ledger.Charge(CostCategory::kFaultDelay, delay_s);
            } else {
              wall_fault_sleep_s += delay_s;
            }
          }
          if (outcome.lost) {
            ++report->blocks_lost;
            ++rf.blocks_lost;
            if (q.obs.tracing()) {
              q.obs.tracer->Instant("block_lost", "fault", "block",
                                    static_cast<double>(slot.indices[i]));
            }
            continue;
          }
          if (outcome.straggler) {
            ++report->stragglers;
            ++rf.stragglers;
          }
          survivors.push_back(slot.blocks[i]);
        }
        slot.blocks = std::move(survivors);
      }
      stage_blocks_[*slot.name] = std::move(slot.blocks);
    }
    if (q.wall && wall_fault_sleep_s > 0.0) {
      // Wall-clock runs pay fault latency in real time: the deadline, the
      // strategy's outcome feedback, and the serving layer all see it.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(wall_fault_sleep_s));
    }
    if (q.faults_on) {
      fault_span.Arg("transient",
                     static_cast<double>(report->transient_faults));
      fault_span.Arg("lost", static_cast<double>(report->blocks_lost));
    }
    draw_span.Arg("blocks", static_cast<double>(report->blocks_drawn));
    if (q.cache != nullptr) {
      draw_span.Arg("replayed", static_cast<double>(blocks_replayed));
    }
    return Status::OK();
  }

  /// Runs every term as its own task (each term's merge pairs fan out
  /// further inside the evaluator), then reduces statuses, clock advances
  /// and coefficient re-fits in term order after the barrier.
  [[nodiscard]] Status Evaluate(ParallelStats* parallel) {
    QueryPlan& q = plan_;
    const size_t n = q.evaluators.size();
    std::vector<double> prev_totals(n, 0.0);
    for (size_t t = 0; t < n; ++t) {
      // Each term charges under this stage's machine-speed factor.
      q.term_ledgers[t]->SetStageFactor(q.ledger.current_stage_factor());
      prev_totals[t] = q.term_ledgers[t]->GrandTotal();
    }
    TraceSpan eval_span(q.obs.tracer, "eval_terms", "engine");
    std::vector<Status> statuses(n);
    std::vector<double> durs(n, 0.0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t t = 0; t < n; ++t) {
      StagedTermEvaluator* ev = q.evaluators[t].get();
      Status* status = &statuses[t];
      double* dur = &durs[t];
      const auto* blocks = &stage_blocks_;
      const Fulfillment mode = q.mode;
      tasks.push_back([ev, status, dur, blocks, mode] {
        auto start = std::chrono::steady_clock::now();
        *status = ev->ExecuteStageWithMode(*blocks, mode);
        *dur = SecondsSince(start);
      });
    }
    auto section_start = std::chrono::steady_clock::now();
    RunTasks(q.pool, &tasks, q.max_width);
    parallel->span_seconds += SecondsSince(section_start);
    parallel->tasks += static_cast<int>(tasks.size());
    for (size_t t = 0; t < n; ++t) {
      TCQ_RETURN_NOT_OK(statuses[t]);
      // The term task ran its evaluator's sort/merge fan-out inside it:
      // count those sections' summed task work in place of their elapsed
      // span, and their tasks, so work/span (and the η fit) sees the
      // evaluator's parallelism even when a lone term task runs inline.
      const ParallelStats& inner = q.evaluators[t]->last_stage_parallelism();
      parallel->work_seconds +=
          durs[t] - inner.span_seconds + inner.work_seconds;
      parallel->tasks += inner.tasks;
    }
    // The term ledgers fold into the virtual clock inside this span so
    // its duration covers the stage's simulated evaluation cost.
    for (size_t t = 0; t < n; ++t) {
      double delta = q.term_ledgers[t]->GrandTotal() - prev_totals[t];
      if (!q.wall && delta > 0.0) q.virtual_clock.Advance(delta);
      ObserveTermStage(*q.evaluators[t], &q.coefs);
    }
    return Status::OK();
  }

  struct FetchObservation {
    double blocks = 0.0;
    double seconds = 0.0;
  };

  QueryPlan& plan_;
  const StagePlanner* planner_;
  std::map<std::string, std::vector<const Block*>> stage_blocks_;
  std::map<std::string, FetchObservation> fetches_;  // this stage's
  std::map<std::string, RelationFaultCounts> relation_faults_;
  // Blocks read and lost by the stages before this one. Only a run's last
  // stage can be aborted, so these are the counted stages'.
  int64_t read_blocks_ = 0;
  int64_t lost_blocks_ = 0;
  double fault_widening_ = 1.0;
};

/// The error-constrained driver's engine options: the stage loop with no
/// time quota (the largest finite one), stopped by precision alone.
ExecutorOptions ErrorConstrainedRunOptions(
    const ErrorConstrainedOptions& options) {
  ExecutorOptions run;
  run.quota_s = std::numeric_limits<double>::max();
  run.fulfillment = options.fulfillment;
  run.physical = options.physical;
  run.seed = options.seed;
  run.max_stages = options.max_stages;
  run.confidence = options.confidence;
  run.precision.rel_halfwidth = options.rel_halfwidth;
  run.precision.abs_halfwidth = options.abs_halfwidth;
  run.precision.confidence = options.confidence;
  return run;
}

}  // namespace

Result<QueryResult> RunTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  QueryPlan plan(options, /*dry=*/false);
  TCQ_RETURN_NOT_OK(plan.Build(expr, aggregate, catalog));
  const double quota_s = options.quota_s;
  const ObsHandle& obs = options.obs;
  QueryResult result;
  result.ci.level = options.confidence;
  if (!plan.has_terms) return result;
  if (obs.observer != nullptr) {
    obs.observer->OnQueryBegin(quota_s,
                               static_cast<int>(plan.evaluators.size()));
  }
  StagePlanner planner(&plan);
  StageRunner runner(&plan, &planner);
  if (plan.evaluators.empty()) {
    // Fully constant query (e.g. COUNT(r1)).
    CountEstimate combined = runner.Combine();
    result.estimate = combined.value;
    result.variance = combined.variance;
    result.ci = NormalConfidenceInterval(combined, options.confidence);
    if (obs.observer != nullptr) {
      obs.observer->OnQueryEnd(result.estimate, result.variance, false);
    }
    return result;
  }

  TraceSpan query_span(obs.tracer, "query", "engine");
  query_span.Arg("terms", static_cast<double>(plan.evaluators.size()));
  query_span.Arg("quota_s", quota_s);
  double counted_elapsed = 0.0;
  double previous_estimate = std::nan("");
  result.stop_reason = StopReason::kMaxStages;
  for (int stage = 0; stage < options.max_stages; ++stage) {
    const double time_left = plan.deadline.Remaining(plan.clock);
    if (time_left <= 0.0) {
      result.stop_reason = StopReason::kQuotaUsedUp;
      break;
    }
    if (plan.Exhausted()) {
      result.stop_reason = StopReason::kSamplesExhausted;
      break;
    }
    TraceSpan stage_span(obs.tracer, "stage", "engine");
    stage_span.Arg("index", static_cast<double>(stage));
    stage_span.Arg("time_left_s", time_left);
    TCQ_ASSIGN_OR_RETURN(StagePlan stage_plan,
                         planner.Plan(stage, time_left));
    if (stage_plan.fraction <= 0.0) {
      if (planner.FallBackToPartial()) {
        --stage;  // re-plan this stage under the partial cost formula
        continue;
      }
      result.stop_reason = StopReason::kNoAffordableStage;
      break;
    }
    // Strategies must hand back a usable sampling fraction: (0, 1] and
    // no larger than what is left to draw (paper §3.1 selectivity
    // revision assumes stages sample fresh blocks).
    TCQ_CHECK_INVARIANT(
        stage_plan.fraction > 0.0 && stage_plan.fraction <= 1.0,
        "stage plan fraction outside (0, 1]");
    TCQ_ASSIGN_OR_RETURN(StageReport stage_report,
                         runner.Run(stage, time_left, stage_plan));
    result.stage_reports.push_back(std::move(stage_report));
    const StageReport& report = result.stage_reports.back();
    ++result.stages_run;
    result.faults.transient_faults += report.transient_faults;
    result.faults.retries += report.retries;
    result.faults.blocks_lost += report.blocks_lost;
    result.faults.stragglers += report.stragglers;
    result.faults.fault_delay_s += report.fault_delay_s;
    if (!report.within_quota) {
      result.stop_reason = StopReason::kStageOverran;
      result.overspend_seconds = plan.deadline.Elapsed(plan.clock) - quota_s;
      if (options.deadline_mode == DeadlineMode::kHard) {
        // The interrupted stage is aborted: its samples are wasted and
        // the previous stage's estimate stands. The wasted draws still
        // hit the disk (and the blocks_drawn metric), so they count in
        // blocks_wasted.
        result.blocks_wasted += report.blocks_drawn;
        break;
      }
      // Soft deadline: the finished stage counts, then the loop stops.
    }
    // Lost blocks cost I/O but contribute nothing to the estimate: they
    // land in blocks_wasted, keeping the reconciliation identity
    // blocks_sampled + blocks_wasted == Σ stage blocks_drawn.
    result.estimate = report.estimate_after;
    result.variance = report.variance_after;
    ++result.stages_counted;
    result.blocks_sampled += report.blocks_drawn - report.blocks_lost;
    result.blocks_wasted += report.blocks_lost;
    result.faults.variance_widening = runner.fault_widening();
    counted_elapsed = plan.deadline.Elapsed(plan.clock);
    if (!report.within_quota) break;
    // In simulation the clock advances only by ledger charges, so a
    // stage that passed the within-quota check cannot have pushed the
    // ledger past the quota (the paper's hard-constraint promise).
    TCQ_CHECK_INVARIANT(plan.wall || counted_elapsed <= quota_s,
                        "ledger exceeded the time quota in a counted stage");
    const CountEstimate combined{.value = report.estimate_after,
                                 .variance = report.variance_after};
    if (ShouldStopForPrecision(options.precision, combined,
                               previous_estimate)) {
      result.stop_reason = StopReason::kPrecisionMet;
      break;
    }
    previous_estimate = combined.value;
  }

  result.ci = NormalConfidenceInterval(
      {.value = result.estimate, .variance = result.variance},
      options.confidence);
  result.elapsed_seconds = plan.deadline.Elapsed(plan.clock);
  if (plan.faults_on) {
    result.degraded = result.faults.blocks_lost > 0;
    for (const auto& [name, counts] : runner.relation_faults()) {
      result.faults.per_relation.push_back(counts);
    }
    if (obs.metering()) {
      obs.metrics->gauge(metric_names::kFaultDelayS)
          ->Set(result.faults.fault_delay_s);
      obs.metrics->gauge(metric_names::kFaultVarianceWidening)
          ->Set(result.faults.variance_widening);
    }
  }
  // The true ratio, deliberately unclamped: under a soft deadline the
  // counted final stage may overrun the quota, and utilization > 1 is
  // exactly the overspend signal callers need to see. Hard-deadline runs
  // never exceed 1 (see the invariant above); display paths clamp.
  result.utilization = counted_elapsed / quota_s;
  plan.RecordWarmStart();
  if (obs.metering()) {
    if (plan.predictor != nullptr) {
      obs.metrics->gauge(metric_names::kPredictorEntries)
          ->Set(static_cast<double>(plan.predictor->stats().chooser_entries));
    }
    obs.metrics->gauge(metric_names::kEngineSpendS)
        ->Set(result.elapsed_seconds);
    obs.metrics->gauge(metric_names::kEngineUtilization)
        ->Set(result.utilization);
    obs.metrics->gauge(metric_names::kEngineOverspendS)
        ->Set(result.overspend_seconds);
    plan.ExportLedgers();
  }
  if (obs.observer != nullptr) {
    obs.observer->OnQueryEnd(result.estimate, result.variance,
                             result.stop_reason == StopReason::kStageOverran);
  }
  return result;
}

Result<ExplainResult> ExplainTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  QueryPlan plan(options, /*dry=*/true);
  TCQ_RETURN_NOT_OK(plan.Build(expr, aggregate, catalog));
  ExplainResult out;
  out.quota_s = options.quota_s;
  out.strategy = std::string(plan.strategy->name());
  out.num_sampled_terms = static_cast<int>(plan.evaluators.size());
  out.num_constant_terms = static_cast<int>(plan.constants.size());
  for (const auto& [name, blocks] : plan.relations) {
    out.total_blocks += blocks.total;
  }
  out.predictor_active = plan.predictor != nullptr;
  if (plan.evaluators.empty()) return out;

  // The run's planner against hypothetical time and block state: each
  // planned stage spends its predicted cost and draws its blocks from the
  // relations' remaining ones. Selectivity revisions and coefficient
  // re-fits need samples, so later stages keep the stage-0 priors (the
  // EXPLAIN vs. EXPLAIN ANALYZE gap).
  StagePlanner planner(&plan);
  double time_left = options.quota_s;
  for (int stage = 0; stage < options.max_stages; ++stage) {
    if (time_left <= 0.0 || plan.Exhausted()) break;
    TCQ_ASSIGN_OR_RETURN(StagePlan stage_plan,
                         planner.Plan(stage, time_left));
    if (stage == 0 && out.predictor_active) {
      out.predictor_nodes = planner.Selectivities();
    }
    if (stage_plan.fraction <= 0.0) {
      if (planner.FallBackToPartial()) {
        --stage;
        continue;
      }
      break;
    }
    StagePrediction prediction;
    prediction.index = stage;
    prediction.time_left_before = time_left;
    prediction.planned_fraction = stage_plan.fraction;
    prediction.d_beta_used = stage_plan.d_beta_used;
    prediction.predicted_seconds = stage_plan.predicted_seconds;
    for (auto& [name, blocks] : plan.relations) {
      int64_t d_new = std::min<int64_t>(
          BlocksForFraction(stage_plan.fraction, blocks.total),
          blocks.remaining());
      blocks.dry_pooled -= std::min(d_new, blocks.dry_pooled);  // replays
      blocks.dry_remaining -= d_new;
      prediction.blocks_planned += d_new;
    }
    out.stages.push_back(prediction);
    time_left -= stage_plan.predicted_seconds;
    if (prediction.blocks_planned <= 0) break;  // cannot progress further
  }
  out.exhausts_samples = plan.Exhausted();
  return out;
}

Status ErrorConstrainedOptions::Validate() const {
  // A NaN target compares false against everything; the engine options'
  // own validation below rejects it (and a bad confidence or stage cap).
  if (rel_halfwidth <= 0.0 && abs_halfwidth <= 0.0) {
    return Status::InvalidArgument(
        "error-constrained evaluation needs a precision target");
  }
  if (!(max_growth >= 1.2)) {
    return Status::InvalidArgument("max_growth must be >= 1.2; got " +
                                   std::to_string(max_growth));
  }
  return ErrorConstrainedRunOptions(*this).Validate();
}

Result<ErrorConstrainedResult> RunErrorConstrainedCount(
    const ExprPtr& expr, const Catalog& catalog,
    const ErrorConstrainedOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  const ExecutorOptions run = ErrorConstrainedRunOptions(options);
  QueryPlan plan(run, /*dry=*/false);
  TCQ_RETURN_NOT_OK(plan.Build(expr, AggregateSpec::Count(), catalog));
  StageRunner runner(&plan, /*planner=*/nullptr);
  ErrorConstrainedResult result;
  result.ci.level = options.confidence;
  if (plan.evaluators.empty()) {
    CountEstimate combined = runner.Combine();
    result.estimate = combined.value;
    result.met_target = true;
    result.ci = NormalConfidenceInterval(combined, options.confidence);
    return result;
  }

  // Stages are sized as a fraction of the largest relation, starting at
  // `initial_blocks` of it, from the variance ratio.
  double largest = 0.0;
  for (const auto& [name, blocks] : plan.relations) {
    largest = std::max(largest, static_cast<double>(blocks.total));
  }
  const double z = NormalQuantile(0.5 + options.confidence / 2.0);
  int64_t next_blocks = std::max<int64_t>(1, options.initial_blocks);
  for (int stage = 0; stage < options.max_stages && !plan.Exhausted();
       ++stage) {
    StagePlan stage_plan;
    stage_plan.fraction =
        std::min(1.0, static_cast<double>(next_blocks) / largest);
    TCQ_ASSIGN_OR_RETURN(StageReport report,
                         runner.Run(stage, run.quota_s, stage_plan));
    result.blocks_sampled += report.blocks_drawn;
    ++result.stages;
    const CountEstimate combined{.value = report.estimate_after,
                                 .variance = report.variance_after};
    result.estimate = combined.value;
    result.variance = combined.variance;
    result.ci = NormalConfidenceInterval(combined, options.confidence);
    if (ShouldStopForPrecision(run.precision, combined, std::nan(""))) {
      result.met_target = true;
      break;
    }
    // Size the next stage: variance shrinks roughly like 1/m, so the
    // sample must grow by Var_now / Var_target; cap the growth.
    double target = std::numeric_limits<double>::infinity();
    if (options.abs_halfwidth > 0.0) target = options.abs_halfwidth;
    if (options.rel_halfwidth > 0.0 && combined.value > 0.0) {
      target = std::min(target, options.rel_halfwidth * combined.value);
    }
    const double half_width = z * std::sqrt(combined.variance);
    double ratio = std::isfinite(target) && target > 0.0
                       ? (half_width * half_width) / (target * target)
                       : options.max_growth;
    ratio = std::clamp(ratio, 1.2, options.max_growth);
    int64_t have = 0;
    for (const auto& [name, blocks] : plan.relations) {
      have = std::max(have, blocks.total - blocks.remaining());
    }
    next_blocks = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(
               static_cast<double>(have) * (ratio - 1.0))));
  }
  result.elapsed_seconds = plan.clock.Now();
  return result;
}

}  // namespace tcq
