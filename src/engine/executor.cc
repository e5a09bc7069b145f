#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "cache/warm_start.h"
#include "obs/metric_names.h"
#include "cost/predictor.h"
#include "fault/fault.h"
#include "util/check.h"
#include "sampling/block_sampler.h"
#include "estimator/combined.h"
#include "estimator/sum_estimator.h"
#include "estimator/goodman.h"
#include "ra/inclusion_exclusion.h"
#include "sim/clock.h"
#include "sim/ledger.h"
#include "util/stats.h"

namespace tcq {

std::unique_ptr<TimeControlStrategy> MakeStrategy(
    const StrategyConfig& config) {
  switch (config.kind) {
    case StrategyConfig::Kind::kOneAtATime:
      return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
    case StrategyConfig::Kind::kSingleInterval:
      return std::make_unique<SingleIntervalStrategy>(
          config.single_interval);
    case StrategyConfig::Kind::kHeuristic:
      return std::make_unique<HeuristicStrategy>(config.heuristic);
  }
  return std::make_unique<OneAtATimeStrategy>(config.one_at_a_time);
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

}  // namespace

Status ExecutorOptions::Validate() const {
  // Explicit finiteness checks everywhere: NaN compares false against
  // everything, so a plain `x < 0` guard lets NaN through (and +inf
  // passes any one-sided bound) — each would corrupt the deadline
  // arithmetic much later with no typed error.
  if (!std::isfinite(quota_s) || !(quota_s > 0.0)) {
    return Status::InvalidArgument(
        "time quota must be finite and positive; got " +
        std::to_string(quota_s));
  }
  if (!std::isfinite(epsilon_s) || !(epsilon_s > 0.0 && epsilon_s < 1.0)) {
    return Status::InvalidArgument(
        "epsilon_s must lie in (0, 1); got " + std::to_string(epsilon_s));
  }
  if (!std::isfinite(confidence) ||
      !(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument(
        "confidence must lie in (0, 1); got " + std::to_string(confidence));
  }
  if (threads < 1) {
    return Status::InvalidArgument(
        "threads must be >= 1 (it counts the calling thread); got " +
        std::to_string(threads));
  }
  if (max_stages < 1) {
    return Status::InvalidArgument("max_stages must be >= 1; got " +
                                   std::to_string(max_stages));
  }
  if (!std::isfinite(serve_deadline_s) || serve_deadline_s < 0.0) {
    return Status::InvalidArgument(
        "serve_deadline_s must be finite and >= 0 (0 means quota_s); got " +
        std::to_string(serve_deadline_s));
  }
  // Precision-stop targets: NaN compares false against the > 0 "enabled"
  // probes, so a NaN target would silently disable the stop the caller
  // asked for instead of erroring.
  if (!std::isfinite(precision.rel_halfwidth) ||
      precision.rel_halfwidth < 0.0 ||
      !std::isfinite(precision.abs_halfwidth) ||
      precision.abs_halfwidth < 0.0 ||
      !std::isfinite(precision.min_improvement) ||
      precision.min_improvement < 0.0) {
    return Status::InvalidArgument(
        "precision-stop targets must be finite and >= 0 (0 disables)");
  }
  if (precision.enabled() &&
      (!std::isfinite(precision.confidence) ||
       !(precision.confidence > 0.0 && precision.confidence < 1.0))) {
    return Status::InvalidArgument(
        "precision.confidence must lie in (0, 1); got " +
        std::to_string(precision.confidence));
  }
  TCQ_RETURN_NOT_OK(faults.Validate());
  TCQ_RETURN_NOT_OK(sel_predictor.Validate());
  return Status::OK();
}

Result<QueryResult> RunTimeConstrainedCount(const ExprPtr& expr,
                                            const Catalog& catalog,
                                            const ExecutorOptions& options) {
  return RunTimeConstrainedAggregate(expr, AggregateSpec::Count(), catalog,
                                     options);
}

Result<QueryResult> RunTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  const double quota_s = options.quota_s;
  const ObsHandle& obs = options.obs;
  const bool wall = options.use_wall_clock;
  VirtualClock virtual_clock;
  WallClock wall_clock;
  const Clock& clock =
      wall ? static_cast<const Clock&>(wall_clock) : virtual_clock;
  // The quota runs from query entry: in wall-clock mode term expansion,
  // the observer's OnQueryBegin and evaluator and sampler construction
  // all spend it. Simulated time advances only inside the stage loop, so
  // simulated runs are unaffected.
  const Deadline deadline = Deadline::StartingNow(clock, quota_s);
  // Validate the expression and expand it into intersect-only terms.
  TCQ_ASSIGN_OR_RETURN(Schema schema, InferSchema(expr, catalog));
  int value_col = -1;
  if (aggregate.kind != AggregateSpec::Kind::kCount) {
    TCQ_ASSIGN_OR_RETURN(value_col, schema.IndexOf(aggregate.column));
  }
  TCQ_ASSIGN_OR_RETURN(std::vector<SignedTerm> terms, ExpandCount(expr));
  if (terms.empty()) {
    QueryResult r;
    r.ci.level = options.confidence;
    return r;
  }

  if (obs.tracer != nullptr && !wall) {
    // Simulated runs stamp trace events with virtual time: the exported
    // trace becomes a pure function of the seed (golden-schema test).
    obs.tracer->UseClock(&virtual_clock);
  }
  CostLedger ledger(wall ? nullptr : &virtual_clock);
  Rng rng(options.seed);
  Rng noise_rng = rng.Fork();
  if (!wall) {
    ledger.AttachNoise(&noise_rng, options.physical.stage_speed_cv,
                       options.physical.block_read_jitter);
  }

  // Fault injection (DESIGN.md §10): a stateless oracle whose decisions
  // are pure in (fault_seed, relation, block, attempt) — the same fault
  // sequence replays at any thread count. All fault charges happen in
  // the post-barrier serial sections below, in relation-name order, so
  // the noise stream and clock stay deterministic. With `faults_on`
  // false every fault branch is dead and execution is bit-identical to
  // the historical path.
  const bool faults_on = options.faults.enabled;
  const FaultInjector injector(options.faults);
  const double fault_overhead_s =
      options.faults.ExpectedOverheadSeconds(options.physical.block_read_s);

  // Execution pool: `threads` counts the calling thread, so threads = N
  // creates N - 1 workers. An external pool (tcq::Session) may be wider
  // than this query asks for (high-water reuse): `threads` > 1 then caps
  // the participating threads per batch, while `threads` = 1 keeps the
  // historical meaning "use the pool's full width".
  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.threads - 1);
    pool = owned_pool.get();
  }
  int max_width = 0;
  if (options.pool != nullptr && options.threads > 1) {
    max_width = std::min(options.threads, pool->width());
  }
  const int width =
      pool == nullptr ? 1 : (max_width > 0 ? max_width : pool->width());
  if (obs.metering()) {
    obs.metrics->gauge(metric_names::kEngineQuotaS)->Set(quota_s);
    obs.metrics->gauge("pool.width")->Set(static_cast<double>(width));
    if (pool != nullptr) {
      obs.metrics->gauge("pool.workers")
          ->Set(static_cast<double>(pool->workers()));
    }
  }

  // The cost model's worker count: virtual time always charges the serial
  // machine's work (keeping simulated runs bit-identical at any thread
  // count), so only wall-clock planning sees the real width.
  CostModel physical = options.physical;
  physical.workers = wall ? width : 1;
  AdaptiveCostModel coefs(physical, options.cost);

  // Warm start: with a session cache attached, begin from the fitted
  // cost coefficients of the last run of a canonically equal query (the
  // coefficients' node ids only transfer between structurally identical
  // plans, hence the whole-query key). The stats snapshot taken here
  // turns the cache's cumulative counters into this run's deltas for the
  // metric export below.
  WarmStartCache* const cache = options.warm_cache;
  WarmStartStats cache_stats_before;
  if (cache != nullptr) {
    cache_stats_before = cache->Stats();
    std::optional<AdaptiveCostModel::Snapshot> snapshot =
        cache->LookupCostSnapshot(CanonicalSignature(*expr));
    if (snapshot.has_value()) coefs.RestoreSnapshot(*snapshot);
  }

  std::unique_ptr<TimeControlStrategy> strategy =
      MakeStrategy(options.strategy);

  const CombineVariance combine_rule =
      options.conservative_term_variance ? CombineVariance::kConservative
                                         : CombineVariance::kIndependent;

  // Terms that are bare scans have exactly known aggregates (the catalog
  // knows |r|); they are priced at zero and never sampled. COUNT(r1 ∪ r2)
  // thus spends its whole quota on the r1 ∩ r2 term.
  std::vector<SignedTerm> sampled_terms;
  std::vector<CountEstimate> constant_estimates;
  std::vector<int> constant_signs;
  for (const SignedTerm& term : terms) {
    if (term.expr->kind != ExprKind::kScan) {
      sampled_terms.push_back(term);
      continue;
    }
    TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(term.expr->relation));
    CountEstimate constant;
    constant.total_points = static_cast<double>(rel->NumTuples());
    if (aggregate.kind == AggregateSpec::Kind::kCount) {
      constant.value = static_cast<double>(rel->NumTuples());
      constant.hits = rel->NumTuples();
    }
    constant_estimates.push_back(constant);
    constant_signs.push_back(term.sign);
  }
  // For SUM/AVG the scan term's exact value needs one pass over the
  // relation; keep those sampled for simplicity (rare in practice).
  if (aggregate.kind != AggregateSpec::Kind::kCount) {
    sampled_terms = terms;
    constant_estimates.clear();
    constant_signs.clear();
  }
  terms = std::move(sampled_terms);
  if (obs.observer != nullptr) {
    obs.observer->OnQueryBegin(quota_s, static_cast<int>(terms.size()));
  }
  if (terms.empty()) {
    // Fully constant query (e.g. COUNT(r1)).
    CountEstimate combined = CombineSignedEstimates(
        constant_signs, constant_estimates, obs, combine_rule);
    QueryResult r;
    r.estimate = combined.value;
    r.variance = combined.variance;
    r.ci = NormalConfidenceInterval(combined, options.confidence);
    r.stages_counted = 0;
    r.utilization = 0.0;
    if (obs.observer != nullptr) {
      obs.observer->OnQueryEnd(r.estimate, r.variance, false);
    }
    return r;
  }

  // Build one staged evaluator per term; collect the relations involved.
  // Each term charges a private clockless ledger so the evaluators can run
  // on separate workers without racing on the shared clock or noise
  // stream; the engine folds every term's charges into the virtual clock
  // in term order after each stage's barrier.
  std::vector<std::unique_ptr<StagedTermEvaluator>> evaluators;
  std::vector<std::unique_ptr<CostLedger>> term_ledgers;
  std::vector<int> signs;
  std::map<std::string, std::unique_ptr<BlockSampler>> samplers;
  for (const SignedTerm& term : terms) {
    term_ledgers.push_back(std::make_unique<CostLedger>());
    TCQ_ASSIGN_OR_RETURN(
        auto ev, StagedTermEvaluator::Create(term.expr, catalog,
                                             options.fulfillment,
                                             term_ledgers.back().get(),
                                             physical));
    if (value_col >= 0) {
      TCQ_RETURN_NOT_OK(ev->TrackValueColumn(value_col));
    }
    if (wall) ev->MeasureStepsWith(&clock);
    ev->UseThreadPool(pool, max_width);
    ev->SetObs(obs, static_cast<int>(evaluators.size()));
    std::vector<std::string> scans;
    CollectScans(term.expr, &scans);
    for (const std::string& name : scans) {
      if (samplers.count(name) == 0) {
        TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(name));
        // With a warm cache the sampler replays the relation's pooled
        // prefix before drawing fresh blocks (see BlockSampler); an
        // empty pool degenerates to the historical cold sampler.
        RelationSamplePool* rel_pool =
            cache != nullptr ? cache->PoolFor(name, rel->NumBlocks())
                             : nullptr;
        samplers[name] =
            std::make_unique<BlockSampler>(std::move(rel), rel_pool);
        samplers[name]->SetMetrics(obs.metrics);
      }
    }
    evaluators.push_back(std::move(ev));
    signs.push_back(term.sign);
  }

  // Warm-start selectivity priors: one lookup per operator node before
  // the stage loop, keyed by the node subtree's canonical signature. The
  // resulting per-term maps seed stage-0 of ReviseSelectivities; once a
  // node has its own samples the priors are ignored.
  std::vector<std::map<int, double>> term_priors(evaluators.size());
  if (cache != nullptr) {
    for (size_t t = 0; t < evaluators.size(); ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        std::optional<double> prior =
            cache->LookupPrior(CanonicalSignature(*node->expr));
        if (prior.has_value()) term_priors[t][node->id] = *prior;
      }
    }
  }

  // Hybrid selectivity predictor (DESIGN.md §12): session-lifetime when a
  // warm cache is attached (its history persists alongside the priors),
  // query-local otherwise. freeze_initial is the prestored-statistics
  // ablation — predictions would fight the frozen values, so it wins.
  // With the predictor off, nothing below this block ever runs and the
  // stage loop is bit-identical to the historical path.
  SelPredictor* predictor = nullptr;
  std::unique_ptr<SelPredictor> query_predictor;
  if (options.sel_predictor.enabled && !options.selectivity.freeze_initial) {
    if (cache != nullptr) {
      predictor = cache->PredictorFor(options.sel_predictor);
    } else {
      query_predictor =
          std::make_unique<SelPredictor>(options.sel_predictor);
      predictor = query_predictor.get();
    }
    predictor->BeginQuery(CanonicalSignature(*expr));
  }
  // Per-node signature and structural keys, computed once per run.
  std::vector<std::map<int, CacheKey>> node_keys(evaluators.size());
  std::vector<std::map<int, std::string>> node_structs(evaluators.size());
  if (predictor != nullptr) {
    for (size_t t = 0; t < evaluators.size(); ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        node_keys[t].emplace(node->id, CanonicalSignature(*node->expr));
        node_structs[t].emplace(node->id,
                                StructuralSignature(*node->expr));
      }
    }
  }

  TraceSpan query_span(obs.tracer, "query", "engine");
  query_span.Arg("terms", static_cast<double>(evaluators.size()));
  query_span.Arg("quota_s", quota_s);

  QueryResult result;
  result.ci.level = options.confidence;
  double counted_elapsed = 0.0;
  double previous_estimate = std::nan("");
  // Fault bookkeeping across stages: losses inside *counted* stages feed
  // the variance widening; the per-relation tallies feed the serving
  // layer's circuit breaker.
  int64_t lost_counted = 0;
  std::map<std::string, RelationFaultCounts> rel_faults;
  // Current fulfillment mode; may downgrade to partial once (§5.B hybrid).
  Fulfillment current_mode = options.fulfillment;

  for (int stage = 0; stage < options.max_stages; ++stage) {
    double time_left = deadline.Remaining(clock);
    if (time_left <= 0.0) break;

    // Largest drawable fraction and the one-block fraction step.
    double f_max = 0.0;
    double min_step = 1.0;
    for (const auto& [name, sampler] : samplers) {
      double total = static_cast<double>(sampler->total_blocks());
      if (total <= 0.0) continue;
      f_max = std::max(
          f_max, static_cast<double>(sampler->remaining_blocks()) / total);
      min_step = std::min(min_step, 1.0 / total);
    }
    if (f_max <= 0.0) break;  // every relation fully sampled

    TraceSpan stage_span(obs.tracer, "stage", "engine");
    stage_span.Arg("index", static_cast<double>(stage));
    stage_span.Arg("time_left_s", time_left);

    // Figure 3.3: revise per-operator selectivities from all samples.
    std::vector<std::map<int, double>> sel_prev;
    sel_prev.reserve(evaluators.size());
    for (size_t t = 0; t < evaluators.size(); ++t) {
      sel_prev.push_back(ReviseSelectivities(
          *evaluators[t], options.selectivity, obs,
          cache != nullptr ? &term_priors[t] : nullptr));
    }

    // Hybrid predictor: let the chooser override each node's planning
    // selectivity and collect its per-node inflation widths for
    // ComputeSelPlus. Serial section, node order — deterministic at a
    // fixed seed and cache state at any thread count.
    std::vector<std::map<int, double>> sel_widths(evaluators.size());
    std::vector<std::map<int, SelPrediction>> stage_predictions(
        evaluators.size());
    if (predictor != nullptr) {
      for (size_t t = 0; t < evaluators.size(); ++t) {
        for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan) continue;
          std::optional<double> observed;
          if (evaluators[t]->num_stages() > 0 && node->cum_points > 0.0) {
            auto sit = sel_prev[t].find(node->id);
            if (sit != sel_prev[t].end()) observed = sit->second;
          }
          std::optional<double> prior;
          auto pit = term_priors[t].find(node->id);
          if (pit != term_priors[t].end()) {
            prior = SanitizedStagePrior(pit->second, node->total_points,
                                        options.selectivity.zero_hit_beta);
          }
          double fallback =
              InitialSelectivity(*node, options.selectivity, nullptr);
          SelPrediction p = predictor->Predict(
              node_keys[t].at(node->id), node_structs[t].at(node->id),
              observed, prior, fallback);
          sel_prev[t][node->id] = p.selectivity;
          sel_widths[t][node->id] = p.width_scale;
          stage_predictions[t].emplace(node->id, p);
          if (obs.metering()) {
            obs.metrics->counter(metric_names::kPredictorPredictions)
                ->Increment();
            obs.metrics
                ->counter(p.history_hit
                              ? metric_names::kPredictorHistoryHits
                              : metric_names::kPredictorHistoryMisses)
                ->Increment();
            obs.metrics->histogram(metric_names::kPredictorWidthScale)
                ->Record(p.width_scale);
          }
        }
      }
    }

    // Full-query cost formula: per-stage overhead + block fetches (priced
    // once per relation) + every term's operator costs.
    auto fetch_cost = [&](double f) {
      double seconds = 0.0;
      for (const auto& [name, sampler] : samplers) {
        int64_t d_new = std::min<int64_t>(
            BlocksForFraction(f, sampler->total_blocks()),
            sampler->remaining_blocks());
        double coef = coefs.Coef(kGlobalCostNode, CostStep::kFetch);
        // Expected fault overhead (retry re-reads, backoff, straggler
        // inflation) is priced into the plan: the time-control loop
        // replans around retries instead of discovering them mid-stage
        // and blowing the hard deadline.
        if (faults_on) {
          seconds += static_cast<double>(d_new) * fault_overhead_s;
        }
        if (!wall && cache != nullptr) {
          // The next pooled_remaining() draws replay cached blocks at the
          // discounted rate; pricing them as full reads would make the
          // planner under-fill warm stages.
          int64_t replayed =
              std::min<int64_t>(d_new, sampler->pooled_remaining());
          int64_t fresh = d_new - replayed;
          seconds += (static_cast<double>(replayed) *
                          options.physical.cached_read_factor +
                      static_cast<double>(fresh)) *
                     coef;
        } else {
          seconds += static_cast<double>(d_new) * coef;
        }
      }
      return seconds;
    };
    auto qcost = [&](double f, double d_beta) -> Result<double> {
      double seconds = coefs.Coef(kGlobalCostNode, CostStep::kSetup) +
                       fetch_cost(f);
      for (size_t t = 0; t < evaluators.size(); ++t) {
        std::map<int, double> sel_plus = ComputeSelPlus(
            *evaluators[t], sel_prev[t], f, d_beta, current_mode,
            predictor != nullptr ? &sel_widths[t] : nullptr);
        TCQ_ASSIGN_OR_RETURN(
            TermStagePrediction p,
            PredictTermStageCost(*evaluators[t], f, sel_plus, coefs,
                                 current_mode));
        seconds += p.seconds;
      }
      return seconds;
    };
    // First-order std-dev of the stage cost: per-operator selectivity
    // sigmas propagated through the cost formula, combined with the
    // conservative perfect-correlation bound (§3.3.1's covariances are
    // upper-bounded rather than estimated).
    auto qcost_sigma = [&](double f) -> Result<double> {
      double sigma = 0.0;
      for (size_t t = 0; t < evaluators.size(); ++t) {
        std::map<int, NodePoints> points =
            PredictNodePoints(*evaluators[t], f, current_mode);
        TCQ_ASSIGN_OR_RETURN(
            TermStagePrediction base,
            PredictTermStageCost(*evaluators[t], f, sel_prev[t], coefs,
                                 current_mode));
        for (const auto& [id, sel] : sel_prev[t]) {
          auto it = points.find(id);
          if (it == points.end()) continue;
          double sd = std::sqrt(SrsProportionVariance(
              sel, it->second.remaining_points, it->second.new_points));
          if (sd <= 0.0) continue;
          std::map<int, double> bumped = sel_prev[t];
          bumped[id] = std::min(1.0, sel + sd);
          TCQ_ASSIGN_OR_RETURN(
              TermStagePrediction hi,
              PredictTermStageCost(*evaluators[t], f, bumped, coefs,
                                   current_mode));
          sigma += std::max(0.0, hi.seconds - base.seconds);
        }
      }
      return sigma;
    };

    StagePlanContext context;
    context.next_stage = stage;
    context.time_left = time_left;
    context.quota = quota_s;
    context.f_max = f_max;
    context.f_min_step = min_step;
    context.epsilon = options.epsilon_s;
    context.predictor_active = predictor != nullptr;
    context.obs = obs;
    context.qcost = qcost;
    context.qcost_sigma = qcost_sigma;

    StagePlan plan;
    {
      TraceSpan plan_span(obs.tracer, "plan_stage", "engine");
      TCQ_ASSIGN_OR_RETURN(plan, strategy->PlanStage(context));
      plan_span.Arg("fraction", plan.fraction);
      plan_span.Arg("predicted_s", plan.predicted_seconds);
    }
    if (plan.fraction <= 0.0) {
      if (options.final_partial_stages &&
          current_mode == Fulfillment::kFull) {
        // §5.B hybrid: a full stage no longer fits, but a cheap partial
        // (new×new only) stage might still use the residual time.
        current_mode = Fulfillment::kPartial;
        --stage;  // re-plan this stage under the partial cost formula
        continue;
      }
      result.stopped_no_affordable_stage = true;
      break;
    }
    // Strategies must hand back a usable sampling fraction: (0, 1] and
    // no larger than what is left to draw (paper §3.1 selectivity
    // revision assumes stages sample fresh blocks).
    TCQ_CHECK_INVARIANT(plan.fraction > 0.0 && plan.fraction <= 1.0,
                        "stage plan fraction outside (0, 1]");

    // ---- Execute the stage. ----
    double stage_start = clock.Now();
    ledger.BeginStage();
    if (!wall) {
      // Simulated per-stage bookkeeping overhead; under a wall clock the
      // planning work above took real time already.
      ledger.Charge(CostCategory::kStageOverhead,
                    options.physical.stage_overhead_s);
      coefs.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                    options.physical.stage_overhead_s);
    } else {
      coefs.Observe(kGlobalCostNode, CostStep::kSetup, 1.0,
                    clock.Now() - stage_start);
    }

    // Realized work/span of this stage's fan-out sections (η re-fit).
    ParallelStats stage_parallel;

    // Parallel block draws: one task per relation, each drawing from its
    // own deterministic substream derived from (seed, relation, stage).
    // Ledger charges — which consume the per-block jitter noise — and
    // coefficient observations happen post-barrier in relation-name
    // order, so neither depends on the worker count.
    std::map<std::string, std::vector<const Block*>> stage_blocks;
    // Per-relation fetch observations, in relation-name order; observed
    // after term evaluation, which adds the scans' real seconds in
    // wall-clock mode.
    struct FetchObservation {
      std::string relation;
      double blocks = 0.0;
      double seconds = 0.0;
    };
    std::vector<FetchObservation> fetches;
    int64_t blocks_drawn = 0;
    int64_t blocks_replayed = 0;
    int64_t stage_transients = 0;
    int64_t stage_retries = 0;
    int64_t stage_lost = 0;
    int64_t stage_stragglers = 0;
    double stage_fault_delay_s = 0.0;
    {
      TraceSpan draw_span(obs.tracer, "draw_blocks", "engine");
      struct DrawSlot {
        std::string name;
        BlockSampler* sampler = nullptr;
        int64_t count = 0;
        std::vector<const Block*> blocks;
        std::vector<uint32_t> indices;  // fault path: drawn block ids
        Status status;
        double seconds = 0.0;
      };
      std::vector<DrawSlot> draws;
      draws.reserve(samplers.size());
      for (auto& [name, sampler] : samplers) {
        DrawSlot slot;
        slot.name = name;
        slot.sampler = sampler.get();
        slot.count = std::min<int64_t>(
            BlocksForFraction(plan.fraction, sampler->total_blocks()),
            sampler->remaining_blocks());
        draws.push_back(std::move(slot));
      }
      const uint64_t seed = options.seed;
      const uint64_t stage_idx = static_cast<uint64_t>(stage);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(draws.size());
      for (DrawSlot& slot : draws) {
        DrawSlot* sp = &slot;
        if (faults_on) {
          // Fault path: the draw is identical, but blocks come back with
          // their indices through the checked storage read API (the
          // injector keys on the physical block identity).
          tasks.push_back([sp, seed, stage_idx] {
            auto start = std::chrono::steady_clock::now();
            Result<std::vector<DrawnBlock>> drawn =
                sp->sampler->DrawSubstreamChecked(sp->count, seed,
                                                  stage_idx);
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
            sp->seconds = SecondsSince(start);
          });
        } else {
          tasks.push_back([sp, seed, stage_idx] {
            auto start = std::chrono::steady_clock::now();
            sp->blocks =
                sp->sampler->DrawSubstream(sp->count, seed, stage_idx);
            sp->seconds = SecondsSince(start);
          });
        }
      }
      auto section_start = std::chrono::steady_clock::now();
      RunTasks(pool, &tasks, max_width);
      stage_parallel.span_seconds += SecondsSince(section_start);
      stage_parallel.tasks += static_cast<int>(tasks.size());
      // Post-barrier fault resolution happens in this serial loop
      // (relation-name order): probes, retry charging, and the noise
      // stream are independent of the worker count.
      TraceSpan fault_span(faults_on ? obs.tracer : nullptr,
                           "inject_faults", "fault");
      double wall_fault_sleep_s = 0.0;
      for (DrawSlot& slot : draws) {
        TCQ_RETURN_NOT_OK(slot.status);
        stage_parallel.work_seconds += slot.seconds;
        blocks_drawn += static_cast<int64_t>(slot.blocks.size());
        int64_t replayed = slot.sampler->last_draw_replayed();
        blocks_replayed += replayed;
        if (!wall) {
          // Replayed blocks come from the session's sample cache and
          // charge the discounted rate; fresh draws pay a full random
          // read. The charge count — and with it the per-block jitter
          // stream — is the same replayed + fresh split or not, and with
          // no (or an empty) warm cache `replayed` is zero, so the first
          // ChargeN is a no-op and the charging is bit-identical to the
          // historical single call.
          int64_t fresh =
              static_cast<int64_t>(slot.blocks.size()) - replayed;
          ledger.ChargeN(CostCategory::kBlockRead, replayed,
                         options.physical.block_read_s *
                             options.physical.cached_read_factor);
          ledger.ChargeN(CostCategory::kBlockRead, fresh,
                         options.physical.block_read_s);
        }
        // The fetch coefficient keeps meaning "seconds per *fresh* read":
        // in simulation the observation feeds the nominal full-read cost
        // regardless of the replay split, and fetch_cost applies the
        // replay discount itself.
        const double drawn = static_cast<double>(slot.blocks.size());
        fetches.push_back(
            {slot.name, drawn,
             wall ? slot.seconds : drawn * options.physical.block_read_s});
        if (faults_on) {
          // Resolve each drawn block's read through the injector: retry
          // transient faults with exponential backoff, drop permanently
          // unreadable blocks from the frame, and charge every retry,
          // backoff, and straggler second to the ledger so the deadline
          // arithmetic sees the fault overhead.
          std::vector<const Block*> survivors;
          survivors.reserve(slot.blocks.size());
          RelationFaultCounts& rf = rel_faults[slot.name];
          rf.relation = slot.name;
          for (size_t i = 0; i < slot.blocks.size(); ++i) {
            const BlockReadOutcome outcome = ReadBlockWithFaults(
                injector, slot.name, static_cast<int64_t>(slot.indices[i]),
                options.physical.block_read_s);
            rf.read_attempts += outcome.read_attempts;
            const int64_t retries = outcome.read_attempts - 1;
            if (retries > 0) {
              stage_retries += retries;
              // A retry re-reads the block: charged like any other read
              // (consuming per-read jitter) but never a new draw —
              // blocks_drawn counts this block exactly once.
              if (!wall) {
                ledger.ChargeN(CostCategory::kBlockRead, retries,
                               options.physical.block_read_s);
              }
            }
            stage_transients += outcome.transient_faults;
            rf.transient_faults += outcome.transient_faults;
            const double delay_s =
                outcome.backoff_s + outcome.straggler_extra_s;
            if (delay_s > 0.0) {
              stage_fault_delay_s += delay_s;
              if (!wall) {
                ledger.Charge(CostCategory::kFaultDelay, delay_s);
              } else {
                wall_fault_sleep_s += delay_s;
              }
            }
            if (outcome.lost) {
              ++stage_lost;
              ++rf.blocks_lost;
              if (obs.tracing()) {
                obs.tracer->Instant("block_lost", "fault", "block",
                                    static_cast<double>(slot.indices[i]));
              }
              continue;
            }
            if (outcome.straggler) {
              ++stage_stragglers;
              ++rf.stragglers;
            }
            survivors.push_back(slot.blocks[i]);
          }
          slot.blocks = std::move(survivors);
        }
        stage_blocks[slot.name] = std::move(slot.blocks);
      }
      if (wall && wall_fault_sleep_s > 0.0) {
        // Wall-clock runs pay fault latency in real time: the deadline,
        // the strategy's outcome feedback, and the serving layer all see
        // the backoff/straggler seconds.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wall_fault_sleep_s));
      }
      if (faults_on) {
        fault_span.Arg("transient", static_cast<double>(stage_transients));
        fault_span.Arg("lost", static_cast<double>(stage_lost));
      }
      draw_span.Arg("blocks", static_cast<double>(blocks_drawn));
      if (cache != nullptr) {
        draw_span.Arg("replayed", static_cast<double>(blocks_replayed));
      }
    }

    // Parallel term evaluation: every inclusion–exclusion term runs as
    // its own task (each term's merge pairs fan out further inside the
    // evaluator). Term ledgers are synced to this stage's machine-speed
    // factor up front; statuses, clock advancement, and coefficient
    // re-fits reduce in term order after the barrier.
    std::vector<double> term_prev_totals(evaluators.size(), 0.0);
    for (size_t t = 0; t < evaluators.size(); ++t) {
      term_ledgers[t]->SetStageFactor(ledger.current_stage_factor());
      term_prev_totals[t] = term_ledgers[t]->GrandTotal();
    }
    {
      TraceSpan eval_span(obs.tracer, "eval_terms", "engine");
      std::vector<Status> statuses(evaluators.size());
      std::vector<double> durs(evaluators.size(), 0.0);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(evaluators.size());
      for (size_t t = 0; t < evaluators.size(); ++t) {
        StagedTermEvaluator* ev = evaluators[t].get();
        Status* status = &statuses[t];
        double* dur = &durs[t];
        const auto* blocks = &stage_blocks;
        const Fulfillment mode = current_mode;
        tasks.push_back([ev, status, dur, blocks, mode] {
          auto start = std::chrono::steady_clock::now();
          *status = ev->ExecuteStageWithMode(*blocks, mode);
          *dur = SecondsSince(start);
        });
      }
      auto section_start = std::chrono::steady_clock::now();
      RunTasks(pool, &tasks, max_width);
      stage_parallel.span_seconds += SecondsSince(section_start);
      stage_parallel.tasks += static_cast<int>(tasks.size());
      for (size_t t = 0; t < evaluators.size(); ++t) {
        TCQ_RETURN_NOT_OK(statuses[t]);
        // The term task ran its evaluator's sort/merge fan-out inside it:
        // count those sections' summed task work in place of their
        // elapsed span, and their tasks, so work/span (and the η fit)
        // sees the evaluator's parallelism even when a lone term task
        // runs inline.
        const ParallelStats& inner = evaluators[t]->last_stage_parallelism();
        stage_parallel.work_seconds +=
            durs[t] - inner.span_seconds + inner.work_seconds;
        stage_parallel.tasks += inner.tasks;
      }
      // The term ledgers fold into the virtual clock inside this span so
      // its duration covers the stage's simulated evaluation cost.
      for (size_t t = 0; t < evaluators.size(); ++t) {
        double delta = term_ledgers[t]->GrandTotal() - term_prev_totals[t];
        if (!wall && delta > 0.0) virtual_clock.Advance(delta);
        ObserveTermStage(*evaluators[t], &coefs);
      }
    }
    // A wall-clock fetch is the draw plus the scans' run building over
    // the drawn blocks, summed over every term scanning the relation.
    if (wall) {
      std::map<std::string, double> scan_seconds;
      for (const auto& ev : evaluators) {
        for (const StagedNode* node : ev->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan && !node->stages.empty()) {
            scan_seconds[node->rel->name()] += node->stages.back().seconds;
          }
        }
      }
      for (FetchObservation& fetch : fetches) {
        fetch.seconds += scan_seconds[fetch.relation];
      }
    }
    for (const FetchObservation& fetch : fetches) {
      coefs.Observe(kGlobalCostNode, CostStep::kFetch, fetch.blocks,
                    fetch.seconds);
    }
    if (predictor != nullptr) {
      // Score this stage's predictions against the realized per-node
      // stage selectivities and fold them into the history tables.
      // Serial section, node order — deterministic. Aborted stages still
      // update: their samples are real even though they never count.
      for (size_t t = 0; t < evaluators.size(); ++t) {
        for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
          if (node->kind == ExprKind::kScan) continue;
          if (node->stages.empty()) continue;
          const NodeStageRecord& rec = node->stages.back();
          if (rec.new_points <= 0.0) continue;
          double realized =
              static_cast<double>(rec.new_tuples) / rec.new_points;
          predictor->Update(node_keys[t].at(node->id),
                            node_structs[t].at(node->id), realized);
          if (obs.metering()) {
            auto it = stage_predictions[t].find(node->id);
            if (it != stage_predictions[t].end()) {
              obs.metrics->histogram(metric_names::kPredictorAbsError)
                  ->Record(std::abs(it->second.selectivity - realized));
            }
          }
        }
      }
    }
    if (wall) {
      // Re-fit the parallel-efficiency coefficient η from the realized
      // speedup of this stage's fan-out sections.
      coefs.ObserveParallelism(stage_parallel.work_seconds,
                               stage_parallel.span_seconds);
    }
    double stage_end = clock.Now();
    double actual = stage_end - stage_start;
    bool within = deadline.Remaining(clock) >= 0.0;
    strategy->OnStageOutcome(plan.predicted_seconds, actual, !within);

    // ---- Recompute the combined estimate. ----
    std::vector<CountEstimate> term_estimates;
    term_estimates.reserve(evaluators.size());
    for (const auto& ev : evaluators) {
      term_estimates.push_back(EstimateTerm(*ev));
    }
    for (size_t c = 0; c < constant_estimates.size(); ++c) {
      term_estimates.push_back(constant_estimates[c]);
    }
    std::vector<int> all_signs = signs;
    all_signs.insert(all_signs.end(), constant_signs.begin(),
                     constant_signs.end());
    CountEstimate combined =
        CombineSignedEstimates(all_signs, term_estimates, obs, combine_rule);
    if (aggregate.kind != AggregateSpec::Kind::kCount) {
      std::vector<CountEstimate> sum_estimates;
      sum_estimates.reserve(evaluators.size());
      for (const auto& ev : evaluators) {
        sum_estimates.push_back(ClusterSumEstimate(
            ev->total_space_blocks(), ev->cum_space_blocks(),
            ev->cum_value_sum(), ev->cum_value_sq_sum(), ev->cum_points(),
            ev->total_points()));
      }
      CountEstimate sum_combined =
          CombineSignedEstimates(signs, sum_estimates, combine_rule);
      if (aggregate.kind == AggregateSpec::Kind::kSum) {
        combined = sum_combined;
      } else {
        // AVG = SUM / COUNT, delta-method variance (covariance ignored).
        CountEstimate avg;
        avg.points = combined.points;
        avg.total_points = combined.total_points;
        if (combined.value != 0.0) {
          double ratio = sum_combined.value / combined.value;
          avg.value = ratio;
          avg.variance = (sum_combined.variance +
                          ratio * ratio * combined.variance) /
                         (combined.value * combined.value);
        }
        combined = avg;
      }
    }

    // Degraded-answer accounting (DESIGN.md §10): fault decisions are
    // content-agnostic, so the surviving blocks remain a uniform
    // without-replacement sample and the cluster estimator stays
    // unbiased over the reduced frame. The smaller effective sample is
    // priced by widening the variance by (1 + lost/read) over the
    // counted stages (including this one).
    double fault_widen = 1.0;
    if (faults_on) {
      const int64_t read_blocks =
          result.blocks_sampled + (blocks_drawn - stage_lost);
      const int64_t lost_blocks = lost_counted + stage_lost;
      if (lost_blocks > 0) {
        fault_widen =
            1.0 + static_cast<double>(lost_blocks) /
                      static_cast<double>(std::max<int64_t>(1, read_blocks));
        combined.variance *= fault_widen;
      }
    }

    StageReport report;
    report.index = stage;
    report.time_left_before = time_left;
    report.planned_fraction = plan.fraction;
    report.d_beta_used = plan.d_beta_used;
    report.predicted_seconds = plan.predicted_seconds;
    report.actual_seconds = actual;
    report.blocks_drawn = blocks_drawn;
    report.within_quota = within;
    report.estimate_after = combined.value;
    report.variance_after = combined.variance;
    report.quota_s = quota_s;
    // In simulation the clock advances only inside the stage, so these
    // spends telescope: Σ ledger_spend_s over all reports equals the
    // query's elapsed_seconds (the acceptance identity).
    report.ledger_spend_s = stage_end - stage_start;
    report.cumulative_spend_s = deadline.Elapsed(clock);
    report.work_seconds = stage_parallel.work_seconds;
    report.span_seconds = stage_parallel.span_seconds;
    report.parallel_tasks = stage_parallel.tasks;
    report.transient_faults = stage_transients;
    report.retries = stage_retries;
    report.blocks_lost = stage_lost;
    report.stragglers = stage_stragglers;
    report.fault_delay_s = stage_fault_delay_s;
    report.predictor_used = plan.predictor_used;
    for (size_t t = 0; t < evaluators.size(); ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        auto it = sel_prev[t].find(node->id);
        if (it == sel_prev[t].end()) continue;
        OperatorSelectivity sel;
        sel.term = static_cast<int>(t);
        sel.node = node->id;
        sel.op = std::string(ExprKindName(node->kind));
        sel.selectivity = it->second;
        if (predictor != nullptr) {
          auto pit = stage_predictions[t].find(node->id);
          if (pit != stage_predictions[t].end()) {
            sel.component =
                std::string(SelComponentName(pit->second.component));
            sel.confidence = pit->second.confidence;
            sel.width_scale = pit->second.width_scale;
          }
        }
        report.selectivities.push_back(std::move(sel));
      }
    }
    result.stage_reports.push_back(report);
    ++result.stages_run;
    result.faults.transient_faults += stage_transients;
    result.faults.retries += stage_retries;
    result.faults.blocks_lost += stage_lost;
    result.faults.stragglers += stage_stragglers;
    result.faults.fault_delay_s += stage_fault_delay_s;
    if (obs.metering()) {
      obs.metrics->counter(metric_names::kEngineStagesRun)->Increment();
      obs.metrics->counter(metric_names::kEngineBlocksDrawn)
          ->Add(blocks_drawn);
      if (faults_on) {
        // Deterministic at a fixed fault seed: every increment happens
        // in this serial section, in relation-name order.
        obs.metrics->counter(metric_names::kFaultTransient)
            ->Add(stage_transients);
        obs.metrics->counter(metric_names::kFaultRetries)->Add(stage_retries);
        obs.metrics->counter(metric_names::kFaultBlocksLost)->Add(stage_lost);
        obs.metrics->counter(metric_names::kFaultStragglers)
            ->Add(stage_stragglers);
      }
      obs.metrics->gauge(metric_names::kEngineSpendS)
          ->Set(report.cumulative_spend_s);
      obs.metrics->gauge(metric_names::kEngineTimeLeftS)
          ->Set(deadline.Remaining(clock));
      for (const OperatorSelectivity& sel : report.selectivities) {
        char name[64];
        std::snprintf(name, sizeof(name), "timectrl.sel.t%d.n%d", sel.term,
                      sel.node);
        obs.metrics->gauge(name)->Set(sel.selectivity);
      }
    }
    if (obs.tracing()) {
      obs.tracer->Counter("ledger_spend_s", report.cumulative_spend_s);
      obs.tracer->Counter("estimate", combined.value);
      obs.tracer->Counter("blocks_drawn",
                          static_cast<double>(result.blocks_sampled +
                                              blocks_drawn));
    }
    if (obs.observer != nullptr) {
      obs.observer->OnStage(result.stage_reports.back());
    }

    if (!within) {
      result.overspent = true;
      result.overspend_seconds = deadline.Elapsed(clock) - quota_s;
      if (options.deadline_mode == DeadlineMode::kHard) {
        // The interrupted stage is aborted: its samples are wasted and the
        // previous stage's estimate stands. The wasted draws still hit
        // the disk (and the blocks_drawn metric) — account for them so
        // blocks_sampled + blocks_wasted reconciles with the per-stage
        // reports and the `engine.blocks_drawn` counter.
        result.blocks_wasted += blocks_drawn;
        break;
      }
      // Soft deadline: the finished stage counts, then we stop. Lost
      // blocks cost I/O but contribute nothing to the estimate — they
      // land in blocks_wasted, keeping the reconciliation identity
      // blocks_sampled + blocks_wasted == Σ stage blocks_drawn.
      result.estimate = combined.value;
      result.variance = combined.variance;
      ++result.stages_counted;
      result.blocks_sampled += blocks_drawn - stage_lost;
      result.blocks_wasted += stage_lost;
      lost_counted += stage_lost;
      result.faults.variance_widening = fault_widen;
      counted_elapsed = deadline.Elapsed(clock);
      break;
    }

    result.estimate = combined.value;
    result.variance = combined.variance;
    ++result.stages_counted;
    result.blocks_sampled += blocks_drawn - stage_lost;
    result.blocks_wasted += stage_lost;
    lost_counted += stage_lost;
    result.faults.variance_widening = fault_widen;
    counted_elapsed = deadline.Elapsed(clock);
    // In simulation the clock advances only by ledger charges, so a
    // stage that passed the within-quota check cannot have pushed the
    // ledger past the quota (the paper's hard-constraint promise).
    TCQ_CHECK_INVARIANT(wall || counted_elapsed <= quota_s,
                        "ledger exceeded the time quota in a counted stage");

    if (ShouldStopForPrecision(options.precision, combined,
                               previous_estimate)) {
      result.stopped_for_precision = true;
      break;
    }
    previous_estimate = combined.value;
  }

  CountEstimate final_estimate;
  final_estimate.value = result.estimate;
  final_estimate.variance = result.variance;
  result.ci = NormalConfidenceInterval(final_estimate, options.confidence);
  result.elapsed_seconds = deadline.Elapsed(clock);
  if (faults_on) {
    result.degraded = result.faults.blocks_lost > 0;
    result.faults.per_relation.reserve(rel_faults.size());
    for (auto& [name, counts] : rel_faults) {
      (void)name;
      result.faults.per_relation.push_back(std::move(counts));
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
  // never exceed 1 (counted stages cannot pass the quota — see the
  // invariant above); display paths clamp for presentation.
  result.utilization = quota_s > 0.0 ? counted_elapsed / quota_s : 0.0;

  if (cache != nullptr) {
    // Feed the cache for the next query: every operator node that sampled
    // points records its revised selectivity (exactly what the next stage
    // of *this* run would have planned with), and the fitted cost
    // coefficients are snapshotted under the whole-query signature.
    for (size_t t = 0; t < evaluators.size(); ++t) {
      if (evaluators[t]->num_stages() == 0) continue;
      std::map<int, double> revised =
          ReviseSelectivities(*evaluators[t], options.selectivity);
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        if (node->cum_points <= 0.0) continue;
        auto it = revised.find(node->id);
        if (it == revised.end()) continue;
        cache->RecordPrior(CanonicalSignature(*node->expr), it->second);
      }
    }
    cache->RecordCostSnapshot(CanonicalSignature(*expr),
                              coefs.ExportSnapshot());
    if (obs.metering()) {
      // This run's deltas against the session-cumulative cache counters,
      // plus the pool-size gauge. All deterministic at a fixed seed and
      // cache state: replay counts depend only on pool contents and the
      // plan, never on the worker count.
      WarmStartStats after = cache->Stats();
      obs.metrics->counter(metric_names::kCacheBlocksReplayed)
          ->Add(after.replayed_blocks - cache_stats_before.replayed_blocks);
      obs.metrics->counter(metric_names::kCacheBlocksFresh)
          ->Add(after.fresh_blocks - cache_stats_before.fresh_blocks);
      obs.metrics->counter(metric_names::kCachePriorHits)
          ->Add(after.prior_hits - cache_stats_before.prior_hits);
      obs.metrics->counter(metric_names::kCachePriorMisses)
          ->Add(after.prior_misses - cache_stats_before.prior_misses);
      obs.metrics->gauge(metric_names::kCachePoolBlocks)
          ->Set(static_cast<double>(after.pooled_blocks));
      obs.metrics->gauge(metric_names::kCachePriorEntries)
          ->Set(static_cast<double>(after.prior_entries));
    }
  }

  if (obs.metering() && predictor != nullptr) {
    obs.metrics->gauge(metric_names::kPredictorEntries)
        ->Set(static_cast<double>(predictor->stats().chooser_entries));
  }
  if (obs.metering()) {
    obs.metrics->gauge(metric_names::kEngineSpendS)
        ->Set(result.elapsed_seconds);
    obs.metrics->gauge(metric_names::kEngineUtilization)
        ->Set(result.utilization);
    obs.metrics->gauge(metric_names::kEngineOverspendS)
        ->Set(result.overspend_seconds);
    // The shared ledger holds global charges (stage overhead, block
    // reads); the per-term ledgers hold operator work. Export both, terms
    // folded in term order (serial section — gauges stay deterministic).
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
      // Scheduling-dependent: exported as gauges, never counters, so the
      // deterministic metric sections stay bit-identical across widths.
      obs.metrics->gauge("pool.batches")
          ->Set(static_cast<double>(pool->batches_run()));
      obs.metrics->gauge("pool.tasks_by_workers")
          ->Set(static_cast<double>(pool->tasks_run_by_workers()));
      obs.metrics->gauge("pool.tasks_by_callers")
          ->Set(static_cast<double>(pool->tasks_run_by_callers()));
    }
  }
  if (obs.observer != nullptr) {
    obs.observer->OnQueryEnd(result.estimate, result.variance,
                             result.overspent);
  }
  return result;
}

std::string ExplainResult::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "time-constrained aggregate plan (strategy %s, quota %.3f s)\n",
                strategy.c_str(), quota_s);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "terms: %d sampled, %d answered from the catalog; %lld blocks total\n",
      num_sampled_terms, num_constant_terms,
      static_cast<long long>(total_blocks));
  out += line;
  if (stages.empty()) {
    out += "no sampling stage fits the quota\n";
    return out;
  }
  out += "stage  time_left_s  fraction  d_beta  predicted_s   blocks\n";
  for (const StagePrediction& s : stages) {
    std::snprintf(line, sizeof(line),
                  "%5d  %11.4f  %8.5f  %6.2f  %11.4f  %7lld\n", s.index,
                  s.time_left_before, s.planned_fraction, s.d_beta_used,
                  s.predicted_seconds, static_cast<long long>(s.blocks_planned));
    out += line;
  }
  out += exhausts_samples
             ? "plan exhausts every relation's blocks within the quota\n"
             : "plan stops when no further stage fits the remaining time\n";
  if (predictor_active) {
    out += "predictor (stage-0 peek): term node op         component  "
           "selectivity  conf  width\n";
    for (const PredictorNodeView& n : predictor_nodes) {
      std::snprintf(line, sizeof(line),
                    "predictor:                %4d %4d %-10s %-9s  %11.6f  "
                    "%4.2f  %5.2f\n",
                    n.term, n.node, n.op.c_str(), n.component.c_str(),
                    n.selectivity, n.confidence, n.width_scale);
      out += line;
    }
  }
  return out;
}

Result<ExplainResult> ExplainTimeConstrainedAggregate(
    const ExprPtr& expr, const AggregateSpec& aggregate,
    const Catalog& catalog, const ExecutorOptions& options) {
  TCQ_RETURN_NOT_OK(options.Validate());
  ExplainResult out;
  out.quota_s = options.quota_s;
  std::unique_ptr<TimeControlStrategy> strategy =
      MakeStrategy(options.strategy);
  out.strategy = std::string(strategy->name());

  TCQ_ASSIGN_OR_RETURN(Schema schema, InferSchema(expr, catalog));
  if (aggregate.kind != AggregateSpec::Kind::kCount) {
    TCQ_ASSIGN_OR_RETURN(int value_col, schema.IndexOf(aggregate.column));
    (void)value_col;
  }
  TCQ_ASSIGN_OR_RETURN(std::vector<SignedTerm> terms, ExpandCount(expr));
  // Same constant/sampled split as the run path: bare scans are answered
  // from the catalog for COUNT and never planned.
  std::vector<SignedTerm> sampled_terms;
  for (const SignedTerm& term : terms) {
    if (term.expr->kind == ExprKind::kScan &&
        aggregate.kind == AggregateSpec::Kind::kCount) {
      ++out.num_constant_terms;
    } else {
      sampled_terms.push_back(term);
    }
  }
  out.num_sampled_terms = static_cast<int>(sampled_terms.size());
  if (sampled_terms.empty()) return out;

  // Stage-0 evaluators: the planner's view before any sample is drawn.
  // The cost model plans for the serial machine exactly like a simulated
  // run; a private clockless ledger satisfies the evaluator's interface
  // (nothing ever charges it — no stage executes).
  CostModel physical = options.physical;
  physical.workers = 1;
  AdaptiveCostModel coefs(physical, options.cost);
  CostLedger scratch_ledger;
  std::vector<std::unique_ptr<StagedTermEvaluator>> evaluators;
  std::map<std::string, int64_t> total_blocks;
  for (const SignedTerm& term : sampled_terms) {
    TCQ_ASSIGN_OR_RETURN(
        auto ev, StagedTermEvaluator::Create(term.expr, catalog,
                                             options.fulfillment,
                                             &scratch_ledger, physical));
    std::vector<std::string> scans;
    CollectScans(term.expr, &scans);
    for (const std::string& name : scans) {
      if (total_blocks.count(name) == 0) {
        TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(name));
        total_blocks[name] = rel->NumBlocks();
        out.total_blocks += rel->NumBlocks();
      }
    }
    evaluators.push_back(std::move(ev));
  }
  std::map<std::string, int64_t> remaining = total_blocks;
  // EXPLAIN prices the same expected fault overhead per fresh read as
  // the run path, so a serve-layer fit probe of a faulty configuration
  // plans honestly.
  const double explain_fault_overhead_s =
      options.faults.ExpectedOverheadSeconds(options.physical.block_read_s);

  // Hybrid-predictor peek (read-only; no counters move): what the
  // chooser would pick at stage 0. The peeked selectivities and widths
  // also drive the planning loop below, so EXPLAIN shows the stages a
  // predictor-enabled run would actually plan. With a warm cache
  // attached the session predictor and the prior cache are consulted;
  // cold, a scratch predictor yields the default component.
  const bool predictor_on =
      options.sel_predictor.enabled && !options.selectivity.freeze_initial;
  out.predictor_active = predictor_on;
  std::vector<std::map<int, double>> peeked_sel(evaluators.size());
  std::vector<std::map<int, double>> peeked_widths(evaluators.size());
  if (predictor_on) {
    SelPredictor* session_predictor =
        options.warm_cache != nullptr ? options.warm_cache->predictor()
                                      : nullptr;
    const SelPredictor scratch(options.sel_predictor);
    const SelPredictor& pred =
        session_predictor != nullptr ? *session_predictor : scratch;
    const CacheKey query_sig = CanonicalSignature(*expr);
    for (size_t t = 0; t < evaluators.size(); ++t) {
      for (const StagedNode* node : evaluators[t]->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) continue;
        CacheKey node_key = CanonicalSignature(*node->expr);
        std::optional<double> prior;
        if (options.warm_cache != nullptr) {
          std::optional<double> raw =
              options.warm_cache->PeekPrior(node_key);
          if (raw.has_value()) {
            prior = SanitizedStagePrior(*raw, node->total_points,
                                        options.selectivity.zero_hit_beta);
          }
        }
        double fallback =
            InitialSelectivity(*node, options.selectivity, nullptr);
        SelPrediction p = pred.Peek(query_sig, node_key,
                                    StructuralSignature(*node->expr),
                                    std::nullopt, prior, fallback);
        peeked_sel[t][node->id] = p.selectivity;
        peeked_widths[t][node->id] = p.width_scale;
        PredictorNodeView view;
        view.term = static_cast<int>(t);
        view.node = node->id;
        view.op = std::string(ExprKindName(node->kind));
        view.component = std::string(SelComponentName(p.component));
        view.selectivity = p.selectivity;
        view.confidence = p.confidence;
        view.width_scale = p.width_scale;
        out.predictor_nodes.push_back(std::move(view));
      }
    }
  }

  // The planning loop of the run path against hypothetical time/block
  // state: each chosen stage charges its predicted cost to the budget and
  // decrements the relations' remaining blocks. Selectivity revisions and
  // coefficient re-fits need samples, so the stage-1 priors persist (the
  // EXPLAIN vs. EXPLAIN ANALYZE gap, documented in the header).
  double time_left = options.quota_s;
  for (int stage = 0; stage < options.max_stages; ++stage) {
    if (time_left <= 0.0) break;
    double f_max = 0.0;
    double min_step = 1.0;
    for (const auto& [name, total] : total_blocks) {
      if (total <= 0) continue;
      f_max = std::max(f_max, static_cast<double>(remaining[name]) /
                                  static_cast<double>(total));
      min_step = std::min(min_step, 1.0 / static_cast<double>(total));
    }
    if (f_max <= 0.0) break;

    std::vector<std::map<int, double>> sel_prev;
    sel_prev.reserve(evaluators.size());
    for (const auto& ev : evaluators) {
      sel_prev.push_back(ReviseSelectivities(*ev, options.selectivity));
    }
    if (predictor_on) {
      for (size_t t = 0; t < evaluators.size(); ++t) {
        for (auto& [id, sel] : sel_prev[t]) {
          auto it = peeked_sel[t].find(id);
          if (it != peeked_sel[t].end()) sel = it->second;
        }
      }
    }
    auto fetch_cost = [&](double f) {
      double seconds = 0.0;
      for (const auto& [name, total] : total_blocks) {
        int64_t d_new = std::min<int64_t>(BlocksForFraction(f, total),
                                          remaining[name]);
        seconds += static_cast<double>(d_new) *
                   (coefs.Coef(kGlobalCostNode, CostStep::kFetch) +
                    explain_fault_overhead_s);
      }
      return seconds;
    };
    auto qcost = [&](double f, double d_beta) -> Result<double> {
      double seconds = coefs.Coef(kGlobalCostNode, CostStep::kSetup) +
                       fetch_cost(f);
      for (size_t t = 0; t < evaluators.size(); ++t) {
        std::map<int, double> sel_plus = ComputeSelPlus(
            *evaluators[t], sel_prev[t], f, d_beta, options.fulfillment,
            predictor_on ? &peeked_widths[t] : nullptr);
        TCQ_ASSIGN_OR_RETURN(
            TermStagePrediction p,
            PredictTermStageCost(*evaluators[t], f, sel_plus, coefs,
                                 options.fulfillment));
        seconds += p.seconds;
      }
      return seconds;
    };
    auto qcost_sigma = [&](double f) -> Result<double> {
      double sigma = 0.0;
      for (size_t t = 0; t < evaluators.size(); ++t) {
        std::map<int, NodePoints> points =
            PredictNodePoints(*evaluators[t], f, options.fulfillment);
        TCQ_ASSIGN_OR_RETURN(
            TermStagePrediction base,
            PredictTermStageCost(*evaluators[t], f, sel_prev[t], coefs,
                                 options.fulfillment));
        for (const auto& [id, sel] : sel_prev[t]) {
          auto it = points.find(id);
          if (it == points.end()) continue;
          double sd = std::sqrt(SrsProportionVariance(
              sel, it->second.remaining_points, it->second.new_points));
          if (sd <= 0.0) continue;
          std::map<int, double> bumped = sel_prev[t];
          bumped[id] = std::min(1.0, sel + sd);
          TCQ_ASSIGN_OR_RETURN(
              TermStagePrediction hi,
              PredictTermStageCost(*evaluators[t], f, bumped, coefs,
                                   options.fulfillment));
          sigma += std::max(0.0, hi.seconds - base.seconds);
        }
      }
      return sigma;
    };

    StagePlanContext context;
    context.next_stage = stage;
    context.time_left = time_left;
    context.quota = options.quota_s;
    context.f_max = f_max;
    context.f_min_step = min_step;
    context.epsilon = options.epsilon_s;
    context.predictor_active = predictor_on;
    context.obs = options.obs;
    context.qcost = qcost;
    context.qcost_sigma = qcost_sigma;
    TCQ_ASSIGN_OR_RETURN(StagePlan plan, strategy->PlanStage(context));
    if (plan.fraction <= 0.0) break;

    StagePrediction prediction;
    prediction.index = stage;
    prediction.time_left_before = time_left;
    prediction.planned_fraction = plan.fraction;
    prediction.d_beta_used = plan.d_beta_used;
    prediction.predicted_seconds = plan.predicted_seconds;
    for (const auto& [name, total] : total_blocks) {
      int64_t d_new = std::min<int64_t>(
          BlocksForFraction(plan.fraction, total), remaining[name]);
      remaining[name] -= d_new;
      prediction.blocks_planned += d_new;
    }
    out.stages.push_back(prediction);
    time_left -= plan.predicted_seconds;
    if (prediction.blocks_planned <= 0) break;  // cannot progress further
  }
  out.exhausts_samples = true;
  for (const auto& [name, left] : remaining) {
    (void)name;
    if (left > 0) out.exhausts_samples = false;
  }
  return out;
}

}  // namespace tcq
