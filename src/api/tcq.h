#ifndef TCQ_API_TCQ_H_
#define TCQ_API_TCQ_H_

/// Public façade of the library: a `Session` handle over the catalog and
/// execution state queries run on, and a fluent `QueryBuilder` for
/// one-off time-constrained aggregate queries:
///
///   tcq::Session session;
///   TCQ_RETURN_NOT_OK(session.Register(orders));
///   auto result = session.Query("COUNT(SELECT[amount >= 100](orders))")
///                     .WithQuota(2.0)
///                     .WithThreads(8)
///                     .WithConfidence(0.95)
///                     .Run();
///
/// A standalone Session owns its catalog, thread pool, and warm-start
/// cache privately. Sessions opened on a `tcq::Server` (src/serve/) are
/// thin handles over the server's shared state instead, and their
/// queries pass through the server's admission controller. The free
/// functions in engine/executor.h remain available for callers that
/// manage their own Catalog and options.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "cache/warm_start.h"
#include "engine/executor.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "ra/expr.h"
#include "storage/relation.h"
#include "util/result.h"

namespace tcq {

class Session;

/// Execution state a Session's queries run on: the catalog, the worker
/// pool, and the warm-start cache, plus the run entry point itself.
/// Implemented privately by standalone sessions (session-owned state,
/// one query at a time) and by tcq::Server (shared state behind an
/// admission controller, safe for concurrent RunQuery calls). The api/
/// layer never depends on serve/ — the server plugs in through this
/// interface.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  virtual Catalog& catalog() = 0;
  virtual const Catalog& catalog() const = 0;
  /// Replaces the whole catalog (e.g. after LoadCatalog). Must not race
  /// running queries.
  virtual void ResetCatalog(Catalog catalog) = 0;

  /// Current worker count of the execution pool (0 = none yet).
  virtual int pool_workers() const = 0;

  /// The backing warm-start cache if one exists already, else nullptr.
  /// Read-only consumers (EXPLAIN's predictor peek) use this; it never
  /// creates the cache, so cold sessions stay cold.
  virtual WarmStartCache* warm_cache_if_any() { return nullptr; }

  /// Aggregate warm-start cache statistics (all-zero before the first
  /// warm query).
  virtual WarmStartStats CacheStats() const = 0;
  /// Drops all warm-start state. Must not race running queries.
  virtual void ClearCache() = 0;

  /// Runs one validated query. `options` arrives with threads/quota and
  /// obs sinks resolved by the builder; the backend supplies the pool and
  /// (when `warm_start`) the cache, and may shrink `options.quota_s`
  /// under admission control before the engine sees it.
  [[nodiscard]] virtual Result<QueryResult> RunQuery(
      const ExprPtr& expr, const AggregateSpec& aggregate,
      ExecutorOptions options, bool warm_start) = 0;
};

/// Fluent configuration of one time-constrained aggregate query. Obtained
/// from Session::Query; every `With*` returns *this for chaining and
/// `Run()` executes. The builder starts from the session's default
/// options, so per-query settings override session-wide ones.
class QueryBuilder {
 public:
  /// Time quota in (simulated or wall-clock) seconds. Default 5. Stored
  /// in ExecutorOptions::quota_s, so observers, EXPLAIN and admission
  /// control all see the same value.
  QueryBuilder& WithQuota(double seconds) {
    options_.quota_s = seconds;
    return *this;
  }
  /// Execution width, counting the calling thread; the backing pool is
  /// (re)sized or capped to serve it. Estimates are bit-identical for
  /// any value at the same seed.
  QueryBuilder& WithThreads(int threads) {
    threads_ = threads;
    return *this;
  }
  /// Confidence level of the reported interval, in (0, 1).
  QueryBuilder& WithConfidence(double level) {
    options_.confidence = level;
    return *this;
  }
  QueryBuilder& WithSeed(uint64_t seed) {
    options_.seed = seed;
    return *this;
  }
  /// Overspend-risk margin d_β of the default One-at-a-Time strategy
  /// (use WithStrategy for the other strategies' parameters).
  QueryBuilder& WithRiskMargin(double d_beta) {
    options_.strategy.one_at_a_time.d_beta = d_beta;
    return *this;
  }
  QueryBuilder& WithStrategy(const StrategyConfig& strategy) {
    options_.strategy = strategy;
    return *this;
  }
  QueryBuilder& WithDeadline(DeadlineMode mode) {
    options_.deadline_mode = mode;
    return *this;
  }
  /// Serving-layer completion deadline in real seconds (see
  /// ExecutorOptions::serve_deadline_s): a tcq::Server's admission queue
  /// orders waiters by it and gives up waiting once it expires. 0 (the
  /// default) means "use the quota". Standalone runs ignore it.
  QueryBuilder& WithServeDeadline(double seconds) {
    options_.serve_deadline_s = seconds;
    return *this;
  }
  QueryBuilder& WithFulfillment(Fulfillment fulfillment) {
    options_.fulfillment = fulfillment;
    return *this;
  }
  /// §5.B hybrid: spend residual time on partial-fulfillment stages once
  /// no full stage fits.
  QueryBuilder& WithFinalPartialStages(bool on = true) {
    options_.final_partial_stages = on;
    return *this;
  }
  /// Error-constrained stopping (§3.2): stop early once the interval is
  /// tight enough.
  QueryBuilder& WithPrecision(const PrecisionStop& precision) {
    options_.precision = precision;
    return *this;
  }
  /// Run against real elapsed time instead of the simulator.
  QueryBuilder& WithWallClock(bool on = true) {
    options_.use_wall_clock = on;
    return *this;
  }
  /// Arms deterministic fault injection (ExecutorOptions::faults; see
  /// DESIGN.md §10): transient read errors retried with quota-charged
  /// backoff, permanently lost blocks dropped from the frame with the
  /// variance widened, and straggler reads. Off by default; with
  /// `faults.enabled == false` the run is bit-identical to one that
  /// never heard of faults, at any seed and thread count.
  QueryBuilder& WithFaults(const FaultOptions& faults) {
    options_.faults = faults;
    return *this;
  }
  QueryBuilder& WithCostModel(const CostModel& model) {
    options_.physical = model;
    return *this;
  }
  QueryBuilder& WithMaxStages(int max_stages) {
    options_.max_stages = max_stages;
    return *this;
  }
  /// Sample-Size-Determine's tolerance ε (Figure 3.4), in (0, 1).
  QueryBuilder& WithEpsilon(double epsilon_s) {
    options_.epsilon_s = epsilon_s;
    return *this;
  }
  /// Stage-1 selectivity defaults and revision knobs (Figure 3.3 / §3.4).
  QueryBuilder& WithSelectivity(const SelectivityOptions& selectivity) {
    options_.selectivity = selectivity;
    return *this;
  }
  /// Adaptive cost-coefficient fitting knobs.
  QueryBuilder& WithAdaptiveCost(const AdaptiveCostModel::Options& cost) {
    options_.cost = cost;
    return *this;
  }
  /// Attaches (or detaches) the backing warm-start cache for this query:
  /// block draws replay the sample pools earlier queries filled, stage-0
  /// planning starts from cached operator selectivities, and the run's
  /// own samples feed the cache back. Off by default
  /// (Session::Options::warm_start flips the session default);
  /// WithWarmStart(false) is bit-identical to a session that never warmed
  /// anything, at any seed and thread count. Explain() reads the same
  /// cache without changing it.
  QueryBuilder& WithWarmStart(bool on = true) {
    warm_start_ = on;
    return *this;
  }
  /// Arms the hybrid stage-0 selectivity predictor (DESIGN.md §12) with
  /// its default knobs: a tournament chooser over the within-query
  /// observation, the warm-start prior and a query-stream history table,
  /// whose confidence also scales the sel⁺ inflation width per node.
  /// Most useful together with WithWarmStart — the predictor's history
  /// then persists across the session's runs. Off by default;
  /// WithSelPredictor(false) is bit-identical to a build without the
  /// predictor at any seed and thread count.
  QueryBuilder& WithSelPredictor(bool on = true) {
    options_.sel_predictor.enabled = on;
    return *this;
  }
  /// Same, with explicit predictor knobs (`options.enabled` decides).
  QueryBuilder& WithSelPredictor(const SelPredictorOptions& options) {
    options_.sel_predictor = options;
    return *this;
  }

  /// Enables tracing with a builder-owned tracer: the run records spans,
  /// instants and counter tracks; when `trace.export_path` is non-empty
  /// the Chrome trace_event JSON (chrome://tracing, Perfetto) is written
  /// there after Run(). Access the tracer afterwards via `tracer()`.
  QueryBuilder& WithTrace(TraceOptions trace) {
    owned_tracer_ = std::make_shared<Tracer>(std::move(trace));
    options_.obs.tracer = owned_tracer_.get();
    return *this;
  }
  /// Records into a caller-owned tracer instead (must outlive Run()).
  QueryBuilder& WithTracer(Tracer* tracer) {
    owned_tracer_.reset();
    options_.obs.tracer = tracer;
    return *this;
  }
  /// Publishes counters/gauges/histograms into a caller-owned registry
  /// (must outlive Run()). See src/obs/metrics.h for the determinism
  /// contract: the counter and histogram sections are bit-identical
  /// across thread counts at a fixed seed.
  QueryBuilder& WithMetrics(Metrics* metrics) {
    options_.obs.metrics = metrics;
    return *this;
  }
  /// Streams per-stage StageReports to `observer` while the query runs
  /// (called synchronously from the engine's serial sections; must
  /// outlive Run()).
  QueryBuilder& WithObserver(ProgressObserver& observer) {
    options_.obs.observer = &observer;
    return *this;
  }

  /// Aggregate selection; COUNT is the default.
  QueryBuilder& Count() {
    aggregate_ = AggregateSpec::Count();
    return *this;
  }
  QueryBuilder& Sum(std::string column) {
    aggregate_ = AggregateSpec::Sum(std::move(column));
    return *this;
  }
  QueryBuilder& Avg(std::string column) {
    aggregate_ = AggregateSpec::Avg(std::move(column));
    return *this;
  }

  /// Outcome of parsing/validating the query text or expression this
  /// builder was created from: OK, or the parse error — with line/column
  /// diagnostics — that Run()/Explain() would return. Lets callers (and
  /// the Server admission path) reject malformed queries before spending
  /// any budget on them.
  const Status& status() const { return parse_status_; }

  /// Executes the query against the session's backend. With a WithTrace
  /// export path, the Chrome trace JSON is written on success.
  [[nodiscard]] Result<QueryResult> Run();

  /// Runs the planner without drawing a single sample: the stages the
  /// time-control strategy would schedule from its stage-0 view, whose
  /// first stage is Run()'s first stage (see
  /// ExplainTimeConstrainedAggregate for the exact semantics).
  [[nodiscard]] Result<ExplainResult> Explain();

  /// The builder-owned tracer from WithTrace (null otherwise); read
  /// `tracer()->ExportChromeJson()` after Run() for the in-memory trace.
  Tracer* tracer() const { return owned_tracer_.get(); }

 private:
  friend class Session;
  QueryBuilder(Session* session, ExprPtr expr, Status parse_status,
               ExecutorOptions options, int threads, bool warm_start)
      : session_(session),
        expr_(std::move(expr)),
        parse_status_(std::move(parse_status)),
        options_(std::move(options)),
        threads_(threads),
        warm_start_(warm_start) {}

  Session* session_;
  ExprPtr expr_;
  Status parse_status_;  // non-OK when Query(text) failed to parse
  ExecutorOptions options_;
  AggregateSpec aggregate_;
  std::shared_ptr<Tracer> owned_tracer_;  // WithTrace; shared with copies
  int threads_;
  bool warm_start_;  // from Session::Options; WithWarmStart overrides
};

/// A handle over the execution state queries run on, plus per-session
/// defaults. A standalone Session (the constructors below) privately
/// owns its catalog, worker pool, and warm-start cache — cheap to
/// create, not thread-safe: run one query at a time per standalone
/// session (one query already uses every configured worker). Sessions
/// returned by tcq::Server::OpenSession() share the server's state
/// instead: those handles are cheap values, and many of them may Run()
/// concurrently — the server's admission controller arbitrates.
class Session {
 public:
  struct Options {
    /// Default execution width of queries (QueryBuilder::WithThreads
    /// overrides per query). 1 = serial.
    int threads = 1;
    /// Warm-start queries by default (QueryBuilder::WithWarmStart
    /// overrides per query): repeated or overlapping queries replay the
    /// backing sample pools and seed their planning from cached
    /// selectivities and cost coefficients. Off keeps every query cold
    /// and bit-identical to the historical engine.
    bool warm_start = false;
    /// Per-query option defaults (seed, strategy, cost model, ...).
    ExecutorOptions defaults;
  };

  Session();
  explicit Session(Options options);
  explicit Session(Catalog catalog);
  Session(Catalog catalog, Options options);

  /// Registers a relation under its own name; AlreadyExists on
  /// duplicates. On a server-backed session this registers into the
  /// server's shared catalog — do not race running queries.
  [[nodiscard]] Status Register(RelationPtr relation) {
    return backend_->catalog().Register(std::move(relation));
  }
  /// Replaces the whole catalog (e.g. after LoadCatalog).
  void ResetCatalog(Catalog catalog) {
    backend_->ResetCatalog(std::move(catalog));
  }

  Catalog& catalog() { return backend_->catalog(); }
  const Catalog& catalog() const {
    return static_cast<const QueryBackend&>(*backend_).catalog();
  }

  /// Starts a query from the prototype's relational-algebra text (see
  /// ra/parser.h for the grammar), optionally wrapped in COUNT(...):
  /// "COUNT(SELECT[key < 2000](r1))" and "SELECT[key < 2000](r1)" are
  /// equivalent. Parse errors — with line/column diagnostics — are
  /// available immediately from QueryBuilder::status() and surface from
  /// Run() / Explain().
  QueryBuilder Query(std::string_view text);
  /// Starts a query from an expression tree.
  QueryBuilder Query(ExprPtr expr);

  /// Parses `text` and runs the planner without executing anything (no
  /// sample drawn, no pool spun up): the session-default options' quota
  /// and strategy produce the predicted stage schedule. Equivalent to
  /// `Query(text).Explain()`.
  [[nodiscard]] Result<ExplainResult> Explain(std::string_view text);

  /// The backing pool's current worker count (0 = no pool yet). A
  /// standalone session keeps its pool at the high-water size; a
  /// server-backed session reports the server's fixed-width pool.
  int pool_workers() const { return backend_->pool_workers(); }

  /// Flips the session-wide warm-start default for subsequent queries
  /// (per-query WithWarmStart still overrides). Turning it off does not
  /// drop accumulated cache state; use ClearCache() for that.
  void SetWarmStart(bool on) { options_.warm_start = on; }

  /// Aggregate view of the backing warm-start cache: pooled/replayed/
  /// fresh block counts, selectivity-prior entries and hit rates,
  /// cost-coefficient snapshots. All-zero before the first warm query.
  WarmStartStats CacheStats() const { return backend_->CacheStats(); }

  /// Drops every pooled block, cached selectivity and cost snapshot; the
  /// next warm query starts cold (e.g. after the underlying data
  /// changed — the cache has no invalidation of its own). On a
  /// server-backed session this clears the server's shared cache.
  void ClearCache() { backend_->ClearCache(); }

 private:
  friend class QueryBuilder;
  friend class Server;

  /// A session over externally owned state (tcq::Server::OpenSession).
  Session(std::shared_ptr<QueryBackend> backend, Options options)
      : backend_(std::move(backend)), options_(std::move(options)) {}

  std::shared_ptr<QueryBackend> backend_;
  Options options_;
};

}  // namespace tcq

#endif  // TCQ_API_TCQ_H_
