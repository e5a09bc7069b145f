#include "api/tcq.h"

#include <cctype>

#include "ra/parser.h"

namespace tcq {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Strips an optional COUNT( ... ) wrapper (case-insensitive) when the
/// opening parenthesis matches the text's final character; otherwise the
/// text is returned untouched and handed to the RA parser as-is.
std::string_view StripCountWrapper(std::string_view text) {
  std::string_view t = Trim(text);
  constexpr std::string_view kCount = "COUNT";
  if (t.size() <= kCount.size()) return t;
  for (size_t i = 0; i < kCount.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(t[i])) != kCount[i]) {
      return t;
    }
  }
  std::string_view rest = Trim(t.substr(kCount.size()));
  if (rest.size() < 2 || rest.front() != '(' || rest.back() != ')') return t;
  // The opening parenthesis must close at the very end, so e.g. a future
  // "COUNT(a) op COUNT(b)" form is not mangled.
  int depth = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == '(') ++depth;
    if (rest[i] == ')' && --depth == 0 && i + 1 != rest.size()) return t;
  }
  if (depth != 0) return t;
  return Trim(rest.substr(1, rest.size() - 2));
}

/// The standalone session's backend: privately owned catalog, lazily
/// created high-water thread pool, and warm-start cache. Serial by
/// contract — a standalone Session runs one query at a time, so nothing
/// here is synchronized (the concurrent backend lives in src/serve/).
class LocalQueryBackend final : public QueryBackend {
 public:
  LocalQueryBackend() = default;
  explicit LocalQueryBackend(Catalog catalog)
      : catalog_(std::move(catalog)) {}

  Catalog& catalog() override { return catalog_; }
  const Catalog& catalog() const override { return catalog_; }
  void ResetCatalog(Catalog catalog) override {
    catalog_ = std::move(catalog);
  }

  int pool_workers() const override {
    return pool_ == nullptr ? 0 : pool_->workers();
  }

  WarmStartCache* warm_cache_if_any() override { return warm_cache_.get(); }

  WarmStartStats CacheStats() const override {
    return warm_cache_ == nullptr ? WarmStartStats{} : warm_cache_->Stats();
  }
  void ClearCache() override {
    if (warm_cache_ != nullptr) warm_cache_->Clear();
  }

  Result<QueryResult> RunQuery(const ExprPtr& expr,
                               const AggregateSpec& aggregate,
                               ExecutorOptions options,
                               bool warm_start) override {
    options.pool = EnsurePool(options.threads);
    // Warm start is an engine-level concern: the backend only decides
    // whether to hand its cache to this run. A null cache takes exactly
    // the historical cold code paths.
    options.warm_cache = warm_start ? EnsureWarmCache() : nullptr;
    if (options.obs.metrics != nullptr) {
      options.obs.metrics->gauge("session.pool_workers")
          ->Set(pool_workers());
    }
    return RunTimeConstrainedAggregate(expr, aggregate, catalog_, options);
  }

 private:
  /// Returns the pool sized for at least `threads` execution width (null
  /// for serial). The pool is created lazily, grows when a query asks
  /// for more width, and never shrinks — narrower queries cap their
  /// batch participation instead (high-water reuse).
  ThreadPool* EnsurePool(int threads) {
    if (threads <= 1) return nullptr;
    const int workers = threads - 1;
    if (pool_ == nullptr || pool_->workers() < workers) {
      pool_ = std::make_unique<ThreadPool>(workers);
    }
    return pool_.get();
  }

  /// The warm-start cache, created empty on first use.
  WarmStartCache* EnsureWarmCache() {
    if (warm_cache_ == nullptr) {
      warm_cache_ = std::make_unique<WarmStartCache>();
    }
    return warm_cache_.get();
  }

  Catalog catalog_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<WarmStartCache> warm_cache_;
};

}  // namespace

Session::Session() : backend_(std::make_shared<LocalQueryBackend>()) {}

Session::Session(Options options)
    : backend_(std::make_shared<LocalQueryBackend>()),
      options_(std::move(options)) {}

Session::Session(Catalog catalog)
    : backend_(std::make_shared<LocalQueryBackend>(std::move(catalog))) {}

Session::Session(Catalog catalog, Options options)
    : backend_(std::make_shared<LocalQueryBackend>(std::move(catalog))),
      options_(std::move(options)) {}

QueryBuilder Session::Query(std::string_view text) {
  Result<ExprPtr> parsed = ParseQuery(StripCountWrapper(text));
  if (!parsed.ok()) {
    return QueryBuilder(this, nullptr, parsed.status(), options_.defaults,
                        options_.threads, options_.warm_start);
  }
  return QueryBuilder(this, std::move(*parsed), Status::OK(),
                      options_.defaults, options_.threads,
                      options_.warm_start);
}

QueryBuilder Session::Query(ExprPtr expr) {
  Status status = expr == nullptr
                      ? Status::InvalidArgument("null query expression")
                      : Status::OK();
  return QueryBuilder(this, std::move(expr), std::move(status),
                      options_.defaults, options_.threads,
                      options_.warm_start);
}

Result<ExplainResult> Session::Explain(std::string_view text) {
  return Query(text).Explain();
}

Result<QueryResult> QueryBuilder::Run() {
  TCQ_RETURN_NOT_OK(parse_status_);
  ExecutorOptions options = options_;
  options.threads = threads_;
  TCQ_RETURN_NOT_OK(options.Validate());
  Result<QueryResult> result = session_->backend_->RunQuery(
      expr_, aggregate_, std::move(options), warm_start_);
  if (result.ok() && owned_tracer_ != nullptr &&
      !owned_tracer_->options().export_path.empty()) {
    TCQ_RETURN_NOT_OK(
        owned_tracer_->ExportToFile(owned_tracer_->options().export_path));
  }
  return result;
}

Result<ExplainResult> QueryBuilder::Explain() {
  TCQ_RETURN_NOT_OK(parse_status_);
  ExecutorOptions options = options_;
  options.threads = threads_;
  TCQ_RETURN_NOT_OK(options.Validate());
  // Planning only: no pool, no samples, no admission. The dry run reads
  // the warm cache without moving a counter, so it plans what Run would.
  options.pool = nullptr;
  options.warm_cache =
      warm_start_ ? session_->backend_->warm_cache_if_any() : nullptr;
  return ExplainTimeConstrainedAggregate(expr_, aggregate_,
                                         session_->catalog(), options);
}

}  // namespace tcq
