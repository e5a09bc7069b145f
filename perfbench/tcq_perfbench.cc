// Benchmark program of the repository benchmark. Runs one workload for a
// fixed time and prints one JSON document of raw measurements on stdout:
// per-query records, per-stage records, bench-side spans and the counts
// the library exposes. perfbench/run.py builds this binary, passes it the
// workload parameters from perfbench/workloads.json, turns the records
// into metrics and checks every answer.
//
//   tcq_perfbench --workload paper_sim --seed 1 --seconds 10 --trace 0
//                 --<param> <value> ...
//
// Workloads (parameters and the reason for each are in workloads.json):
//   paper_sim      closed loop, one client, simulated timebase, the paper's
//                  four query shapes on generated relations;
//   wall_deadline  the same catalog and rotation on the wall clock with a
//                  hard quota and several threads;
//   serve_small    open loop against one tcq::Server at the paper's
//                  geometry, arrivals from a fixed seeded schedule.
//
// With --trace 1 every second rotation (paper workloads) or every odd
// arrival (serve_small) runs with a metrics registry attached, and a few
// queries are afterwards re-driven through the public entry points of
// each layer with a span around every call. Spans are recorded here, in
// the benchmark; nothing inside the library is instrumented.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <malloc.h>
#include <sys/prctl.h>
#include <utility>
#include <vector>

#include "api/tcq.h"
#include "cost/adaptive_model.h"
#include "estimator/combined.h"
#include "estimator/count_estimator.h"
#include "exec/exact.h"
#include "exec/staged.h"
#include "obs/metrics.h"
#include "ra/inclusion_exclusion.h"
#include "ra/parser.h"
#include "sampling/block_sampler.h"
#include "serve/server.h"
#include "sim/ledger.h"
#include "util/random.h"
#include "workload/generators.h"

namespace tcq::perfbench {
namespace {

using Steady = std::chrono::steady_clock;

double SecondsBetween(Steady::time_point from, Steady::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Since(Steady::time_point from) {
  return SecondsBetween(from, Steady::now());
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "tcq_perfbench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------------
// Command line: every argument is a `--name value` pair; every parameter
// a workload reads must be present (run.py passes them from
// workloads.json, so the JSON file is the single source of truth).

class Args {
 public:
  Args(int argc, char** argv) {
    if (argc % 2 != 1) Die("arguments must be --name value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  const std::string& Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  double Num(const std::string& key) const {
    const std::string& text = Str(key);
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
      Die("--" + key + " is not a number: " + text);
    }
    return v;
  }
  int64_t Int(const std::string& key) const {
    const std::string& text = Str(key);
    char* end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
      Die("--" + key + " is not an integer: " + text);
    }
    return v;
  }
  uint64_t Seed() const {
    const std::string& text = Str("seed");
    char* end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') Die("--seed: " + text);
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------
// Process memory, from /proc/self/status (kB fields).

double StatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// Resets the peak-RSS watermark to the current RSS, so the reported peak
/// covers the measured phase and not the exact-count oracle. When the
/// kernel refuses, the peak covers the whole run.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) std::fprintf(stderr, "peak RSS watermark not reset\n");
}

// ---------------------------------------------------------------------
// Minimal JSON emitter: numbers in round-trip precision, so run.py can
// digest estimates bit for bit.

class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  void Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
  }
  void Number(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void String(std::string_view s) {
    Separate();
    AppendString(s);
  }
  template <typename T>
  void Field(std::string_view key, T v) {
    Key(key);
    Number(static_cast<double>(v));
  }
  void NumberArray(std::string_view key, const std::vector<double>& values) {
    Key(key);
    BeginArray();
    for (double v : values) Number(v);
    EndArray();
  }
  const std::string& str() const { return out_; }

 private:
  void Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
  }
  void Close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// A column-named table of numbers, emitted as {"fields":[...],"rows":[...]}.
class Table {
 public:
  explicit Table(std::vector<std::string> fields)
      : fields_(std::move(fields)) {}

  /// Appends a zeroed row and returns it; `Set` fills columns by name.
  size_t AddRow() {
    rows_.emplace_back(fields_.size(), 0.0);
    return rows_.size() - 1;
  }
  void Set(size_t row, const std::string& field, double v) {
    rows_[row][Column(field)] = v;
  }
  double Get(size_t row, const std::string& field) const {
    return rows_[row][Column(field)];
  }
  size_t size() const { return rows_.size(); }
  void Resize(size_t n) {
    rows_.resize(n, std::vector<double>(fields_.size()));
  }

  void Write(JsonWriter* json, std::string_view key) const {
    json->Key(key);
    json->BeginObject();
    json->Key("fields");
    json->BeginArray();
    for (const std::string& f : fields_) json->String(f);
    json->EndArray();
    json->Key("rows");
    json->BeginArray();
    for (const auto& row : rows_) {
      json->BeginArray();
      for (double v : row) json->Number(v);
      json->EndArray();
    }
    json->EndArray();
    json->EndObject();
  }

 private:
  size_t Column(const std::string& field) const {
    auto it = std::find(fields_.begin(), fields_.end(), field);
    if (it == fields_.end()) Die("no table column " + field);
    return static_cast<size_t>(it - fields_.begin());
  }

  std::vector<std::string> fields_;
  std::vector<std::vector<double>> rows_;
};

Table QueryTable() {
  return Table({"idx", "shape", "status", "latency_s", "elapsed_s",
                "deadline_s", "estimate", "variance", "ci_lo", "ci_hi",
                "exact", "blocks_sampled", "blocks_wasted", "stages_run",
                "overspend_s", "traced", "lag_s", "queue_wait_s",
                "serve_latency_s", "ssd_probes", "tuples_scanned",
                "ops_block_read", "ops_predicate", "ops_sort_compare",
                "ops_merge_compare", "ops_tuple_move"});
}

Table StageTable() {
  return Table({"idx", "stage", "predicted_s", "actual_s", "work_s",
                "span_s", "tasks", "blocks_drawn"});
}

Table DriveTable() {
  return Table({"idx", "query", "shape", "terms", "stages", "blocks",
                "tuples", "estimate_checked", "estimate_match"});
}

// Record status codes (run.py reads them).
constexpr double kStatusOk = 0;
constexpr double kStatusRejected = 1;  // typed admission rejection
constexpr double kStatusError = 2;     // anything else: a failed check

double StatusOf(const Status& status) {
  if (status.ok()) return kStatusOk;
  if (status.code() == StatusCode::kResourceExhausted ||
      status.code() == StatusCode::kDeadlineExceeded) {
    return kStatusRejected;
  }
  return kStatusError;
}

/// Fills the outcome columns of a query record from a run result.
void RecordResult(const Result<QueryResult>& r, double latency_s,
                  Table* table, size_t row) {
  table->Set(row, "status", StatusOf(r.status()));
  table->Set(row, "latency_s", latency_s);
  if (!r.ok()) {
    if (StatusOf(r.status()) == kStatusError) {
      std::fprintf(stderr, "query %g failed: %s\n", table->Get(row, "idx"),
                   r.status().ToString().c_str());
    }
    return;
  }
  table->Set(row, "elapsed_s", r->elapsed_seconds);
  table->Set(row, "estimate", r->estimate);
  table->Set(row, "variance", r->variance);
  table->Set(row, "ci_lo", r->ci.lo);
  table->Set(row, "ci_hi", r->ci.hi);
  table->Set(row, "blocks_sampled", static_cast<double>(r->blocks_sampled));
  table->Set(row, "blocks_wasted", static_cast<double>(r->blocks_wasted));
  table->Set(row, "stages_run", r->stages_run);
  table->Set(row, "overspend_s", r->overspend_seconds);
  table->Set(row, "queue_wait_s", r->admission.queue_wait_s);
  table->Set(row, "serve_latency_s", r->admission.serve_latency_s);
}

/// Per-stage records of one (traced) query.
void RecordStages(double idx, const std::vector<StageReport>& reports,
                  Table* stages) {
  for (const StageReport& s : reports) {
    size_t row = stages->AddRow();
    stages->Set(row, "idx", idx);
    stages->Set(row, "stage", s.index);
    stages->Set(row, "predicted_s", s.predicted_seconds);
    stages->Set(row, "actual_s", s.actual_seconds);
    stages->Set(row, "work_s", s.work_seconds);
    stages->Set(row, "span_s", s.span_seconds);
    stages->Set(row, "tasks", s.parallel_tasks);
    stages->Set(row, "blocks_drawn", static_cast<double>(s.blocks_drawn));
  }
}

/// Counts a traced query's metrics registry exposes: Sample-Size-Determine
/// probes, scanned tuples and the simulated ledger's operation counts
/// (global ledger plus the per-term ledgers).
void RecordCounts(Metrics& metrics, Table* table, size_t row) {
  table->Set(row, "ssd_probes",
             static_cast<double>(
                 metrics.counter("timectrl.ssd_probes")->value()));
  table->Set(row, "tuples_scanned",
             static_cast<double>(
                 metrics.counter("exec.tuples_scanned")->value()));
  for (const char* op : {"block_read", "predicate", "sort_compare",
                         "merge_compare", "tuple_move"}) {
    const std::string name(op);
    double ops = metrics.gauge("ledger." + name + "_ops")->value() +
                 metrics.gauge("ledger.terms." + name + "_ops")->value();
    table->Set(row, "ops_" + name, ops);
  }
}

// ---------------------------------------------------------------------
// Bench-side spans: kept in memory, written once at the end of the run.

class SpanLog {
 public:
  explicit SpanLog(Steady::time_point origin) : origin_(origin) {}

  int Begin(std::string name, std::string layer, int64_t query, int parent) {
    return Add(std::move(name), std::move(layer), query, parent,
               Steady::now(), Steady::time_point{});
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end = Steady::now(); }
  /// A span with both ends already known (admission timings).
  int Add(std::string name, std::string layer, int64_t query, int parent,
          Steady::time_point start, Steady::time_point end) {
    spans_.push_back({std::move(name), std::move(layer), query, parent, start,
                      end});
    return static_cast<int>(spans_.size() - 1);
  }

  void Write(JsonWriter* json) const {
    json->Key("spans");
    json->BeginObject();
    json->Key("fields");
    json->BeginArray();
    for (const char* f :
         {"id", "parent", "query", "name", "layer", "start_s", "end_s"}) {
      json->String(f);
    }
    json->EndArray();
    json->Key("rows");
    json->BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json->BeginArray();
      json->Number(static_cast<double>(i));
      json->Number(s.parent);
      json->Number(static_cast<double>(s.query));
      json->String(s.name);
      json->String(s.layer);
      json->Number(SecondsBetween(origin_, s.start));
      json->Number(SecondsBetween(origin_, s.end));
      json->EndArray();
    }
    json->EndArray();
    json->EndObject();
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    int64_t query = 0;
    int parent = -1;
    Steady::time_point start;
    Steady::time_point end;
  };
  Steady::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Decomposed drive: one query re-run through the public entry point of
// each layer in turn, a span around every call. Stage sizes come from
// the real run's StageReports (same seed), so the drive draws the same
// blocks and, on a cold run, reproduces the same estimates.

struct DriveResult {
  int terms = 0;
  int stages = 0;
  int64_t blocks = 0;
  int64_t tuples = 0;
  bool estimate_checked = false;
  bool estimate_match = false;
};

Result<DriveResult> DriveDecomposed(const std::string& text,
                                    const Catalog& catalog,
                                    const ExecutorOptions& options,
                                    const QueryResult& real, int64_t query,
                                    SpanLog* log) {
  DriveResult out;
  const int root = log->Begin("query", "bench", query, -1);

  int span = log->Begin("parse_expand", "ra", query, root);
  TCQ_ASSIGN_OR_RETURN(ExprPtr expr, ParseQuery(text));
  TCQ_ASSIGN_OR_RETURN(std::vector<SignedTerm> terms, ExpandCount(expr));
  log->End(span);
  out.terms = static_cast<int>(terms.size());

  span = log->Begin("plan", "engine", query, root);
  TCQ_ASSIGN_OR_RETURN(ExplainResult plan,
                       ExplainTimeConstrainedAggregate(
                           expr, AggregateSpec::Count(), catalog, options));
  log->End(span);
  (void)plan;

  // Evaluators for the sampled terms, constants for bare-scan terms, in
  // the engine's order (sampled terms first) so the combined estimate is
  // summed in the same order.
  span = log->Begin("setup", "exec", query, root);
  Metrics metrics;
  ObsHandle obs;
  obs.metrics = &metrics;
  CostLedger ledger;
  std::vector<std::unique_ptr<StagedTermEvaluator>> evaluators;
  std::vector<int> signs;
  std::vector<CountEstimate> constants;
  std::vector<int> constant_signs;
  std::map<std::string, std::unique_ptr<BlockSampler>> samplers;
  for (const SignedTerm& term : terms) {
    if (term.expr->kind == ExprKind::kScan) {
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(term.expr->relation));
      CountEstimate c;
      c.total_points = static_cast<double>(rel->NumTuples());
      c.value = static_cast<double>(rel->NumTuples());
      c.hits = rel->NumTuples();
      constants.push_back(c);
      constant_signs.push_back(term.sign);
      continue;
    }
    TCQ_ASSIGN_OR_RETURN(
        auto ev, StagedTermEvaluator::Create(term.expr, catalog,
                                             options.fulfillment, &ledger,
                                             options.physical));
    ev->SetObs(obs, static_cast<int>(evaluators.size()));
    for (const StagedNode* node : ev->NodesPreOrder()) {
      if (node->kind != ExprKind::kScan || samplers.count(node->rel->name())) {
        continue;
      }
      samplers[node->rel->name()] = std::make_unique<BlockSampler>(node->rel);
    }
    evaluators.push_back(std::move(ev));
    signs.push_back(term.sign);
  }
  signs.insert(signs.end(), constant_signs.begin(), constant_signs.end());
  log->End(span);

  double drive_estimate = std::nan("");
  double drive_variance = std::nan("");
  for (const StageReport& stage : real.stage_reports) {
    const int stage_span = log->Begin("stage", "engine", query, root);
    std::map<std::string, std::vector<const Block*>> blocks;
    int64_t drawn = 0;
    for (auto& [name, sampler] : samplers) {
      const int64_t count = std::min<int64_t>(
          BlocksForFraction(stage.planned_fraction, sampler->total_blocks()),
          sampler->remaining_blocks());
      span = log->Begin("draw", "sampling", query, stage_span);
      TCQ_ASSIGN_OR_RETURN(
          std::vector<DrawnBlock> got,
          sampler->DrawSubstreamChecked(count, options.seed,
                                        static_cast<uint64_t>(stage.index)));
      log->End(span);
      std::vector<const Block*>& list = blocks[name];
      for (const DrawnBlock& b : got) list.push_back(b.block);
      drawn += static_cast<int64_t>(got.size());
    }
    if (drawn != stage.blocks_drawn) {
      return Status::Internal("drive drew " + std::to_string(drawn) +
                              " blocks, the run drew " +
                              std::to_string(stage.blocks_drawn));
    }
    out.blocks += drawn;
    for (auto& ev : evaluators) {
      span = log->Begin("execute_stage", "exec", query, stage_span);
      TCQ_RETURN_NOT_OK(ev->ExecuteStage(blocks));
      log->End(span);
    }
    span = log->Begin("estimate", "estimator", query, stage_span);
    std::vector<CountEstimate> estimates;
    for (const auto& ev : evaluators) {
      estimates.push_back(ClusterCountEstimate(
          ev->total_space_blocks(), ev->cum_space_blocks(), ev->cum_hits(),
          ev->cum_points(), ev->total_points()));
    }
    estimates.insert(estimates.end(), constants.begin(), constants.end());
    CountEstimate combined = CombineSignedEstimates(signs, estimates);
    ConfidenceInterval ci =
        NormalConfidenceInterval(combined, options.confidence);
    log->End(span);
    (void)ci;
    if (stage.index == real.stages_counted - 1) {
      drive_estimate = combined.value;
      drive_variance = combined.variance;
    }
    ++out.stages;
    log->End(stage_span);
  }
  out.tuples = metrics.counter("exec.tuples_scanned")->value();

  span = log->Begin("teardown", "exec", query, root);
  evaluators.clear();
  samplers.clear();
  log->End(span);
  log->End(root);

  if (real.stages_counted > 0) {
    out.estimate_checked = true;
    out.estimate_match =
        drive_estimate == real.estimate && drive_variance == real.variance;
  }
  return out;
}

/// `query` is the span query id of the drive.
void RecordDrive(int64_t idx, int64_t query, int shape, const DriveResult& d,
                 Table* drives) {
  size_t row = drives->AddRow();
  drives->Set(row, "idx", static_cast<double>(idx));
  drives->Set(row, "query", static_cast<double>(query));
  drives->Set(row, "shape", shape);
  drives->Set(row, "terms", d.terms);
  drives->Set(row, "stages", d.stages);
  drives->Set(row, "blocks", static_cast<double>(d.blocks));
  drives->Set(row, "tuples", static_cast<double>(d.tuples));
  drives->Set(row, "estimate_checked", d.estimate_checked ? 1 : 0);
  drives->Set(row, "estimate_match", d.estimate_match ? 1 : 0);
}

// ---------------------------------------------------------------------
// Shared workload plumbing.

/// Shape classes of the query texts; run.py names the per-shape metrics
/// after them (exec.stage_ms.<shape>).
enum Shape { kSelect = 0, kIntersect = 1, kJoin = 2, kUnion = 3 };
const char* ShapeName(int shape) {
  static const char* kNames[] = {"select", "intersect", "join", "union"};
  return kNames[shape];
}

struct QuerySpec {
  int shape = kSelect;
  std::string text;
  const Catalog* catalog = nullptr;
  int64_t exact = 0;  // ExactCount over the catalog (the oracle)
};

/// Exact counts of every query, computed once per catalog outside the
/// set-up timing. `expected` is what the generator promises.
void ComputeOracle(std::vector<QuerySpec>* specs,
                   const std::vector<int64_t>& expected, JsonWriter* json) {
  json->Key("oracle");
  json->BeginArray();
  for (size_t i = 0; i < specs->size(); ++i) {
    QuerySpec& q = (*specs)[i];
    ExprPtr expr = Unwrap(ParseQuery(q.text), "parse " + q.text);
    q.exact = Unwrap(ExactCount(expr, *q.catalog), "exact " + q.text);
    json->BeginObject();
    json->Key("text");
    json->String(q.text);
    json->Key("shape");
    json->String(ShapeName(q.shape));
    json->Field("exact", q.exact);
    json->Field("expected", expected[i]);
    json->EndObject();
  }
  json->EndArray();
}

/// Common head of every output document.
void WriteSetup(const std::vector<double>& setup_s,
                const std::vector<double>& build_s, double resident_bytes,
                double user_bytes, double oracle_s, JsonWriter* json) {
  json->NumberArray("setup_s", setup_s);
  json->NumberArray("catalog_build_s", build_s);
  json->Field("catalog_resident_bytes", resident_bytes);
  json->Field("catalog_user_bytes", user_bytes);
  json->Field("oracle_s", oracle_s);
}

double UserBytes(const Catalog& catalog) {
  double bytes = 0.0;
  for (const std::string& name : catalog.Names()) {
    RelationPtr rel = Unwrap(catalog.Find(name), "find " + name);
    bytes += static_cast<double>(rel->NumTuples()) * kPaperTupleBytes;
  }
  return bytes;
}

// ---------------------------------------------------------------------
// paper_sim and wall_deadline: closed loop, one client, the paper's four
// query shapes in rotation, each on its own generated catalog.

struct PaperState {
  Catalog select;
  Catalog intersect;  // also serves the union query
  Catalog join;
  std::vector<int64_t> expected;  // generator-promised counts per spec
  std::unique_ptr<Session> select_session;
  std::unique_ptr<Session> intersect_session;
  std::unique_ptr<Session> join_session;
};

std::unique_ptr<PaperState> BuildPaperCatalogs(const Args& args,
                                               uint64_t seed) {
  const int64_t tuples = args.Int("tuples");
  const int64_t select_output = args.Int("select_output");
  const int64_t intersect_output = args.Int("intersect_output");
  const int64_t join_tuples = args.Int("join_tuples");
  const int64_t join_output = args.Int("join_output");
  // The three catalogs are independent and generated concurrently, as a
  // loader on a multi-core host would; set-up timed on one thread swung by
  // a quarter between sets of runs with the speed of one core of the
  // shared host, while the four-thread queries did not.
  auto st = std::make_unique<PaperState>();
  std::optional<Workload> sel;
  std::optional<Workload> isect;
  std::optional<Workload> join;
  std::thread sel_thread([&] {
    sel = Unwrap(MakeSelectionWorkload(select_output,
                                       SubstreamSeed(seed, "select", 0),
                                       tuples),
                 "selection workload");
  });
  std::thread isect_thread([&] {
    isect = Unwrap(
        MakeIntersectionWorkload(intersect_output,
                                 SubstreamSeed(seed, "intersect", 0), tuples),
        "intersection workload");
  });
  join = Unwrap(MakeJoinWorkload(join_output, SubstreamSeed(seed, "join", 0),
                                 join_tuples),
                "join workload");
  sel_thread.join();
  isect_thread.join();
  st->select = std::move(sel->catalog);
  st->intersect = std::move(isect->catalog);
  st->join = std::move(join->catalog);
  st->expected = {sel->exact_count, isect->exact_count, join->exact_count,
                  2 * tuples - intersect_output};
  return st;
}

int RunPaper(const Args& args, bool wall) {
  const uint64_t seed = args.Seed();
  const double seconds = args.Num("seconds");
  const bool trace = args.Int("trace") != 0;
  const double quota_s = args.Num("quota_s");
  const int threads = static_cast<int>(args.Int("threads"));
  const int setup_reps = static_cast<int>(args.Int("setup_reps"));
  const int64_t traced_drives = args.Int("traced_drives");
  const CostModel model =
      wall ? CostModel::ModernInMemory() : CostModel::Sun360();

  JsonWriter json;
  json.BeginObject();

  // Set-up: catalog generation plus Session construction. It runs once
  // before the measured loop and again in setup_reps - 1 pauses of the
  // loop at evenly spaced points, so the median spans the host's speed
  // over the whole run. Each repetition frees the previous state first,
  // outside the timing, and rebuilds it from the same seed bit for bit
  // (the determinism pass of paper_sim checks this).
  std::vector<double> setup_s;
  std::vector<double> build_s;
  double resident_bytes = 0.0;
  std::unique_ptr<PaperState> state;
  std::vector<QuerySpec> specs = {
      {kSelect,
       "SELECT[key < " + std::to_string(args.Int("select_output")) + "](r1)",
       nullptr, 0},
      {kIntersect, "r1 INTERSECT r2", nullptr, 0},
      {kJoin, "JOIN[key = key](r1, r2)", nullptr, 0},
      {kUnion, "r1 UNION r2", nullptr, 0},
  };
  std::vector<Session*> sessions(specs.size());
  auto set_up = [&] {
    // malloc_trim hands the freed state's pages back (the generator
    // threads' arenas keep them otherwise), so every repetition faults its
    // memory in as a fresh set-up does and the peak RSS holds one state.
    state.reset();
    malloc_trim(0);
    const double rss_before_kb = StatusKb("VmRSS");
    const Steady::time_point t0 = Steady::now();
    std::unique_ptr<PaperState> st = BuildPaperCatalogs(args, seed);
    build_s.push_back(Since(t0));
    Session::Options options;
    options.threads = threads;
    st->select_session = std::make_unique<Session>(st->select, options);
    st->intersect_session = std::make_unique<Session>(st->intersect, options);
    st->join_session = std::make_unique<Session>(st->join, options);
    setup_s.push_back(Since(t0));
    if (setup_s.size() == 1) {
      resident_bytes = (StatusKb("VmRSS") - rss_before_kb) * 1024;
    }
    state = std::move(st);
    specs[0].catalog = &state->select;
    specs[1].catalog = &state->intersect;
    specs[2].catalog = &state->join;
    specs[3].catalog = &state->intersect;
    sessions = {state->select_session.get(), state->intersect_session.get(),
                state->join_session.get(), state->intersect_session.get()};
  };
  set_up();

  const Steady::time_point oracle_t0 = Steady::now();
  ComputeOracle(&specs, state->expected, &json);
  const double oracle_s = Since(oracle_t0);

  auto run_query = [&](int64_t i, Metrics* metrics) {
    const QuerySpec& q = specs[static_cast<size_t>(i) % specs.size()];
    Session* session = sessions[static_cast<size_t>(i) % specs.size()];
    const Steady::time_point t0 = Steady::now();
    QueryBuilder builder = session->Query(q.text);
    builder.WithQuota(quota_s)
        .WithSeed(SubstreamSeed(seed, "query", static_cast<uint64_t>(i)))
        .WithThreads(threads)
        .WithDeadline(DeadlineMode::kHard)
        .WithCostModel(model)
        .WithWallClock(wall);
    if (metrics != nullptr) builder.WithMetrics(metrics);
    Result<QueryResult> r = builder.Run();
    return std::make_pair(std::move(r), Since(t0));
  };

  // Warm-up: lazy pools and first-touch page faults happen here.
  auto warm_up = [&] {
    for (size_t i = 0; i < specs.size(); ++i) {
      (void)run_query(static_cast<int64_t>(i), nullptr);
    }
    ResetPeakRss();
  };
  warm_up();

  // The pauses for the further set-up repetitions are left out of the
  // measured time; the peak RSS is the largest of the stretches between
  // them.
  const int probes = setup_reps - 1;
  int probes_done = 0;
  double paused_s = 0.0;
  double peak_rss_kb = 0.0;
  Table queries = QueryTable();
  Table stages = StageTable();
  const Steady::time_point loop_t0 = Steady::now();
  for (int64_t i = 0; Since(loop_t0) - paused_s < seconds; ++i) {
    if (probes_done < probes &&
        Since(loop_t0) - paused_s >=
            seconds * (probes_done + 1) / (probes + 1)) {
      const Steady::time_point pause_t0 = Steady::now();
      peak_rss_kb = std::max(peak_rss_kb, StatusKb("VmHWM"));
      set_up();
      warm_up();
      ++probes_done;
      paused_s += Since(pause_t0);
    }
    // Traced runs alternate whole rotations, so every shape is measured
    // both with and without the metrics registry.
    const int64_t rotation = i / static_cast<int64_t>(specs.size());
    const bool traced = trace && rotation % 2 == 1;
    std::optional<Metrics> metrics;
    if (traced) metrics.emplace();
    auto [r, latency_s] = run_query(i, traced ? &*metrics : nullptr);
    const QuerySpec& q = specs[static_cast<size_t>(i) % specs.size()];
    size_t row = queries.AddRow();
    queries.Set(row, "idx", static_cast<double>(i));
    queries.Set(row, "shape", q.shape);
    queries.Set(row, "deadline_s", quota_s);
    queries.Set(row, "exact", static_cast<double>(q.exact));
    queries.Set(row, "traced", traced ? 1 : 0);
    RecordResult(r, latency_s, &queries, row);
    if (traced && r.ok()) {
      RecordCounts(*metrics, &queries, row);
      RecordStages(static_cast<double>(i), r->stage_reports, &stages);
    }
  }
  json.Field("wall_s", Since(loop_t0) - paused_s);
  json.Field("peak_rss_kb", std::max(peak_rss_kb, StatusKb("VmHWM")));
  WriteSetup(setup_s, build_s, resident_bytes,
             UserBytes(state->select) + UserBytes(state->intersect) +
                 UserBytes(state->join),
             oracle_s, &json);
  queries.Write(&json, "queries");
  stages.Write(&json, "stages");

  // Determinism pass (simulated timebase only): the first digest_queries
  // queries run again, each with a metrics registry for the simulated
  // operation counts; run.py compares them bit for bit with the timed
  // loop and digests them.
  if (!wall) {
    const int64_t digest_queries = args.Int("digest_queries");
    Table digest = QueryTable();
    for (int64_t i = 0; i < digest_queries; ++i) {
      Metrics metrics;
      auto [r, latency_s] = run_query(i, &metrics);
      size_t row = digest.AddRow();
      digest.Set(row, "idx", static_cast<double>(i));
      digest.Set(row, "shape",
                 specs[static_cast<size_t>(i) % specs.size()].shape);
      RecordResult(r, latency_s, &digest, row);
      if (r.ok()) RecordCounts(metrics, &digest, row);
    }
    digest.Write(&json, "digest");
  }

  if (trace) {
    SpanLog log(loop_t0);
    Table drives = DriveTable();
    json.Key("drive_errors");
    json.BeginArray();
    for (int64_t i = 0; i < traced_drives; ++i) {
      const QuerySpec& q = specs[static_cast<size_t>(i) % specs.size()];
      auto [real, latency_s] = run_query(i, nullptr);
      (void)latency_s;
      if (!real.ok()) {
        json.String(real.status().ToString());
        continue;
      }
      ExecutorOptions options;
      options.quota_s = quota_s;
      options.seed = SubstreamSeed(seed, "query", static_cast<uint64_t>(i));
      options.physical = model;
      options.use_wall_clock = wall;
      options.threads = threads;
      Result<DriveResult> d = DriveDecomposed(q.text, *q.catalog, options,
                                              *real, i, &log);
      if (!d.ok()) {
        json.String(d.status().ToString());
        continue;
      }
      RecordDrive(i, i, q.shape, *d, &drives);
    }
    json.EndArray();
    drives.Write(&json, "drives");
    log.Write(&json);
  }

  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// serve_small: open loop against one tcq::Server. Arrivals follow a fixed
// seeded schedule at a frozen rate; each is timed from its due time.

int RunServe(const Args& args) {
  const uint64_t seed = args.Seed();
  const double seconds = args.Num("seconds");
  const bool trace = args.Int("trace") != 0;
  const double quota_s = args.Num("quota_s");
  // The deadline misses are counted against. It is not given to the
  // server: a request queued for admission waits for budget (at most its
  // quota) instead of being rejected when a stall of the host outlasts
  // the deadline, so no request fails and a late one counts as a miss.
  const double miss_deadline_s = args.Num("miss_deadline_s");
  const double rate_qps = args.Num("rate_qps");
  const auto spin = std::chrono::duration_cast<Steady::duration>(
      std::chrono::duration<double, std::milli>(args.Num("spin_ms")));
  const int clients = static_cast<int>(args.Int("clients"));
  const int setup_reps = static_cast<int>(args.Int("setup_reps"));
  const int64_t traced_drives = args.Int("traced_drives");
  const int64_t tuples = args.Int("tuples");
  const int64_t shared = args.Int("shared_tuples");

  Server::Options options;
  options.admission.global_budget_s = args.Num("budget_quotas") * quota_s;
  options.admission.max_concurrent =
      static_cast<int>(args.Int("max_concurrent"));
  options.pool_workers = static_cast<int>(args.Int("pool_workers"));
  options.session.warm_start = args.Int("warm_start") != 0;

  JsonWriter json;
  json.BeginObject();

  // Set-up: catalog generation plus Server construction. It runs once
  // here and again in setup_reps - 1 gaps cut into the arrival schedule
  // at evenly spaced points (below), where it builds a second catalog and
  // Server and frees them outside the timing; no request is due while it
  // runs. So the median spans the host's speed over the whole run.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  double resident_bytes = 0.0;
  auto set_up = [&] {
    const double rss_before_kb = StatusKb("VmRSS");
    const Steady::time_point t0 = Steady::now();
    Workload isect = Unwrap(
        MakeIntersectionWorkload(shared, SubstreamSeed(seed, "intersect", 0),
                                 tuples),
        "intersection workload");
    RelationPtr r3 = MakeUniformRelation("r3", tuples, tuples,
                                         SubstreamSeed(seed, "uniform", 0));
    if (r3 == nullptr) Die("uniform relation");
    if (!isect.catalog.Register(std::move(r3)).ok()) Die("register r3");
    build_s.push_back(Since(t0));
    auto built = std::make_unique<Server>(std::move(isect.catalog), options);
    setup_s.push_back(Since(t0));
    if (setup_s.size() == 1) {
      resident_bytes = (StatusKb("VmRSS") - rss_before_kb) * 1024;
    }
    return built;
  };
  std::unique_ptr<Server> server = set_up();
  const Catalog& catalog = server->catalog();

  // Six repeated texts. The generator promises every count but that of the
  // uniform selection (-1 = oracle only): r1's keys are a permutation of
  // 0..tuples-1, so each r3 tuple joins exactly one r1 tuple.
  const std::string half = std::to_string(tuples / 2);
  const std::string tenth = std::to_string(tuples / 10);
  std::vector<QuerySpec> specs = {
      {kSelect, "SELECT[key < " + tenth + "](r3)", &catalog, 0},
      {kIntersect, "r1 INTERSECT r2", &catalog, 0},
      {kJoin, "JOIN[key = key](r1, r3)", &catalog, 0},
      {kUnion, "r1 UNION r2", &catalog, 0},
      {kUnion, "r1 MINUS r2", &catalog, 0},
      {kSelect, "SELECT[key < " + half + "](r1)", &catalog, 0},
  };
  const Steady::time_point oracle_t0 = Steady::now();
  ComputeOracle(&specs,
                {-1, shared, tuples, 2 * tuples - shared, tuples - shared,
                 tuples / 2},
                &json);
  const double oracle_s = Since(oracle_t0);

  auto build = [&](Session& session, const QuerySpec& q, uint64_t qseed) {
    QueryBuilder builder = session.Query(q.text);
    builder.WithQuota(quota_s).WithSeed(qseed);
    return builder;
  };

  // Warm-up: one of each text fills the warm-start cache.
  {
    Session session = server->OpenSession();
    for (size_t i = 0; i < specs.size(); ++i) {
      (void)build(session, specs[i], SubstreamSeed(seed, "warmup", i)).Run();
    }
  }
  ResetPeakRss();

  // The fixed schedule: exponential inter-arrival gaps at the frozen rate,
  // with a set-up gap at each of the evenly spaced points; arrivals after a
  // point are due that much later. A gap is five times the longest set-up
  // seen on the host (about 20 ms), so a repetition ends inside it.
  const int probes = setup_reps - 1;
  const double gap_s = 0.1;
  std::vector<double> points_s;
  for (int k = 0; k < probes; ++k) {
    points_s.push_back(seconds * (k + 1) / (probes + 1));
  }
  const auto n = static_cast<size_t>(std::ceil(rate_qps * seconds));
  std::vector<double> due_s(n);
  std::vector<size_t> text_of(n);
  {
    Rng rng(SubstreamSeed(seed, "arrivals", 0));
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.UniformDouble()) / rate_qps;
      const auto gaps_before =
          std::upper_bound(points_s.begin(), points_s.end(), t) -
          points_s.begin();
      due_s[i] = t + static_cast<double>(gaps_before) * gap_s;
      text_of[i] = static_cast<size_t>(rng.Uniform(specs.size()));
    }
  }

  Table queries = QueryTable();
  queries.Resize(n);
  std::vector<std::vector<StageReport>> stage_reports(n);
  std::vector<Steady::time_point> sent(n);
  std::vector<Steady::time_point> done(n);
  const ServerStats stats_before = server->stats();
  const WarmStartStats cache_before = server->CacheStats();
  std::atomic<size_t> next{0};
  const Steady::time_point loop_t0 =
      Steady::now() + std::chrono::milliseconds(5);
  std::vector<Session> client_sessions;
  for (int c = 0; c < clients; ++c) {
    client_sessions.push_back(server->OpenSession());
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // Wake on time: no timer slack, and spin the last stretch before
      // each due time so sleep overshoot does not count as latency.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Session& session = client_sessions[static_cast<size_t>(c)];
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Steady::time_point due =
            loop_t0 + std::chrono::duration_cast<Steady::duration>(
                          std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due - spin);
        while (Steady::now() < due) {
        }
        const QuerySpec& q = specs[text_of[i]];
        const bool traced = trace && i % 2 == 1;
        std::optional<Metrics> metrics;
        if (traced) metrics.emplace();
        sent[i] = Steady::now();
        QueryBuilder builder =
            build(session, q, SubstreamSeed(seed, "query", i));
        if (traced) builder.WithMetrics(&*metrics);
        Result<QueryResult> r = builder.Run();
        done[i] = Steady::now();
        queries.Set(i, "idx", static_cast<double>(i));
        queries.Set(i, "shape", q.shape);
        queries.Set(i, "deadline_s", miss_deadline_s);
        queries.Set(i, "exact", static_cast<double>(q.exact));
        queries.Set(i, "traced", traced ? 1 : 0);
        queries.Set(i, "lag_s", SecondsBetween(due, sent[i]));
        RecordResult(r, SecondsBetween(due, done[i]), &queries, i);
        if (traced && r.ok()) {
          RecordCounts(*metrics, &queries, i);
          stage_reports[i] = r->stage_reports;
        }
      }
    });
  }
  // The set-up repetitions, each a little after its gap opens so the last
  // requests due before it have finished. malloc_trim hands the freed
  // repetition's pages back, so the next stretch's peak RSS is the served
  // catalog's alone and the next repetition faults its pages in as a
  // fresh set-up does. The peak RSS is the largest of the stretches.
  double peak_rss_kb = 0.0;
  for (size_t k = 0; k < points_s.size(); ++k) {
    const double open_s = points_s[k] + static_cast<double>(k) * gap_s;
    std::this_thread::sleep_until(
        loop_t0 + std::chrono::duration_cast<Steady::duration>(
                      std::chrono::duration<double>(open_s + 0.005)));
    peak_rss_kb = std::max(peak_rss_kb, StatusKb("VmHWM"));
    (void)set_up();
    malloc_trim(0);
    ResetPeakRss();
  }
  for (std::thread& w : workers) w.join();
  Table stages = StageTable();
  for (size_t i = 0; i < n; ++i) {
    RecordStages(static_cast<double>(i), stage_reports[i], &stages);
  }
  Steady::time_point last = loop_t0;
  for (const Steady::time_point& t : done) last = std::max(last, t);
  json.Field("wall_s", SecondsBetween(loop_t0, last) - probes * gap_s);
  json.Field("peak_rss_kb", std::max(peak_rss_kb, StatusKb("VmHWM")));
  WriteSetup(setup_s, build_s, resident_bytes, UserBytes(catalog), oracle_s,
             &json);
  queries.Write(&json, "queries");
  stages.Write(&json, "stages");

  const ServerStats stats_after = server->stats();
  const WarmStartStats cache_after = server->CacheStats();
  const AdmissionController::Stats& a0 = stats_before.admission;
  const AdmissionController::Stats& a1 = stats_after.admission;
  json.Key("serve");
  json.BeginObject();
  json.Field("submitted", a1.submitted - a0.submitted);
  json.Field("admitted", a1.admitted - a0.admitted);
  json.Field("shrunk", a1.shrunk - a0.shrunk);
  json.Field("queued", a1.queued - a0.queued);
  json.Field("rejected", a1.rejected - a0.rejected);
  json.EndObject();
  json.Key("cache");
  json.BeginObject();
  json.Field("replayed_blocks",
             cache_after.replayed_blocks - cache_before.replayed_blocks);
  json.Field("prior_hits", cache_after.prior_hits - cache_before.prior_hits);
  json.Field("prior_misses",
             cache_after.prior_misses - cache_before.prior_misses);
  json.EndObject();

  if (trace) {
    SpanLog log(loop_t0);
    // Served requests: generator lag, admission queue wait and execution,
    // split by the AdmissionReport each result carries.
    for (size_t i = 0; i < n; ++i) {
      if (queries.Get(i, "traced") == 0 ||
          queries.Get(i, "status") != kStatusOk) {
        continue;
      }
      const Steady::time_point due =
          loop_t0 + std::chrono::duration_cast<Steady::duration>(
                        std::chrono::duration<double>(due_s[i]));
      auto at = [&](double s) {
        return sent[i] + std::chrono::duration_cast<Steady::duration>(
                             std::chrono::duration<double>(s));
      };
      const double wait = queries.Get(i, "queue_wait_s");
      const double serve = queries.Get(i, "serve_latency_s");
      const int root = log.Add("request", "bench", static_cast<int64_t>(i), -1,
                               due, done[i]);
      log.Add("generator_lag", "generator", static_cast<int64_t>(i), root, due,
              sent[i]);
      log.Add("queue_wait", "serve", static_cast<int64_t>(i), root, sent[i],
              at(wait));
      log.Add("execute", "engine", static_cast<int64_t>(i), root, at(wait),
              at(serve));
    }
    // Decomposed drives run cold on a standalone session over the same
    // catalog, so the drive reproduces the real run's estimate exactly.
    Session cold(catalog);
    Table drives = DriveTable();
    json.Key("drive_errors");
    json.BeginArray();
    for (int64_t i = 0; i < traced_drives; ++i) {
      const QuerySpec& q = specs[static_cast<size_t>(i) % specs.size()];
      const uint64_t qseed =
          SubstreamSeed(seed, "drive", static_cast<uint64_t>(i));
      Result<QueryResult> real =
          cold.Query(q.text).WithQuota(quota_s).WithSeed(qseed).Run();
      if (!real.ok()) {
        json.String(real.status().ToString());
        continue;
      }
      ExecutorOptions drive_options;
      drive_options.quota_s = quota_s;
      drive_options.seed = qseed;
      Result<DriveResult> d =
          DriveDecomposed(q.text, catalog, drive_options, *real, -1 - i,
                          &log);
      if (!d.ok()) {
        json.String(d.status().ToString());
        continue;
      }
      RecordDrive(i, -1 - i, q.shape, *d, &drives);
    }
    json.EndArray();
    drives.Write(&json, "drives");
    log.Write(&json);
  }

  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace tcq::perfbench

int main(int argc, char** argv) {
  const tcq::perfbench::Args args(argc, argv);
  const std::string& workload = args.Str("workload");
  if (workload == "paper_sim") return tcq::perfbench::RunPaper(args, false);
  if (workload == "wall_deadline") return tcq::perfbench::RunPaper(args, true);
  if (workload == "serve_small") return tcq::perfbench::RunServe(args);
  tcq::perfbench::Die("unknown workload " + workload);
}
