// Serving-layer load benchmark: an open-loop arrival schedule at 4x the
// host's capacity against one tcq::Server, with admission control on and
// off.
//
// Method: the median wall service time T of the benchmark query is
// calibrated first; then N submissions arrive T/(4·P) apart, where P is
// the host's hardware thread count: 4x the rate at which P cores, each
// running one query at a time, serve them. Each has a serving deadline of
// a few T. With admission ON the
// controller sheds the excess (shrink / EDF queue / typed rejection), so
// the queries it actually grants still meet their deadlines; with
// admission OFF everything runs at once, latency balloons, and the
// deadline-miss rate of those same "admitted" queries blows through the
// bound. Emits one JSON object with both runs, a `summary` of them (what
// `ci.sh serve-bench` writes to BENCH_serve.json) and the gate verdict:
//
//   ./build/bench/serve_load [--n N] [--overload F]
//
// Gate (the "ok" field, enforced by `ci.sh serve-bench`):
//   * admission on:  miss rate of immediately granted queries <= 5%
//   * admission off: the same miss rate violates that bound
//   * both runs:     admitted+shrunk+queued+rejected == submitted

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/tcq.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "workload/generators.h"

namespace tcq::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kWorkloadSeed = 7;
constexpr int64_t kOutputTuples = 50000;
constexpr int64_t kTuples = 500000;
/// Simulated seconds per query. Sized so one query costs tens of
/// milliseconds of real CPU (thousands of blocks): long enough that the
/// open-loop overload actually overlaps submissions, short enough that
/// both runs finish in seconds.
constexpr double kQuotaS = 1000.0;
constexpr double kMissBoundPct = 5.0;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Catalog MakeBenchCatalog() {
  auto workload =
      MakeIntersectionWorkload(kOutputTuples, kWorkloadSeed, kTuples);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(workload->catalog);
}

/// Median wall-clock time of one (simulated-quota) query, unloaded.
double CalibrateServiceTime() {
  Session session(MakeBenchCatalog());
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto r = session.Query("r1 INTERSECT r2")
                 .WithSeed(11 + static_cast<uint64_t>(rep))
                 .WithQuota(kQuotaS)
                 .Run();
    if (!r.ok()) {
      std::fprintf(stderr, "calibration: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    samples.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct LoadResult {
  bool admission = false;
  int submitted = 0;
  int64_t admitted = 0, shrunk = 0, queued = 0, rejected = 0;
  int64_t completed = 0;
  int granted_completed = 0;  // completions with an immediate grant
  int granted_missed = 0;     // ... of those, past their serving deadline
  double elapsed_s = 0.0;
  double qps = 0.0;            // completions per wall second
  double p99_latency_s = 0.0;  // over all completions
  double miss_pct = 0.0;       // granted_missed / granted_completed
  bool counters_sum = false;
};

LoadResult RunLoad(bool admission_on, int n, double overload,
                   double t_svc_s) {
  const double deadline_s = 6.0 * t_svc_s;
  // Queries run serially, one per submitting thread (the server has no
  // pool), so the host serves one per hardware thread at a time.
  const double gap_s = t_svc_s / (overload * ThreadPool::HardwareThreads());

  Server::Options options;
  options.admission.enabled = admission_on;
  options.admission.global_budget_s = 2.0 * kQuotaS;  // two full grants
  options.admission.max_concurrent = 2;
  options.admission.min_shrunk_quota_s = kQuotaS / 4.0;
  options.admission.max_queue_depth = 4;
  Server server(MakeBenchCatalog(), options);

  struct Submission {
    bool completed = false;
    AdmissionReport::Outcome outcome = AdmissionReport::Outcome::kStandalone;
    double latency_s = 0.0;
    bool missed = false;
  };
  std::vector<Submission> submissions(static_cast<size_t>(n));

  ThreadPool submitters(n - 1);  // every in-flight submission gets a thread
  const Clock::time_point start = Clock::now();
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([&, i] {
      const Clock::time_point scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(gap_s * i));
      std::this_thread::sleep_until(scheduled);
      Session session = server.OpenSession();
      auto r = session.Query("r1 INTERSECT r2")
                   .WithSeed(100 + static_cast<uint64_t>(i))
                   .WithQuota(kQuotaS)
                   .WithServeDeadline(deadline_s)
                   .Run();
      Submission& s = submissions[static_cast<size_t>(i)];
      // Open-loop latency: from the scheduled arrival, so a late submit
      // counts against the server, not for it.
      s.latency_s = SecondsBetween(scheduled, Clock::now());
      if (!r.ok()) return;  // rejected (typed Status) — never executed
      s.completed = true;
      s.outcome = r->admission.outcome;
      s.missed = s.latency_s > deadline_s;
    });
  }
  RunTasks(&submitters, &tasks);
  const double elapsed_s = SecondsBetween(start, Clock::now());

  LoadResult out;
  out.admission = admission_on;
  out.submitted = n;
  out.elapsed_s = elapsed_s;
  const ServerStats stats = server.stats();
  out.admitted = stats.admission.admitted;
  out.shrunk = stats.admission.shrunk;
  out.queued = stats.admission.queued;
  out.rejected = stats.admission.rejected;
  out.completed = stats.completed;
  out.counters_sum =
      out.admitted + out.shrunk + out.queued + out.rejected ==
      stats.admission.submitted &&
      stats.admission.submitted == n;

  std::vector<double> latencies;
  for (const Submission& s : submissions) {
    if (!s.completed) continue;
    latencies.push_back(s.latency_s);
    if (s.outcome == AdmissionReport::Outcome::kAdmitted ||
        s.outcome == AdmissionReport::Outcome::kShrunk) {
      ++out.granted_completed;
      if (s.missed) ++out.granted_missed;
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const size_t p99 =
        std::min(latencies.size() - 1,
                 static_cast<size_t>(0.99 * static_cast<double>(
                                                latencies.size())));
    out.p99_latency_s = latencies[p99];
    out.qps = elapsed_s > 0.0
                  ? static_cast<double>(latencies.size()) / elapsed_s
                  : 0.0;
  }
  out.miss_pct = out.granted_completed > 0
                     ? 100.0 * out.granted_missed / out.granted_completed
                     : 0.0;
  return out;
}

void PrintRunJson(const LoadResult& r, bool last) {
  std::printf(
      "    {\"admission\": %s, \"submitted\": %d, \"admitted\": %lld, "
      "\"shrunk\": %lld, \"queued\": %lld, \"rejected\": %lld, "
      "\"completed\": %lld,\n"
      "     \"granted_completed\": %d, \"granted_missed\": %d, "
      "\"miss_pct\": %.2f, \"p99_latency_s\": %.4f, \"qps\": %.1f, "
      "\"elapsed_s\": %.3f, \"counters_sum\": %s}%s\n",
      r.admission ? "true" : "false", r.submitted,
      static_cast<long long>(r.admitted), static_cast<long long>(r.shrunk),
      static_cast<long long>(r.queued), static_cast<long long>(r.rejected),
      static_cast<long long>(r.completed), r.granted_completed,
      r.granted_missed, r.miss_pct, r.p99_latency_s, r.qps, r.elapsed_s,
      r.counters_sum ? "true" : "false", last ? "" : ",");
}

/// One run's entry of the summary object.
void PrintSummaryRunJson(const char* key, const LoadResult& r) {
  std::printf(
      "    \"%s\": {\"qps\": %.1f, \"p99_latency_s\": %.4f, "
      "\"miss_pct\": %.2f, \"admitted\": %lld, \"shrunk\": %lld, "
      "\"queued\": %lld, \"rejected\": %lld, \"completed\": %lld},\n",
      key, r.qps, r.p99_latency_s, r.miss_pct,
      static_cast<long long>(r.admitted), static_cast<long long>(r.shrunk),
      static_cast<long long>(r.queued), static_cast<long long>(r.rejected),
      static_cast<long long>(r.completed));
}

int Main(int argc, char** argv) {
  int n = 40;
  double overload = 4.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--n") == 0) n = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--overload") == 0) {
      overload = std::atof(argv[i + 1]);
    }
  }
  if (n < 4) n = 4;

  const double t_svc_s = CalibrateServiceTime();
  const LoadResult on = RunLoad(/*admission_on=*/true, n, overload, t_svc_s);
  const LoadResult off =
      RunLoad(/*admission_on=*/false, n, overload, t_svc_s);

  const bool ok_on = on.miss_pct <= kMissBoundPct && on.counters_sum;
  const bool ok_off = off.miss_pct > kMissBoundPct && off.counters_sum;
  const bool ok = ok_on && ok_off;

  std::printf("{\n");
  std::printf(
      "  \"t_svc_s\": %.5f, \"n\": %d, \"overload\": %.1f, "
      "\"host_threads\": %d, \"deadline_s\": %.5f, "
      "\"miss_bound_pct\": %.1f,\n",
      t_svc_s, n, overload, ThreadPool::HardwareThreads(), 6.0 * t_svc_s,
      kMissBoundPct);
  std::printf("  \"runs\": [\n");
  PrintRunJson(on, /*last=*/false);
  PrintRunJson(off, /*last=*/true);
  std::printf("  ],\n");
  std::printf(
      "  \"summary\": {\"bench\": \"serve_load\", \"n\": %d, "
      "\"overload\": %.1f, \"host_threads\": %d, \"t_svc_s\": %.5f, "
      "\"deadline_s\": %.5f,\n",
      n, overload, ThreadPool::HardwareThreads(), t_svc_s, 6.0 * t_svc_s);
  PrintSummaryRunJson("admission_on", on);
  PrintSummaryRunJson("admission_off", off);
  std::printf("    \"ok\": %s},\n", ok ? "true" : "false");
  std::printf("  \"ok_admission_on\": %s, \"ok_admission_off\": %s, "
              "\"ok\": %s\n",
              ok_on ? "true" : "false", ok_off ? "true" : "false",
              ok ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tcq::bench

int main(int argc, char** argv) { return tcq::bench::Main(argc, argv); }
