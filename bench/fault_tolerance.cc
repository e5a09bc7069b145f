// Fault-tolerance benchmark: the 4x-overload serving harness of
// bench/serve_load with deterministic fault injection armed on every
// query — 5% transient read faults plus 1% permanently lost blocks.
//
// Method: the median wall service time T of the benchmark query is
// calibrated with faults armed; then N submissions arrive T/4 apart,
// each with a serving deadline of a few T, admission control on and the
// per-relation circuit breaker enabled at its default threshold (10%,
// comfortably above the injected ~6% fault rate, so a healthy storm-free
// breaker must stay quiet). Emits one JSON object with the run, a
// `summary` of it (what `ci.sh fault-bench` writes to BENCH_fault.json)
// and the gate verdict:
//
//   ./build/bench/fault_tolerance [--n N] [--overload F]
//
// Gate (the "ok" field, enforced by `ci.sh fault-bench`):
//   * miss rate of granted queries <= 5% despite retry/backoff overhead
//   * >= 80% of completed estimates cover the exact count with their
//     (fault-widened) confidence interval
//   * faults were actually exercised (transient faults and retries > 0)
//   * the breaker shed nothing (no false trips below its threshold)
//   * admitted+shrunk+queued+rejected == submitted

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/tcq.h"
#include "exec/exact.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "workload/generators.h"

namespace tcq::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kWorkloadSeed = 7;
constexpr int64_t kOutputTuples = 50000;
constexpr int64_t kTuples = 500000;
/// Simulated seconds per query (see bench/serve_load.cc for the sizing).
constexpr double kQuotaS = 1000.0;
constexpr double kMissBoundPct = 5.0;
constexpr double kCoverageBoundPct = 80.0;
constexpr double kTransientRate = 0.05;
constexpr double kPermanentRate = 0.01;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Workload MakeBenchWorkload() {
  auto workload =
      MakeIntersectionWorkload(kOutputTuples, kWorkloadSeed, kTuples);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(workload);
}

FaultOptions BenchFaults(uint64_t fault_seed) {
  FaultOptions f;
  f.enabled = true;
  f.transient_rate = kTransientRate;
  f.permanent_rate = kPermanentRate;
  f.straggler_rate = 0.01;
  f.fault_seed = fault_seed;
  return f;
}

/// Median wall-clock time of one faults-armed query, unloaded.
double CalibrateServiceTime() {
  Session session(MakeBenchWorkload().catalog);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto r = session.Query("r1 INTERSECT r2")
                 .WithSeed(11 + static_cast<uint64_t>(rep))
                 .WithQuota(kQuotaS)
                 .WithFaults(BenchFaults(11 + static_cast<uint64_t>(rep)))
                 .Run();
    if (!r.ok()) {
      std::fprintf(stderr, "calibration: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    samples.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct FaultLoadResult {
  int submitted = 0;
  int64_t admitted = 0, shrunk = 0, queued = 0, rejected = 0;
  int64_t completed = 0;
  int granted_completed = 0;
  int granted_missed = 0;
  double miss_pct = 0.0;
  double elapsed_s = 0.0;
  // Fault tallies over every completed run.
  int64_t transient_faults = 0;
  int64_t retries = 0;
  int64_t blocks_lost = 0;
  int64_t stragglers = 0;
  int degraded = 0;
  double max_widening = 1.0;
  // Estimate quality against the exact count.
  int ci_covered = 0;
  double coverage_pct = 0.0;
  double mean_rel_err_pct = 0.0;
  // Breaker + accounting health.
  int64_t breaker_trips = 0, breaker_sheds = 0;
  bool counters_sum = false;
};

FaultLoadResult RunLoad(int n, double overload, double t_svc_s,
                        const Workload& workload, int64_t exact) {
  const double deadline_s = 6.0 * t_svc_s;
  const double gap_s = t_svc_s / overload;

  Server::Options options;
  options.admission.global_budget_s = 2.0 * kQuotaS;
  options.admission.max_concurrent = 2;
  options.admission.min_shrunk_quota_s = kQuotaS / 4.0;
  options.admission.max_queue_depth = 4;
  options.admission.breaker.enabled = true;  // defaults: 10% threshold
  Server server(workload.catalog, options);

  struct Submission {
    bool completed = false;
    AdmissionReport::Outcome outcome = AdmissionReport::Outcome::kStandalone;
    bool missed = false;
    bool degraded = false;
    bool covered = false;
    double rel_err = 0.0;
    double widening = 1.0;
    int64_t transient_faults = 0, retries = 0, blocks_lost = 0,
            stragglers = 0;
  };
  std::vector<Submission> submissions(static_cast<size_t>(n));

  ThreadPool submitters(n - 1);
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
                   .WithFaults(BenchFaults(100 + static_cast<uint64_t>(i)))
                   .Run();
      Submission& s = submissions[static_cast<size_t>(i)];
      const double latency_s = SecondsBetween(scheduled, Clock::now());
      if (!r.ok()) return;  // rejected or shed — never executed
      s.completed = true;
      s.outcome = r->admission.outcome;
      s.missed = latency_s > deadline_s;
      s.degraded = r->degraded;
      s.widening = r->faults.variance_widening;
      s.transient_faults = r->faults.transient_faults;
      s.retries = r->faults.retries;
      s.blocks_lost = r->faults.blocks_lost;
      s.stragglers = r->faults.stragglers;
      const double exact_d = static_cast<double>(exact);
      s.covered = r->ci.lo <= exact_d && exact_d <= r->ci.hi;
      s.rel_err = exact_d != 0.0
                      ? std::abs(r->estimate - exact_d) / exact_d
                      : std::abs(r->estimate);
    });
  }
  RunTasks(&submitters, &tasks);
  const double elapsed_s = SecondsBetween(start, Clock::now());

  FaultLoadResult out;
  out.submitted = n;
  out.elapsed_s = elapsed_s;
  const ServerStats stats = server.stats();
  out.admitted = stats.admission.admitted;
  out.shrunk = stats.admission.shrunk;
  out.queued = stats.admission.queued;
  out.rejected = stats.admission.rejected;
  out.completed = stats.completed;
  out.breaker_trips = stats.breaker.trips;
  out.breaker_sheds = stats.breaker.sheds;
  out.counters_sum =
      out.admitted + out.shrunk + out.queued + out.rejected ==
          stats.admission.submitted &&
      stats.admission.submitted == n;

  double rel_err_sum = 0.0;
  for (const Submission& s : submissions) {
    if (!s.completed) continue;
    out.transient_faults += s.transient_faults;
    out.retries += s.retries;
    out.blocks_lost += s.blocks_lost;
    out.stragglers += s.stragglers;
    out.degraded += s.degraded ? 1 : 0;
    out.max_widening = std::max(out.max_widening, s.widening);
    out.ci_covered += s.covered ? 1 : 0;
    rel_err_sum += s.rel_err;
    if (s.outcome == AdmissionReport::Outcome::kAdmitted ||
        s.outcome == AdmissionReport::Outcome::kShrunk) {
      ++out.granted_completed;
      if (s.missed) ++out.granted_missed;
    }
  }
  const auto completions = static_cast<double>(out.completed);
  out.miss_pct = out.granted_completed > 0
                     ? 100.0 * out.granted_missed / out.granted_completed
                     : 0.0;
  out.coverage_pct =
      completions > 0.0 ? 100.0 * out.ci_covered / completions : 0.0;
  out.mean_rel_err_pct =
      completions > 0.0 ? 100.0 * rel_err_sum / completions : 0.0;
  return out;
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

  const Workload workload = MakeBenchWorkload();
  auto exact = ExactCount(workload.query, workload.catalog);
  if (!exact.ok()) {
    std::fprintf(stderr, "exact: %s\n", exact.status().ToString().c_str());
    return 1;
  }

  const double t_svc_s = CalibrateServiceTime();
  const FaultLoadResult r = RunLoad(n, overload, t_svc_s, workload, *exact);

  const bool ok_miss = r.miss_pct <= kMissBoundPct && r.counters_sum;
  const bool ok_ci = r.coverage_pct >= kCoverageBoundPct;
  const bool ok_faults = r.transient_faults > 0 && r.retries > 0;
  const bool ok_breaker = r.breaker_sheds == 0;
  const bool ok = ok_miss && ok_ci && ok_faults && ok_breaker;

  std::printf("{\n");
  std::printf(
      "  \"t_svc_s\": %.5f, \"n\": %d, \"overload\": %.1f, "
      "\"deadline_s\": %.5f, \"exact\": %lld,\n",
      t_svc_s, n, overload, 6.0 * t_svc_s, static_cast<long long>(*exact));
  std::printf(
      "  \"transient_rate\": %.3f, \"permanent_rate\": %.3f, "
      "\"miss_bound_pct\": %.1f, \"coverage_bound_pct\": %.1f,\n",
      kTransientRate, kPermanentRate, kMissBoundPct, kCoverageBoundPct);
  std::printf(
      "  \"submitted\": %d, \"admitted\": %lld, \"shrunk\": %lld, "
      "\"queued\": %lld, \"rejected\": %lld, \"completed\": %lld,\n",
      r.submitted, static_cast<long long>(r.admitted),
      static_cast<long long>(r.shrunk), static_cast<long long>(r.queued),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.completed));
  std::printf(
      "  \"granted_completed\": %d, \"granted_missed\": %d, "
      "\"miss_pct\": %.2f, \"elapsed_s\": %.3f,\n",
      r.granted_completed, r.granted_missed, r.miss_pct, r.elapsed_s);
  std::printf(
      "  \"transient_faults\": %lld, \"retries\": %lld, "
      "\"blocks_lost\": %lld, \"stragglers\": %lld, \"degraded\": %d, "
      "\"max_widening\": %.4f,\n",
      static_cast<long long>(r.transient_faults),
      static_cast<long long>(r.retries),
      static_cast<long long>(r.blocks_lost),
      static_cast<long long>(r.stragglers), r.degraded, r.max_widening);
  std::printf(
      "  \"ci_covered\": %d, \"coverage_pct\": %.1f, "
      "\"mean_rel_err_pct\": %.2f,\n",
      r.ci_covered, r.coverage_pct, r.mean_rel_err_pct);
  std::printf(
      "  \"breaker_trips\": %lld, \"breaker_sheds\": %lld, "
      "\"counters_sum\": %s,\n",
      static_cast<long long>(r.breaker_trips),
      static_cast<long long>(r.breaker_sheds),
      r.counters_sum ? "true" : "false");
  std::printf(
      "  \"summary\": {\"bench\": \"fault_tolerance\", \"n\": %d, "
      "\"overload\": %.1f, \"t_svc_s\": %.5f, \"transient_rate\": %.3f, "
      "\"permanent_rate\": %.3f, \"miss_pct\": %.2f, "
      "\"coverage_pct\": %.1f, \"mean_rel_err_pct\": %.2f, "
      "\"transient_faults\": %lld, \"retries\": %lld, "
      "\"blocks_lost\": %lld, \"degraded\": %d, \"max_widening\": %.4f, "
      "\"breaker_sheds\": %lld, \"ok\": %s},\n",
      n, overload, t_svc_s, kTransientRate, kPermanentRate, r.miss_pct,
      r.coverage_pct, r.mean_rel_err_pct,
      static_cast<long long>(r.transient_faults),
      static_cast<long long>(r.retries),
      static_cast<long long>(r.blocks_lost), r.degraded, r.max_widening,
      static_cast<long long>(r.breaker_sheds), ok ? "true" : "false");
  std::printf(
      "  \"ok_miss\": %s, \"ok_ci\": %s, \"ok_faults\": %s, "
      "\"ok_breaker\": %s, \"ok\": %s\n",
      ok_miss ? "true" : "false", ok_ci ? "true" : "false",
      ok_faults ? "true" : "false", ok_breaker ? "true" : "false",
      ok ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tcq::bench

int main(int argc, char** argv) { return tcq::bench::Main(argc, argv); }
