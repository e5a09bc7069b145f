// Interactive analysis scenario: the paper's "impatient user" setting —
// the same aggregate query answered under increasing time quotas, showing
// the estimate converging and the confidence interval narrowing as the
// system is given more time; then the §3.2 error-constrained mode, where
// the system stops *early* once the requested precision is reached —
// streamed live, stage by stage, through a ProgressObserver.
//
//   ./build/examples/interactive_analyst

#include <algorithm>
#include <cstdio>
#include <string>

#include "api/tcq.h"
#include "exec/exact.h"
#include "obs/report.h"
#include "workload/generators.h"

namespace {

// Streams each stage as the engine finishes it — what an interactive
// front-end would render as a live progress ticker.
class StageTicker : public tcq::ProgressObserver {
 public:
  void OnQueryBegin(double quota_s, int num_terms) override {
    std::printf("  [live] query started: %.0f s quota, %d sampled term%s\n",
                quota_s, num_terms, num_terms == 1 ? "" : "s");
  }
  void OnStage(const tcq::StageReport& report) override {
    std::printf(
        "  [live] stage %d: estimate %8.0f after %5.1f s (%lld blocks)\n",
        report.index, report.estimate_after, report.cumulative_spend_s,
        static_cast<long long>(report.blocks_drawn));
  }
  void OnQueryEnd(double estimate, double /*variance*/,
                  bool overspent) override {
    std::printf("  [live] done: estimate %.0f%s\n", estimate,
                overspent ? " (last stage overspent)" : "");
  }
};

}  // namespace

int main() {
  using namespace tcq;

  // "How many orders joined with their region bucket?": the paper-scale
  // join workload (70,000 result tuples from 10,000 × 10,000).
  auto workload = MakeJoinWorkload(70000, /*seed=*/5);
  if (!workload.ok()) return 1;
  const ExprPtr query = workload->query;

  // Session-wide defaults shared by every query below.
  Session::Options session_options;
  session_options.defaults.strategy.one_at_a_time.d_beta = 24.0;
  session_options.defaults.selectivity.initial_join = 0.1;
  session_options.defaults.seed = 11;
  Session session(std::move(workload->catalog), session_options);

  auto exact = ExactCount(query, session.catalog());
  std::printf("query : COUNT(%s), exact = %lld\n\n",
              query->ToString().c_str(), static_cast<long long>(*exact));

  std::printf("-- progressive refinement under growing quotas --\n");
  std::printf("  quota(s)  estimate     95%% CI                blocks   used\n");
  for (double quota : {1.0, 2.5, 5.0, 10.0, 30.0, 60.0}) {
    auto r = session.Query(query).WithQuota(quota).Run();
    if (!r.ok()) return 1;
    // Clamped for display only; r->utilization itself reports the true
    // (possibly > 1 under a soft deadline) ratio.
    std::printf("  %8.1f  %8.0f  [%8.0f, %8.0f]  %6lld  %4.0f%%\n", quota,
                r->estimate, r->ci.lo, r->ci.hi,
                static_cast<long long>(r->blocks_sampled),
                100.0 * std::min(1.0, r->utilization));
  }

  std::printf(
      "\n-- error-constrained mode: stop when the 95%% CI half-width "
      "drops under 15%% --\n");
  PrecisionStop precision;
  precision.rel_halfwidth = 0.15;
  StageTicker ticker;
  auto r = session.Query(query)
               .WithQuota(600.0)
               .WithPrecision(precision)
               .WithObserver(ticker)
               .Run();
  if (!r.ok()) return 1;
  std::printf(
      "  stopped (%s) after %.1f s of the 600 s quota: estimate %.0f, "
      "95%% CI [%.0f, %.0f], %lld blocks\n",
      std::string(StopReasonName(r->stop_reason)).c_str(),
      r->elapsed_seconds, r->estimate, r->ci.lo, r->ci.hi,
      static_cast<long long>(r->blocks_sampled));
  return 0;
}
