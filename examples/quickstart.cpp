// Quickstart: build a relation, ask for COUNT(σ(r1)) under a 5-second
// time quota, and inspect the estimate, its confidence interval, and the
// stage-by-stage reports.
//
//   ./build/examples/quickstart [--trace PATH]
//
// With --trace, the run records a Chrome trace_event JSON to PATH — open
// it in chrome://tracing or https://ui.perfetto.dev to see the per-stage
// plan/draw/evaluate spans on a timeline (README "Tracing a query").

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "api/tcq.h"
#include "exec/exact.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace tcq;

  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }

  // 1. A synthetic relation: 10,000 tuples of 200 bytes -> 2,000 disk
  //    blocks of 1 KiB, the paper's experimental geometry. `key` is a
  //    random permutation of 0..9999.
  auto workload = MakeSelectionWorkload(/*output_tuples=*/2000,
                                        /*seed=*/2024);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  // 2. The query: COUNT(σ_{key < 2000}(r1)). Any Select / Project / Join /
  //    Intersect / Union / Difference tree works — Union and Difference
  //    are rewritten away by inclusion–exclusion.
  const ExprPtr query = workload->query;
  std::printf("query : COUNT(%s)\n", query->ToString().c_str());

  // 3. A session owns the catalog (and the worker pool, if any); evaluate
  //    the query with a hard 5-second quota via the fluent builder.
  Session session(std::move(workload->catalog));
  QueryBuilder builder = session.Query(query)
                             .WithQuota(5.0)
                             .WithRiskMargin(24.0)  // overspend margin d_β
                             .WithSeed(7);
  if (trace_path != nullptr) {
    TraceOptions trace;
    trace.export_path = trace_path;
    builder.WithTrace(trace);
  }
  auto result = builder.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. The answer, and how it was produced.
  auto exact = ExactCount(query, session.catalog());
  std::printf("estimate: %.1f   (exact: %lld)\n", result->estimate,
              static_cast<long long>(*exact));
  std::printf("95%% CI : [%.1f, %.1f]\n", result->ci.lo, result->ci.hi);
  std::printf("stages  : %d run, %d counted, %lld blocks sampled\n",
              result->stages_run, result->stages_counted,
              static_cast<long long>(result->blocks_sampled));
  // Display clamp only: utilization itself reports the true ratio, which
  // exceeds 1 when a soft deadline let the final stage overrun.
  std::printf("time    : %.2f s elapsed of %.2f s quota (%.0f%% used%s)\n",
              result->elapsed_seconds, 5.0,
              100.0 * std::min(1.0, result->utilization),
              result->stop_reason == StopReason::kStageOverran
                  ? ", overspent last stage"
                  : "");
  std::printf("\n  stage  fraction  blocks  predicted  actual   estimate\n");
  for (const StageReport& s : result->stages()) {
    std::printf("  %5d  %8.4f  %6lld  %8.2fs  %6.2fs  %9.1f%s\n", s.index,
                s.planned_fraction, static_cast<long long>(s.blocks_drawn),
                s.predicted_seconds, s.actual_seconds, s.estimate_after,
                s.within_quota ? "" : "   <- aborted (hard deadline)");
  }
  if (trace_path != nullptr) {
    std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                trace_path);
  }

  return 0;
}
