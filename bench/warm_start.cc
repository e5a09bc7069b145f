// Warm-start effectiveness gate: a session's second query must reach the
// cold query's confidence-interval half-width with at least 20% fewer
// FRESH block draws, because the pooled prefix replays the first query's
// blocks instead of hitting the (simulated) disk again.
//
//   ./build/bench/warm_start [--seed S]
//
// Prints one JSON object (the ci.sh `warm-bench` stage archives it at
// build/artifacts/warm_start.json); exits 1 when the savings gate fails.

#include <cstdio>
#include <cstdlib>

#include "api/tcq.h"
#include "paper_table_common.h"
#include "workload/generators.h"

namespace tcq::bench {
namespace {

constexpr double kMinFreshSavingsPct = 20.0;

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  auto workload = MakeSelectionWorkload(3000, /*seed=*/args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  Session::Options session_options;
  session_options.warm_start = true;
  Session session(std::move(workload->catalog),
                  std::move(session_options));

  // Cold query: pays full price for every draw; its achieved precision
  // becomes the warm query's target. Both runs use the soft deadline:
  // with restored (accurate) cost coefficients the warm planner fills the
  // quota to within the jitter margin, and a hard deadline would turn a
  // small overrun into an aborted stage and a degenerate comparison.
  auto cold = session.Query("SELECT[key < 3000](r1)")
                  .WithSeed(args.seed * 1000 + 1)
                  .WithQuota(3.0)
                  .WithDeadline(DeadlineMode::kSoft)
                  .Run();
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return 1;
  }
  WarmStartStats after_cold = session.CacheStats();
  double cold_halfwidth = (cold->ci.hi - cold->ci.lo) / 2.0;
  int64_t cold_fresh = after_cold.fresh_blocks;
  if (cold_halfwidth <= 0.0 || cold_fresh <= 0) {
    std::fprintf(stderr,
                 "warm_start: degenerate cold run (halfwidth %.3f, "
                 "%lld fresh draws)\n",
                 cold_halfwidth, static_cast<long long>(cold_fresh));
    return 1;
  }

  // Warm query: a different seed, stopping as soon as it matches the cold
  // precision. Replayed draws are not fresh I/O; only the fresh draws it
  // still needs count against the gate.
  PrecisionStop precision;
  precision.abs_halfwidth = cold_halfwidth;
  auto warm = session.Query("SELECT[key < 3000](r1)")
                  .WithSeed(args.seed * 1000 + 2)
                  .WithQuota(3.0)
                  .WithDeadline(DeadlineMode::kSoft)
                  .WithPrecision(precision)
                  .Run();
  if (!warm.ok()) {
    std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
    return 1;
  }
  WarmStartStats after_warm = session.CacheStats();
  double warm_halfwidth = (warm->ci.hi - warm->ci.lo) / 2.0;
  int64_t warm_fresh = after_warm.fresh_blocks - after_cold.fresh_blocks;
  int64_t warm_replayed =
      after_warm.replayed_blocks - after_cold.replayed_blocks;
  double savings_pct =
      100.0 * (1.0 - static_cast<double>(warm_fresh) /
                         static_cast<double>(cold_fresh));
  // A degenerate warm run (no counted stage → estimate 0, half-width 0)
  // must fail the gate, not sneak under the target.
  bool precision_met = warm->stages_counted > 0 && warm_halfwidth > 0.0 &&
                       warm_halfwidth <= cold_halfwidth;
  bool ok = precision_met && savings_pct >= kMinFreshSavingsPct;

  std::printf(
      "{\"bench\": \"warm_start\", \"seed\": %llu, "
      "\"cold\": {\"estimate\": %.1f, \"ci_halfwidth\": %.3f, "
      "\"fresh_blocks\": %lld, \"stages\": %d}, "
      "\"warm\": {\"estimate\": %.1f, \"ci_halfwidth\": %.3f, "
      "\"fresh_blocks\": %lld, \"replayed_blocks\": %lld, \"stages\": %d, "
      "\"stages_counted\": %d, \"overspent\": %s, "
      "\"stopped_for_precision\": %s}, "
      "\"fresh_savings_pct\": %.1f, \"min_savings_pct\": %.1f, "
      "\"ok\": %s}\n",
      static_cast<unsigned long long>(args.seed), cold->estimate,
      cold_halfwidth, static_cast<long long>(cold_fresh), cold->stages_run,
      warm->estimate, warm_halfwidth, static_cast<long long>(warm_fresh),
      static_cast<long long>(warm_replayed), warm->stages_run,
      warm->stages_counted,
      warm->stop_reason == StopReason::kStageOverran ? "true" : "false",
      warm->stop_reason == StopReason::kPrecisionMet ? "true" : "false",
      savings_pct,
      kMinFreshSavingsPct, ok ? "true" : "false");
  if (!ok) {
    std::fprintf(stderr,
                 "warm_start: warm query reached halfwidth %.3f (target "
                 "%.3f) with %.1f%% fresh-draw savings (gate %.1f%%)\n",
                 warm_halfwidth, cold_halfwidth, savings_pct,
                 kMinFreshSavingsPct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tcq::bench

int main(int argc, char** argv) { return tcq::bench::Main(argc, argv); }
