// Hybrid selectivity predictor gate (DESIGN.md §12): on a drifting
// repeated workload the tagged n-gram history must beat the exact-
// signature prior cache (the warm-start baseline) — lower predicted-vs-
// actual stage-cost *overrun* error (the underprediction side, the one
// that blows hard deadlines; sel⁺ conservatism deliberately overpredicts)
// and at least 10% fewer wasted draws (blocks burned by stages that
// contribute nothing to the estimate).
//
// The drift: the join data alternates between two regimes (high / low
// key multiplicity → ~9× selectivity swing) while the query text stays
// identical, so the prior cache is exactly one regime stale at every
// epoch. Each epoch opens with a cheap regime-specific marker query;
// the (marker, main) signature 2-gram lets the history table predict
// the main query's new-regime selectivity where the prior cannot. A
// stale-low prior makes the one-at-a-time planner undersize QCOST,
// oversize the stage, and blow the hard deadline — every block of that
// aborted stage is a wasted draw.
//
// Wasted draws are the draw-efficiency currency here rather than fresh
// draws because on a repeated same-session workload the sample pools
// saturate at the quota-bounded depth after the first cycle: from then
// on *every* policy replays, and fresh draws are ~0 for both arms
// (whole-session fresh draws, which do include the learning transient,
// are reported alongside).
//
//   ./build/bench/sel_predictor [--seed S]
//
// Prints one JSON object (the ci.sh `pred-bench` stage archives it at
// build/artifacts/sel_predictor.json); exits 1 when a gate fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "api/tcq.h"
#include "paper_table_common.h"
#include "workload/generators.h"

namespace tcq::bench {
namespace {

constexpr double kMinWastedSavingsPct = 10.0;

constexpr int kEpochs = 24;
constexpr int kWarmupEpochs = 4;  // one full A/B cycle + chooser training
constexpr int64_t kTuples = 10000;
constexpr int64_t kRightPerKey = 50;
// Join output tuples per regime: selectivity 4.5e-3 vs 5e-4. At these
// multiplicities the join's output-writing term dominates QCOST, so a
// stale selectivity translates directly into a mis-sized stage.
constexpr int64_t kRegimeOutputs[2] = {450000, 50000};
constexpr double kQuotaS = 2.5;
constexpr double kMarkerQuotaS = 0.3;

struct ArmResult {
  int64_t wasted_blocks = 0;  // measured epochs, main-query runs
  int64_t total_blocks = 0;
  int64_t fresh_draws = 0;  // whole session, incl. the learning transient
  double err_sum = 0.0;     // Σ |predicted − actual| / actual per stage
  double overrun_sum = 0.0;  // Σ max(0, actual − predicted) / actual
  int64_t err_stages = 0;
  int overspent_runs = 0;
  int zero_estimate_runs = 0;  // aborted before any stage counted
  bool failed = false;
};

ArmResult RunArm(bool predictor_on, uint64_t seed) {
  ArmResult out;
  const bool debug = std::getenv("TCQ_PRED_BENCH_DEBUG") != nullptr;
  Session::Options session_options;
  session_options.warm_start = true;

  auto first = MakeJoinWorkload(kRegimeOutputs[0], /*seed=*/seed + 100,
                                kTuples, kPaperTupleBytes, kRightPerKey);
  if (!first.ok()) {
    std::fprintf(stderr, "%s\n", first.status().ToString().c_str());
    out.failed = true;
    return out;
  }
  ExprPtr query = first->query;
  Session session(std::move(first->catalog), std::move(session_options));

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const int regime = epoch % 2;
    if (epoch > 0) {
      // Same tuple count and width in both regimes: the relations keep
      // their block counts, so the session's sample pools stay valid —
      // only the data (and thus the join selectivity) drifts.
      auto drifted = MakeJoinWorkload(kRegimeOutputs[regime],
                                      /*seed=*/seed + 100 + regime, kTuples,
                                      kPaperTupleBytes, kRightPerKey);
      if (!drifted.ok()) {
        std::fprintf(stderr, "%s\n", drifted.status().ToString().c_str());
        out.failed = true;
        return out;
      }
      session.ResetCatalog(std::move(drifted->catalog));
    }

    // Regime marker: textually distinct per regime, so the predictor's
    // signature stream carries which regime the epoch is in.
    auto marker = session
                      .Query(regime == 0 ? "SELECT[key < 1](r1)"
                                         : "SELECT[key < 2](r1)")
                      .WithSeed(seed * 1000 + static_cast<uint64_t>(epoch))
                      .WithQuota(kMarkerQuotaS)
                      .WithDeadline(DeadlineMode::kSoft)
                      .WithSelPredictor(predictor_on)
                      .Run();
    if (!marker.ok()) {
      std::fprintf(stderr, "%s\n", marker.status().ToString().c_str());
      out.failed = true;
      return out;
    }

    // Main query: identical text every epoch, under the hard deadline.
    // One run per epoch, so its stage 0 always plans against a prior
    // recorded in the *other* regime.
    const int64_t fresh_before = session.CacheStats().fresh_blocks;
    auto run = session.Query(query)
                   .WithSeed(seed * 1000 + static_cast<uint64_t>(epoch) + 500)
                   .WithQuota(kQuotaS)
                   .WithDeadline(DeadlineMode::kHard)
                   .WithSelPredictor(predictor_on)
                   .Run();
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      out.failed = true;
      return out;
    }
    out.fresh_draws += session.CacheStats().fresh_blocks - fresh_before;
    if (debug) {
      std::fprintf(stderr,
                   "[%s] epoch %2d regime %d: est %8.0f stages %d/%d "
                   "overspent %d wasted %lld elapsed %.2f\n",
                   predictor_on ? "on " : "off", epoch, regime, run->estimate,
                   run->stages_counted, run->stages_run,
                   run->stop_reason == StopReason::kStageOverran ? 1 : 0,
                   static_cast<long long>(run->blocks_wasted),
                   run->elapsed_seconds);
      for (const StageReport& r : run->stage_reports) {
        std::fprintf(
            stderr,
            "    stage %d: f %.4f pred %.3f actual %.3f blocks %lld "
            "sel0 %.5f %s\n",
            r.index, r.planned_fraction, r.predicted_seconds,
            r.actual_seconds, static_cast<long long>(r.blocks_drawn),
            r.selectivities.empty() ? -1.0 : r.selectivities[0].selectivity,
            r.selectivities.empty() ? "" : r.selectivities[0].component.c_str());
      }
    }
    if (epoch < kWarmupEpochs) continue;
    out.wasted_blocks += run->blocks_wasted;
    out.total_blocks += run->blocks_sampled + run->blocks_wasted;
    if (run->stop_reason == StopReason::kStageOverran) ++out.overspent_runs;
    if (run->stages_counted == 0) ++out.zero_estimate_runs;
    for (const StageReport& report : run->stage_reports) {
      if (report.actual_seconds <= 0.0) continue;
      out.err_sum +=
          std::fabs(report.predicted_seconds - report.actual_seconds) /
          report.actual_seconds;
      out.overrun_sum +=
          std::fmax(0.0, report.actual_seconds - report.predicted_seconds) /
          report.actual_seconds;
      ++out.err_stages;
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  ArmResult off = RunArm(/*predictor_on=*/false, args.seed);
  ArmResult on = RunArm(/*predictor_on=*/true, args.seed);
  if (off.failed || on.failed) return 1;
  if (off.wasted_blocks <= 0 || off.err_stages <= 0 || on.err_stages <= 0) {
    std::fprintf(stderr,
                 "sel_predictor: degenerate arms (off wasted %lld)\n",
                 static_cast<long long>(off.wasted_blocks));
    return 1;
  }

  const double err_off = off.err_sum / static_cast<double>(off.err_stages);
  const double err_on = on.err_sum / static_cast<double>(on.err_stages);
  // The gated error is the *overrun* (underprediction) side only: the
  // hard-deadline risk is actual > predicted, and sel⁺ conservatism is
  // supposed to push misses to the safe side. A symmetric metric would
  // penalize the predictor for exactly that designed-in conservatism.
  const double overrun_off =
      off.overrun_sum / static_cast<double>(off.err_stages);
  const double overrun_on = on.overrun_sum / static_cast<double>(on.err_stages);
  const double savings_pct =
      100.0 * (1.0 - static_cast<double>(on.wasted_blocks) /
                         static_cast<double>(off.wasted_blocks));
  const bool ok = savings_pct >= kMinWastedSavingsPct &&
                  overrun_on < overrun_off &&
                  on.zero_estimate_runs <= off.zero_estimate_runs;

  std::printf(
      "{\"bench\": \"sel_predictor\", \"seed\": %llu, "
      "\"epochs\": %d, \"measured_epochs\": %d, "
      "\"prior_cache\": {\"wasted_blocks\": %lld, \"total_blocks\": %lld, "
      "\"fresh_blocks\": %lld, \"stage_cost_err\": %.4f, "
      "\"stage_cost_overrun_err\": %.4f, "
      "\"overspent_runs\": %d, \"zero_estimate_runs\": %d}, "
      "\"predictor\": {\"wasted_blocks\": %lld, \"total_blocks\": %lld, "
      "\"fresh_blocks\": %lld, \"stage_cost_err\": %.4f, "
      "\"stage_cost_overrun_err\": %.4f, "
      "\"overspent_runs\": %d, \"zero_estimate_runs\": %d}, "
      "\"wasted_savings_pct\": %.1f, \"min_savings_pct\": %.1f, "
      "\"ok\": %s}\n",
      static_cast<unsigned long long>(args.seed), kEpochs,
      kEpochs - kWarmupEpochs, static_cast<long long>(off.wasted_blocks),
      static_cast<long long>(off.total_blocks),
      static_cast<long long>(off.fresh_draws), err_off, overrun_off,
      off.overspent_runs, off.zero_estimate_runs,
      static_cast<long long>(on.wasted_blocks),
      static_cast<long long>(on.total_blocks),
      static_cast<long long>(on.fresh_draws), err_on, overrun_on,
      on.overspent_runs, on.zero_estimate_runs, savings_pct,
      kMinWastedSavingsPct, ok ? "true" : "false");
  if (!ok) {
    std::fprintf(stderr,
                 "sel_predictor: wasted-draw savings %.1f%% (gate %.1f%%), "
                 "stage-cost overrun error %.4f vs %.4f, zero-estimate runs "
                 "%d vs %d\n",
                 savings_pct, kMinWastedSavingsPct, overrun_on, overrun_off,
                 on.zero_estimate_runs, off.zero_estimate_runs);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tcq::bench

int main(int argc, char** argv) { return tcq::bench::Main(argc, argv); }
