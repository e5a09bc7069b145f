#ifndef TCQ_TIMECTRL_STRATEGY_H_
#define TCQ_TIMECTRL_STRATEGY_H_

#include <functional>
#include <memory>
#include <string_view>

#include "timectrl/sample_size.h"
#include "util/result.h"

namespace tcq {

/// Everything a time-control strategy may consult when planning the next
/// stage. The cost closures are provided by the engine and evaluate the
/// full-query time-cost formula (overhead + fetches + all terms).
struct StagePlanContext {
  int next_stage = 0;      // 0-based index of the stage being planned
  double time_left = 0.0;  // Ti
  double quota = 0.0;      // T
  double f_max = 0.0;      // largest fraction still drawable
  double f_min_step = 0.0;  // one disk block, as a fraction
  double epsilon = 0.0;     // Figure 3.4's tolerance

  /// Observability sinks for the planning pass (tracer spans around the
  /// Sample-Size-Determine bisection, probe counters). Default-empty =
  /// no instrumentation.
  ObsHandle obs;

  /// QCOST(f, SEL⁺(d_β)): predicted stage cost with the operator
  /// selectivities inflated by d_β standard deviations (Figure 3.5).
  std::function<Result<double>(double f, double d_beta)> qcost;
  /// First-order standard deviation of the stage cost at fraction f
  /// (selectivity-variance propagated through the cost formula), for the
  /// Single-Interval strategy.
  std::function<Result<double>(double f)> qcost_sigma;
};

/// The plan for one stage.
struct StagePlan {
  double fraction = 0.0;  // 0 => stop: no affordable stage remains
  double predicted_seconds = 0.0;
  double d_beta_used = 0.0;
};

/// Strategy interface (paper §3.3): decide how much of the remaining quota
/// to commit to the next stage, trading per-stage overhead against the
/// risk of overspending.
class TimeControlStrategy {
 public:
  virtual ~TimeControlStrategy() = default;
  [[nodiscard]] virtual Result<StagePlan> PlanStage(const StagePlanContext& context) = 0;
  /// Feedback after the stage ran (used by the heuristic strategy).
  virtual void OnStageOutcome(double predicted_seconds,
                              double actual_seconds, bool overspent) {
    (void)predicted_seconds;
    (void)actual_seconds;
    (void)overspent;
  }
  virtual std::string_view name() const = 0;
};

/// One-at-a-Time-Interval strategy (§3.3.2, the paper's implementation
/// choice): each operator's selectivity is individually inflated to sel⁺
/// with parameter d_β, and the largest fraction with
/// QCOST(f, SEL⁺) ≈ Ti is taken.
class OneAtATimeStrategy : public TimeControlStrategy {
 public:
  struct Options {
    double d_beta = 12.0;
    /// §3.3.1's refinement: scale d_β by the share of quota left, taking
    /// higher risk (smaller margin) as time runs out.
    bool decay_with_time_left = false;
  };

  explicit OneAtATimeStrategy(Options options) : options_(options) {}
  OneAtATimeStrategy() : OneAtATimeStrategy(Options()) {}

  [[nodiscard]] Result<StagePlan> PlanStage(const StagePlanContext& context) override;
  std::string_view name() const override { return "one-at-a-time"; }

 private:
  Options options_;
};

/// Single-Interval strategy (§3.3.1): controls the risk of the query as a
/// whole by reserving d_α·sqrt(Var(QCOST)) of the remaining time:
/// solve μ(f) + d_α·σ(f) ≈ Ti.
class SingleIntervalStrategy : public TimeControlStrategy {
 public:
  struct Options {
    double d_alpha = 1.64;  // one-sided 95% under normality
  };

  explicit SingleIntervalStrategy(Options options) : options_(options) {}
  SingleIntervalStrategy() : SingleIntervalStrategy(Options()) {}

  [[nodiscard]] Result<StagePlan> PlanStage(const StagePlanContext& context) override;
  std::string_view name() const override { return "single-interval"; }

 private:
  Options options_;
};

/// Heuristic strategy (§3.3 mentions it; the paper defers details to its
/// tech report — see DESIGN.md): commit a share γ of the remaining time
/// each stage, starting at kInitialGamma, shrinking γ by kShrink after any
/// overspend and growing it by kGrow, up to kMaxGamma, after on-time
/// stages.
class HeuristicStrategy : public TimeControlStrategy {
 public:
  static constexpr double kInitialGamma = 0.5;
  static constexpr double kShrink = 0.7;
  static constexpr double kGrow = 1.05;
  static constexpr double kMaxGamma = 0.9;

  [[nodiscard]] Result<StagePlan> PlanStage(const StagePlanContext& context) override;
  void OnStageOutcome(double predicted_seconds, double actual_seconds,
                      bool overspent) override;
  std::string_view name() const override { return "heuristic"; }
  double gamma() const { return gamma_; }

 private:
  double gamma_ = kInitialGamma;
};

}  // namespace tcq

#endif  // TCQ_TIMECTRL_STRATEGY_H_
