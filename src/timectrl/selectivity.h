#ifndef TCQ_TIMECTRL_SELECTIVITY_H_
#define TCQ_TIMECTRL_SELECTIVITY_H_

#include <map>

#include "exec/staged.h"
#include "obs/obs.h"

namespace tcq {

/// Stage-1 defaults and knobs for the run-time selectivity estimation
/// (paper Figure 3.3 + §3.4).
struct SelectivityOptions {
  /// First-stage selectivity assumed for Select/Join: the paper's
  /// reference algorithm uses the maximum (1), as it does for Project;
  /// §5's join experiment overrides it to 0.1. Intersect's first-stage
  /// default is 1/max(|r1|, |r2|) (Figure 3.3).
  double initial_select = 1.0;
  double initial_join = 1.0;
  /// Confidence parameter of the zero-selectivity fix: after a stage with
  /// zero output tuples, use the (1−beta) upper confidence bound
  /// 1 − beta^(1/m) instead of 0 (§3.4; see DESIGN.md substitutions).
  double zero_hit_beta = 0.05;
  /// Prestored-selectivity mode (§3.1's alternative the paper rejects for
  /// generality): the initial selectivities are used at *every* stage and
  /// never revised from samples. For ablations: set the initial values to
  /// the true selectivities to simulate a perfectly maintained statistics
  /// store, or to wrong ones to show what staleness costs.
  bool freeze_initial = false;
};

/// Stage-1 default selectivity of one operator node (Figure 3.3).
/// Intersect normally defaults to 1/max(|r1|, |r2|); when neither side's
/// point space is known yet (`total_points` unset, e.g. a bare evaluator
/// built for planning probes) the historical code returned 1.0 — the
/// most pessimistic value — instead of the selection default. It now
/// falls back to `options.initial_select` and reports the event through
/// `intersect_fallback` (optional) so the obs-enabled revision path can
/// count it.
double InitialSelectivity(const StagedNode& node,
                          const SelectivityOptions& options,
                          bool* intersect_fallback = nullptr);

/// A warm-start prior sanitized for stage-0 planning: clamped to [0, 1]
/// and floored by the §3.4 zero-hit upper bound at the node's full point
/// space, ZeroHitUpperBound(total_points, zero_hit_beta). A cached prior
/// of exactly (or nearly) 0.0 would otherwise freeze sel⁺ at 0 — zero
/// inflation from zero variance — and guarantee overspending the moment
/// an output tuple appears; the floor is the tightest upper bound still
/// consistent with having seen zero hits over the whole space.
double SanitizedStagePrior(double prior, double total_points,
                           double zero_hit_beta);

/// Revise-Selectivities (Figure 3.3): returns sel^(i-1) for every non-scan
/// operator node id of `term`, from the cumulative samples of stages
/// 1..i−1, with the stage-1 defaults above and the zero-hit fix applied.
///
/// `stage0_priors` (optional) maps node ids to warm-start selectivity
/// priors from the session's cache: while a node has no cumulative
/// samples yet, its prior — routed through SanitizedStagePrior —
/// replaces the generic stage-1 default, so a repeated query plans its
/// first stage from the previous run's realized selectivity instead of
/// the maximally pessimistic 1.0. Priors only ever substitute for
/// *assumed* values — as soon as the node has sampled points, the
/// revision from samples wins, and `freeze_initial` (the prestored-
/// statistics ablation) ignores priors entirely.
///
/// `intersect_fallbacks` (optional) counts the nodes whose value came
/// from the InitialSelectivity intersect fallback above.
std::map<int, double> ReviseSelectivities(
    const StagedTermEvaluator& term, const SelectivityOptions& options,
    const std::map<int, double>* stage0_priors = nullptr,
    int* intersect_fallbacks = nullptr);

/// Same, additionally recording every revised value into the
/// `timectrl.selectivity` histogram and counting intersect-default
/// fallbacks in the `timectrl.intersect_fallback` counter. Call from the
/// engine's serial section only: the revised values are deterministic at
/// a fixed seed, so the histogram stays bit-identical across thread
/// counts.
std::map<int, double> ReviseSelectivities(
    const StagedTermEvaluator& term, const SelectivityOptions& options,
    const ObsHandle& obs,
    const std::map<int, double>* stage0_priors = nullptr);

/// Per-node point-space deltas for a candidate fraction `f` of the
/// term's next stage, in its current fulfillment mode: `new_points` the
/// stage would cover and `remaining_points` not yet covered (Figure 3.5's
/// m_i and N_i). Purely structural — does not depend on selectivities.
struct NodePoints {
  double new_points = 0.0;
  double remaining_points = 0.0;
};
std::map<int, NodePoints> PredictNodePoints(const StagedTermEvaluator& term,
                                            double f);

/// ComputeSel⁺ (Figure 3.5): inflates each operator's selectivity so that
/// P(sel⁺ ≥ realized stage selectivity) ≈ 1 − β, using the simple-random-
/// sampling variance approximation:
///   sel⁺ = sel^(i-1) + d_β · sqrt( sel(1−sel)(N_i−m_i) / (m_i(N_i−1)) )
/// clamped to [0, 1]. `sel_prev` comes from ReviseSelectivities; m_i/N_i
/// from PredictNodePoints at the candidate fraction `f`. A node whose
/// predicted m_i is 0 (an exhausted side under partial fulfillment) gets
/// no inflation: there is nothing to sample, so there is no stage
/// selectivity to overshoot.
///
/// `width_scales` (optional) holds per-node inflation-width multipliers
/// from the hybrid selectivity predictor (DESIGN.md §12): node id →
/// multiplier on d_β, so high-confidence predictions inflate less and
/// low-confidence ones more. With it, inflation also applies at stage 1 —
/// the predictor supplies a defensible variance basis where the flat path
/// has none (its "no samples yet" exemption) — using the SRS variance of
/// the predicted selectivity at the candidate fraction. Without it, every
/// node inflates by the flat d_β.
std::map<int, double> ComputeSelPlus(
    const StagedTermEvaluator& term, const std::map<int, double>& sel_prev,
    double f, double d_beta,
    const std::map<int, double>* width_scales = nullptr);

}  // namespace tcq

#endif  // TCQ_TIMECTRL_SELECTIVITY_H_
