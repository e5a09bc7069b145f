#include "timectrl/selectivity.h"

#include <algorithm>
#include <cmath>

#include "cost/adaptive_model.h"
#include "util/stats.h"

namespace tcq {

double InitialSelectivity(const StagedNode& node,
                          const SelectivityOptions& options,
                          bool* intersect_fallback) {
  if (intersect_fallback != nullptr) *intersect_fallback = false;
  switch (node.kind) {
    case ExprKind::kSelect:
      return options.initial_select;
    case ExprKind::kProject:
      return 1.0;
    case ExprKind::kJoin:
      return options.initial_join;
    case ExprKind::kIntersect: {
      // Figure 3.3: sel = 1 / maximum(|r1|, |r2|).
      double max_side = std::max(node.left->total_points,
                                 node.right->total_points);
      if (max_side <= 0.0) {
        // Neither side's point space is known (total_points unset):
        // 1/max is undefined. The historical 1.0 here was the most
        // pessimistic possible default; fall back to the selection
        // default instead and let callers count the event.
        if (intersect_fallback != nullptr) *intersect_fallback = true;
        return options.initial_select;
      }
      return std::min(1.0, 1.0 / max_side);
    }
    default:
      return 1.0;
  }
}

double SanitizedStagePrior(double prior, double total_points,
                           double zero_hit_beta) {
  double p = std::clamp(prior, 0.0, 1.0);
  int64_t m = static_cast<int64_t>(total_points);
  if (m < 1) m = 1;
  // §3.4 fix, applied to cached priors: a recorded selectivity of (or
  // near) zero means the previous run saw zero hits — the honest stage-0
  // plan uses the (1−β) upper confidence bound of a zero-hit sample over
  // the node's full point space, never a hard 0 that would freeze sel⁺.
  return std::max(p, ZeroHitUpperBound(m, zero_hit_beta));
}

namespace {

struct PointsWalk {
  double new_points = 0.0;
  double cum_before = 0.0;
};

PointsWalk WalkPoints(const StagedNode& node, double f,
                      Fulfillment fulfillment,
                      std::map<int, NodePoints>* out) {
  PointsWalk p;
  switch (node.kind) {
    case ExprKind::kScan: {
      int64_t total = node.rel->NumBlocks();
      int64_t d_new = std::min<int64_t>(BlocksForFraction(f, total),
                                        total - node.cum_blocks);
      p.new_points =
          static_cast<double>(d_new * node.rel->blocking_factor());
      p.cum_before = node.cum_points;
      break;
    }
    case ExprKind::kSelect:
    case ExprKind::kProject: {
      p = WalkPoints(*node.left, f, fulfillment, out);
      break;
    }
    case ExprKind::kJoin:
    case ExprKind::kIntersect: {
      PointsWalk l = WalkPoints(*node.left, f, fulfillment, out);
      PointsWalk r = WalkPoints(*node.right, f, fulfillment, out);
      if (fulfillment == Fulfillment::kFull) {
        p.new_points = (l.cum_before + l.new_points) *
                           (r.cum_before + r.new_points) -
                       l.cum_before * r.cum_before;
      } else {
        p.new_points = l.new_points * r.new_points;
      }
      p.cum_before = node.cum_points;
      break;
    }
    case ExprKind::kUnion:
    case ExprKind::kDifference:
      break;  // never present in staged terms
  }
  if (node.kind != ExprKind::kScan) {
    NodePoints np;
    np.new_points = p.new_points;
    np.remaining_points = std::max(0.0, node.total_points - node.cum_points);
    (*out)[node.id] = np;
  }
  return p;
}

}  // namespace

std::map<int, double> ReviseSelectivities(
    const StagedTermEvaluator& term, const SelectivityOptions& options,
    const std::map<int, double>* stage0_priors,
    int* intersect_fallbacks) {
  std::map<int, double> out;
  for (const StagedNode* node : term.NodesPreOrder()) {
    if (node->kind == ExprKind::kScan) continue;
    if (options.freeze_initial || term.num_stages() == 0 ||
        node->cum_points <= 0.0) {
      bool fell_back = false;
      double sel = InitialSelectivity(*node, options, &fell_back);
      if (!options.freeze_initial && stage0_priors != nullptr) {
        auto it = stage0_priors->find(node->id);
        if (it != stage0_priors->end()) {
          sel = SanitizedStagePrior(it->second, node->total_points,
                                    options.zero_hit_beta);
          fell_back = false;  // the prior, not the default, was used
        }
      }
      if (fell_back && intersect_fallbacks != nullptr) {
        ++*intersect_fallbacks;
      }
      out[node->id] = sel;
      continue;
    }
    if (node->cum_tuples == 0) {
      // §3.4: all sampled points were 0 — a zero selectivity (with zero
      // estimated variance) would freeze sel⁺ at 0 and guarantee
      // overspending once an output tuple finally appears. Use the closed
      // upper confidence bound instead.
      int64_t m = static_cast<int64_t>(node->cum_points);
      if (m < 1) m = 1;
      out[node->id] = ZeroHitUpperBound(m, options.zero_hit_beta);
      continue;
    }
    out[node->id] =
        static_cast<double>(node->cum_tuples) / node->cum_points;
  }
  return out;
}

std::map<int, NodePoints> PredictNodePoints(const StagedTermEvaluator& term,
                                            double f) {
  std::map<int, NodePoints> out;
  WalkPoints(term.root(), f, term.fulfillment(), &out);
  return out;
}

std::map<int, double> ComputeSelPlus(
    const StagedTermEvaluator& term, const std::map<int, double>& sel_prev,
    double f, double d_beta, const std::map<int, double>* width_scales) {
  std::map<int, NodePoints> points = PredictNodePoints(term, f);
  std::map<int, double> out;
  // At stage 1 no samples exist, so there is no variation to estimate
  // Var(sel) from (Figure 3.5 uses "the variation among previously
  // sampled units"); the assumed initial selectivity is used as is —
  // unless the predictor supplied widths, in which case its selectivity
  // (at the candidate fraction's predicted points) is the variance
  // basis even at stage 1.
  const bool can_inflate = width_scales != nullptr || term.num_stages() > 0;
  for (const auto& [id, sel] : sel_prev) {
    double inflated = sel;
    auto it = points.find(id);
    if (can_inflate && d_beta > 0.0 && it != points.end()) {
      double m = it->second.new_points;
      double remaining = it->second.remaining_points;
      // m can be 0 for an exhausted side under partial fulfillment:
      // nothing will be sampled there, so there is no stage selectivity
      // to overshoot and inflating from a 0-sample variance is
      // meaningless.
      if (m > 0.0) {
        double width = 1.0;
        if (width_scales != nullptr) {
          auto w = width_scales->find(id);
          if (w != width_scales->end()) width = w->second;
        }
        double var = SrsProportionVariance(sel, remaining, m);
        inflated = sel + d_beta * width * std::sqrt(var);
      }
    }
    out[id] = std::clamp(inflated, 0.0, 1.0);
  }
  return out;
}

std::map<int, double> ReviseSelectivities(
    const StagedTermEvaluator& term, const SelectivityOptions& options,
    const ObsHandle& obs, const std::map<int, double>* stage0_priors) {
  int intersect_fallbacks = 0;
  std::map<int, double> revised =
      ReviseSelectivities(term, options, stage0_priors, &intersect_fallbacks);
  if (obs.metering()) {
    Histogram* h = obs.metrics->histogram("timectrl.selectivity");
    for (const auto& [id, sel] : revised) {
      (void)id;
      h->Record(sel);
    }
    if (intersect_fallbacks > 0) {
      obs.metrics->counter("timectrl.intersect_fallback")
          ->Add(intersect_fallbacks);
    }
  }
  return revised;
}

}  // namespace tcq
