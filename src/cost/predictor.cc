#include "cost/predictor.h"

#include <algorithm>

namespace tcq {

namespace {

/// Predicted sizes flowing out of a node for the candidate stage.
struct NodePrediction {
  double new_out = 0.0;            // new output tuples this stage
  double cum_out_before = 0.0;     // output tuples from previous stages
  double new_points = 0.0;         // newly covered points
  double cum_points_before = 0.0;  // previously covered points
};

Result<double> SelPlusFor(const std::map<int, double>& sel_plus, int id) {
  auto it = sel_plus.find(id);
  if (it == sel_plus.end()) {
    return Status::InvalidArgument("missing sel+ for operator node " +
                                   std::to_string(id));
  }
  return it->second;
}

Result<NodePrediction> Predict(const StagedNode& node, double f, int stage,
                               Fulfillment fulfillment,
                               const std::map<int, double>& sel_plus,
                               const AdaptiveCostModel& coefs,
                               double* seconds) {
  NodePrediction p;
  switch (node.kind) {
    case ExprKind::kScan: {
      int64_t total = node.rel->NumBlocks();
      int64_t want = BlocksForFraction(f, total);
      int64_t remaining = total - node.cum_blocks;
      int64_t d_new = std::min<int64_t>(want, remaining);
      p.new_out = static_cast<double>(d_new * node.rel->blocking_factor());
      p.cum_out_before = static_cast<double>(node.cum_tuples);
      p.new_points = p.new_out;
      p.cum_points_before = node.cum_points;
      // Fetch cost is priced once per relation by the engine, not per term.
      return p;
    }
    case ExprKind::kSelect: {
      TCQ_ASSIGN_OR_RETURN(
          NodePrediction c,
          Predict(*node.left, f, stage, fulfillment, sel_plus, coefs,
                  seconds));
      TCQ_ASSIGN_OR_RETURN(double sel, SelPlusFor(sel_plus, node.id));
      p.new_points = c.new_points;
      p.cum_points_before = c.cum_points_before;
      p.new_out = sel * c.new_out;
      p.cum_out_before = static_cast<double>(node.cum_tuples);
      *seconds += c.new_out * coefs.Coef(node.id, CostStep::kFilter) +
                  p.new_out * coefs.Coef(node.id, CostStep::kOutput) +
                  coefs.Coef(node.id, CostStep::kSetup);
      return p;
    }
    case ExprKind::kProject: {
      TCQ_ASSIGN_OR_RETURN(
          NodePrediction c,
          Predict(*node.left, f, stage, fulfillment, sel_plus, coefs,
                  seconds));
      TCQ_ASSIGN_OR_RETURN(double sel, SelPlusFor(sel_plus, node.id));
      p.new_points = c.new_points;
      p.cum_points_before = c.cum_points_before;
      double groups_after =
          sel * (c.cum_points_before + c.new_points);
      double groups_before = static_cast<double>(node.cum_tuples);
      p.new_out = std::max(0.0, groups_after - groups_before);
      p.cum_out_before = groups_before;
      double cum_projected = c.cum_out_before;  // previously merged tuples
      *seconds +=
          c.new_out * coefs.Coef(node.id, CostStep::kTempWrite) +
          SortCostUnits(c.new_out) * coefs.Coef(node.id, CostStep::kSort) +
          (cum_projected + c.new_out) *
              coefs.Coef(node.id, CostStep::kMerge) +
          groups_after * coefs.Coef(node.id, CostStep::kOutput) +
          coefs.Coef(node.id, CostStep::kSetup);
      return p;
    }
    case ExprKind::kJoin:
    case ExprKind::kIntersect: {
      TCQ_ASSIGN_OR_RETURN(
          NodePrediction l,
          Predict(*node.left, f, stage, fulfillment, sel_plus, coefs,
                  seconds));
      TCQ_ASSIGN_OR_RETURN(
          NodePrediction r,
          Predict(*node.right, f, stage, fulfillment, sel_plus, coefs,
                  seconds));
      TCQ_ASSIGN_OR_RETURN(double sel, SelPlusFor(sel_plus, node.id));
      const double s = static_cast<double>(stage);
      if (fulfillment == Fulfillment::kFull) {
        p.new_points =
            (l.cum_points_before + l.new_points) *
                (r.cum_points_before + r.new_points) -
            l.cum_points_before * r.cum_points_before;
      } else {
        p.new_points = l.new_points * r.new_points;
      }
      p.cum_points_before = node.cum_points;
      p.new_out = sel * p.new_points;
      p.cum_out_before = static_cast<double>(node.cum_tuples);

      double write_units = l.new_out + r.new_out;
      double sort_units = SortCostUnits(l.new_out) + SortCostUnits(r.new_out);
      double merge_units;
      if (fulfillment == Fulfillment::kFull) {
        // Pairs (s, j<=s) and (i<s, s): inputs read by the merges
        // (eq 4.4's N_{1,s-1} + N_{2,s-1} + s(n_{1s}+n_{2s}) shape).
        merge_units = (s + 1.0) * l.new_out +
                      (r.cum_out_before + r.new_out) + l.cum_out_before +
                      s * r.new_out;
      } else {
        merge_units = l.new_out + r.new_out;
      }
      *seconds += write_units * coefs.Coef(node.id, CostStep::kTempWrite) +
                  sort_units * coefs.Coef(node.id, CostStep::kSort) +
                  merge_units * coefs.Coef(node.id, CostStep::kMerge) +
                  p.new_out * coefs.Coef(node.id, CostStep::kOutput) +
                  coefs.Coef(node.id, CostStep::kSetup);
      return p;
    }
    case ExprKind::kUnion:
    case ExprKind::kDifference:
      return Status::Internal("set op in staged term prediction");
  }
  return Status::Internal("unknown node kind");
}

}  // namespace

Result<TermStagePrediction> PredictTermStageCost(
    const StagedTermEvaluator& term, double f,
    const std::map<int, double>& sel_plus, const AdaptiveCostModel& coefs) {
  TermStagePrediction out;
  TCQ_ASSIGN_OR_RETURN(
      NodePrediction root,
      Predict(term.root(), f, term.num_stages(), term.fulfillment(),
              sel_plus, coefs, &out.seconds));
  out.new_points = root.new_points;
  out.new_tuples = root.new_out;
  return out;
}

void ObserveTermStage(const StagedTermEvaluator& term,
                      AdaptiveCostModel* coefs) {
  for (const StagedNode* node : term.NodesPreOrder()) {
    if (node->stages.empty()) continue;
    const NodeStageRecord& rec = node->stages.back();
    switch (node->kind) {
      case ExprKind::kScan:
        break;  // fetches observed by the engine under kGlobalCostNode
      case ExprKind::kSelect:
        coefs->Observe(node->id, CostStep::kFilter,
                       static_cast<double>(rec.process.in_tuples),
                       rec.process.seconds);
        coefs->Observe(node->id, CostStep::kOutput,
                       static_cast<double>(rec.output.out_tuples),
                       rec.output.seconds);
        break;
      case ExprKind::kProject:
      case ExprKind::kJoin:
      case ExprKind::kIntersect:
        coefs->Observe(node->id, CostStep::kTempWrite,
                       static_cast<double>(rec.write.out_tuples),
                       rec.write.seconds);
        coefs->Observe(node->id, CostStep::kSort, rec.sort_units,
                       rec.sort.seconds);
        coefs->Observe(node->id, CostStep::kMerge,
                       static_cast<double>(rec.process.in_tuples),
                       rec.process.seconds);
        coefs->Observe(node->id, CostStep::kOutput,
                       static_cast<double>(rec.output.out_tuples),
                       rec.output.seconds);
        break;
      case ExprKind::kUnion:
      case ExprKind::kDifference:
        break;
    }
  }
}

}  // namespace tcq
