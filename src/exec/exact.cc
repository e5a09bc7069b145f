#include "exec/exact.h"

#include <algorithm>

#include "exec/operators.h"

namespace tcq {

namespace {

void SortAll(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
}

void DedupAll(std::vector<Tuple>* tuples) {
  tuples->erase(std::unique(tuples->begin(), tuples->end(),
                            [](const Tuple& a, const Tuple& b) {
                              return CompareTuples(a, b) == 0;
                            }),
                tuples->end());
}

}  // namespace

Result<TupleSet> EvaluateExact(const ExprPtr& expr, const Catalog& catalog) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  switch (expr->kind) {
    case ExprKind::kScan: {
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(expr->relation));
      TupleSet out;
      out.schema = rel->schema();
      out.tuples.reserve(static_cast<size_t>(rel->NumTuples()));
      for (int64_t b = 0; b < rel->NumBlocks(); ++b) {
        BlockView view = rel->ViewBlock(b);
        out.tuples.insert(out.tuples.end(), view.rows().begin(),
                          view.rows().end());
      }
      return out;
    }
    case ExprKind::kSelect: {
      TCQ_ASSIGN_OR_RETURN(TupleSet child,
                           EvaluateExact(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(
          BoundPredicate bound,
          BoundPredicate::Bind(expr->predicate, child.schema));
      TupleSet out;
      out.schema = child.schema;
      for (Tuple& t : child.tuples) {
        if (bound.Eval(t)) out.tuples.push_back(std::move(t));
      }
      return out;
    }
    case ExprKind::kProject: {
      TCQ_ASSIGN_OR_RETURN(TupleSet child,
                           EvaluateExact(expr->left, catalog));
      std::vector<int> indices;
      for (const std::string& name : expr->columns) {
        TCQ_ASSIGN_OR_RETURN(int idx, child.schema.IndexOf(name));
        indices.push_back(idx);
      }
      TupleSet out;
      out.schema = child.schema.SelectColumns(indices);
      out.tuples.reserve(child.tuples.size());
      for (const Tuple& t : child.tuples) {
        Tuple projected;
        projected.reserve(indices.size());
        for (int c : indices) projected.push_back(t[static_cast<size_t>(c)]);
        out.tuples.push_back(std::move(projected));
      }
      SortAll(&out.tuples);
      DedupAll(&out.tuples);
      return out;
    }
    case ExprKind::kJoin: {
      TCQ_ASSIGN_OR_RETURN(TupleSet l, EvaluateExact(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(TupleSet r, EvaluateExact(expr->right, catalog));
      std::vector<int> lkey, rkey;
      for (const auto& [lname, rname] : expr->join_keys) {
        TCQ_ASSIGN_OR_RETURN(int li, l.schema.IndexOf(lname));
        TCQ_ASSIGN_OR_RETURN(int ri, r.schema.IndexOf(rname));
        lkey.push_back(li);
        rkey.push_back(ri);
      }
      TupleRefs lrefs = RefsOf(l.tuples);
      TupleRefs rrefs = RefsOf(r.tuples);
      KeyPrefixes lprefixes, rprefixes;
      int64_t comparisons = 0;  // uncharged: no ledger
      SortRunRange(&lrefs, lkey, &comparisons, &lprefixes);
      SortRunRange(&rrefs, rkey, &comparisons, &rprefixes);
      TupleSet out;
      out.schema = l.schema.ConcatForJoin(r.schema);
      MergeJoinRange(lrefs, lprefixes, lkey, rrefs, rprefixes, rkey,
                     &out.tuples, &comparisons);
      return out;
    }
    case ExprKind::kIntersect:
    case ExprKind::kUnion:
    case ExprKind::kDifference: {
      TCQ_ASSIGN_OR_RETURN(TupleSet l, EvaluateExact(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(TupleSet r, EvaluateExact(expr->right, catalog));
      if (!l.schema.CompatibleWith(r.schema)) {
        return Status::InvalidArgument("set operands incompatible");
      }
      SortAll(&l.tuples);
      DedupAll(&l.tuples);
      SortAll(&r.tuples);
      DedupAll(&r.tuples);
      TupleSet out;
      out.schema = l.schema;
      if (expr->kind == ExprKind::kUnion) {
        std::merge(
            l.tuples.begin(), l.tuples.end(), r.tuples.begin(),
            r.tuples.end(), std::back_inserter(out.tuples),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
        DedupAll(&out.tuples);
      } else if (expr->kind == ExprKind::kIntersect) {
        std::set_intersection(
            l.tuples.begin(), l.tuples.end(), r.tuples.begin(),
            r.tuples.end(), std::back_inserter(out.tuples),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
      } else {
        std::set_difference(
            l.tuples.begin(), l.tuples.end(), r.tuples.begin(),
            r.tuples.end(), std::back_inserter(out.tuples),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
      }
      return out;
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<int64_t> ExactCount(const ExprPtr& expr, const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(TupleSet result, EvaluateExact(expr, catalog));
  return result.size();
}

Result<double> ExactSum(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(TupleSet result, EvaluateExact(expr, catalog));
  TCQ_ASSIGN_OR_RETURN(int col, result.schema.IndexOf(column));
  if (result.schema.column(col).type == DataType::kString) {
    return Status::InvalidArgument("SUM column must be numeric");
  }
  double sum = 0.0;
  for (const Tuple& t : result.tuples) {
    const Value& v = t[static_cast<size_t>(col)];
    sum += v.index() == 0 ? static_cast<double>(std::get<int64_t>(v))
                          : std::get<double>(v);
  }
  return sum;
}

Result<double> ExactAvg(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(TupleSet result, EvaluateExact(expr, catalog));
  if (result.tuples.empty()) {
    return Status::InvalidArgument("AVG over an empty result");
  }
  TCQ_ASSIGN_OR_RETURN(int col, result.schema.IndexOf(column));
  if (result.schema.column(col).type == DataType::kString) {
    return Status::InvalidArgument("AVG column must be numeric");
  }
  double sum = 0.0;
  for (const Tuple& t : result.tuples) {
    const Value& v = t[static_cast<size_t>(col)];
    sum += v.index() == 0 ? static_cast<double>(std::get<int64_t>(v))
                          : std::get<double>(v);
  }
  return sum / static_cast<double>(result.tuples.size());
}

}  // namespace tcq
