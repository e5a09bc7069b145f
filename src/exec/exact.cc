#include "exec/exact.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "exec/operators.h"

namespace tcq {

namespace {

/// An exact intermediate result: the handles of its rows, which live in
/// the catalog's blocks or in cells this result owns. A join or projection
/// creates its rows' cells; every other operator forwards handles (and the
/// ownership of its inputs' cells). The oracle thus copies no row it does
/// not create, and materializes tuples only at the EvaluateExact edge.
struct RowSet {
  Schema schema;
  Rows rows;
  std::vector<std::vector<Cell>> owned;
};

/// Three-way comparison of two rows on `key`.
int CompareRows(Row a, Row b, const Key& key) {
  for (const KeyColumn& k : key) {
    const auto c = static_cast<size_t>(k.column);
    int cmp = CompareCells(a[c], b[c], k.type);
    if (cmp != 0) return cmp;
  }
  return 0;
}

/// Sorts the rows on all columns and drops duplicates.
void SortDistinct(RowSet* set) {
  const Key all = AllColumns(set->schema);
  std::sort(set->rows.begin(), set->rows.end(), [&all](Row a, Row b) {
    return CompareRows(a, b, all) < 0;
  });
  set->rows.erase(std::unique(set->rows.begin(), set->rows.end(),
                              [&all](Row a, Row b) {
                                return CompareRows(a, b, all) == 0;
                              }),
                  set->rows.end());
}

/// Takes over the cells `from` owns, keeping every handle into them valid
/// (moving a vector keeps its buffer).
void AdoptCells(RowSet* from, RowSet* to) {
  for (std::vector<Cell>& cells : from->owned) {
    to->owned.push_back(std::move(cells));
  }
}

/// The rows of `cells`, `arity` cells each, owned by `set`.
void OwnRows(std::vector<Cell> cells, size_t arity, RowSet* set) {
  const std::vector<Cell>& stored = set->owned.emplace_back(std::move(cells));
  const RowRange rows(stored.data(), arity, stored.size() / arity);
  set->rows.insert(set->rows.end(), rows.begin(), rows.end());
}

Result<RowSet> Evaluate(const ExprPtr& expr, const Catalog& catalog) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  switch (expr->kind) {
    case ExprKind::kScan: {
      TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(expr->relation));
      RowSet out;
      out.schema = rel->schema();
      out.rows.reserve(static_cast<size_t>(rel->NumTuples()));
      for (int64_t b = 0; b < rel->NumBlocks(); ++b) {
        const RowRange rows = rel->ViewBlock(b).rows();
        out.rows.insert(out.rows.end(), rows.begin(), rows.end());
      }
      return out;
    }
    case ExprKind::kSelect: {
      TCQ_ASSIGN_OR_RETURN(RowSet child, Evaluate(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(
          BoundPredicate bound,
          BoundPredicate::Bind(expr->predicate, child.schema));
      RowSet out;
      out.schema = child.schema;
      for (Row row : child.rows) {
        if (bound.Eval(row)) out.rows.push_back(row);
      }
      AdoptCells(&child, &out);
      return out;
    }
    case ExprKind::kProject: {
      TCQ_ASSIGN_OR_RETURN(RowSet child, Evaluate(expr->left, catalog));
      std::vector<int> indices;
      for (const std::string& name : expr->columns) {
        TCQ_ASSIGN_OR_RETURN(int idx, child.schema.IndexOf(name));
        indices.push_back(idx);
      }
      RowSet out;
      out.schema = child.schema.SelectColumns(indices);
      OwnRows(ProjectColumns(child.rows, indices, nullptr, CostModel{},
                             nullptr),
              indices.size(), &out);
      SortDistinct(&out);
      return out;
    }
    case ExprKind::kJoin: {
      TCQ_ASSIGN_OR_RETURN(RowSet l, Evaluate(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(RowSet r, Evaluate(expr->right, catalog));
      Key lkey, rkey;
      TCQ_RETURN_NOT_OK(
          BindJoinKeys(expr->join_keys, l.schema, r.schema, &lkey, &rkey));
      KeyedRun lrun(l.rows.size()), rrun(r.rows.size());
      int64_t comparisons = 0;  // uncharged: no ledger
      SortRunRange(l.rows, lkey, &lrun, &comparisons);
      SortRunRange(r.rows, rkey, &rrun, &comparisons);
      JoinedCells joined;
      joined.left_arity = static_cast<size_t>(l.schema.num_columns());
      joined.right_arity = static_cast<size_t>(r.schema.num_columns());
      MergeJoinRange(lrun, lkey, rrun, rkey, &joined, &comparisons);
      RowSet out;
      out.schema = l.schema.ConcatForJoin(r.schema);
      OwnRows(std::move(joined.cells), joined.arity(), &out);
      return out;
    }
    case ExprKind::kIntersect:
    case ExprKind::kUnion:
    case ExprKind::kDifference: {
      TCQ_ASSIGN_OR_RETURN(RowSet l, Evaluate(expr->left, catalog));
      TCQ_ASSIGN_OR_RETURN(RowSet r, Evaluate(expr->right, catalog));
      if (!l.schema.CompatibleWith(r.schema)) {
        return Status::InvalidArgument("set operands incompatible");
      }
      SortDistinct(&l);
      SortDistinct(&r);
      RowSet out;
      out.schema = l.schema;
      const Key all = AllColumns(l.schema);
      auto less = [&all](Row a, Row b) { return CompareRows(a, b, all) < 0; };
      auto into = std::back_inserter(out.rows);
      if (expr->kind == ExprKind::kUnion) {
        std::set_union(l.rows.begin(), l.rows.end(), r.rows.begin(),
                       r.rows.end(), into, less);
      } else if (expr->kind == ExprKind::kIntersect) {
        std::set_intersection(l.rows.begin(), l.rows.end(), r.rows.begin(),
                              r.rows.end(), into, less);
      } else {
        std::set_difference(l.rows.begin(), l.rows.end(), r.rows.begin(),
                            r.rows.end(), into, less);
      }
      AdoptCells(&l, &out);
      AdoptCells(&r, &out);
      return out;
    }
  }
  return Status::Internal("unknown expression kind");
}

/// Σ of the numeric `column` over the exact output `result`.
Result<double> SumColumn(const RowSet& result, const std::string& column,
                         const char* aggregate) {
  TCQ_ASSIGN_OR_RETURN(int col, result.schema.IndexOf(column));
  const DataType type = result.schema.column(col).type;
  if (type == DataType::kString) {
    return Status::InvalidArgument(std::string(aggregate) +
                                   " column must be numeric");
  }
  double sum = 0.0;
  for (Row row : result.rows) {
    sum += CellNumber(row[static_cast<size_t>(col)], type);
  }
  return sum;
}

}  // namespace

Result<TupleSet> EvaluateExact(const ExprPtr& expr, const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(RowSet result, Evaluate(expr, catalog));
  TupleSet out;
  out.schema = result.schema;
  out.tuples.reserve(result.rows.size());
  for (Row row : result.rows) {
    out.tuples.push_back(ToTuple(row, result.schema));
  }
  return out;
}

Result<int64_t> ExactCount(const ExprPtr& expr, const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(RowSet result, Evaluate(expr, catalog));
  return static_cast<int64_t>(result.rows.size());
}

Result<double> ExactSum(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(RowSet result, Evaluate(expr, catalog));
  return SumColumn(result, column, "SUM");
}

Result<double> ExactAvg(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog) {
  TCQ_ASSIGN_OR_RETURN(RowSet result, Evaluate(expr, catalog));
  if (result.rows.empty()) {
    return Status::InvalidArgument("AVG over an empty result");
  }
  TCQ_ASSIGN_OR_RETURN(double sum, SumColumn(result, column, "AVG"));
  return sum / static_cast<double>(result.rows.size());
}

}  // namespace tcq
