#ifndef TCQ_EXEC_EXACT_H_
#define TCQ_EXEC_EXACT_H_

#include <cstdint>

#include "exec/tuple_set.h"
#include "ra/expr.h"
#include "storage/relation.h"
#include "util/result.h"

namespace tcq {

/// Fully evaluates `expr` against `catalog` with classical set-semantics
/// relational algebra (Union/Intersect/Difference/Project outputs are
/// duplicate-free; Select and Join preserve input multiplicity).
///
/// This is the ground-truth evaluator: tests and benches compare the
/// sampling estimator against `ExactCount`. It deliberately performs no
/// cost accounting. It evaluates over row handles into the catalog's
/// blocks, creating cells only for join and projection outputs, and
/// copies rows into tuples only for the TupleSet it returns: ExactCount,
/// ExactSum and ExactAvg materialize no tuple at all.
[[nodiscard]] Result<TupleSet> EvaluateExact(const ExprPtr& expr, const Catalog& catalog);

/// COUNT(E) under the same semantics.
[[nodiscard]] Result<int64_t> ExactCount(const ExprPtr& expr, const Catalog& catalog);

/// SUM(E.column) over the exact output (column must be numeric).
[[nodiscard]] Result<double> ExactSum(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog);

/// AVG(E.column) over the exact output; InvalidArgument when empty.
[[nodiscard]] Result<double> ExactAvg(const ExprPtr& expr, const std::string& column,
                        const Catalog& catalog);

}  // namespace tcq

#endif  // TCQ_EXEC_EXACT_H_
