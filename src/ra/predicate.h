#ifndef TCQ_RA_PREDICATE_H_
#define TCQ_RA_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/check.h"
#include "util/result.h"
#include "util/status.h"

namespace tcq {

/// Comparison operators of the selection formula mini-language.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpSymbol(CompareOp op);

struct Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// Node of a selection formula: comparisons of a column against a literal
/// or another column, combined with AND / OR / NOT. Columns are referenced
/// by name and resolved against a schema via `BoundPredicate::Bind`.
struct Predicate {
  enum class Kind { kCompareLiteral, kCompareColumns, kAnd, kOr, kNot };

  Kind kind = Kind::kCompareLiteral;
  // kCompareLiteral: `column op literal`. kCompareColumns: `column op rhs_column`.
  std::string column;
  std::string rhs_column;
  CompareOp op = CompareOp::kEq;
  Value literal = int64_t{0};
  // kAnd / kOr use left+right; kNot uses left.
  PredicatePtr left;
  PredicatePtr right;

  std::string ToString() const;

 private:
  // Accumulator-style "(left <op> right)"; the equivalent operator+ chain
  // trips GCC 12's -Wrestrict false positive (PR 105329) at -O2.
  std::string BinaryToString(std::string_view op) const;
};

/// Structural equality of predicate trees.
bool PredicateEquals(const PredicatePtr& a, const PredicatePtr& b);

/// Factories.
PredicatePtr CmpLiteral(std::string column, CompareOp op, Value literal);
PredicatePtr CmpColumns(std::string column, CompareOp op,
                        std::string rhs_column);
PredicatePtr And(PredicatePtr l, PredicatePtr r);
PredicatePtr Or(PredicatePtr l, PredicatePtr r);
PredicatePtr Not(PredicatePtr p);

/// Applies a comparison operator to a three-way comparison result (only
/// its sign matters).
inline bool ApplyOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// A predicate resolved against a concrete schema: column names replaced by
/// positions, type-checked once, then evaluated per tuple with no lookups.
/// Each comparison leaf is bound to its column type, so `Eval` compares the
/// int64, double or string alternatives directly, inline, with the same
/// outcome as `ApplyOp(op, CompareValues(lhs, rhs))`.
class BoundPredicate {
 public:
  [[nodiscard]] static Result<BoundPredicate> Bind(const PredicatePtr& predicate,
                                     const Schema& schema);

  /// Evaluates the formula on `tuple` (which must match the bound schema).
  /// AND and OR short-circuit left to right.
  bool Eval(const Tuple& tuple) const { return EvalNode(0, tuple); }

  /// Number of comparison leaves — the paper's cost formulas charge per
  /// comparison in the selection formula.
  int num_comparisons() const { return num_comparisons_; }

  /// The column of the leaf `Eval` reads first (the leftmost leaf's
  /// left-hand column): the cell a scan over many tuples prefetches.
  int first_column() const { return first_column_; }

 private:
  /// What a node computes: a typed comparison leaf against a literal or a
  /// second column, or a connective.
  enum class Code : uint8_t {
    kInt64Literal,
    kDoubleLiteral,
    kStringLiteral,
    kInt64Columns,
    kDoubleColumns,
    kStringColumns,
    kAnd,
    kOr,
    kNot,
  };

  struct Node {
    Code code = Code::kInt64Literal;
    CompareOp op = CompareOp::kEq;
    int lhs_index = -1;
    int rhs_index = -1;  // column comparison only
    int64_t int64_literal = 0;
    double double_literal = 0.0;
    std::string string_literal;
    int left = -1;  // child node indices
    int right = -1;
  };

  /// The `T` alternative of a tuple cell; Bind checked the column type.
  template <typename T>
  static const T& Cell(const Tuple& tuple, int index) {
    const T* v = std::get_if<T>(&tuple[static_cast<size_t>(index)]);
    TCQ_DCHECK(v != nullptr, "tuple does not match the bound schema");
    return *v;
  }

  bool EvalNode(int index, const Tuple& tuple) const {
    const Node& n = nodes_[static_cast<size_t>(index)];
    switch (n.code) {
      case Code::kInt64Literal:
        return ApplyOp(n.op, Compare3(Cell<int64_t>(tuple, n.lhs_index),
                                      n.int64_literal));
      case Code::kDoubleLiteral:
        return ApplyOp(n.op, Compare3(Cell<double>(tuple, n.lhs_index),
                                      n.double_literal));
      case Code::kStringLiteral:
        return ApplyOp(n.op, Compare3(Cell<std::string>(tuple, n.lhs_index),
                                      n.string_literal));
      case Code::kInt64Columns:
        return ApplyOp(n.op, Compare3(Cell<int64_t>(tuple, n.lhs_index),
                                      Cell<int64_t>(tuple, n.rhs_index)));
      case Code::kDoubleColumns:
        return ApplyOp(n.op, Compare3(Cell<double>(tuple, n.lhs_index),
                                      Cell<double>(tuple, n.rhs_index)));
      case Code::kStringColumns:
        return ApplyOp(n.op,
                       Compare3(Cell<std::string>(tuple, n.lhs_index),
                                Cell<std::string>(tuple, n.rhs_index)));
      case Code::kAnd:
        return EvalNode(n.left, tuple) && EvalNode(n.right, tuple);
      case Code::kOr:
        return EvalNode(n.left, tuple) || EvalNode(n.right, tuple);
      case Code::kNot:
        return !EvalNode(n.left, tuple);
    }
    return false;
  }

  [[nodiscard]] Status Build(const Predicate& p, const Schema& schema, int* out_index);

  std::vector<Node> nodes_;
  int num_comparisons_ = 0;
  int first_column_ = 0;
};

}  // namespace tcq

#endif  // TCQ_RA_PREDICATE_H_
