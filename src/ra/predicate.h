#ifndef TCQ_RA_PREDICATE_H_
#define TCQ_RA_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
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

/// A predicate resolved against a concrete schema: column names replaced by
/// positions, type-checked once, then evaluated per tuple with no lookups.
class BoundPredicate {
 public:
  [[nodiscard]] static Result<BoundPredicate> Bind(const PredicatePtr& predicate,
                                     const Schema& schema);

  /// Evaluates the formula on `tuple` (which must match the bound schema).
  bool Eval(const Tuple& tuple) const { return EvalNode(0, tuple); }

  /// Number of comparison leaves — the paper's cost formulas charge per
  /// comparison in the selection formula.
  int num_comparisons() const { return num_comparisons_; }

 private:
  struct Node {
    Predicate::Kind kind;
    int lhs_index = -1;
    int rhs_index = -1;  // column comparison only
    CompareOp op = CompareOp::kEq;
    Value literal = int64_t{0};
    int left = -1;   // child node indices
    int right = -1;
  };

  bool EvalNode(int node, const Tuple& tuple) const;
  [[nodiscard]] Status Build(const Predicate& p, const Schema& schema, int* out_index);

  std::vector<Node> nodes_;
  int num_comparisons_ = 0;
};

}  // namespace tcq

#endif  // TCQ_RA_PREDICATE_H_
