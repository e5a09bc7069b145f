#include "ra/predicate.h"

#include <span>
#include <string_view>
#include <variant>

#include "storage/relation.h"

namespace tcq {

std::string_view CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Predicate::BinaryToString(std::string_view op) const {
  std::string out = "(";
  out += left->ToString();
  out += op;
  out += right->ToString();
  out += ")";
  return out;
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kCompareLiteral:
      return column + " " + std::string(CompareOpSymbol(op)) + " " +
             ValueToString(literal);
    case Kind::kCompareColumns:
      return column + " " + std::string(CompareOpSymbol(op)) + " " +
             rhs_column;
    case Kind::kAnd:
      return BinaryToString(" AND ");
    case Kind::kOr:
      return BinaryToString(" OR ");
    case Kind::kNot:
      return "NOT (" + left->ToString() + ")";
  }
  return "?";
}

bool PredicateEquals(const PredicatePtr& a, const PredicatePtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Predicate::Kind::kCompareLiteral:
      return a->column == b->column && a->op == b->op &&
             a->literal == b->literal;
    case Predicate::Kind::kCompareColumns:
      return a->column == b->column && a->op == b->op &&
             a->rhs_column == b->rhs_column;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return PredicateEquals(a->left, b->left) &&
             PredicateEquals(a->right, b->right);
    case Predicate::Kind::kNot:
      return PredicateEquals(a->left, b->left);
  }
  return false;
}

PredicatePtr CmpLiteral(std::string column, CompareOp op, Value literal) {
  auto p = std::make_shared<Predicate>();
  p->kind = Predicate::Kind::kCompareLiteral;
  p->column = std::move(column);
  p->op = op;
  p->literal = std::move(literal);
  return p;
}

PredicatePtr CmpColumns(std::string column, CompareOp op,
                        std::string rhs_column) {
  auto p = std::make_shared<Predicate>();
  p->kind = Predicate::Kind::kCompareColumns;
  p->column = std::move(column);
  p->op = op;
  p->rhs_column = std::move(rhs_column);
  return p;
}

namespace {
PredicatePtr Binary(Predicate::Kind kind, PredicatePtr l, PredicatePtr r) {
  auto p = std::make_shared<Predicate>();
  p->kind = kind;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}
}  // namespace

PredicatePtr And(PredicatePtr l, PredicatePtr r) {
  return Binary(Predicate::Kind::kAnd, std::move(l), std::move(r));
}

PredicatePtr Or(PredicatePtr l, PredicatePtr r) {
  return Binary(Predicate::Kind::kOr, std::move(l), std::move(r));
}

PredicatePtr Not(PredicatePtr p) {
  auto n = std::make_shared<Predicate>();
  n->kind = Predicate::Kind::kNot;
  n->left = std::move(p);
  return n;
}

bool BoundPredicate::Eval(const Tuple& tuple) const {
  const Block cells = Block::Of(std::span<const Tuple>(&tuple, 1));
  return Eval(Row(cells.cells()));
}

Result<BoundPredicate> BoundPredicate::Bind(const PredicatePtr& predicate,
                                            const Schema& schema) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null predicate");
  }
  BoundPredicate bound;
  int root = -1;
  TCQ_RETURN_NOT_OK(bound.Build(*predicate, schema, &root));
  // Build appends depth-first with the root placed at index 0 by
  // construction order below; assert that holds.
  if (root != 0) {
    return Status::Internal("predicate root not at index 0");
  }
  const Node* first = &bound.nodes_[0];
  while (first->left >= 0) {
    first = &bound.nodes_[static_cast<size_t>(first->left)];
  }
  bound.first_column_ = first->lhs_index;
  return bound;
}

Status BoundPredicate::Build(const Predicate& p, const Schema& schema,
                             int* out_index) {
  int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  *out_index = index;

  switch (p.kind) {
    case Predicate::Kind::kCompareLiteral: {
      TCQ_ASSIGN_OR_RETURN(int lhs, schema.IndexOf(p.column));
      if (schema.column(lhs).type != ValueType(p.literal)) {
        return Status::InvalidArgument("literal type mismatch for column '" +
                                       p.column + "'");
      }
      Node& n = nodes_[static_cast<size_t>(index)];
      n.lhs_index = lhs;
      n.op = p.op;
      switch (ValueType(p.literal)) {
        case DataType::kInt64:
          n.code = Code::kInt64Literal;
          n.int64_literal = std::get<int64_t>(p.literal);
          break;
        case DataType::kDouble:
          n.code = Code::kDoubleLiteral;
          n.double_literal = std::get<double>(p.literal);
          break;
        case DataType::kString:
          n.code = Code::kStringLiteral;
          n.string_literal = std::get<std::string>(p.literal);
          break;
      }
      ++num_comparisons_;
      return Status::OK();
    }
    case Predicate::Kind::kCompareColumns: {
      TCQ_ASSIGN_OR_RETURN(int lhs, schema.IndexOf(p.column));
      TCQ_ASSIGN_OR_RETURN(int rhs, schema.IndexOf(p.rhs_column));
      if (schema.column(lhs).type != schema.column(rhs).type) {
        return Status::InvalidArgument("column type mismatch: '" + p.column +
                                       "' vs '" + p.rhs_column + "'");
      }
      Node& n = nodes_[static_cast<size_t>(index)];
      n.lhs_index = lhs;
      n.rhs_index = rhs;
      n.op = p.op;
      switch (schema.column(lhs).type) {
        case DataType::kInt64:
          n.code = Code::kInt64Columns;
          break;
        case DataType::kDouble:
          n.code = Code::kDoubleColumns;
          break;
        case DataType::kString:
          n.code = Code::kStringColumns;
          break;
      }
      ++num_comparisons_;
      return Status::OK();
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      if (p.left == nullptr || p.right == nullptr) {
        return Status::InvalidArgument("binary predicate with null child");
      }
      nodes_[static_cast<size_t>(index)].code =
          p.kind == Predicate::Kind::kAnd ? Code::kAnd : Code::kOr;
      int left = -1, right = -1;
      TCQ_RETURN_NOT_OK(Build(*p.left, schema, &left));
      TCQ_RETURN_NOT_OK(Build(*p.right, schema, &right));
      nodes_[static_cast<size_t>(index)].left = left;
      nodes_[static_cast<size_t>(index)].right = right;
      return Status::OK();
    }
    case Predicate::Kind::kNot: {
      if (p.left == nullptr) {
        return Status::InvalidArgument("NOT with null child");
      }
      nodes_[static_cast<size_t>(index)].code = Code::kNot;
      int left = -1;
      TCQ_RETURN_NOT_OK(Build(*p.left, schema, &left));
      nodes_[static_cast<size_t>(index)].left = left;
      return Status::OK();
    }
  }
  return Status::Internal("unknown predicate kind");
}

}  // namespace tcq
