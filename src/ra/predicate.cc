#include "ra/predicate.h"

#include <cstring>
#include <string_view>
#include <variant>

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

namespace {
bool ApplyOp(CompareOp op, int cmp) {
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
}  // namespace

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
  return bound;
}

Status BoundPredicate::Build(const Predicate& p, const Schema& schema,
                             int* out_index) {
  int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(index)].kind = p.kind;
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
      n.literal = p.literal;
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
      ++num_comparisons_;
      return Status::OK();
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      if (p.left == nullptr || p.right == nullptr) {
        return Status::InvalidArgument("binary predicate with null child");
      }
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
      int left = -1;
      TCQ_RETURN_NOT_OK(Build(*p.left, schema, &left));
      nodes_[static_cast<size_t>(index)].left = left;
      return Status::OK();
    }
  }
  return Status::Internal("unknown predicate kind");
}

namespace {

/// Tight comparison loops with the operator switch hoisted out of the loop
/// so each case auto-vectorizes over the contiguous column.
template <typename T>
void CompareLiteralMask(const T* v, size_t n, T lit, CompareOp op,
                        uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] == lit;
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] != lit;
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] < lit;
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] <= lit;
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] > lit;
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = v[i] >= lit;
      break;
  }
}

template <typename T>
void CompareColumnsMask(const T* a, const T* b, size_t n, CompareOp op,
                        uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] == b[i];
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] != b[i];
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] < b[i];
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] <= b[i];
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] > b[i];
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] >= b[i];
      break;
  }
}

/// A fixed-width cell with its zero padding stripped — the decoded string's
/// bytes (embedded NULs are not representable, see page_codec.h).
std::string_view TrimmedCell(const uint8_t* p, size_t width) {
  size_t len = width;
  while (len > 0 && p[len - 1] == 0) --len;
  return std::string_view(reinterpret_cast<const char*>(p), len);
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

void CompareStringLiteralMask(const ColumnBatch& batch, int c, size_t n,
                              const std::string& lit, CompareOp op,
                              uint8_t* out) {
  const size_t w = static_cast<size_t>(batch.width(c));
  const uint8_t* data = batch.StringBytes(c).data();
  if (lit.find('\0') != std::string::npos) {
    // NUL-bearing literals defeat the padded-memcmp trick; compare the
    // trimmed cells exactly as CompareValues would.
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyOp(op, Sign(TrimmedCell(data + i * w, w).compare(lit)));
    }
  } else if (lit.size() <= w) {
    std::string padded = lit;
    padded.resize(w, '\0');
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyOp(op, std::memcmp(data + i * w, padded.data(), w));
    }
  } else {
    // Literal longer than the column: a cell equal through the column's
    // width is a strict prefix of the literal, hence smaller.
    for (size_t i = 0; i < n; ++i) {
      int c = std::memcmp(data + i * w, lit.data(), w);
      out[i] = ApplyOp(op, c != 0 ? c : -1);
    }
  }
}

void CompareStringColumnsMask(const ColumnBatch& batch, int a, int b,
                              size_t n, CompareOp op, uint8_t* out) {
  const size_t wa = static_cast<size_t>(batch.width(a));
  const size_t wb = static_cast<size_t>(batch.width(b));
  const uint8_t* da = batch.StringBytes(a).data();
  const uint8_t* db = batch.StringBytes(b).data();
  if (wa == wb) {
    // Equal widths: both cells are zero-padded, so memcmp is exact 3-way.
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyOp(op, std::memcmp(da + i * wa, db + i * wa, wa));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyOp(op, Sign(TrimmedCell(da + i * wa, wa)
                                    .compare(TrimmedCell(db + i * wb, wb))));
    }
  }
}

}  // namespace

void BoundPredicate::EvalBatch(const ColumnBatch& batch,
                               std::vector<uint8_t>* out) const {
  out->assign(static_cast<size_t>(batch.num_rows()), 0);
  if (batch.num_rows() > 0) EvalNodeBatch(0, batch, out->data());
}

void BoundPredicate::EvalNodeBatch(int node, const ColumnBatch& batch,
                                   uint8_t* out) const {
  const Node& nd = nodes_[static_cast<size_t>(node)];
  const size_t n = static_cast<size_t>(batch.num_rows());
  switch (nd.kind) {
    case Predicate::Kind::kCompareLiteral: {
      const int c = nd.lhs_index;
      switch (batch.type(c)) {
        case DataType::kInt64:
          CompareLiteralMask(batch.I64(c).data(), n,
                             std::get<int64_t>(nd.literal), nd.op, out);
          break;
        case DataType::kDouble:
          CompareLiteralMask(batch.F64(c).data(), n,
                             std::get<double>(nd.literal), nd.op, out);
          break;
        case DataType::kString:
          CompareStringLiteralMask(batch, c, n,
                                   std::get<std::string>(nd.literal), nd.op,
                                   out);
          break;
      }
      return;
    }
    case Predicate::Kind::kCompareColumns: {
      const int a = nd.lhs_index;
      const int b = nd.rhs_index;
      switch (batch.type(a)) {
        case DataType::kInt64:
          CompareColumnsMask(batch.I64(a).data(), batch.I64(b).data(), n,
                             nd.op, out);
          break;
        case DataType::kDouble:
          CompareColumnsMask(batch.F64(a).data(), batch.F64(b).data(), n,
                             nd.op, out);
          break;
        case DataType::kString:
          CompareStringColumnsMask(batch, a, b, n, nd.op, out);
          break;
      }
      return;
    }
    case Predicate::Kind::kAnd: {
      std::vector<uint8_t> rhs(n);
      EvalNodeBatch(nd.left, batch, out);
      EvalNodeBatch(nd.right, batch, rhs.data());
      for (size_t i = 0; i < n; ++i) out[i] &= rhs[i];
      return;
    }
    case Predicate::Kind::kOr: {
      std::vector<uint8_t> rhs(n);
      EvalNodeBatch(nd.left, batch, out);
      EvalNodeBatch(nd.right, batch, rhs.data());
      for (size_t i = 0; i < n; ++i) out[i] |= rhs[i];
      return;
    }
    case Predicate::Kind::kNot:
      EvalNodeBatch(nd.left, batch, out);
      for (size_t i = 0; i < n; ++i) out[i] = out[i] == 0 ? 1 : 0;
      return;
  }
}

bool BoundPredicate::EvalNode(int node, const Tuple& tuple) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  switch (n.kind) {
    case Predicate::Kind::kCompareLiteral:
      return ApplyOp(
          n.op, CompareValues(tuple[static_cast<size_t>(n.lhs_index)],
                              n.literal));
    case Predicate::Kind::kCompareColumns:
      return ApplyOp(
          n.op, CompareValues(tuple[static_cast<size_t>(n.lhs_index)],
                              tuple[static_cast<size_t>(n.rhs_index)]));
    case Predicate::Kind::kAnd:
      return EvalNode(n.left, tuple) && EvalNode(n.right, tuple);
    case Predicate::Kind::kOr:
      return EvalNode(n.left, tuple) || EvalNode(n.right, tuple);
    case Predicate::Kind::kNot:
      return !EvalNode(n.left, tuple);
  }
  return false;
}

}  // namespace tcq
