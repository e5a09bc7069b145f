#include "ra/predicate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tcq {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt64, 0},
                 {"b", DataType::kInt64, 0},
                 {"name", DataType::kString, 16}});
}

TEST(PredicateTest, CompareLiteralAllOps) {
  Schema s = TestSchema();
  Tuple t{int64_t{5}, int64_t{10}, std::string("x")};
  struct Case {
    CompareOp op;
    int64_t rhs;
    bool expected;
  } cases[] = {
      {CompareOp::kEq, 5, true},  {CompareOp::kEq, 6, false},
      {CompareOp::kNe, 5, false}, {CompareOp::kNe, 6, true},
      {CompareOp::kLt, 6, true},  {CompareOp::kLt, 5, false},
      {CompareOp::kLe, 5, true},  {CompareOp::kLe, 4, false},
      {CompareOp::kGt, 4, true},  {CompareOp::kGt, 5, false},
      {CompareOp::kGe, 5, true},  {CompareOp::kGe, 6, false},
  };
  for (const auto& c : cases) {
    auto p = CmpLiteral("a", c.op, c.rhs);
    auto bound = BoundPredicate::Bind(p, s);
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ(bound->Eval(t), c.expected)
        << "op=" << CompareOpSymbol(c.op) << " rhs=" << c.rhs;
  }
}

TEST(PredicateTest, CompareColumns) {
  Schema s = TestSchema();
  auto p = CmpColumns("a", CompareOp::kLt, "b");
  auto bound = BoundPredicate::Bind(p, s);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Eval({int64_t{1}, int64_t{2}, std::string()}));
  EXPECT_FALSE(bound->Eval({int64_t{2}, int64_t{2}, std::string()}));
}

TEST(PredicateTest, StringComparison) {
  Schema s = TestSchema();
  auto p = CmpLiteral("name", CompareOp::kEq, std::string("bob"));
  auto bound = BoundPredicate::Bind(p, s);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Eval({int64_t{0}, int64_t{0}, std::string("bob")}));
  EXPECT_FALSE(bound->Eval({int64_t{0}, int64_t{0}, std::string("eve")}));
}

TEST(PredicateTest, BooleanConnectives) {
  Schema s = TestSchema();
  auto lt = CmpLiteral("a", CompareOp::kLt, int64_t{10});
  auto gt = CmpLiteral("b", CompareOp::kGt, int64_t{0});
  Tuple both{int64_t{5}, int64_t{5}, std::string()};
  Tuple neither{int64_t{15}, int64_t{-5}, std::string()};
  Tuple onlyA{int64_t{5}, int64_t{-5}, std::string()};

  auto and_bound = BoundPredicate::Bind(And(lt, gt), s);
  ASSERT_TRUE(and_bound.ok());
  EXPECT_TRUE(and_bound->Eval(both));
  EXPECT_FALSE(and_bound->Eval(onlyA));
  EXPECT_FALSE(and_bound->Eval(neither));

  auto or_bound = BoundPredicate::Bind(Or(lt, gt), s);
  ASSERT_TRUE(or_bound.ok());
  EXPECT_TRUE(or_bound->Eval(both));
  EXPECT_TRUE(or_bound->Eval(onlyA));
  EXPECT_FALSE(or_bound->Eval(neither));

  auto not_bound = BoundPredicate::Bind(Not(lt), s);
  ASSERT_TRUE(not_bound.ok());
  EXPECT_FALSE(not_bound->Eval(both));
  EXPECT_TRUE(not_bound->Eval(neither));
}

TEST(PredicateTest, CountsComparisons) {
  Schema s = TestSchema();
  auto p = And(CmpLiteral("a", CompareOp::kLt, int64_t{1}),
               Or(CmpLiteral("b", CompareOp::kGt, int64_t{2}),
                  CmpColumns("a", CompareOp::kEq, "b")));
  auto bound = BoundPredicate::Bind(p, s);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->num_comparisons(), 3);
}

TEST(PredicateTest, BindRejectsUnknownColumn) {
  auto p = CmpLiteral("zz", CompareOp::kEq, int64_t{1});
  EXPECT_EQ(BoundPredicate::Bind(p, TestSchema()).status().code(),
            StatusCode::kNotFound);
}

TEST(PredicateTest, BindRejectsTypeMismatch) {
  auto p = CmpLiteral("a", CompareOp::kEq, std::string("text"));
  EXPECT_EQ(BoundPredicate::Bind(p, TestSchema()).status().code(),
            StatusCode::kInvalidArgument);
  auto q = CmpColumns("a", CompareOp::kEq, "name");
  EXPECT_EQ(BoundPredicate::Bind(q, TestSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PredicateTest, BindRejectsNull) {
  EXPECT_FALSE(BoundPredicate::Bind(nullptr, TestSchema()).ok());
}

// Typed leaves: every operator on every type, over the edge values of
// each, must agree with ApplyOp on the generic three-way CompareValues —
// for literal leaves, column-to-column leaves and nested connectives.
TEST(PredicateTest, TypedLeavesMatchCompareValues) {
  const Schema s({{"i1", DataType::kInt64, 0},
                  {"i2", DataType::kInt64, 0},
                  {"d1", DataType::kDouble, 0},
                  {"d2", DataType::kDouble, 0},
                  {"s1", DataType::kString, 20},
                  {"s2", DataType::kString, 20}});
  struct TypeCase {
    std::string lhs, rhs;  // the two columns of the type
    int lhs_index, rhs_index;
    std::vector<Value> values;
  };
  const std::vector<TypeCase> types = {
      {"i1", "i2", 0, 1,
       {std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::min() + 1, int64_t{-1}, int64_t{0},
        int64_t{1}, std::numeric_limits<int64_t>::max() - 1,
        std::numeric_limits<int64_t>::max()}},
      {"d1", "d2", 2, 3,
       {-std::numeric_limits<double>::infinity(), -1.5, -0.0, 0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), 4.9e-320, 1.5,
        std::numeric_limits<double>::max()}},
      {"s1", "s2", 4, 5,
       {std::string(), std::string(1, '\0'), std::string("a"),
        std::string("a\0", 2), std::string("abcdefgh"),
        std::string("abcdefgh\0", 9), std::string("abcdefghA"),
        std::string("abcdefghB"), std::string("\xff")}},
  };
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const Tuple base{int64_t{0}, int64_t{0}, 0.0, 0.0, std::string(),
                   std::string()};
  auto eval = [&](const PredicatePtr& p, const Tuple& t, int comparisons) {
    auto bound = BoundPredicate::Bind(p, s);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (!bound.ok()) return false;
    EXPECT_EQ(bound->num_comparisons(), comparisons) << p->ToString();
    return bound->Eval(t);
  };
  for (const TypeCase& type : types) {
    for (CompareOp op : ops) {
      for (const Value& a : type.values) {
        for (const Value& b : type.values) {
          SCOPED_TRACE(type.lhs + " " + std::string(CompareOpSymbol(op)) +
                       " on (" + ValueToString(a) + ", " + ValueToString(b) +
                       ")");
          Tuple t = base;
          t[static_cast<size_t>(type.lhs_index)] = a;
          t[static_cast<size_t>(type.rhs_index)] = b;
          const bool expect = ApplyOp(op, CompareValues(a, b));
          const bool reversed = ApplyOp(op, CompareValues(b, a));
          const PredicatePtr literal = CmpLiteral(type.lhs, op, b);
          const PredicatePtr columns = CmpColumns(type.lhs, op, type.rhs);
          const PredicatePtr swapped = CmpColumns(type.rhs, op, type.lhs);
          EXPECT_EQ(eval(literal, t, 1), expect);
          EXPECT_EQ(eval(columns, t, 1), expect);
          EXPECT_EQ(eval(swapped, t, 1), reversed);
          EXPECT_EQ(eval(Not(literal), t, 1), !expect);
          EXPECT_EQ(eval(And(literal, swapped), t, 2), expect && reversed);
          EXPECT_EQ(eval(Or(Not(literal), swapped), t, 2),
                    !expect || reversed);
          EXPECT_EQ(eval(And(Or(literal, swapped), Not(columns)), t, 3),
                    (expect || reversed) && !expect);
        }
      }
    }
  }
  // Bind's type checks are unchanged.
  auto literal_mismatch =
      BoundPredicate::Bind(CmpLiteral("d1", CompareOp::kLt, int64_t{1}), s);
  EXPECT_EQ(literal_mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(literal_mismatch.status().message(),
            "literal type mismatch for column 'd1'");
  auto column_mismatch =
      BoundPredicate::Bind(CmpColumns("i1", CompareOp::kEq, "s2"), s);
  EXPECT_EQ(column_mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(column_mismatch.status().message(),
            "column type mismatch: 'i1' vs 's2'");
}

TEST(PredicateTest, ToStringReadable) {
  auto p = And(CmpLiteral("a", CompareOp::kLt, int64_t{7}),
               Not(CmpColumns("a", CompareOp::kEq, "b")));
  EXPECT_EQ(p->ToString(), "(a < 7 AND NOT (a = b))");
}

}  // namespace
}  // namespace tcq
