#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace tcq {
namespace {

Schema PaperSchema() {
  // The paper's experimental tuples: 200 bytes each.
  return Schema({{"id", DataType::kInt64, 0},
                 {"key", DataType::kInt64, 0},
                 {"payload", DataType::kString, 184}});
}

TEST(ValueTest, TypeOfAlternatives) {
  EXPECT_EQ(ValueType(Value(int64_t{1})), DataType::kInt64);
  EXPECT_EQ(ValueType(Value(1.5)), DataType::kDouble);
  EXPECT_EQ(ValueType(Value(std::string("x"))), DataType::kString);
}

TEST(ValueTest, CompareInts) {
  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_GT(CompareValues(Value(int64_t{5}), Value(int64_t{2})), 0);
  EXPECT_EQ(CompareValues(Value(int64_t{3}), Value(int64_t{3})), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(CompareValues(Value(std::string("a")), Value(std::string("b"))),
            0);
  EXPECT_EQ(CompareValues(Value(std::string("ab")), Value(std::string("ab"))),
            0);
}

TEST(ValueTest, CompareTuplesLexicographic) {
  Tuple a{int64_t{1}, int64_t{5}};
  Tuple b{int64_t{1}, int64_t{7}};
  EXPECT_LT(CompareTuples(a, b), 0);
  EXPECT_EQ(CompareTuples(a, a), 0);
}

TEST(ValueTest, CompareTuplesOnKeySubset) {
  Tuple a{int64_t{1}, int64_t{5}, int64_t{9}};
  Tuple b{int64_t{2}, int64_t{5}, int64_t{0}};
  std::vector<int> key{1};
  EXPECT_EQ(CompareTuplesOnKey(a, b, key), 0);
  std::vector<int> key2{1, 2};
  EXPECT_GT(CompareTuplesOnKey(a, b, key2), 0);
}

TEST(SchemaTest, TupleBytes) {
  EXPECT_EQ(PaperSchema().TupleBytes(), 200);
}

TEST(SchemaTest, IndexOf) {
  Schema s = PaperSchema();
  ASSERT_TRUE(s.IndexOf("key").ok());
  EXPECT_EQ(*s.IndexOf("key"), 1);
  EXPECT_EQ(s.IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, CompatibilityIgnoresNames) {
  Schema a({{"x", DataType::kInt64, 0}, {"y", DataType::kString, 8}});
  Schema b({{"p", DataType::kInt64, 0}, {"q", DataType::kString, 8}});
  Schema c({{"p", DataType::kInt64, 0}, {"q", DataType::kString, 9}});
  Schema d({{"p", DataType::kInt64, 0}});
  EXPECT_TRUE(a.CompatibleWith(b));
  EXPECT_FALSE(a.CompatibleWith(c));  // width differs
  EXPECT_FALSE(a.CompatibleWith(d));  // arity differs
}

TEST(SchemaTest, SelectColumns) {
  Schema s = PaperSchema();
  Schema proj = s.SelectColumns({2, 0});
  ASSERT_EQ(proj.num_columns(), 2);
  EXPECT_EQ(proj.column(0).name, "payload");
  EXPECT_EQ(proj.column(1).name, "id");
}

TEST(SchemaTest, ConcatForJoinRenamesCollisions) {
  Schema l({{"id", DataType::kInt64, 0}, {"a", DataType::kInt64, 0}});
  Schema r({{"id", DataType::kInt64, 0}, {"b", DataType::kInt64, 0}});
  Schema j = l.ConcatForJoin(r);
  ASSERT_EQ(j.num_columns(), 4);
  EXPECT_EQ(j.column(0).name, "id");
  EXPECT_EQ(j.column(2).name, "r_id");
  EXPECT_EQ(j.column(3).name, "b");
}

TEST(SchemaTest, ValidateTuple) {
  Schema s({{"x", DataType::kInt64, 0}, {"s", DataType::kString, 4}});
  EXPECT_TRUE(s.ValidateTuple({int64_t{1}, std::string("abcd")}).ok());
  EXPECT_FALSE(s.ValidateTuple({int64_t{1}}).ok());           // arity
  EXPECT_FALSE(s.ValidateTuple({1.0, std::string("a")}).ok());  // type
  EXPECT_FALSE(
      s.ValidateTuple({int64_t{1}, std::string("abcde")}).ok());  // width
}

TEST(RelationTest, PaperGeometry) {
  // 10,000 tuples of 200 bytes in 1 KiB blocks -> 5 per block, 2000 blocks.
  auto rel = Relation::Create("r1", PaperSchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->blocking_factor(), 5);
  for (int i = 0; i < 10000; ++i) {
    rel->AppendUnchecked(
        {int64_t{i}, int64_t{i % 100}, std::string("p")});
  }
  EXPECT_EQ(rel->NumTuples(), 10000);
  EXPECT_EQ(rel->NumBlocks(), 2000);
  EXPECT_EQ(rel->ViewBlock(0).rows().size(), 5u);
  EXPECT_EQ(rel->ViewBlock(1999).rows().size(), 5u);
}

TEST(RelationTest, PartialLastBlock) {
  auto rel = Relation::Create("r", PaperSchema());
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 7; ++i) {
    rel->AppendUnchecked({int64_t{i}, int64_t{0}, std::string()});
  }
  EXPECT_EQ(rel->NumBlocks(), 2);
  EXPECT_EQ(rel->ViewBlock(1).rows().size(), 2u);
}

TEST(RelationTest, AppendValidates) {
  auto rel = Relation::Create("r", PaperSchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->Append({int64_t{1}}).ok());
  EXPECT_TRUE(
      rel->Append({int64_t{1}, int64_t{2}, std::string("ok")}).ok());
  EXPECT_EQ(rel->NumTuples(), 1);
}

// NaN would break every sort over its column (CompareValues ties it with
// every value), so it never enters a relation.
TEST(RelationTest, AppendRejectsNaNNamingItsColumn) {
  Schema schema({{"id", DataType::kInt64, 0}, {"score", DataType::kDouble, 0}});
  auto rel = Relation::Create("r", schema);
  ASSERT_TRUE(rel.ok());
  Status status =
      rel->Append({int64_t{1}, std::numeric_limits<double>::quiet_NaN()});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'score'"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(rel->NumTuples(), 0);
  EXPECT_TRUE(rel->Append({int64_t{1}, -0.0}).ok());
  EXPECT_TRUE(
      rel->Append({int64_t{2}, std::numeric_limits<double>::infinity()}).ok());
}

TEST(RelationTest, CreateRejectsBadGeometry) {
  EXPECT_FALSE(Relation::Create("r", Schema(), 1024).ok());
  Schema wide({{"s", DataType::kString, 4096}});
  EXPECT_FALSE(Relation::Create("r", wide, 1024).ok());
}

TEST(RelationDeathTest, OverwideStringAbortsNamingItsColumn) {
  // Unchecked appends skip schema validation; a string wider than its
  // column must stop the process rather than break the block geometry.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto rel = Relation::Create("r", PaperSchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_DEATH(rel->AppendUnchecked(
                   {int64_t{1}, int64_t{2}, std::string(185, 'x')}),
               "185-byte string does not fit column 2, a CHAR.184.");
}

TEST(CatalogTest, RegisterAndFind) {
  Catalog catalog;
  auto rel = Relation::Create("r1", PaperSchema());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(
      catalog.Register(std::make_shared<Relation>(std::move(*rel))).ok());
  EXPECT_TRUE(catalog.Find("r1").ok());
  EXPECT_EQ(catalog.Find("r2").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, RejectsDuplicatesAndNull) {
  Catalog catalog;
  auto r1 = Relation::Create("r1", PaperSchema());
  auto r1b = Relation::Create("r1", PaperSchema());
  ASSERT_TRUE(catalog.Register(std::make_shared<Relation>(std::move(*r1))).ok());
  EXPECT_EQ(
      catalog.Register(std::make_shared<Relation>(std::move(*r1b))).code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Register(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Names(), std::vector<std::string>{"r1"});
}

}  // namespace
}  // namespace tcq
