#include "workload/generators.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "exec/exact.h"

namespace tcq {
namespace {

TEST(SyntheticSchemaTest, PaperGeometry) {
  Schema s = SyntheticSchema();
  EXPECT_EQ(s.TupleBytes(), 200);
}

TEST(SelectionWorkloadTest, ExactCountMatches) {
  for (int64_t target : {0LL, 1LL, 2000LL, 10000LL}) {
    auto w = MakeSelectionWorkload(target, 42);
    ASSERT_TRUE(w.ok()) << target;
    auto exact = ExactCount(w->query, w->catalog);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(*exact, target);
    EXPECT_EQ(*exact, w->exact_count);
  }
}

TEST(SelectionWorkloadTest, PaperBlockGeometry) {
  auto w = MakeSelectionWorkload(2000, 42);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->NumTuples(), 10000);
  EXPECT_EQ((*rel)->NumBlocks(), 2000);
  EXPECT_EQ((*rel)->blocking_factor(), 5);
}

TEST(SelectionWorkloadTest, QualifyingTuplesScattered) {
  // The qualifying tuples should not be clustered in a prefix of blocks:
  // with 20% selectivity, the first 10 blocks (50 tuples) should hold
  // roughly 10 qualifiers, not 50.
  auto w = MakeSelectionWorkload(2000, 43);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  int qualifying = 0;
  for (int64_t b = 0; b < 10; ++b) {
    for (Row t : (*rel)->ViewBlock(b).rows()) {
      if (t[1].int64() < 2000) ++qualifying;
    }
  }
  EXPECT_GT(qualifying, 1);
  EXPECT_LT(qualifying, 30);
}

TEST(SelectionWorkloadTest, RejectsOutOfRange) {
  EXPECT_FALSE(MakeSelectionWorkload(-1, 1).ok());
  EXPECT_FALSE(MakeSelectionWorkload(10001, 1).ok());
}

TEST(IntersectionWorkloadTest, ExactOverlap) {
  for (int64_t target : {1000LL, 5000LL, 10000LL}) {
    auto w = MakeIntersectionWorkload(target, 7);
    ASSERT_TRUE(w.ok());
    auto exact = ExactCount(w->query, w->catalog);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(*exact, target) << target;
  }
}

TEST(IntersectionWorkloadTest, TwoRelationsRegistered) {
  auto w = MakeIntersectionWorkload(1000, 7);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->catalog.Find("r1").ok());
  EXPECT_TRUE(w->catalog.Find("r2").ok());
  EXPECT_EQ((*w->catalog.Find("r2"))->NumBlocks(), 2000);
}

TEST(JoinWorkloadTest, ExactOutputCount) {
  auto w = MakeJoinWorkload(70000, 11);
  ASSERT_TRUE(w.ok());
  auto exact = ExactCount(w->query, w->catalog);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 70000);
}

TEST(JoinWorkloadTest, SmallerOutputs) {
  for (int64_t target : {0LL, 10LL, 1000LL}) {
    auto w = MakeJoinWorkload(target, 13);
    ASSERT_TRUE(w.ok()) << target;
    auto exact = ExactCount(w->query, w->catalog);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(*exact, target);
  }
}

TEST(JoinWorkloadTest, RejectsBadParameters) {
  EXPECT_FALSE(MakeJoinWorkload(75, 1).ok());  // not a multiple of 10
  EXPECT_FALSE(MakeJoinWorkload(70000, 1, 10000, 200, 3).ok());  // 3∤10000
}

TEST(UniformRelationTest, GeometryAndKeys) {
  auto rel = MakeUniformRelation("u", 500, 10, 3);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->NumTuples(), 500);
  for (int64_t b = 0; b < rel->NumBlocks(); ++b) {
    for (Row t : rel->ViewBlock(b).rows()) {
      int64_t key = t[1].int64();
      EXPECT_GE(key, 0);
      EXPECT_LT(key, 10);
    }
  }
}

TEST(WorkloadTest, DifferentSeedsDifferentLayouts) {
  auto a = MakeSelectionWorkload(2000, 1);
  auto b = MakeSelectionWorkload(2000, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->catalog.Find("r1");
  auto rb = b->catalog.Find("r1");
  // First block should differ with overwhelming probability.
  EXPECT_NE(CompareTuples(ToTuple((*ra)->ViewBlock(0).rows()[0],
                                  (*ra)->schema()),
                          ToTuple((*rb)->ViewBlock(0).rows()[0],
                                  (*rb)->schema())),
            0);
}

// ---------------------------------------------------------------------------
// Catalog golden digests: every value and every block boundary of each
// generator's relations, in block order. The digests were recorded on the
// generators that built every row as a heap tuple and shuffled the rows
// themselves; shuffling an index permutation and appending rows in place
// must reproduce them bit for bit.
// ---------------------------------------------------------------------------

// FNV-1a over a relation: per block its row count, then per row each
// cell's type (numbered as Value's alternatives) and bytes.
class CatalogDigest {
 public:
  void Add(const Relation& rel) {
    const Schema& schema = rel.schema();
    Mix(static_cast<uint64_t>(rel.NumBlocks()));
    for (int64_t b = 0; b < rel.NumBlocks(); ++b) {
      const auto rows = rel.ViewBlock(b).rows();
      Mix(static_cast<uint64_t>(rows.size()));
      for (const auto& row : rows) {
        for (int c = 0; c < schema.num_columns(); ++c) {
          AddCell(row[static_cast<size_t>(c)], schema.column(c).type);
        }
      }
    }
  }

  void Add(const Catalog& catalog) {
    for (const std::string& name : catalog.Names()) {
      auto rel = catalog.Find(name);
      ASSERT_TRUE(rel.ok());
      Add(**rel);
    }
  }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void AddCell(Cell cell, DataType type) {
    Mix(static_cast<uint64_t>(type));
    if (type == DataType::kInt64) {
      Mix(static_cast<uint64_t>(cell.int64()));
    } else if (type == DataType::kDouble) {
      const double d = cell.float64();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      Mix(bits);
    } else {
      const std::string_view s = cell.string();
      Mix(s.size());
      for (char ch : s) Byte(static_cast<uint8_t>(ch));
    }
  }

  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(x >> (8 * i)));
  }

  void Byte(uint8_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ull;
  }

  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string DigestOf(const Result<Workload>& w) {
  EXPECT_TRUE(w.ok());
  CatalogDigest digest;
  if (w.ok()) digest.Add(w->catalog);
  return digest.Hex();
}

TEST(CatalogGoldenTest, GeneratorsReproduceRecordedCatalogs) {
  EXPECT_EQ(DigestOf(MakeSelectionWorkload(2000, 7)), "5c3e3cbb5986bb38");
  EXPECT_EQ(DigestOf(MakeSelectionWorkload(2000, 7, kPaperTuples,
                                           kPaperTupleBytes, 0.5)),
            "ae7a46400557a640");
  // A partial last block and 8 rows per block.
  EXPECT_EQ(DigestOf(MakeSelectionWorkload(500, 11, 4321, 120, 0.5)),
            "e9dc735f4fe89d74");
  EXPECT_EQ(DigestOf(MakeIntersectionWorkload(1000, 7)), "839f7edd4cf9c041");
  EXPECT_EQ(DigestOf(MakeJoinWorkload(70000, 7)), "41169524c671c954");
  CatalogDigest uniform;
  uniform.Add(*MakeUniformRelation("u", 10003, 100, 7));
  EXPECT_EQ(uniform.Hex(), "62a458bead37616c");
}

}  // namespace
}  // namespace tcq
