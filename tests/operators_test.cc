#include "exec/operators.h"

#include <gtest/gtest.h>

#include "exec/tuple_set.h"

namespace tcq {
namespace {

Schema TwoIntSchema() {
  return Schema({{"a", DataType::kInt64, 0}, {"b", DataType::kInt64, 0}});
}

Tuple T(int64_t a, int64_t b) { return Tuple{a, b}; }

TEST(PagesForTest, Geometry) {
  Schema s = TwoIntSchema();  // 16 bytes/tuple -> 64 per 1 KiB page
  EXPECT_EQ(PagesFor(s, 0), 0);
  EXPECT_EQ(PagesFor(s, 1), 1);
  EXPECT_EQ(PagesFor(s, 64), 1);
  EXPECT_EQ(PagesFor(s, 65), 2);
  EXPECT_EQ(PagesFor(s, 64, /*block_bytes=*/64), 16);
}

TEST(SelectTuplesTest, FiltersAndCharges) {
  Schema s = TwoIntSchema();
  auto pred = CmpLiteral("a", CompareOp::kLt, int64_t{3});
  auto bound = BoundPredicate::Bind(pred, s);
  ASSERT_TRUE(bound.ok());
  std::vector<Tuple> in{T(1, 0), T(5, 0), T(2, 0), T(9, 0)};
  VirtualClock clock;
  CostLedger ledger(&clock);
  CostModel model;
  OpMetrics m;
  auto out = SelectTuples(RefsOf(in), *bound, s, &ledger, model, &m);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<int64_t>((*out[0])[0]), 1);
  EXPECT_EQ(std::get<int64_t>((*out[1])[0]), 2);
  // The qualifying tuples are passed by reference, not copied.
  EXPECT_EQ(out[0], &in[0]);
  EXPECT_EQ(out[1], &in[2]);
  EXPECT_EQ(m.process.in_tuples, 4);
  EXPECT_EQ(m.output.out_tuples, 2);
  EXPECT_EQ(m.process.comparisons, 4);  // one comparison per tuple
  EXPECT_GT(clock.Now(), 0.0);
  EXPECT_NEAR(m.process.seconds + m.output.seconds, ledger.GrandTotal(),
              1e-12);
}

TEST(SortRunTest, SortsAllColumnsAndCharges) {
  std::vector<Tuple> tuples{T(3, 1), T(1, 2), T(3, 0), T(2, 5)};
  TupleRefs v = RefsOf(tuples);
  CostLedger ledger(nullptr);
  CostModel model;
  StepMetrics m;
  SortRun(&v, {}, &ledger, model, &m);
  EXPECT_EQ(std::get<int64_t>((*v[0])[0]), 1);
  EXPECT_EQ(std::get<int64_t>((*v[1])[0]), 2);
  EXPECT_EQ(std::get<int64_t>((*v[2])[0]), 3);
  EXPECT_EQ(std::get<int64_t>((*v[2])[1]), 0);
  EXPECT_EQ(std::get<int64_t>((*v[3])[1]), 1);
  EXPECT_GT(m.comparisons, 0);
  EXPECT_GT(ledger.Total(CostCategory::kSortCompare), 0.0);
}

TEST(SortRunTest, SortsByKeyOnly) {
  std::vector<Tuple> tuples{T(9, 2), T(0, 1)};
  TupleRefs v = RefsOf(tuples);
  CostModel model;
  SortRun(&v, {1}, nullptr, model, nullptr);
  EXPECT_EQ(std::get<int64_t>((*v[0])[1]), 1);
}

TEST(MergeIntersectTest, CountsMatches) {
  Schema s = TwoIntSchema();
  std::vector<Tuple> l{T(1, 1), T(2, 2), T(3, 3)};
  std::vector<Tuple> r{T(2, 2), T(3, 3), T(4, 4)};
  CostModel model;
  OpMetrics m;
  auto out = MergeIntersect(RefsOf(l), RefsOf(r), s, nullptr, model, &m);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(m.output.out_tuples, 2);
  EXPECT_GT(m.process.comparisons, 0);
}

TEST(MergeIntersectTest, MultiplicityProduct) {
  // Duplicates produce one output per (left,right) pair: the number of
  // 1-points in the point space.
  Schema s = TwoIntSchema();
  std::vector<Tuple> l{T(5, 5), T(5, 5)};
  std::vector<Tuple> r{T(5, 5), T(5, 5), T(5, 5)};
  CostModel model;
  auto out = MergeIntersect(RefsOf(l), RefsOf(r), s, nullptr, model, nullptr);
  EXPECT_EQ(out.size(), 6u);
}

TEST(MergeIntersectTest, DisjointEmpty) {
  Schema s = TwoIntSchema();
  std::vector<Tuple> l{T(1, 1)};
  std::vector<Tuple> r{T(2, 2)};
  CostModel model;
  EXPECT_TRUE(
      MergeIntersect(RefsOf(l), RefsOf(r), s, nullptr, model, nullptr)
          .empty());
  EXPECT_TRUE(
      MergeIntersect({}, RefsOf(r), s, nullptr, model, nullptr).empty());
}

TEST(MergeJoinTest, JoinsOnKey) {
  Schema ls({{"a", DataType::kInt64, 0}, {"k", DataType::kInt64, 0}});
  Schema rs({{"k", DataType::kInt64, 0}, {"c", DataType::kInt64, 0}});
  // Sorted by key column already.
  std::vector<Tuple> l{T(10, 1), T(20, 2), T(30, 2)};
  std::vector<Tuple> r{T(2, 100), T(2, 200), T(3, 300)};
  CostModel model;
  OpMetrics m;
  auto out =
      MergeJoin(RefsOf(l), {1}, ls, RefsOf(r), {0}, rs, nullptr, model, &m);
  // key 2: two left × two right = 4 joined tuples.
  ASSERT_EQ(out.size(), 4u);
  for (const Tuple& t : out) {
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(std::get<int64_t>(t[1]), 2);
    EXPECT_EQ(std::get<int64_t>(t[2]), 2);
  }
}

TEST(MergeJoinTest, NoMatches) {
  Schema ls = TwoIntSchema();
  std::vector<Tuple> l{T(1, 1)};
  std::vector<Tuple> r{T(2, 2)};
  CostModel model;
  EXPECT_TRUE(MergeJoin(RefsOf(l), {0}, ls, RefsOf(r), {0}, ls, nullptr,
                        model, nullptr)
                  .empty());
}

TEST(DedupSortedTest, Occupancies) {
  Schema s = TwoIntSchema();
  std::vector<Tuple> v{T(1, 1), T(1, 1), T(2, 2), T(3, 3), T(3, 3)};
  CostModel model;
  auto groups = DedupSorted(RefsOf(v), s, nullptr, model, nullptr);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].count, 2);
  EXPECT_EQ(groups[1].count, 1);
  EXPECT_EQ(groups[2].count, 2);
}

TEST(DedupSortedTest, Empty) {
  Schema s = TwoIntSchema();
  CostModel model;
  EXPECT_TRUE(DedupSorted({}, s, nullptr, model, nullptr).empty());
}

TEST(ProjectColumnsTest, KeepsRequestedOrder) {
  std::vector<Tuple> v{T(1, 10), T(2, 20)};
  CostModel model;
  auto out = ProjectColumns(RefsOf(v), {1}, nullptr, model, nullptr);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_EQ(std::get<int64_t>(out[0][0]), 10);
}

TEST(ChargeTempWriteTest, ChargesMovesAndPages) {
  Schema s = TwoIntSchema();
  VirtualClock clock;
  CostLedger ledger(&clock);
  CostModel model;
  StepMetrics m;
  ChargeTempWrite(s, 100, &ledger, model, &m);
  EXPECT_EQ(ledger.Count(CostCategory::kTupleMove), 100);
  EXPECT_EQ(ledger.Count(CostCategory::kBlockWrite), PagesFor(s, 100));
  EXPECT_NEAR(m.seconds, ledger.GrandTotal(), 1e-12);
}

}  // namespace
}  // namespace tcq
