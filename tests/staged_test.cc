#include "exec/staged.h"

#include <gtest/gtest.h>

#include "exec/exact.h"
#include "parallel/thread_pool.h"
#include "util/random.h"

namespace tcq {
namespace {

Schema KV() {
  return Schema({{"k", DataType::kInt64, 0}, {"v", DataType::kInt64, 0}});
}

RelationPtr MakeRel(const std::string& name,
                    const std::vector<std::pair<int64_t, int64_t>>& rows) {
  auto rel = Relation::Create(name, KV(), /*block_bytes=*/64);  // bf = 4
  EXPECT_TRUE(rel.ok());
  for (const auto& [k, v] : rows) rel->AppendUnchecked({k, v});
  return std::make_shared<Relation>(std::move(*rel));
}

/// Returns pointers to the blocks of `rel` with the given indices.
std::vector<const Block*> BlocksOf(const RelationPtr& rel,
                                   const std::vector<int64_t>& indices) {
  std::vector<const Block*> out;
  for (int64_t i : indices) out.push_back(rel->ViewBlock(i).raw());
  return out;
}

std::vector<int64_t> Range(int64_t lo, int64_t hi) {
  std::vector<int64_t> out;
  for (int64_t i = lo; i < hi; ++i) out.push_back(i);
  return out;
}

class StagedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 16 tuples -> 4 blocks each (blocking factor 4).
    std::vector<std::pair<int64_t, int64_t>> a_rows, b_rows;
    for (int64_t i = 0; i < 16; ++i) {
      a_rows.push_back({i, 100 + i});
      // B shares keys {4..11} with A but tuple-equality only where v
      // matches; give B the same (k,v) for k in 4..7.
      int64_t v = (i >= 4 && i < 8) ? 100 + i : 500 + i;
      b_rows.push_back({i, v});
    }
    a_ = MakeRel("A", a_rows);
    b_ = MakeRel("B", b_rows);
    ASSERT_TRUE(catalog_.Register(a_).ok());
    ASSERT_TRUE(catalog_.Register(b_).ok());
  }

  std::unique_ptr<StagedTermEvaluator> Make(const ExprPtr& term,
                                            Fulfillment f) {
    auto ev = StagedTermEvaluator::Create(term, catalog_, f, &ledger_,
                                          CostModel::Sun360());
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    return std::move(*ev);
  }

  Catalog catalog_;
  RelationPtr a_, b_;
  VirtualClock clock_;
  CostLedger ledger_{&clock_};
};

TEST_F(StagedTest, SelectFullCoverageOneStageMatchesExact) {
  auto term = Select(Scan("A"), CmpLiteral("k", CompareOp::kLt, int64_t{5}));
  auto ev = Make(term, Fulfillment::kFull);
  std::map<std::string, std::vector<const Block*>> blocks{
      {"A", BlocksOf(a_, Range(0, 4))}};
  ASSERT_TRUE(ev->ExecuteStage(blocks).ok());
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(ev->cum_hits(), *exact);
  EXPECT_EQ(ev->cum_points(), 16.0);
  EXPECT_EQ(ev->total_points(), 16.0);
  EXPECT_EQ(ev->cum_space_blocks(), 4.0);
  EXPECT_EQ(ev->total_space_blocks(), 4.0);
  EXPECT_EQ(ev->num_stages(), 1);
}

TEST_F(StagedTest, SelectTwoStagesSameTotals) {
  auto term = Select(Scan("A"), CmpLiteral("k", CompareOp::kLt, int64_t{5}));
  auto ev = Make(term, Fulfillment::kFull);
  ASSERT_TRUE(
      ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))}}).ok());
  ASSERT_TRUE(
      ev->ExecuteStage({{"A", BlocksOf(a_, Range(2, 4))}}).ok());
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(ev->cum_hits(), *exact);
  EXPECT_EQ(ev->cum_points(), 16.0);
  EXPECT_EQ(ev->num_stages(), 2);
}

TEST_F(StagedTest, PartialSampleCountsOnlySampledTuples) {
  auto term = Select(Scan("A"), CmpLiteral("k", CompareOp::kLt, int64_t{5}));
  auto ev = Make(term, Fulfillment::kFull);
  // Blocks 0..1 hold keys 0..7 -> 5 hits among keys {0,1,2,3,4}.
  ASSERT_TRUE(
      ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))}}).ok());
  EXPECT_EQ(ev->cum_points(), 8.0);
  EXPECT_EQ(ev->cum_hits(), 5);
  EXPECT_EQ(ev->cum_space_blocks(), 2.0);
}

TEST_F(StagedTest, IntersectFullCoverageMatchesExactAcrossStages) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(*exact, 4);  // tuples (4..7, 104..107)

  auto ev = Make(term, Fulfillment::kFull);
  // Stage 1: first half of A, second half of B; stage 2: the rest. Only
  // full fulfillment's cross-stage merges can find all matches.
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))},
                                {"B", BlocksOf(b_, Range(2, 4))}})
                  .ok());
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(2, 4))},
                                {"B", BlocksOf(b_, Range(0, 2))}})
                  .ok());
  EXPECT_EQ(ev->cum_hits(), *exact);
  EXPECT_EQ(ev->cum_points(), 256.0);
  EXPECT_EQ(ev->total_points(), 256.0);
  EXPECT_EQ(ev->cum_space_blocks(), 16.0);
  EXPECT_EQ(ev->total_space_blocks(), 16.0);
}

TEST_F(StagedTest, PartialFulfillmentCoversOnlyStagePairs) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto ev = Make(term, Fulfillment::kPartial);
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))},
                                {"B", BlocksOf(b_, Range(2, 4))}})
                  .ok());
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(2, 4))},
                                {"B", BlocksOf(b_, Range(0, 2))}})
                  .ok());
  // Each stage covers 8×8 = 64 points; two stages cover 128 < 256.
  EXPECT_EQ(ev->cum_points(), 128.0);
  EXPECT_EQ(ev->cum_space_blocks(), 8.0);
  // The matching tuples (k=4..7) live in A blocks 1 (k 4..7) and B blocks
  // 1; stage 1 evaluated A[0,1]×B[2,3], stage 2 A[2,3]×B[0,1]: no match
  // pair was co-evaluated.
  EXPECT_EQ(ev->cum_hits(), 0);
}

TEST_F(StagedTest, JoinFullCoverageMatchesExact) {
  auto term = Join(Scan("A"), Scan("B"), {{"k", "k"}});
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(*exact, 16);  // keys 0..15 all match exactly once

  auto ev = Make(term, Fulfillment::kFull);
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 1))},
                                {"B", BlocksOf(b_, Range(3, 4))}})
                  .ok());
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(1, 4))},
                                {"B", BlocksOf(b_, Range(0, 3))}})
                  .ok());
  EXPECT_EQ(ev->cum_hits(), *exact);
  EXPECT_EQ(ev->cum_points(), 256.0);
}

TEST_F(StagedTest, SelectOverJoinComposes) {
  auto term = Select(Join(Scan("A"), Scan("B"), {{"k", "k"}}),
                     CmpLiteral("k", CompareOp::kLt, int64_t{6}));
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  auto ev = Make(term, Fulfillment::kFull);
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))},
                                {"B", BlocksOf(b_, Range(0, 2))}})
                  .ok());
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(2, 4))},
                                {"B", BlocksOf(b_, Range(2, 4))}})
                  .ok());
  EXPECT_EQ(ev->cum_hits(), *exact);
}

TEST_F(StagedTest, ProjectRootCountsDistinctGroups) {
  // v % values: A's v = 100+i all distinct, so project onto (k % ...) —
  // instead build a relation with duplicate v values.
  Catalog catalog;
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 16; ++i) rows.push_back({i, i % 3});
  auto d = MakeRel("D", rows);
  ASSERT_TRUE(catalog.Register(d).ok());
  auto term = Project(Scan("D"), {"v"});
  auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                        nullptr, CostModel::Sun360());
  ASSERT_TRUE(ev.ok());
  ASSERT_TRUE((*ev)
                  ->ExecuteStage({{"D", BlocksOf(d, Range(0, 2))}})
                  .ok());
  ASSERT_TRUE((*ev)
                  ->ExecuteStage({{"D", BlocksOf(d, Range(2, 4))}})
                  .ok());
  EXPECT_TRUE((*ev)->root_is_project());
  EXPECT_EQ((*ev)->cum_hits(), 3);  // groups 0, 1, 2
  auto occ = (*ev)->RootOccupancies();
  int64_t total = 0;
  for (int64_t c : occ) total += c;
  EXPECT_EQ(total, 16);
}

TEST_F(StagedTest, StageRecordsTrackNewPointsAndCosts) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto ev = Make(term, Fulfillment::kFull);
  double before = clock_.Now();
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))},
                                {"B", BlocksOf(b_, Range(0, 2))}})
                  .ok());
  double mid = clock_.Now();
  EXPECT_GT(mid, before);
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(2, 4))},
                                {"B", BlocksOf(b_, Range(2, 4))}})
                  .ok());
  const StagedNode& root = ev->root();
  ASSERT_EQ(root.stages.size(), 2u);
  EXPECT_EQ(root.stages[0].new_points, 64.0);
  // Stage 2 full fulfillment: 16*16 - 8*8 = 192 new points.
  EXPECT_EQ(root.stages[1].new_points, 192.0);
  // Full fulfillment does three merges at stage 2 (new×new, new×old,
  // old×new) vs one at stage 1, so it reads more tuples even though the
  // realized seconds can be lower (stage 1 found more matches to write).
  EXPECT_GT(root.stages[1].process.in_tuples,
            root.stages[0].process.in_tuples);
  EXPECT_GT(root.stages[0].seconds, 0.0);
  EXPECT_GT(root.stages[1].seconds, 0.0);
  // Node ids are assigned pre-order: intersect=0, scans 1 and 2.
  auto nodes = ev->NodesPreOrder();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->kind, ExprKind::kIntersect);
  EXPECT_EQ(nodes[0]->id, 0);
  EXPECT_EQ(nodes[1]->kind, ExprKind::kScan);
  EXPECT_EQ(nodes[2]->kind, ExprKind::kScan);
}

TEST_F(StagedTest, RejectsUnionTerm) {
  auto bad = StagedTermEvaluator::Create(Union(Scan("A"), Scan("B")),
                                         catalog_, Fulfillment::kFull,
                                         nullptr, CostModel::Sun360());
  EXPECT_FALSE(bad.ok());
}

TEST_F(StagedTest, RejectsNestedProject) {
  auto term = Select(Project(Scan("A"), {"k"}),
                     CmpLiteral("k", CompareOp::kLt, int64_t{3}));
  auto bad = StagedTermEvaluator::Create(term, catalog_, Fulfillment::kFull,
                                         nullptr, CostModel::Sun360());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotImplemented);
}

TEST_F(StagedTest, RejectsRepeatedRelation) {
  auto bad = StagedTermEvaluator::Create(
      Join(Scan("A"), Scan("A"), {{"k", "k"}}), catalog_, Fulfillment::kFull,
      nullptr, CostModel::Sun360());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotImplemented);
}

TEST_F(StagedTest, HybridModeCoverageAccounting) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto ev = Make(term, Fulfillment::kFull);
  // Stage 1 full: 2×2 blocks -> covers 4 space blocks.
  ASSERT_TRUE(ev->ExecuteStageWithMode({{"A", BlocksOf(a_, Range(0, 2))},
                                        {"B", BlocksOf(b_, Range(0, 2))}},
                                       Fulfillment::kFull)
                  .ok());
  EXPECT_EQ(ev->cum_space_blocks(), 4.0);
  // Stage 2 partial: only the new 1×1 combination adds coverage.
  ASSERT_TRUE(ev->ExecuteStageWithMode({{"A", BlocksOf(a_, Range(2, 3))},
                                        {"B", BlocksOf(b_, Range(2, 3))}},
                                       Fulfillment::kPartial)
                  .ok());
  EXPECT_EQ(ev->cum_space_blocks(), 5.0);
  // bf = 4: stage 1 covers (2·4)² = 64 points, stage 2 adds 4·4 = 16.
  EXPECT_EQ(ev->cum_points(), 80.0);
  // A full stage after a partial one is rejected: its all-pairs merges
  // would assume combinations the partial stage never evaluated.
  EXPECT_FALSE(
      ev->ExecuteStageWithMode({{"A", BlocksOf(a_, Range(3, 4))},
                                {"B", BlocksOf(b_, Range(3, 4))}},
                               Fulfillment::kFull)
          .ok());
  // Another partial stage is fine.
  EXPECT_TRUE(
      ev->ExecuteStageWithMode({{"A", BlocksOf(a_, Range(3, 4))},
                                {"B", BlocksOf(b_, Range(3, 4))}},
                               Fulfillment::kPartial)
          .ok());
  EXPECT_EQ(ev->cum_space_blocks(), 6.0);
}

TEST_F(StagedTest, MissingRelationInStageFails) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto ev = Make(term, Fulfillment::kFull);
  EXPECT_FALSE(
      ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 1))}}).ok());
}

/// A fake clock that advances one millisecond on every read.
class TickingClock : public Clock {
 public:
  double Now() const override { return 0.001 * static_cast<double>(ticks_++); }

 private:
  mutable int64_t ticks_ = 0;
};

TEST_F(StagedTest, WallClockScanRecordsItsRealSeconds) {
  auto term = Intersect(Scan("A"), Scan("B"));
  auto ev = Make(term, Fulfillment::kFull);
  TickingClock clock;
  ev->MeasureStepsWith(&clock);
  ASSERT_TRUE(ev->ExecuteStage({{"A", BlocksOf(a_, Range(0, 2))},
                                {"B", BlocksOf(b_, Range(0, 2))}})
                  .ok());
  int scans = 0;
  for (const StagedNode* node : ev->NodesPreOrder()) {
    if (node->kind != ExprKind::kScan) continue;
    ++scans;
    ASSERT_EQ(node->stages.size(), 1u);
    EXPECT_GT(node->stages[0].seconds, 0.0) << node->rel->name();
  }
  EXPECT_EQ(scans, 2);
}

/// Joins whose output some reader consumes materialize it; the paper's
/// workloads never nest a join, so these shapes are covered here. Four
/// relations of 6,000 tuples (1,500 blocks), every key on two tuples of
/// each: a join's stage output runs into thousands of tuples, so the
/// parent's merges split into several chunks and run on the pool.
class JoinMaterializationTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 6000;
  static constexpr int64_t kKeys = 3000;

  void SetUp() override {
    std::vector<std::pair<int64_t, int64_t>> a, b, c, d;
    for (int64_t i = 0; i < kRows; ++i) {
      a.push_back({i % kKeys, i});
      b.push_back({i % kKeys, 1000000 + i});
      c.push_back({i % kKeys, i});
      // D agrees with B on two thirds of its tuples.
      d.push_back({i % kKeys, (i % 3 == 0 ? 2000000 : 1000000) + i});
    }
    for (const auto& [name, rows] :
         {std::pair{"A", a}, std::pair{"B", b}, std::pair{"C", c},
          std::pair{"D", d}}) {
      ASSERT_TRUE(catalog_.Register(MakeRel(name, rows)).ok());
    }
  }

  /// Everything one full-sampling run leaves behind that must not depend
  /// on the thread count.
  struct Outcome {
    int64_t hits = 0;
    double points = 0.0;
    double value_sum = 0.0;
    double value_sq_sum = 0.0;
    double charged = 0.0;
    int tasks = 0;  // sort and merge-chunk tasks over both stages
    std::vector<NodeStageRecord> records;  // every node, every stage
  };

  /// Samples every block of every relation in two uneven stages.
  Outcome RunFull(const ExprPtr& term, int threads, int value_col = -1) {
    Outcome out;
    VirtualClock clock;
    CostLedger ledger(&clock);
    auto created = StagedTermEvaluator::Create(
        term, catalog_, Fulfillment::kFull, &ledger, CostModel::Sun360());
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return out;
    std::unique_ptr<StagedTermEvaluator> ev = std::move(*created);
    ThreadPool pool(threads - 1);
    ev->UseThreadPool(&pool);
    if (value_col >= 0) {
      EXPECT_TRUE(ev->TrackValueColumn(value_col).ok());
    }
    const int64_t cut = 1100;
    for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{0, cut},
                                 std::pair<int64_t, int64_t>{cut, 1500}}) {
      std::map<std::string, std::vector<const Block*>> blocks;
      for (const StagedNode* node : ev->NodesPreOrder()) {
        if (node->kind == ExprKind::kScan) {
          blocks[node->rel->name()] = BlocksOf(node->rel, Range(lo, hi));
        }
      }
      EXPECT_TRUE(ev->ExecuteStage(blocks).ok());
      out.tasks += ev->last_stage_parallelism().tasks;
    }
    out.hits = ev->cum_hits();
    out.points = ev->cum_points();
    out.value_sum = ev->cum_value_sum();
    out.value_sq_sum = ev->cum_value_sq_sum();
    out.charged = ledger.GrandTotal();
    for (const StagedNode* node : ev->NodesPreOrder()) {
      out.records.insert(out.records.end(), node->stages.begin(),
                         node->stages.end());
    }
    return out;
  }

  /// Runs `term` at threads 1 | 4 | 8; every run must equal the serial
  /// run bit for bit. Returns the serial run.
  Outcome ExpectIdenticalEverywhere(const ExprPtr& term, int value_col = -1) {
    Outcome base = RunFull(term, 1, value_col);
    for (int threads : {1, 4, 8}) {
      Outcome o = RunFull(term, threads, value_col);
      SCOPED_TRACE(testing::Message() << "threads " << threads);
      EXPECT_EQ(o.hits, base.hits);
      EXPECT_EQ(o.points, base.points);
      EXPECT_EQ(o.value_sum, base.value_sum);
      EXPECT_EQ(o.value_sq_sum, base.value_sq_sum);
      EXPECT_EQ(o.charged, base.charged);
      EXPECT_EQ(o.tasks, base.tasks);
      EXPECT_EQ(o.records.size(), base.records.size());
      for (size_t i = 0; i < std::min(o.records.size(), base.records.size());
           ++i) {
        const NodeStageRecord& r = o.records[i];
        const NodeStageRecord& b = base.records[i];
        EXPECT_EQ(r.new_tuples, b.new_tuples) << "record " << i;
        EXPECT_EQ(r.new_points, b.new_points) << "record " << i;
        EXPECT_EQ(r.sort.comparisons, b.sort.comparisons) << "record " << i;
        EXPECT_EQ(r.process.comparisons, b.process.comparisons)
            << "record " << i;
        EXPECT_EQ(r.output.out_pages, b.output.out_pages) << "record " << i;
        EXPECT_EQ(r.seconds, b.seconds) << "record " << i;
      }
    }
    return base;
  }

  Catalog catalog_;
};

TEST_F(JoinMaterializationTest, SelectOverJoinMatchesExact) {
  auto term = Select(Join(Scan("A"), Scan("B"), {{"k", "k"}}),
                     CmpLiteral("v", CompareOp::kLt, int64_t{2500}));
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(*exact, 0);
  Outcome run = ExpectIdenticalEverywhere(term);
  EXPECT_EQ(run.hits, *exact);
}

TEST_F(JoinMaterializationTest, IntersectOfTwoJoinsMatchesExact) {
  auto term = Intersect(Join(Scan("A"), Scan("B"), {{"k", "k"}}),
                        Join(Scan("C"), Scan("D"), {{"k", "k"}}));
  auto exact = ExactCount(term, catalog_);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(*exact, 0);
  Outcome run = ExpectIdenticalEverywhere(term);
  EXPECT_EQ(run.hits, *exact);
  // Three binary nodes sort two runs and merge 1 + 3 run pairs over the
  // two stages: 24 tasks if no merge split. The joins' outputs are large
  // enough that the intersect's merges do split into several chunks.
  EXPECT_GT(run.tasks, 24);
}

TEST_F(JoinMaterializationTest, SumOverRootJoinMatchesExact) {
  auto term = Join(Scan("A"), Scan("B"), {{"k", "k"}});
  auto exact_sum = ExactSum(term, "r_v", catalog_);
  auto exact_count = ExactCount(term, catalog_);
  ASSERT_TRUE(exact_sum.ok());
  ASSERT_TRUE(exact_count.ok());
  Outcome run = ExpectIdenticalEverywhere(term, /*value_col=*/3);
  EXPECT_EQ(run.value_sum, *exact_sum);
  EXPECT_EQ(run.hits, *exact_count);
}

/// Runs borrow block memory owned by the relations the scan nodes hold, so
/// stages keep running after the catalog — and every other handle on the
/// relations — is gone. Under AddressSanitizer (ci.sh asan) any read of a
/// freed block would fail this test.
TEST(StagedLifetimeTest, StagesRunAfterTheCatalogIsDestroyed) {
  auto catalog = std::make_unique<Catalog>();
  {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (int64_t i = 0; i < 64; ++i) rows.push_back({i % 16, i});
    for (const char* name : {"A", "B", "C", "D"}) {
      ASSERT_TRUE(catalog->Register(MakeRel(name, rows)).ok());
    }
  }
  auto term = Select(Intersect(Join(Scan("A"), Scan("B"), {{"k", "k"}}),
                               Join(Scan("C"), Scan("D"), {{"k", "k"}})),
                     CmpLiteral("k", CompareOp::kLt, int64_t{12}));
  auto exact = ExactCount(term, *catalog);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(*exact, 0);
  auto created = StagedTermEvaluator::Create(
      term, *catalog, Fulfillment::kFull, nullptr, CostModel::Sun360());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<StagedTermEvaluator> ev = std::move(*created);
  catalog.reset();
  for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{0, 5},
                               std::pair<int64_t, int64_t>{5, 16}}) {
    std::map<std::string, std::vector<const Block*>> blocks;
    for (const StagedNode* node : ev->NodesPreOrder()) {
      if (node->kind == ExprKind::kScan) {
        EXPECT_EQ(node->rel.use_count(), 1) << "only the scan holds it";
        for (int64_t b = lo; b < hi; ++b) {
          blocks[node->rel->name()].push_back(node->rel->ViewBlock(b).raw());
        }
      }
    }
    ASSERT_TRUE(ev->ExecuteStage(blocks).ok());
  }
  EXPECT_EQ(ev->cum_hits(), *exact);
}

/// Property: pooling random cluster samples, the ratio estimator
/// B·hits/b applied to a select term is unbiased — its mean over many
/// independent samples approaches the exact count.
class ClusterUnbiasednessTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterUnbiasednessTest, SelectEstimatorCentersOnExact) {
  const int sample_blocks = GetParam();
  Schema schema = KV();
  auto rel = Relation::Create("R", schema, 64);
  ASSERT_TRUE(rel.ok());
  Rng data_rng(99);
  for (int64_t i = 0; i < 200; ++i) {
    rel->AppendUnchecked({data_rng.UniformInt(0, 9), i});
  }
  auto r = std::make_shared<Relation>(std::move(*rel));
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(r).ok());
  auto term = Select(Scan("R"), CmpLiteral("k", CompareOp::kLt, int64_t{3}));
  auto exact = ExactCount(term, catalog);
  ASSERT_TRUE(exact.ok());

  Rng rng(1234 + static_cast<uint64_t>(sample_blocks));
  const int reps = 600;
  double sum = 0.0;
  const int64_t num_blocks = r->NumBlocks();
  for (int rep = 0; rep < reps; ++rep) {
    auto ev = StagedTermEvaluator::Create(term, catalog, Fulfillment::kFull,
                                          nullptr, CostModel::Sun360());
    ASSERT_TRUE(ev.ok());
    auto idx = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(num_blocks),
        static_cast<uint32_t>(sample_blocks));
    std::vector<const Block*> blocks;
    for (uint32_t i : idx) blocks.push_back(r->ViewBlock(i).raw());
    ASSERT_TRUE((*ev)->ExecuteStage({{"R", blocks}}).ok());
    double estimate = (*ev)->total_space_blocks() *
                      static_cast<double>((*ev)->cum_hits()) /
                      (*ev)->cum_space_blocks();
    sum += estimate;
  }
  double mean = sum / reps;
  // Standard error of the mean across 600 reps is small; 10% tolerance.
  EXPECT_NEAR(mean, static_cast<double>(*exact), 0.1 * *exact);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, ClusterUnbiasednessTest,
                         ::testing::Values(5, 10, 25));

}  // namespace
}  // namespace tcq
