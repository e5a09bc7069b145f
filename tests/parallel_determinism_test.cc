// The threading contract of DESIGN.md: at the same seed, a simulated run
// is bit-identical for ANY thread count — substream-seeded sampling, a
// data-dependent task decomposition, and fixed-order post-barrier
// reductions make the worker count unobservable to the estimates.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "ra/expr.h"
#include "workload/generators.h"

namespace tcq {
namespace {

// Quota is unified into ExecutorOptions::quota_s (the pre-unification
// overloads are gone); set it via this copy-and-set helper.
ExecutorOptions WithQuota(ExecutorOptions options, double quota_s) {
  options.quota_s = quota_s;
  return options;
}


ExecutorOptions BaseOptions(int threads) {
  ExecutorOptions options;
  options.strategy.one_at_a_time.d_beta = 24.0;
  options.seed = 42;
  options.threads = threads;
  return options;
}

QueryResult MustRun(const ExprPtr& query, const Catalog& catalog,
                    double quota_s, const ExecutorOptions& options) {
  auto r = RunTimeConstrainedCount(query, catalog, WithQuota(options, quota_s));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

void ExpectBitIdentical(const QueryResult& serial,
                        const QueryResult& parallel) {
  EXPECT_EQ(serial.estimate, parallel.estimate);
  EXPECT_EQ(serial.variance, parallel.variance);
  EXPECT_EQ(serial.ci.lo, parallel.ci.lo);
  EXPECT_EQ(serial.ci.hi, parallel.ci.hi);
  EXPECT_EQ(serial.blocks_sampled, parallel.blocks_sampled);
  EXPECT_EQ(serial.stages_run, parallel.stages_run);
  EXPECT_EQ(serial.stages_counted, parallel.stages_counted);
  EXPECT_EQ(serial.elapsed_seconds, parallel.elapsed_seconds);
  ASSERT_EQ(serial.stages().size(), parallel.stages().size());
  for (size_t i = 0; i < serial.stages().size(); ++i) {
    EXPECT_EQ(serial.stages()[i].planned_fraction,
              parallel.stages()[i].planned_fraction);
    EXPECT_EQ(serial.stages()[i].blocks_drawn, parallel.stages()[i].blocks_drawn);
    EXPECT_EQ(serial.stages()[i].predicted_seconds,
              parallel.stages()[i].predicted_seconds);
    EXPECT_EQ(serial.stages()[i].actual_seconds,
              parallel.stages()[i].actual_seconds);
    EXPECT_EQ(serial.stages()[i].estimate_after,
              parallel.stages()[i].estimate_after);
    EXPECT_EQ(serial.stages()[i].variance_after,
              parallel.stages()[i].variance_after);
  }
}

TEST(ParallelDeterminismTest, SelectionQuery) {
  auto workload = MakeSelectionWorkload(2000, /*seed=*/2024);
  ASSERT_TRUE(workload.ok());
  QueryResult serial = MustRun(workload->query, workload->catalog, 5.0,
                               BaseOptions(/*threads=*/1));
  QueryResult parallel = MustRun(workload->query, workload->catalog, 5.0,
                                 BaseOptions(/*threads=*/4));
  ASSERT_GT(serial.stages_counted, 0);
  ExpectBitIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, JoinQuery) {
  auto workload = MakeJoinWorkload(70000, /*seed=*/777);
  ASSERT_TRUE(workload.ok());
  ExecutorOptions serial_opts = BaseOptions(1);
  serial_opts.selectivity.initial_join = 0.1;
  ExecutorOptions parallel_opts = BaseOptions(4);
  parallel_opts.selectivity.initial_join = 0.1;
  QueryResult serial =
      MustRun(workload->query, workload->catalog, 2.5, serial_opts);
  QueryResult parallel =
      MustRun(workload->query, workload->catalog, 2.5, parallel_opts);
  ASSERT_GT(serial.stages_counted, 0);
  ExpectBitIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, UnionWithInclusionExclusion) {
  // COUNT(σ(r1) ∪ σ(r2)) expands into three sampled terms
  // (+σr1, +σr2, −σr1∩σr2), so the term-level fan-out is exercised.
  auto workload = MakeIntersectionWorkload(5000, /*seed=*/12);
  ASSERT_TRUE(workload.ok());
  ExprPtr query = Union(
      Select(Scan("r1"), CmpLiteral("key", CompareOp::kLt, 6000)),
      Select(Scan("r2"), CmpLiteral("key", CompareOp::kLt, 8000)));
  QueryResult serial =
      MustRun(query, workload->catalog, 8.0, BaseOptions(/*threads=*/1));
  QueryResult parallel =
      MustRun(query, workload->catalog, 8.0, BaseOptions(/*threads=*/4));
  ASSERT_GT(serial.stages_counted, 0);
  ExpectBitIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, WidthsTwoAndEightMatchToo) {
  auto workload = MakeIntersectionWorkload(5000, /*seed=*/31);
  ASSERT_TRUE(workload.ok());
  QueryResult w2 = MustRun(workload->query, workload->catalog, 4.0,
                           BaseOptions(/*threads=*/2));
  QueryResult w8 = MustRun(workload->query, workload->catalog, 4.0,
                           BaseOptions(/*threads=*/8));
  ASSERT_GT(w2.stages_counted, 0);
  ExpectBitIdentical(w2, w8);
}

TEST(ParallelDeterminismTest, FinalPartialStagesStayDeterministic) {
  auto workload = MakeIntersectionWorkload(5000, /*seed=*/9);
  ASSERT_TRUE(workload.ok());
  ExecutorOptions serial_opts = BaseOptions(1);
  serial_opts.final_partial_stages = true;
  ExecutorOptions parallel_opts = BaseOptions(4);
  parallel_opts.final_partial_stages = true;
  QueryResult serial =
      MustRun(workload->query, workload->catalog, 3.0, serial_opts);
  QueryResult parallel =
      MustRun(workload->query, workload->catalog, 3.0, parallel_opts);
  ExpectBitIdentical(serial, parallel);
}

// StageReport's parallel tally includes each evaluator's sort and merge
// fan-out, nested inside its term task, and depends only on the data. An
// intersect stage s runs 2 draw tasks, 1 term task, 2 sort tasks and one
// merge task per run pair (2s + 1 pairs under full fulfillment); runs of
// fewer than 4,096 tuples never split into several merge chunks.
TEST(ParallelDeterminismTest, StageTaskCountIncludesEvaluatorFanOut) {
  auto workload = MakeIntersectionWorkload(200, /*seed=*/31,
                                           /*num_tuples=*/2000);
  ASSERT_TRUE(workload.ok());
  std::vector<int> counts[2];
  for (int pass = 0; pass < 2; ++pass) {
    QueryResult r = MustRun(workload->query, workload->catalog, 10.0,
                            BaseOptions(/*threads=*/pass == 0 ? 4 : 1));
    ASSERT_GE(r.stages().size(), 3u);
    for (const StageReport& stage : r.stages()) {
      EXPECT_EQ(stage.parallel_tasks, 6 + 2 * stage.index)
          << "stage " << stage.index;
      counts[pass].push_back(stage.parallel_tasks);
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
}

// A run's per-category ledger op counts: the engine's shared ledger, then
// the per-term operator ledgers.
struct MeteredRun {
  QueryResult result;
  std::vector<double> ops;
};

MeteredRun RunMetered(const Workload& workload, double quota_s, int threads) {
  Metrics metrics;
  ExecutorOptions options = BaseOptions(threads);
  options.obs.metrics = &metrics;
  MeteredRun run{MustRun(workload.query, workload.catalog, quota_s, options),
                 {}};
  for (const std::string prefix : {"ledger.", "ledger.terms."}) {
    for (size_t c = 0; c < static_cast<size_t>(CostCategory::kNumCategories);
         ++c) {
      const std::string name =
          prefix +
          std::string(CostCategoryName(static_cast<CostCategory>(c))) +
          "_ops";
      run.ops.push_back(metrics.gauge(name)->value());
    }
  }
  return run;
}

// Runs the workload at widths 1, 4 and 8; all must be bit-identical with
// equal ledger op counts, and some stage must draw more than `min_rows`
// rows from each relation.
void ExpectIdenticalAtEveryWidth(const Workload& workload, double quota_s,
                                 int relations, size_t min_rows) {
  const MeteredRun serial = RunMetered(workload, quota_s, /*threads=*/1);
  ASSERT_GT(serial.result.stages_counted, 0);
  int64_t most_blocks = 0;
  for (const StageReport& stage : serial.result.stages()) {
    most_blocks = std::max(most_blocks, stage.blocks_drawn);
  }
  auto r1 = workload.catalog.Find("r1");
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(most_blocks / relations * (*r1)->blocking_factor(),
            static_cast<int64_t>(min_rows));
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const MeteredRun parallel = RunMetered(workload, quota_s, threads);
    ExpectBitIdentical(serial.result, parallel.result);
    EXPECT_EQ(serial.ops, parallel.ops);
  }
}

// The chunked scan fill and selection fire only on stages of more than
// kPassChunk tuples, which the relations above never reach: 100,000
// tuples do.
TEST(ParallelDeterminismTest, ChunkedSelectionAtScale) {
  auto workload = MakeSelectionWorkload(20000, /*seed=*/41,
                                        /*num_tuples=*/100000);
  ASSERT_TRUE(workload.ok());
  ExpectIdenticalAtEveryWidth(*workload, 400.0, /*relations=*/1,
                              kPassChunk);
}

// Sorted runs above kPassChunk take the chunked prefix build and fork
// their partitions (kSortForkCutoff is smaller).
TEST(ParallelDeterminismTest, ForkedSortIntersectionAtScale) {
  auto workload = MakeIntersectionWorkload(20000, /*seed=*/43,
                                           /*num_tuples=*/100000);
  ASSERT_TRUE(workload.ok());
  ExpectIdenticalAtEveryWidth(*workload, 3000.0, /*relations=*/2,
                              kPassChunk);
}

}  // namespace
}  // namespace tcq
