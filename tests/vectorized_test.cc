// The columnar layout's load-bearing contract (DESIGN.md §11): the
// vectorized kernels produce bit-identical outputs, comparison counts and
// simulated-time charges to the row kernels, so a whole query run under
// Layout::kColumnar returns the very same estimate, variance and stage
// schedule as under Layout::kRow — at any thread count, with warm-start
// replay, and under fault injection.

#include "exec/vectorized.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cache/warm_start.h"
#include "engine/executor.h"
#include "exec/operators.h"
#include "ra/predicate.h"
#include "sim/ledger.h"
#include "util/random.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Schema MixedSchema() {
  return Schema({{"i", DataType::kInt64, 0},
                 {"d", DataType::kDouble, 0},
                 {"s", DataType::kString, 8}});
}

int Sign(int64_t v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

std::vector<Tuple> RandomMixedTuples(int n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<int64_t> int_edges = {
      0, 1, -1, int64_t{1} << 40, -(int64_t{1} << 40),
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max()};
  const std::vector<double> dbl_edges = {0.0,  -0.0, 1.5,
                                         -1.5, 1e300, -1e300};
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    int64_t i = rng.Uniform(4) == 0
                    ? int_edges[rng.Uniform(int_edges.size())]
                    : rng.UniformInt(-1000, 1000);
    double d = rng.Uniform(4) == 0
                   ? dbl_edges[rng.Uniform(dbl_edges.size())]
                   : static_cast<double>(rng.UniformInt(-50, 50)) / 4.0;
    std::string s;
    uint64_t len = rng.Uniform(9);  // 0..8, full width included
    for (uint64_t c = 0; c < len; ++c) {
      s.push_back(static_cast<char>('a' + rng.Uniform(4)));
    }
    out.push_back(Tuple{i, d, std::move(s)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Encoded keys
// ---------------------------------------------------------------------------

TEST(EncodedKeyTest, MemcmpOrderMatchesTupleComparison) {
  Schema schema = MixedSchema();
  std::vector<Tuple> tuples = RandomMixedTuples(64, 1234);
  std::vector<uint8_t> keys;
  EncodeKeyColumns(RefsOf(tuples), schema, {}, &keys);
  const int w = EncodedKeyWidth(schema, {});
  ASSERT_EQ(keys.size(), tuples.size() * static_cast<size_t>(w));
  for (size_t a = 0; a < tuples.size(); ++a) {
    for (size_t b = 0; b < tuples.size(); ++b) {
      int by_key = Sign(std::memcmp(keys.data() + a * w, keys.data() + b * w,
                                    static_cast<size_t>(w)));
      int by_value = Sign(CompareTuples(tuples[a], tuples[b]));
      ASSERT_EQ(by_key, by_value) << "rows " << a << " vs " << b;
    }
  }
}

TEST(EncodedKeyTest, SubsetKeyMatchesKeyComparison) {
  Schema schema = MixedSchema();
  std::vector<Tuple> tuples = RandomMixedTuples(48, 77);
  const std::vector<int> key = {2, 0};  // string + int, out of order
  std::vector<uint8_t> keys;
  EncodeKeyColumns(RefsOf(tuples), schema, key, &keys);
  const int w = EncodedKeyWidth(schema, key);
  EXPECT_EQ(w, 16);
  for (size_t a = 0; a < tuples.size(); ++a) {
    for (size_t b = 0; b < tuples.size(); ++b) {
      int by_key = Sign(std::memcmp(keys.data() + a * w, keys.data() + b * w,
                                    static_cast<size_t>(w)));
      int by_value = Sign(CompareTuplesOnKey(tuples[a], tuples[b], key));
      ASSERT_EQ(by_key, by_value);
    }
  }
}

TEST(EncodedKeyTest, JoinKeyCompatibility) {
  Schema a({{"x", DataType::kInt64, 0}, {"y", DataType::kDouble, 0}});
  Schema b({{"u", DataType::kDouble, 0}, {"v", DataType::kInt64, 0}});
  Schema c({{"s", DataType::kString, 8}, {"t", DataType::kString, 16}});
  EXPECT_TRUE(ColumnarJoinKeysCompatible(a, {0}, b, {1}));
  EXPECT_TRUE(ColumnarJoinKeysCompatible(a, {1}, b, {0}));
  EXPECT_FALSE(ColumnarJoinKeysCompatible(a, {0}, b, {0}));  // int vs double
  EXPECT_FALSE(ColumnarJoinKeysCompatible(c, {0}, c, {1}));  // widths differ
  EXPECT_TRUE(ColumnarJoinKeysCompatible(c, {0}, c, {0}));
}

// ---------------------------------------------------------------------------
// Sort / merge kernel parity
// ---------------------------------------------------------------------------

TEST(VectorizedSortTest, OrderAndComparisonCountMatchRowKernel) {
  Schema schema = MixedSchema();
  for (const std::vector<int>& key :
       {std::vector<int>{}, std::vector<int>{1}, std::vector<int>{0, 2}}) {
    std::vector<Tuple> tuples = RandomMixedTuples(200, 42);
    TupleRefs rows = RefsOf(tuples);
    TupleRefs cols = rows;
    int64_t row_comp = 0, col_comp = 0;
    SortRunRange(&rows, key, &row_comp);
    std::vector<uint8_t> keys;
    SortRunRangeColumnar(&cols, schema, key, &keys, &col_comp);
    EXPECT_EQ(row_comp, col_comp);
    ASSERT_EQ(rows.size(), cols.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      // Same permutation, not just same key order: the layouts must stay
      // interchangeable even among equal-key tuples.
      ASSERT_EQ(rows[i], cols[i]) << i;
    }
    // The returned key buffer is the sorted encoding of the run.
    std::vector<uint8_t> expect_keys;
    EncodeKeyColumns(cols, schema, key, &expect_keys);
    EXPECT_EQ(keys, expect_keys);
  }
}

TEST(VectorizedMergeTest, IntersectOutputAndComparisonsMatchRowKernel) {
  Schema schema = MixedSchema();
  std::vector<Tuple> left_tuples = RandomMixedTuples(150, 7);
  std::vector<Tuple> right_tuples = RandomMixedTuples(150, 7);  // overlap
  std::vector<Tuple> extra = RandomMixedTuples(60, 8);
  right_tuples.insert(right_tuples.end(), extra.begin(), extra.end());
  TupleRefs left = RefsOf(left_tuples);
  TupleRefs right = RefsOf(right_tuples);
  int64_t ignore = 0;
  SortRunRange(&left, {}, &ignore);
  SortRunRange(&right, {}, &ignore);
  std::vector<uint8_t> lkeys, rkeys;
  EncodeKeyColumns(left, schema, {}, &lkeys);
  EncodeKeyColumns(right, schema, {}, &rkeys);

  int64_t row_comp = 0, col_comp = 0;
  TupleRefs row_out, col_out;
  int64_t row_n = MergeIntersectRange(left, right, &row_out, &row_comp);
  int64_t col_n = MergeIntersectRangeColumnar(
      left, lkeys.data(), right, rkeys.data(), EncodedKeyWidth(schema, {}),
      &col_out, &col_comp);
  EXPECT_EQ(row_comp, col_comp);
  ASSERT_EQ(row_out.size(), col_out.size());
  for (size_t i = 0; i < row_out.size(); ++i) {
    ASSERT_EQ(CompareTuples(*row_out[i], *col_out[i]), 0) << i;
  }
  EXPECT_EQ(row_n, static_cast<int64_t>(row_out.size()));
  EXPECT_EQ(col_n, static_cast<int64_t>(col_out.size()));
}

TEST(VectorizedMergeTest, JoinOutputAndComparisonsMatchRowKernel) {
  Schema schema = MixedSchema();
  const std::vector<int> key = {0};
  std::vector<Tuple> left_tuples = RandomMixedTuples(120, 5);
  std::vector<Tuple> right_tuples = RandomMixedTuples(140, 6);
  // Collapse int keys into a small domain so groups have multiplicity.
  for (auto* run : {&left_tuples, &right_tuples}) {
    for (Tuple& t : *run) {
      t[0] = std::get<int64_t>(t[0]) % 16;
    }
  }
  TupleRefs left = RefsOf(left_tuples);
  TupleRefs right = RefsOf(right_tuples);
  int64_t ignore = 0;
  SortRunRange(&left, key, &ignore);
  SortRunRange(&right, key, &ignore);
  std::vector<uint8_t> lkeys, rkeys;
  EncodeKeyColumns(left, schema, key, &lkeys);
  EncodeKeyColumns(right, schema, key, &rkeys);

  int64_t row_comp = 0, col_comp = 0;
  std::vector<Tuple> row_out, col_out;
  int64_t row_n = MergeJoinRange(left, key, right, key, &row_out, &row_comp);
  int64_t col_n = MergeJoinRangeColumnar(
      left, lkeys.data(), right, rkeys.data(), EncodedKeyWidth(schema, key),
      &col_out, &col_comp);
  EXPECT_EQ(row_comp, col_comp);
  ASSERT_EQ(row_out.size(), col_out.size());
  for (size_t i = 0; i < row_out.size(); ++i) {
    ASSERT_EQ(CompareTuples(row_out[i], col_out[i]), 0) << i;
  }
  EXPECT_EQ(row_n, static_cast<int64_t>(row_out.size()));
  EXPECT_EQ(col_n, static_cast<int64_t>(col_out.size()));
}

// A result nobody reads is counted, never built: with a null output the
// merge kernels return the same count after the same comparisons.
TEST(VectorizedMergeTest, CountOnlyMergesMatchEmittingMerges) {
  Schema schema = MixedSchema();
  const std::vector<int> key = {0};
  std::vector<Tuple> left_tuples = RandomMixedTuples(120, 11);
  std::vector<Tuple> right_tuples = RandomMixedTuples(140, 12);
  for (auto* run : {&left_tuples, &right_tuples}) {
    for (Tuple& t : *run) {
      t[0] = std::get<int64_t>(t[0]) % 8;
    }
  }
  right_tuples.insert(right_tuples.end(), left_tuples.begin(),
                      left_tuples.begin() + 30);
  for (const std::vector<int>& k : {std::vector<int>{}, key}) {
    TupleRefs left = RefsOf(left_tuples);
    TupleRefs right = RefsOf(right_tuples);
    int64_t ignore = 0;
    SortRunRange(&left, k, &ignore);
    SortRunRange(&right, k, &ignore);
    std::vector<uint8_t> lkeys, rkeys;
    EncodeKeyColumns(left, schema, k, &lkeys);
    EncodeKeyColumns(right, schema, k, &rkeys);
    const int w = EncodedKeyWidth(schema, k);
    int64_t emit_comp = 0, count_comp = 0;
    int64_t col_emit_comp = 0, col_count_comp = 0;
    if (k.empty()) {
      TupleRefs out, col_out;
      int64_t emitted = MergeIntersectRange(left, right, &out, &emit_comp);
      EXPECT_EQ(MergeIntersectRange(left, right, nullptr, &count_comp),
                emitted);
      EXPECT_EQ(MergeIntersectRangeColumnar(left, lkeys.data(), right,
                                            rkeys.data(), w, &col_out,
                                            &col_emit_comp),
                emitted);
      EXPECT_EQ(MergeIntersectRangeColumnar(left, lkeys.data(), right,
                                            rkeys.data(), w, nullptr,
                                            &col_count_comp),
                emitted);
      EXPECT_GT(emitted, 0);
    } else {
      std::vector<Tuple> out, col_out;
      int64_t emitted = MergeJoinRange(left, k, right, k, &out, &emit_comp);
      EXPECT_EQ(MergeJoinRange(left, k, right, k, nullptr, &count_comp),
                emitted);
      EXPECT_EQ(MergeJoinRangeColumnar(left, lkeys.data(), right,
                                       rkeys.data(), w, &col_out,
                                       &col_emit_comp),
                emitted);
      EXPECT_EQ(MergeJoinRangeColumnar(left, lkeys.data(), right,
                                       rkeys.data(), w, nullptr,
                                       &col_count_comp),
                emitted);
      EXPECT_GT(emitted, 0);
    }
    EXPECT_EQ(emit_comp, count_comp);
    EXPECT_EQ(emit_comp, col_emit_comp);
    EXPECT_EQ(emit_comp, col_count_comp);
  }
}

// ---------------------------------------------------------------------------
// Batch predicate evaluation
// ---------------------------------------------------------------------------

TEST(EvalBatchTest, MatchesScalarEvalOnEveryRow) {
  // Two columns per type so column-vs-column comparisons (same-type only,
  // enforced at Bind) exercise non-degenerate masks.
  Schema schema({{"i", DataType::kInt64, 0},
                 {"j", DataType::kInt64, 0},
                 {"d", DataType::kDouble, 0},
                 {"e", DataType::kDouble, 0},
                 {"s", DataType::kString, 8},
                 {"t", DataType::kString, 8}});
  std::vector<Tuple> base = RandomMixedTuples(300, 2024);
  std::vector<Tuple> shifted = RandomMixedTuples(300, 4048);
  std::vector<Tuple> tuples;
  tuples.reserve(base.size());
  for (size_t k = 0; k < base.size(); ++k) {
    tuples.push_back(Tuple{base[k][0], shifted[k][0], base[k][1],
                           shifted[k][1], base[k][2], shifted[k][2]});
  }
  ColumnBatch batch;
  batch.Configure(schema, static_cast<int64_t>(tuples.size()));
  for (const Tuple& t : tuples) batch.AppendRow(t);

  const std::vector<PredicatePtr> predicates = {
      CmpLiteral("i", CompareOp::kLt, int64_t{10}),
      CmpLiteral("d", CompareOp::kGe, -0.0),
      CmpLiteral("s", CompareOp::kEq, std::string("ab")),
      CmpLiteral("s", CompareOp::kLe, std::string("abcdefgh")),
      // Literal longer than the column width: every cell is a strict
      // prefix, so only kLt/kNe-style outcomes can hold.
      CmpLiteral("s", CompareOp::kLt, std::string("abcdefghi")),
      CmpColumns("i", CompareOp::kLt, "j"),
      CmpColumns("d", CompareOp::kGe, "e"),
      CmpColumns("s", CompareOp::kGt, "t"),
      CmpColumns("s", CompareOp::kEq, "s"),
      And(CmpLiteral("i", CompareOp::kGe, int64_t{-100}),
          Or(CmpLiteral("d", CompareOp::kNe, 0.0),
             Not(CmpLiteral("s", CompareOp::kEq, std::string())))),
  };
  for (const PredicatePtr& p : predicates) {
    auto bound = BoundPredicate::Bind(p, schema);
    ASSERT_TRUE(bound.ok()) << p->ToString();
    std::vector<uint8_t> mask;
    bound->EvalBatch(batch, &mask);
    ASSERT_EQ(mask.size(), tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      ASSERT_EQ(mask[i] != 0, bound->Eval(tuples[i]))
          << p->ToString() << " row " << i;
    }
  }
}

TEST(SelectColumnarTest, OutputAndChargesMatchRowPath) {
  Schema schema = MixedSchema();
  std::vector<Tuple> tuples = RandomMixedTuples(250, 99);
  TupleRefs refs = RefsOf(tuples);
  ColumnBatch batch;
  batch.Configure(schema, static_cast<int64_t>(tuples.size()));
  for (const Tuple& t : tuples) batch.AppendRow(t);
  const std::vector<const ColumnBatch*> batches = {&batch};
  auto bound = BoundPredicate::Bind(
      And(CmpLiteral("i", CompareOp::kGe, int64_t{0}),
          CmpLiteral("d", CompareOp::kLt, 10.0)),
      schema);
  ASSERT_TRUE(bound.ok());
  CostModel model = CostModel::Deterministic();

  CostLedger row_ledger, col_ledger;
  OpMetrics row_metrics, col_metrics;
  TupleRefs row_out = SelectTuples(refs, *bound, schema, &row_ledger, model,
                                   &row_metrics);
  TupleRefs col_out = SelectTuplesColumnar(refs, batches, *bound, schema,
                                           &col_ledger, model, &col_metrics);
  ASSERT_EQ(row_out.size(), col_out.size());
  for (size_t i = 0; i < row_out.size(); ++i) {
    ASSERT_EQ(CompareTuples(*row_out[i], *col_out[i]), 0);
  }
  EXPECT_EQ(row_ledger.GrandTotal(), col_ledger.GrandTotal());
  EXPECT_EQ(row_metrics.process.comparisons, col_metrics.process.comparisons);
  EXPECT_EQ(row_metrics.process.in_tuples, col_metrics.process.in_tuples);
  EXPECT_EQ(row_metrics.output.out_tuples, col_metrics.output.out_tuples);
  EXPECT_EQ(row_metrics.output.out_pages, col_metrics.output.out_pages);
}

// The staged evaluator runs the columnar select over each fetched block's
// own batch: splitting the run into per-block batches changes neither the
// qualifying references nor a single charge.
TEST(SelectColumnarTest, PerBlockBatchesMatchOneBatch) {
  Schema schema = MixedSchema();
  std::vector<Tuple> tuples = RandomMixedTuples(250, 123);
  TupleRefs refs = RefsOf(tuples);
  ColumnBatch whole;
  whole.Configure(schema, static_cast<int64_t>(tuples.size()));
  std::vector<ColumnBatch> blocks((tuples.size() + 6) / 7);
  for (ColumnBatch& b : blocks) b.Configure(schema, 7);
  for (size_t i = 0; i < tuples.size(); ++i) {
    whole.AppendRow(tuples[i]);
    blocks[i / 7].AppendRow(tuples[i]);
  }
  std::vector<const ColumnBatch*> per_block;
  for (const ColumnBatch& b : blocks) per_block.push_back(&b);
  const std::vector<const ColumnBatch*> one = {&whole};
  auto bound = BoundPredicate::Bind(
      CmpLiteral("s", CompareOp::kLt, std::string("b")), schema);
  ASSERT_TRUE(bound.ok());
  CostModel model = CostModel::Deterministic();
  CostLedger one_ledger, block_ledger;
  TupleRefs one_out = SelectTuplesColumnar(refs, one, *bound, schema,
                                           &one_ledger, model, nullptr);
  TupleRefs block_out = SelectTuplesColumnar(
      refs, per_block, *bound, schema, &block_ledger, model, nullptr);
  EXPECT_FALSE(one_out.empty());
  EXPECT_EQ(one_out, block_out);
  EXPECT_EQ(one_ledger.GrandTotal(), block_ledger.GrandTotal());
}

// ---------------------------------------------------------------------------
// Whole-query bit-identity across layouts
// ---------------------------------------------------------------------------

void ExpectStageReportsIdentical(const QueryResult& row,
                                 const QueryResult& col) {
  ASSERT_EQ(row.stage_reports.size(), col.stage_reports.size());
  for (size_t i = 0; i < row.stage_reports.size(); ++i) {
    const StageReport& r = row.stage_reports[i];
    const StageReport& c = col.stage_reports[i];
    EXPECT_EQ(r.planned_fraction, c.planned_fraction) << "stage " << i;
    EXPECT_EQ(r.blocks_drawn, c.blocks_drawn) << "stage " << i;
    EXPECT_EQ(r.estimate_after, c.estimate_after) << "stage " << i;
    EXPECT_EQ(r.variance_after, c.variance_after) << "stage " << i;
    EXPECT_EQ(r.ledger_spend_s, c.ledger_spend_s) << "stage " << i;
    EXPECT_EQ(r.within_quota, c.within_quota) << "stage " << i;
    EXPECT_EQ(r.transient_faults, c.transient_faults) << "stage " << i;
    EXPECT_EQ(r.blocks_lost, c.blocks_lost) << "stage " << i;
    // The one intended difference: the reported evaluation path.
    EXPECT_EQ(r.layout, Layout::kRow);
    EXPECT_EQ(c.layout, Layout::kColumnar);
  }
}

void ExpectBitIdentical(const QueryResult& row, const QueryResult& col) {
  EXPECT_EQ(row.estimate, col.estimate);
  EXPECT_EQ(row.variance, col.variance);
  EXPECT_EQ(row.ci.lo, col.ci.lo);
  EXPECT_EQ(row.ci.hi, col.ci.hi);
  EXPECT_EQ(row.stages_run, col.stages_run);
  EXPECT_EQ(row.stages_counted, col.stages_counted);
  EXPECT_EQ(row.blocks_sampled, col.blocks_sampled);
  EXPECT_EQ(row.blocks_wasted, col.blocks_wasted);
  EXPECT_EQ(row.elapsed_seconds, col.elapsed_seconds);
  EXPECT_EQ(row.overspent, col.overspent);
  EXPECT_EQ(row.degraded, col.degraded);
  ExpectStageReportsIdentical(row, col);
}

ExecutorOptions BaseOptions(int threads, bool faults) {
  ExecutorOptions options;
  options.quota_s = 2.5;
  options.seed = 20260808;
  options.threads = threads;
  if (faults) {
    options.faults.enabled = true;
    options.faults.transient_rate = 0.05;
    options.faults.permanent_rate = 0.01;
    options.faults.straggler_rate = 0.05;
    options.faults.fault_seed = 17;
  }
  return options;
}

QueryResult MustRun(const Workload& w, const AggregateSpec& aggregate,
                    ExecutorOptions options, Layout layout) {
  options.layout = layout;
  auto result =
      RunTimeConstrainedAggregate(w.query, aggregate, w.catalog, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : QueryResult{};
}

class LayoutBitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(LayoutBitIdentityTest, SelectionCountSumAvg) {
  auto w = MakeSelectionWorkload(2000, 7);
  ASSERT_TRUE(w.ok());
  const AggregateSpec aggregates[] = {AggregateSpec::Count(),
                                      AggregateSpec::Sum("key"),
                                      AggregateSpec::Avg("key")};
  for (const AggregateSpec& agg : aggregates) {
    for (bool faults : {false, true}) {
      ExecutorOptions options = BaseOptions(GetParam(), faults);
      QueryResult row = MustRun(*w, agg, options, Layout::kRow);
      QueryResult col = MustRun(*w, agg, options, Layout::kColumnar);
      ExpectBitIdentical(row, col);
    }
  }
}

TEST_P(LayoutBitIdentityTest, IntersectionCount) {
  auto w = MakeIntersectionWorkload(5000, 9);
  ASSERT_TRUE(w.ok());
  for (bool faults : {false, true}) {
    ExecutorOptions options = BaseOptions(GetParam(), faults);
    QueryResult row = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kRow);
    QueryResult col = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kColumnar);
    ExpectBitIdentical(row, col);
  }
}

TEST_P(LayoutBitIdentityTest, JoinCount) {
  auto w = MakeJoinWorkload(7000, 3);
  ASSERT_TRUE(w.ok());
  for (bool faults : {false, true}) {
    ExecutorOptions options = BaseOptions(GetParam(), faults);
    options.quota_s = 1.5;
    QueryResult row = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kRow);
    QueryResult col = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kColumnar);
    ExpectBitIdentical(row, col);
  }
}

TEST_P(LayoutBitIdentityTest, WarmStartReplay) {
  auto w = MakeSelectionWorkload(2000, 7);
  ASSERT_TRUE(w.ok());
  WarmStartCache row_cache, col_cache;
  ExecutorOptions options = BaseOptions(GetParam(), /*faults=*/false);
  // Two warm queries per layout: the second replays the first's sample
  // pool. Both the cold-fill run and the replay run must agree across
  // layouts — the caches are filled independently per layout, so any
  // divergence in what the columnar path pools would surface here.
  for (int round = 0; round < 2; ++round) {
    ExecutorOptions row_options = options;
    row_options.warm_cache = &row_cache;
    ExecutorOptions col_options = options;
    col_options.warm_cache = &col_cache;
    QueryResult row = MustRun(*w, AggregateSpec::Count(), row_options,
                              Layout::kRow);
    QueryResult col = MustRun(*w, AggregateSpec::Count(), col_options,
                              Layout::kColumnar);
    ExpectBitIdentical(row, col);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, LayoutBitIdentityTest,
                         ::testing::Values(1, 4, 8));

// Goodman-variance parity on the vectorized intersect: the unbiased
// product-estimator variance (estimator/goodman.*) is computed from the
// per-block hit counts the merge kernels produce, so a single extra or
// missing comparison/output tuple in the columnar merge would move it.
TEST(GoodmanParityTest, VectorizedIntersectVarianceMatchesRowPath) {
  auto w = MakeIntersectionWorkload(1000, 21);
  ASSERT_TRUE(w.ok());
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExecutorOptions options = BaseOptions(/*threads=*/4, /*faults=*/false);
    options.seed = seed;
    QueryResult row = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kRow);
    QueryResult col = MustRun(*w, AggregateSpec::Count(), options,
                              Layout::kColumnar);
    EXPECT_EQ(row.variance, col.variance) << "seed " << seed;
    ASSERT_EQ(row.stage_reports.size(), col.stage_reports.size());
    for (size_t i = 0; i < row.stage_reports.size(); ++i) {
      EXPECT_EQ(row.stage_reports[i].variance_after,
                col.stage_reports[i].variance_after)
          << "seed " << seed << " stage " << i;
    }
  }
}

// EXPLAIN surfaces the chosen path without running anything.
TEST(ExplainLayoutTest, ReportsChosenLayout) {
  auto w = MakeSelectionWorkload(2000, 7);
  ASSERT_TRUE(w.ok());
  ExecutorOptions options = BaseOptions(/*threads=*/1, /*faults=*/false);
  options.layout = Layout::kColumnar;
  auto explain = ExplainTimeConstrainedAggregate(
      w->query, AggregateSpec::Count(), w->catalog, options);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->layout, Layout::kColumnar);
  EXPECT_NE(explain->ToString().find("columnar layout"), std::string::npos);

  // Simulated plans are layout-independent: same stage schedule either way.
  options.layout = Layout::kRow;
  auto row_explain = ExplainTimeConstrainedAggregate(
      w->query, AggregateSpec::Count(), w->catalog, options);
  ASSERT_TRUE(row_explain.ok());
  ASSERT_EQ(explain->stages.size(), row_explain->stages.size());
  for (size_t i = 0; i < explain->stages.size(); ++i) {
    EXPECT_EQ(explain->stages[i].planned_fraction,
              row_explain->stages[i].planned_fraction);
    EXPECT_EQ(explain->stages[i].blocks_planned,
              row_explain->stages[i].blocks_planned);
  }
}

}  // namespace
}  // namespace tcq
