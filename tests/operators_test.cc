#include "exec/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/tuple_set.h"
#include "parallel/thread_pool.h"
#include "util/random.h"

namespace tcq {
namespace {

Schema TwoIntSchema() {
  return Schema({{"a", DataType::kInt64, 0}, {"b", DataType::kInt64, 0}});
}

Tuple T(int64_t a, int64_t b) { return Tuple{a, b}; }

// Tuples copied into cells, as a block stores its rows: one block holding
// them all, and the handles of its rows in order.
class StoredRows {
 public:
  explicit StoredRows(const std::vector<Tuple>& tuples)
      : block_(Block::Of(tuples)) {
    const size_t arity = tuples.empty() ? 0 : tuples[0].size();
    for (size_t i = 0; i < tuples.size(); ++i) {
      rows_.push_back(Row(block_.cells() + i * arity));
    }
  }

  const Rows& rows() const { return rows_; }
  Row operator[](size_t i) const { return rows_[i]; }

 private:
  Block block_;
  Rows rows_;
};

// The keyed run of `stored` sorted on `key` (unforked, uncharged).
KeyedRun SortedRun(const StoredRows& stored, const Key& key) {
  const Rows& rows = stored.rows();
  KeyedRun run(rows.size());
  int64_t comparisons = 0;
  SortRunRange(rows, key, &run, &comparisons);
  return run;
}

// The handles and the prefixes of a keyed run, in run order.
Rows HandlesOf(KeyedSpan run) {
  Rows rows;
  for (const KeyedRow& k : run) rows.push_back(k.row());
  return rows;
}
std::vector<uint64_t> PrefixesOf(KeyedSpan run) {
  std::vector<uint64_t> prefixes;
  for (const KeyedRow& k : run) prefixes.push_back(k.prefix);
  return prefixes;
}

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
  const StoredRows in({T(1, 0), T(5, 0), T(2, 0), T(9, 0)});
  VirtualClock clock;
  CostLedger ledger(&clock);
  CostModel model;
  OpMetrics m;
  auto out = SelectTuples(in.rows(), *bound, s, &ledger, model, &m);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].int64(), 1);
  EXPECT_EQ(out[1][0].int64(), 2);
  // The qualifying tuples are passed by reference, not copied.
  EXPECT_EQ(out[0], in[0]);
  EXPECT_EQ(out[1], in[2]);
  EXPECT_EQ(m.process.in_tuples, 4);
  EXPECT_EQ(m.output.out_tuples, 2);
  EXPECT_EQ(m.process.comparisons, 4);  // one comparison per tuple
  EXPECT_GT(clock.Now(), 0.0);
  EXPECT_NEAR(m.process.seconds + m.output.seconds, ledger.GrandTotal(),
              1e-12);
}

TEST(SortRunTest, SortsAllColumnsAndCharges) {
  const StoredRows tuples({T(3, 1), T(1, 2), T(3, 0), T(2, 5)});
  CostLedger ledger(nullptr);
  CostModel model;
  StepMetrics m;
  const Rows& rows = tuples.rows();
  KeyedRun v(rows.size());
  int64_t comparisons = 0;
  SortRunRange(rows, AllColumns(TwoIntSchema()), &v, &comparisons);
  ChargeSort(static_cast<int64_t>(rows.size()), comparisons, &ledger, model,
             &m);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0].row()[0].int64(), 1);
  EXPECT_EQ(v[1].row()[0].int64(), 2);
  EXPECT_EQ(v[2].row()[0].int64(), 3);
  EXPECT_EQ(v[2].row()[1].int64(), 0);
  EXPECT_EQ(v[3].row()[1].int64(), 1);
  EXPECT_EQ(m.comparisons, comparisons);
  EXPECT_GT(m.comparisons, 0);
  EXPECT_EQ(m.in_tuples, 4);
  EXPECT_EQ(m.out_tuples, 4);
  EXPECT_GT(ledger.Total(CostCategory::kSortCompare), 0.0);
  EXPECT_DOUBLE_EQ(m.seconds, ledger.Total(CostCategory::kSortCompare));
}

TEST(SortRunTest, SortsByKeyOnly) {
  const StoredRows tuples({T(9, 2), T(0, 1)});
  const KeyedRun v = SortedRun(tuples, KeyOf(TwoIntSchema(), {1}));
  EXPECT_EQ(v[0].row()[1].int64(), 1);
}

TEST(MergeIntersectTest, CountsMatches) {
  const StoredRows l({T(1, 1), T(2, 2), T(3, 3)});
  const StoredRows r({T(2, 2), T(3, 3), T(4, 4)});
  const Key all = AllColumns(TwoIntSchema());
  Rows out;
  int64_t comparisons = 0;
  EXPECT_EQ(MergeIntersectRange(SortedRun(l, all), SortedRun(r, all), all,
                                &out, &comparisons),
            2);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_GT(comparisons, 0);
}

TEST(MergeIntersectTest, MultiplicityProduct) {
  // Duplicates produce one output per (left,right) pair: the number of
  // 1-points in the point space.
  const StoredRows l({T(5, 5), T(5, 5)});
  const StoredRows r({T(5, 5), T(5, 5), T(5, 5)});
  const Key all = AllColumns(TwoIntSchema());
  Rows out;
  int64_t comparisons = 0;
  MergeIntersectRange(SortedRun(l, all), SortedRun(r, all), all, &out,
                      &comparisons);
  EXPECT_EQ(out.size(), 6u);
}

TEST(MergeIntersectTest, DisjointEmpty) {
  const StoredRows l({T(1, 1)});
  const StoredRows r({T(2, 2)});
  const Key all = AllColumns(TwoIntSchema());
  Rows out;
  int64_t comparisons = 0;
  MergeIntersectRange(SortedRun(l, all), SortedRun(r, all), all, &out,
                      &comparisons);
  EXPECT_TRUE(out.empty());
  MergeIntersectRange({}, SortedRun(r, all), all, &out, &comparisons);
  EXPECT_TRUE(out.empty());
}

TEST(MergeJoinTest, JoinsOnKey) {
  const StoredRows l({T(10, 1), T(20, 2), T(30, 2)});
  const StoredRows r({T(2, 100), T(2, 200), T(3, 300)});
  const Key k0 = KeyOf(TwoIntSchema(), {0});
  const Key k1 = KeyOf(TwoIntSchema(), {1});
  JoinedCells out{2, 2, {}};
  int64_t comparisons = 0;
  MergeJoinRange(SortedRun(l, k1), k1, SortedRun(r, k0), k0, &out,
                 &comparisons);
  // key 2: two left × two right = 4 joined tuples.
  ASSERT_EQ(out.size(), 4u);
  ASSERT_EQ(out.arity(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    const Row t = out.row(i);
    EXPECT_EQ(t[1].int64(), 2);
    EXPECT_EQ(t[2].int64(), 2);
  }
}

TEST(MergeJoinTest, NoMatches) {
  const StoredRows l({T(1, 1)});
  const StoredRows r({T(2, 2)});
  const Key k0 = KeyOf(TwoIntSchema(), {0});
  JoinedCells out{2, 2, {}};
  int64_t comparisons = 0;
  MergeJoinRange(SortedRun(l, k0), k0, SortedRun(r, k0), k0, &out,
                 &comparisons);
  EXPECT_TRUE(out.empty());
}

TEST(DedupSortedTest, Occupancies) {
  Schema s = TwoIntSchema();
  const StoredRows v({T(1, 1), T(1, 1), T(2, 2), T(3, 3), T(3, 3)});
  CostModel model;
  OpMetrics m;
  auto groups = DedupSorted(SortedRun(v, AllColumns(s)), s, nullptr, model,
                            &m);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].count, 2);
  EXPECT_EQ(groups[1].count, 1);
  EXPECT_EQ(groups[2].count, 2);
  // One comparison per input tuple after the first.
  EXPECT_EQ(m.process.comparisons, 4);
}

TEST(DedupSortedTest, Empty) {
  Schema s = TwoIntSchema();
  CostModel model;
  EXPECT_TRUE(DedupSorted({}, s, nullptr, model, nullptr).empty());
}

TEST(ProjectColumnsTest, KeepsRequestedOrder) {
  const StoredRows v({T(1, 10), T(2, 20)});
  CostModel model;
  auto out = ProjectColumns(v.rows(), {1}, nullptr, model, nullptr);
  // One cell per projected row.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].int64(), 10);
  EXPECT_EQ(out[1].int64(), 20);
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

// ---------------------------------------------------------------------------
// Key-prefix parity: the prefix-first kernels against the plain-comparator
// kernels they replaced, kept here as the reference. Same order (the very
// same permutation), comparison counts, merge outputs, partition bounds and
// lower bounds, on adversarial values. A key `{}` in the tables below
// stands for every column, AllColumns(schema), which the kernels take. The
// reference compares the cells' values with CompareValues.
// ---------------------------------------------------------------------------

Key Columns(const std::vector<int>& key, const Schema& schema) {
  return key.empty() ? AllColumns(schema) : KeyOf(schema, key);
}

namespace reference {

int CompareCross(Row a, const Key& a_key, Row b, const Key& b_key) {
  for (size_t k = 0; k < a_key.size(); ++k) {
    const DataType type = a_key[k].type;
    int c = CompareValues(
        ToValue(a[static_cast<size_t>(a_key[k].column)], type),
        ToValue(b[static_cast<size_t>(b_key[k].column)], type));
    if (c != 0) return c;
  }
  return 0;
}

void SortRunRange(Rows* run, const Key& key, int64_t* comparisons) {
  std::sort(run->begin(), run->end(),
            [comparisons, &key](Row a, Row b) {
              ++*comparisons;
              return CompareCross(a, key, b, key) < 0;
            });
}

// The loop of MergeIntersectRange (every column) and MergeJoinRange; calls
// on_group(i, i_end, j, j_end) per equal-key group.
template <typename OnGroup>
int64_t Merge(RowSpan left, const Key& left_key, RowSpan right,
              const Key& right_key, OnGroup on_group) {
  int64_t comparisons = 0;
  size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    ++comparisons;
    int c = CompareCross(left[i], left_key, right[j], right_key);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      size_t i_end = i + 1;
      while (i_end < left.size()) {
        ++comparisons;
        if (CompareCross(left[i_end], left_key, left[i], left_key) != 0) {
          break;
        }
        ++i_end;
      }
      size_t j_end = j + 1;
      while (j_end < right.size()) {
        ++comparisons;
        if (CompareCross(right[j_end], right_key, right[j], right_key) != 0) {
          break;
        }
        ++j_end;
      }
      on_group(i, i_end, j, j_end);
      i = i_end;
      j = j_end;
    }
  }
  return comparisons;
}

std::vector<size_t> PartitionSortedRun(RowSpan run, const Key& key,
                                       size_t max_parts, size_t min_chunk) {
  const size_t n = run.size();
  size_t parts = std::min(n / min_chunk, max_parts);
  if (parts < 1) parts = 1;
  std::vector<size_t> bounds{0};
  for (size_t p = 1; p < parts; ++p) {
    size_t target = p * n / parts;
    while (target < n && target > 0 &&
           CompareCross(run[target - 1], key, run[target], key) == 0) {
      ++target;
    }
    if (target > bounds.back() && target < n) bounds.push_back(target);
  }
  bounds.push_back(n);
  return bounds;
}

size_t LowerBoundCrossKey(RowSpan run, const Key& run_key, Row probe,
                          const Key& probe_key) {
  size_t lo = 0, hi = run.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (CompareCross(run[mid], run_key, probe, probe_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace reference

// Values that stress the prefix encodings: both ends of int64, signed
// zeros, infinities and subnormals, and strings with embedded NULs, bytes
// >= 0x80, a shared 8-byte prefix and lengths 0..20.
constexpr int kParityStringWidth = 20;

Value AdversarialValue(DataType type, Rng* rng) {
  switch (type) {
    case DataType::kInt64: {
      static const int64_t kInts[] = {std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::min() + 1,
                                      -(int64_t{1} << 40),
                                      -256,
                                      -1,
                                      0,
                                      1,
                                      255,
                                      int64_t{1} << 40,
                                      std::numeric_limits<int64_t>::max() - 1,
                                      std::numeric_limits<int64_t>::max()};
      return kInts[rng->Uniform(std::size(kInts))];
    }
    case DataType::kDouble: {
      static const double kDoubles[] = {
          -std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::max(),
          -1.5,
          -std::numeric_limits<double>::min(),
          -std::numeric_limits<double>::denorm_min(),
          -0.0,
          0.0,
          std::numeric_limits<double>::denorm_min(),
          4.9e-320,  // subnormal
          std::numeric_limits<double>::min(),
          1.5,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::infinity()};
      return kDoubles[rng->Uniform(std::size(kDoubles))];
    }
    case DataType::kString: {
      static const std::string kStrings[] = {
          std::string(),
          std::string(1, '\0'),
          std::string("a"),
          std::string("a\0", 2),
          std::string("a\0b", 3),
          std::string("abcdefgh"),
          std::string("abcdefgh\0", 9),
          std::string("abcdefghA"),
          std::string("abcdefghB"),
          std::string("abcdefghABCDEFGHIJKL"),
          std::string("\x7f"),
          std::string("\x80"),
          std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff")};
      if (rng->Uniform(3) != 0) return kStrings[rng->Uniform(std::size(kStrings))];
      // A random string over a small alphabet, so ties run long.
      static const char kAlphabet[] = {'\0', 'a', 'b', '\x80', '\xff'};
      std::string s(rng->Uniform(kParityStringWidth + 1), 'a');
      for (char& c : s) c = kAlphabet[rng->Uniform(std::size(kAlphabet))];
      return s;
    }
  }
  return int64_t{0};
}

// Three column orders put each type in the leading position.
std::vector<Schema> ParitySchemas() {
  const Column i{"i", DataType::kInt64, 0};
  const Column d{"d", DataType::kDouble, 0};
  const Column s{"s", DataType::kString, kParityStringWidth};
  return {Schema({i, d, s}), Schema({d, s, i}), Schema({s, i, d})};
}

std::vector<Tuple> AdversarialTuples(const Schema& schema, int n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  for (int k = 0; k < n; ++k) {
    Tuple t;
    for (const Column& c : schema.columns()) {
      t.push_back(AdversarialValue(c.type, &rng));
    }
    EXPECT_TRUE(schema.ValidateTuple(t).ok());
    out.push_back(std::move(t));
  }
  return out;
}

// Keys {} (all columns), one column of each type, and two columns.
const std::vector<std::vector<int>> kParityKeys = {
    {}, {0}, {1}, {2}, {0, 1}, {2, 0}};

std::string KeyName(const std::vector<int>& key) {
  std::string name = "{";
  for (int k : key) name += std::to_string(k) + ",";
  return name + "}";
}

TEST(KeyPrefixTest, PrefixOrderAgreesWithCompareValues) {
  Rng rng(5);
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    std::vector<Tuple> values;
    for (int k = 0; k < 200; ++k) {
      values.push_back({AdversarialValue(type, &rng)});
    }
    const StoredRows cells(values);
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = 0; j < values.size(); ++j) {
        const Value& a = values[i][0];
        const Value& b = values[j][0];
        const uint64_t pa = KeyPrefix(cells[i][0], type);
        const uint64_t pb = KeyPrefix(cells[j][0], type);
        const int c = CompareValues(a, b);
        // Cells compare as their values do.
        ASSERT_EQ(CompareCells(cells[i][0], cells[j][0], type), c);
        if (pa < pb) {
          ASSERT_LT(c, 0);
        } else if (pa > pb) {
          ASSERT_GT(c, 0);
        }
        if (type != DataType::kString) {
          // Numeric prefixes are exact.
          ASSERT_EQ(pa == pb, c == 0);
        }
      }
    }
  }
}

// Runs of this many tuples fork at several levels.
constexpr size_t kForkingRun = 3 * kSortForkCutoff + 123;

Tuple KeyedTuple(int64_t key) { return Tuple{key, 0.5, std::string("x")}; }

#ifdef __GLIBCXX__
// True when std::sort over `run` enters its depth-limit fallback: only
// libstdc++'s heap phase (std::__push_heap) calls the comparator with an
// element of the array first and a value held outside it second.
bool StdSortReachesHeapFallback(Rows run, const Key& key) {
  const std::less<const Row*> before;
  const Row* begin = run.data();
  const Row* end = begin + run.size();
  auto inside = [&](const Row* p) {
    return !before(p, begin) && before(p, end);
  };
  bool heap = false;
  std::sort(run.begin(), run.end(), [&](const Row& a, const Row& b) {
    if (inside(&a) && !inside(&b)) heap = true;
    return reference::CompareCross(a, key, b, key) < 0;
  });
  return heap;
}
#endif

// McIlroy's "killer adversary for quicksort" run against std::sort: values
// stay undecided ("gas") until the sort compares two of them, and the
// pivot candidate is then frozen to the next smallest value. The frozen
// values, every other one left at the largest, are an input on which
// std::sort makes the same comparisons and partitions lopsidedly down to
// its depth limit.
std::vector<int64_t> AntiQsortKeys(size_t n) {
  const auto gas = static_cast<int64_t>(n);
  std::vector<int64_t> val(n, gas);
  int64_t solid = 0;
  size_t candidate = 0;
  std::vector<size_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i;
  std::sort(items.begin(), items.end(), [&](size_t x, size_t y) {
    if (val[x] == gas && val[y] == gas) val[x == candidate ? x : y] = solid++;
    if (val[x] == gas) {
      candidate = x;
    } else if (val[y] == gas) {
      candidate = y;
    }
    return val[x] < val[y];
  });
  return val;
}

// The sort kernel pins every simulated sort charge. Unforked and on pools
// of 0, 1, 3 and 7 workers, a run must come out in the same permutation,
// with the same comparison count and prefixes, at every width, each
// prefix that of its row's leading key cell; and, on
// libstdc++, the library the simulated charges were pinned on, equal to
// std::sort with the plain comparator.
class SortParity {
 public:
  SortParity() {
    for (int workers : {0, 1, 3, 7}) {
      pools_.push_back(std::make_unique<ThreadPool>(workers));
    }
  }

  void Check(const Schema& schema, const std::vector<Tuple>& tuples,
             const std::vector<int>& key_or_all) {
    const Key key = Columns(key_or_all, schema);
    const StoredRows stored(tuples);
    const Rows& rows = stored.rows();
    KeyedRun serial(rows.size());
    int64_t serial_comp = 0;
    SortRunRange(rows, key, &serial, &serial_comp);
    for (const KeyedRow& k : serial) {
      ASSERT_EQ(k.prefix,
                KeyPrefix(k.row()[static_cast<size_t>(key[0].column)],
                          key[0].type));
    }
#ifdef __GLIBCXX__
    Rows expect = rows;
    int64_t expect_comp = 0;
    reference::SortRunRange(&expect, key, &expect_comp);
    EXPECT_EQ(serial_comp, expect_comp);
    // The same permutation, equal keys included.
    ASSERT_EQ(HandlesOf(serial), expect);
#endif
    for (const auto& pool : pools_) {
      SCOPED_TRACE("pool of " + std::to_string(pool->workers()) + " workers");
      FanOut fan{pool.get(), 0, {}};
      KeyedRun got(rows.size());
      int64_t got_comp = 0;
      SortRunRange(rows, key, &got, &got_comp, &fan);
      EXPECT_EQ(got_comp, serial_comp);
      ASSERT_EQ(HandlesOf(got), HandlesOf(serial));
      EXPECT_EQ(PrefixesOf(got), PrefixesOf(serial));
      EXPECT_EQ(fan.stats.tasks > 0, tuples.size() > kPassChunk);
    }
  }

 private:
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

TEST(KeyPrefixParityTest, SortMatchesPlainComparator) {
  SortParity parity;
  uint64_t seed = 100;
  for (const Schema& schema : ParitySchemas()) {
    for (const std::vector<int>& key : kParityKeys) {
      SCOPED_TRACE(schema.ToString() + " key " + KeyName(key));
      parity.Check(schema, AdversarialTuples(schema, 400, ++seed), key);
    }
    for (const std::vector<int>& key : {std::vector<int>{}, {0}}) {
      SCOPED_TRACE(schema.ToString() + " forking run, key " + KeyName(key));
      parity.Check(schema, AdversarialTuples(schema, kForkingRun, ++seed),
                   key);
    }
  }
  // KeyedTuple's (int64, double, string) rows.
  const Schema keyed_schema = ParitySchemas()[0];

  const std::vector<int> lead = {0};
  Rng rng(seed);
  std::vector<Tuple> duplicates, equal, sorted, reversed;
  for (size_t k = 0; k < kForkingRun; ++k) {
    duplicates.push_back(KeyedTuple(static_cast<int64_t>(rng.Uniform(8))));
    equal.push_back(KeyedTuple(7));
    sorted.push_back(KeyedTuple(static_cast<int64_t>(k / 3)));
    reversed.push_back(KeyedTuple(static_cast<int64_t>((kForkingRun - k) / 3)));
  }
  for (const auto& [name, tuples] :
       {std::pair{"duplicate-heavy", &duplicates}, {"all-equal", &equal},
        {"sorted", &sorted}, {"reverse-sorted", &reversed}}) {
    SCOPED_TRACE(name);
    parity.Check(keyed_schema, *tuples, lead);
  }

  std::vector<Tuple> killer;
  for (int64_t v : AntiQsortKeys(kForkingRun)) killer.push_back(KeyedTuple(v));
#ifdef __GLIBCXX__
  ASSERT_TRUE(StdSortReachesHeapFallback(StoredRows(killer).rows(),
                                         AllColumns(keyed_schema)));
#endif
  SCOPED_TRACE("antiqsort adversary");
  parity.Check(keyed_schema, killer, lead);
}

TEST(KeyPrefixParityTest, MergesMatchPlainComparator) {
  uint64_t seed = 200;
  for (const Schema& schema : ParitySchemas()) {
    const auto arity = static_cast<size_t>(schema.num_columns());
    for (const std::vector<int>& key_or_all : kParityKeys) {
      SCOPED_TRACE(schema.ToString() + " key " + KeyName(key_or_all));
      const Key key = Columns(key_or_all, schema);
      std::vector<Tuple> left_tuples = AdversarialTuples(schema, 300, ++seed);
      std::vector<Tuple> right_tuples = AdversarialTuples(schema, 250, ++seed);
      // Shared tuples, so whole-tuple groups match too.
      right_tuples.insert(right_tuples.end(), left_tuples.begin(),
                          left_tuples.begin() + 60);
      const StoredRows left_rows(left_tuples), right_rows(right_tuples);
      const KeyedRun lrun = SortedRun(left_rows, key);
      const KeyedRun rrun = SortedRun(right_rows, key);
      const Rows left = HandlesOf(lrun), right = HandlesOf(rrun);

      if (key_or_all.empty()) {
        Rows expect_out, got_out;
        int64_t expect_n = 0;
        int64_t expect_comp = reference::Merge(
            left, key, right, key,
            [&](size_t i, size_t i_end, size_t j, size_t j_end) {
              expect_n += static_cast<int64_t>((i_end - i) * (j_end - j));
              for (size_t a = i; a < i_end; ++a) {
                expect_out.insert(expect_out.end(), j_end - j, left[a]);
              }
            });
        int64_t got_comp = 0;
        int64_t got_n =
            MergeIntersectRange(lrun, rrun, key, &got_out, &got_comp);
        EXPECT_GT(expect_n, 0);
        EXPECT_EQ(got_n, expect_n);
        EXPECT_EQ(got_comp, expect_comp);
        EXPECT_EQ(got_out, expect_out);
        // Dedup of the sorted left run: the same groups.
        const std::vector<GroupCount> groups =
            DedupSorted(lrun, schema, nullptr, CostModel{}, nullptr);
        size_t g = 0;
        reference::Merge(left, key, left, key,
                         [&](size_t i, size_t i_end, size_t, size_t) {
                           ASSERT_LT(g, groups.size());
                           EXPECT_EQ(groups[g].tuple, left[i]);
                           EXPECT_EQ(groups[g].count,
                                     static_cast<int64_t>(i_end - i));
                           ++g;
                         });
        EXPECT_EQ(g, groups.size());
      }

      JoinedCells expect_rows{arity, arity, {}}, got_rows{arity, arity, {}};
      int64_t expect_n = 0;
      int64_t expect_comp = reference::Merge(
          left, key, right, key,
          [&](size_t i, size_t i_end, size_t j, size_t j_end) {
            expect_n += static_cast<int64_t>((i_end - i) * (j_end - j));
            AppendJoined(lrun, i, i_end, rrun, j, j_end, &expect_rows);
          });
      int64_t got_comp = 0;
      int64_t got_n =
          MergeJoinRange(lrun, key, rrun, key, &got_rows, &got_comp);
      EXPECT_EQ(got_n, expect_n);
      EXPECT_EQ(got_comp, expect_comp);
      EXPECT_EQ(got_rows, expect_rows);
      int64_t count_comp = 0;
      EXPECT_EQ(MergeJoinRange(lrun, key, rrun, key, nullptr, &count_comp),
                expect_n);
      EXPECT_EQ(count_comp, expect_comp);
    }
  }
}

// A join whose key sits at different positions on the two sides.
TEST(KeyPrefixParityTest, CrossPositionJoinMatchesPlainComparator) {
  const std::vector<Schema> schemas = ParitySchemas();
  const Schema& ls = schemas[0];  // (i, d, s)
  const Schema& rs = schemas[2];  // (s, i, d)
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
      {{0}, {1}}, {{2}, {0}}, {{2, 0}, {0, 1}}, {{1, 2}, {2, 0}}};
  uint64_t seed = 300;
  for (const auto& [lcolumns, rcolumns] : keys) {
    SCOPED_TRACE("left key " + KeyName(lcolumns) + " right key " +
                 KeyName(rcolumns));
    const Key lkey = KeyOf(ls, lcolumns);
    const Key rkey = KeyOf(rs, rcolumns);
    const StoredRows left_tuples(AdversarialTuples(ls, 250, ++seed));
    const StoredRows right_tuples(AdversarialTuples(rs, 250, ++seed));
    const auto arity = static_cast<size_t>(ls.num_columns());
    const KeyedRun lrun = SortedRun(left_tuples, lkey);
    const KeyedRun rrun = SortedRun(right_tuples, rkey);
    const Rows left = HandlesOf(lrun), right = HandlesOf(rrun);
    JoinedCells expect_rows{arity, arity, {}}, got_rows{arity, arity, {}};
    int64_t expect_comp = reference::Merge(
        left, lkey, right, rkey,
        [&](size_t i, size_t i_end, size_t j, size_t j_end) {
          AppendJoined(lrun, i, i_end, rrun, j, j_end, &expect_rows);
        });
    int64_t got_comp = 0;
    MergeJoinRange(lrun, lkey, rrun, rkey, &got_rows, &got_comp);
    EXPECT_EQ(got_comp, expect_comp);
    EXPECT_EQ(got_rows, expect_rows);
    for (size_t b = 0; b < left.size(); b += 7) {
      EXPECT_EQ(LowerBoundCrossKey(rrun, rkey, lrun[b], lkey),
                reference::LowerBoundCrossKey(right, rkey, left[b], lkey))
          << b;
    }
  }
}

TEST(KeyPrefixParityTest, PartitionAndLowerBoundMatchPlainComparator) {
  uint64_t seed = 400;
  for (const Schema& schema : ParitySchemas()) {
    for (const std::vector<int>& key_or_all : kParityKeys) {
      SCOPED_TRACE(schema.ToString() + " key " + KeyName(key_or_all));
      const Key key = Columns(key_or_all, schema);
      const StoredRows tuples(AdversarialTuples(schema, 500, ++seed));
      const KeyedRun keyed = SortedRun(tuples, key);
      const Rows run = HandlesOf(keyed);
      for (size_t min_chunk : {size_t{1}, size_t{7}, size_t{40}}) {
        std::vector<size_t> bounds =
            PartitionSortedRun(keyed, key, 32, min_chunk);
        EXPECT_EQ(bounds,
                  reference::PartitionSortedRun(run, key, 32, min_chunk))
            << min_chunk;
      }
      const StoredRows probes(AdversarialTuples(schema, 60, ++seed));
      for (Row probe : probes.rows()) {
        const KeyedRow keyed_probe{
            KeyPrefix(probe[static_cast<size_t>(key[0].column)], key[0].type),
            probe.data()};
        EXPECT_EQ(LowerBoundCrossKey(keyed, key, keyed_probe, key),
                  reference::LowerBoundCrossKey(run, key, probe, key));
      }
    }
  }
}

}  // namespace
}  // namespace tcq
