#include "workload/generators.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <utility>

#include "util/random.h"

namespace tcq {

namespace {

/// Fixed filler so the payload column is identical across relations (tuple
/// equality for intersection is decided by id and key).
constexpr std::string_view kPayload = "x";

/// Appends the synthetic rows (id, key, payload) to a relation a block at a
/// time: each block is built whole, its cells written in place and its
/// string bytes sized to the payloads, then adopted by the relation. No
/// tuple is built on the heap.
class SyntheticAppender {
 public:
  explicit SyntheticAppender(Relation* rel)
      : rel_(rel), rows_per_block_(rel->blocking_factor()) {}

  void Add(int64_t id, int64_t key) {
    if (rows_ == 0) {
      const auto rows = static_cast<size_t>(rows_per_block_);
      block_ = Block(rows * 3, rows * Cell::PrefixedBytes(kPayload.size()));
    }
    Cell* cells = block_.AppendCells(3);
    cells[0] = Cell::Int64(id);
    cells[1] = Cell::Int64(key);
    cells[2] = block_.AddString(kPayload);
    if (++rows_ == rows_per_block_) Flush();
  }

  /// Appends the rows of a last, partial block.
  void Flush() {
    if (rows_ == 0) return;
    rel_->AppendBlock(std::move(block_));
    rows_ = 0;
  }

 private:
  Relation* rel_;
  int rows_per_block_;
  int rows_ = 0;
  Block block_;
};

/// A relation of `n` synthetic rows, row k given by `row_of(k)` as an
/// (id, key) pair, appended in the order of a shuffled index permutation.
/// Fisher–Yates draws depend only on n, so the rows land where shuffling
/// the rows themselves would put them.
template <typename RowOf>
Result<RelationPtr> BuildRelation(const std::string& name,
                                  const Schema& schema, int64_t n, Rng* rng,
                                  int block_bytes, RowOf row_of) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  rng->Shuffle(order);
  TCQ_ASSIGN_OR_RETURN(Relation rel,
                       Relation::Create(name, schema, block_bytes));
  rel.Reserve(n);
  SyntheticAppender append(&rel);
  for (int64_t k : order) {
    const auto [id, key] = row_of(k);
    append.Add(id, key);
  }
  append.Flush();
  return RelationPtr(std::make_shared<Relation>(std::move(rel)));
}

}  // namespace

Schema SyntheticSchema(int tuple_bytes) {
  int payload_width = tuple_bytes - 16;
  if (payload_width < 1) payload_width = 1;
  return Schema({{"id", DataType::kInt64, 0},
                 {"key", DataType::kInt64, 0},
                 {"payload", DataType::kString, payload_width}});
}

Result<Workload> MakeSelectionWorkload(int64_t output_tuples, uint64_t seed,
                                       int64_t num_tuples, int tuple_bytes,
                                       double clustering) {
  if (output_tuples < 0 || output_tuples > num_tuples) {
    return Status::InvalidArgument("output_tuples out of range");
  }
  if (clustering < 0.0 || clustering > 1.0) {
    return Status::InvalidArgument("clustering must be in [0, 1]");
  }
  Rng rng(seed);
  Schema schema = SyntheticSchema(tuple_bytes);
  // Keys are a permutation of 0..num_tuples-1, so `key < output_tuples`
  // selects exactly output_tuples tuples.
  auto clustered_count =
      static_cast<int64_t>(clustering * static_cast<double>(output_tuples));
  // Scattered part: the non-clustered qualifying tuples mixed uniformly
  // with all non-qualifying tuples. Tuple i is (i, i, payload), so the
  // shuffle permutes ids alone.
  std::vector<int64_t> scattered(
      static_cast<size_t>(num_tuples - clustered_count));
  std::iota(scattered.begin(), scattered.end(), clustered_count);
  rng.Shuffle(scattered);
  // Final order: the contiguous qualifying run inserted at a random
  // offset of the scattered sequence.
  size_t insert_at =
      scattered.empty()
          ? 0
          : static_cast<size_t>(rng.Uniform(scattered.size() + 1));
  TCQ_ASSIGN_OR_RETURN(Relation rel,
                       Relation::Create("r1", schema, kDefaultBlockBytes));
  rel.Reserve(num_tuples);
  SyntheticAppender append(&rel);
  for (size_t i = 0; i < insert_at; ++i) {
    append.Add(scattered[i], scattered[i]);
  }
  for (int64_t i = 0; i < clustered_count; ++i) append.Add(i, i);
  for (size_t i = insert_at; i < scattered.size(); ++i) {
    append.Add(scattered[i], scattered[i]);
  }
  append.Flush();
  Workload w;
  TCQ_RETURN_NOT_OK(
      w.catalog.Register(std::make_shared<Relation>(std::move(rel))));
  w.query = Select(Scan("r1"),
                   CmpLiteral("key", CompareOp::kLt, output_tuples));
  w.exact_count = output_tuples;
  return w;
}

Result<Workload> MakeIntersectionWorkload(int64_t output_tuples,
                                          uint64_t seed, int64_t num_tuples,
                                          int tuple_bytes) {
  if (output_tuples < 0 || output_tuples > num_tuples) {
    return Status::InvalidArgument("output_tuples out of range");
  }
  Rng rng(seed);
  Schema schema = SyntheticSchema(tuple_bytes);
  // Common tuples have ids 0..output_tuples-1 and identical keys; the
  // remainder of each relation uses disjoint id ranges so no extra tuple
  // coincides. Each relation is shuffled on its own.
  auto rows_with_offset = [output_tuples](int64_t offset) {
    return [output_tuples, offset](int64_t k) {
      return std::pair{k < output_tuples ? k : offset + k, k};
    };
  };
  Workload w;
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r1,
      BuildRelation("r1", schema, num_tuples, &rng, kDefaultBlockBytes,
                    rows_with_offset(1000000)));
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r2,
      BuildRelation("r2", schema, num_tuples, &rng, kDefaultBlockBytes,
                    rows_with_offset(2000000)));
  TCQ_RETURN_NOT_OK(w.catalog.Register(std::move(r1)));
  TCQ_RETURN_NOT_OK(w.catalog.Register(std::move(r2)));
  w.query = Intersect(Scan("r1"), Scan("r2"));
  w.exact_count = output_tuples;
  return w;
}

Result<Workload> MakeJoinWorkload(int64_t output_tuples, uint64_t seed,
                                  int64_t num_tuples, int tuple_bytes,
                                  int64_t right_per_key) {
  if (right_per_key <= 0 || num_tuples % right_per_key != 0) {
    return Status::InvalidArgument(
        "right_per_key must divide the relation size");
  }
  if (output_tuples % right_per_key != 0) {
    return Status::InvalidArgument(
        "output_tuples must be a multiple of right_per_key");
  }
  int64_t matching_left = output_tuples / right_per_key;
  if (matching_left > num_tuples) {
    return Status::InvalidArgument("too many output tuples requested");
  }
  int64_t num_keys = num_tuples / right_per_key;
  Rng rng(seed);
  Schema schema = SyntheticSchema(tuple_bytes);

  // Left: matching_left tuples with keys uniform over the right's key
  // domain (drawn in id order, before either shuffle); the rest carry keys
  // outside it.
  std::vector<int64_t> matching_keys(static_cast<size_t>(matching_left));
  for (int64_t& key : matching_keys) key = rng.UniformInt(0, num_keys - 1);
  Workload w;
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r1,
      BuildRelation("r1", schema, num_tuples, &rng, kDefaultBlockBytes,
                    [&matching_keys, num_keys](int64_t k) {
                      const auto m = static_cast<size_t>(k);
                      return std::pair{k, m < matching_keys.size()
                                              ? matching_keys[m]
                                              : num_keys + k};
                    }));
  // Right: keys 0..num_keys-1, right_per_key tuples each.
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r2,
      BuildRelation("r2", schema, num_tuples, &rng, kDefaultBlockBytes,
                    [num_keys](int64_t k) {
                      return std::pair{2000000 + k, k % num_keys};
                    }));
  TCQ_RETURN_NOT_OK(w.catalog.Register(std::move(r1)));
  TCQ_RETURN_NOT_OK(w.catalog.Register(std::move(r2)));
  w.query = Join(Scan("r1"), Scan("r2"), {{"key", "key"}});
  w.exact_count = output_tuples;
  return w;
}

RelationPtr MakeUniformRelation(const std::string& name, int64_t num_tuples,
                                int64_t key_domain, uint64_t seed,
                                int tuple_bytes, int block_bytes) {
  Rng rng(seed);
  Schema schema = SyntheticSchema(tuple_bytes);
  auto rel = Relation::Create(name, schema, block_bytes);
  if (!rel.ok()) return nullptr;
  rel->Reserve(num_tuples);
  SyntheticAppender append(&*rel);
  for (int64_t i = 0; i < num_tuples; ++i) {
    append.Add(i, rng.UniformInt(0, key_domain - 1));
  }
  append.Flush();
  return std::make_shared<Relation>(std::move(*rel));
}

}  // namespace tcq
