#include "workload/generators.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/random.h"

namespace tcq {

namespace {

/// Fixed filler so the payload column is identical across relations (tuple
/// equality for intersection is decided by id and key).
std::string Payload() { return "x"; }

Result<RelationPtr> BuildRelation(const std::string& name,
                                  const Schema& schema,
                                  std::vector<Tuple> rows, Rng* rng,
                                  int block_bytes) {
  rng->Shuffle(rows);
  TCQ_ASSIGN_OR_RETURN(Relation rel,
                       Relation::Create(name, schema, block_bytes));
  for (Tuple& row : rows) rel.AppendUnchecked(std::move(row));
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
  // with all non-qualifying tuples.
  std::vector<Tuple> scattered;
  scattered.reserve(static_cast<size_t>(num_tuples - clustered_count));
  for (int64_t i = clustered_count; i < num_tuples; ++i) {
    scattered.push_back(Tuple{i, i, Payload()});
  }
  rng.Shuffle(scattered);
  // Final order: the contiguous qualifying run inserted at a random
  // offset of the scattered sequence.
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(num_tuples));
  size_t insert_at =
      scattered.empty()
          ? 0
          : static_cast<size_t>(rng.Uniform(scattered.size() + 1));
  for (size_t i = 0; i < insert_at; ++i) {
    rows.push_back(std::move(scattered[i]));
  }
  for (int64_t i = 0; i < clustered_count; ++i) {
    rows.push_back(Tuple{i, i, Payload()});
  }
  for (size_t i = insert_at; i < scattered.size(); ++i) {
    rows.push_back(std::move(scattered[i]));
  }
  TCQ_ASSIGN_OR_RETURN(Relation rel,
                       Relation::Create("r1", schema, kDefaultBlockBytes));
  for (Tuple& row : rows) rel.AppendUnchecked(std::move(row));
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
  // coincides.
  std::vector<Tuple> r1_rows, r2_rows;
  r1_rows.reserve(static_cast<size_t>(num_tuples));
  r2_rows.reserve(static_cast<size_t>(num_tuples));
  for (int64_t i = 0; i < output_tuples; ++i) {
    r1_rows.push_back(Tuple{i, i, Payload()});
    r2_rows.push_back(Tuple{i, i, Payload()});
  }
  for (int64_t i = output_tuples; i < num_tuples; ++i) {
    r1_rows.push_back(Tuple{1000000 + i, i, Payload()});
    r2_rows.push_back(Tuple{2000000 + i, i, Payload()});
  }
  Workload w;
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r1,
      BuildRelation("r1", schema, std::move(r1_rows), &rng,
                    kDefaultBlockBytes));
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r2,
      BuildRelation("r2", schema, std::move(r2_rows), &rng,
                    kDefaultBlockBytes));
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

  // Right: keys 0..num_keys-1, right_per_key tuples each.
  std::vector<Tuple> r2_rows;
  r2_rows.reserve(static_cast<size_t>(num_tuples));
  for (int64_t i = 0; i < num_tuples; ++i) {
    r2_rows.push_back(Tuple{2000000 + i, i % num_keys, Payload()});
  }
  // Left: matching_left tuples with keys uniform over the right's key
  // domain; the rest carry keys outside it.
  std::vector<Tuple> r1_rows;
  r1_rows.reserve(static_cast<size_t>(num_tuples));
  for (int64_t i = 0; i < matching_left; ++i) {
    r1_rows.push_back(Tuple{i, rng.UniformInt(0, num_keys - 1), Payload()});
  }
  for (int64_t i = matching_left; i < num_tuples; ++i) {
    r1_rows.push_back(Tuple{i, num_keys + i, Payload()});
  }
  Workload w;
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r1,
      BuildRelation("r1", schema, std::move(r1_rows), &rng,
                    kDefaultBlockBytes));
  TCQ_ASSIGN_OR_RETURN(
      RelationPtr r2,
      BuildRelation("r2", schema, std::move(r2_rows), &rng,
                    kDefaultBlockBytes));
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
  for (int64_t i = 0; i < num_tuples; ++i) {
    rel->AppendUnchecked(
        Tuple{i, rng.UniformInt(0, key_domain - 1), Payload()});
  }
  return std::make_shared<Relation>(std::move(*rel));
}

}  // namespace tcq
