#include "storage/relation.h"

#include <string>
#include <variant>

#include "util/check.h"

namespace tcq {

namespace {

std::string OverwideMessage(int column, int width, size_t length) {
  return "Relation::AppendUnchecked: a " + std::to_string(length) +
         "-byte string does not fit column " + std::to_string(column) +
         ", a CHAR(" + std::to_string(width) + ")";
}

std::string ArityMessage(const std::string& relation, size_t arity,
                         size_t got) {
  return "Relation::AppendUnchecked: relation '" + relation + "' has " +
         std::to_string(arity) + " columns, but a row of " +
         std::to_string(got) + " cells was appended";
}

}  // namespace

Result<Relation> Relation::Create(std::string name, Schema schema,
                                  int block_bytes) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("relation schema must not be empty");
  }
  int tuple_bytes = schema.TupleBytes();
  if (tuple_bytes <= 0) {
    return Status::InvalidArgument("schema has non-positive tuple size");
  }
  if (block_bytes < tuple_bytes) {
    return Status::InvalidArgument(
        "block size " + std::to_string(block_bytes) +
        " smaller than tuple size " + std::to_string(tuple_bytes));
  }
  int bf = block_bytes / tuple_bytes;
  return Relation(std::move(name), std::move(schema), block_bytes, bf);
}

Status Relation::Append(Tuple tuple) {
  TCQ_RETURN_NOT_OK(schema_.ValidateTuple(tuple));
  AppendUnchecked(std::move(tuple));
  return Status::OK();
}

void Relation::AppendUnchecked(std::span<Value> row) {
  const auto arity = static_cast<size_t>(schema_.num_columns());
  TCQ_CHECK(row.size() == arity,
            ArityMessage(name_, arity, row.size()).c_str());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const Column& column = schema_.column(c);
    if (column.type != DataType::kString) continue;
    const auto& s = std::get<std::string>(row[static_cast<size_t>(c)]);
    TCQ_CHECK(s.size() <= static_cast<size_t>(column.width),
              OverwideMessage(c, column.width, s.size()).c_str());
  }
  const size_t capacity = static_cast<size_t>(blocking_factor_) * arity;
  if (blocks_.empty() || blocks_.back().cells.size() >= capacity) {
    blocks_.emplace_back();
    blocks_.back().cells.reserve(capacity);
  }
  std::vector<Value>& cells = blocks_.back().cells;
  for (Value& v : row) cells.push_back(std::move(v));
  ++num_tuples_;
}

void Relation::AppendBlock(Block block) {
  const auto arity = static_cast<size_t>(schema_.num_columns());
  const size_t capacity = static_cast<size_t>(blocking_factor_) * arity;
  TCQ_CHECK(block.cells.size() % arity == 0 && block.cells.size() <= capacity,
            "Relation::AppendBlock: the block does not hold whole rows "
            "within the blocking factor");
  if (block.cells.empty()) return;
  if (!blocks_.empty() && blocks_.back().cells.size() < capacity) {
    for (size_t first = 0; first < block.cells.size(); first += arity) {
      AppendUnchecked(std::span<Value>(block.cells.data() + first, arity));
    }
    return;
  }
  block.cells.reserve(capacity);
  num_tuples_ += static_cast<int64_t>(block.cells.size() / arity);
  blocks_.push_back(std::move(block));
}

void Relation::Reserve(int64_t num_tuples) {
  blocks_.reserve(static_cast<size_t>((num_tuples + blocking_factor_ - 1) /
                                      blocking_factor_));
}

Status Catalog::Register(RelationPtr relation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("null relation");
  }
  for (const RelationPtr& r : relations_) {
    if (r->name() == relation->name()) {
      return Status::AlreadyExists("relation '" + relation->name() +
                                   "' already registered");
    }
  }
  relations_.push_back(std::move(relation));
  return Status::OK();
}

Result<RelationPtr> Catalog::Find(const std::string& name) const {
  for (const RelationPtr& r : relations_) {
    if (r->name() == name) return r;
  }
  return Status::NotFound("relation '" + name + "' not in catalog");
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const RelationPtr& r : relations_) names.push_back(r->name());
  return names;
}

}  // namespace tcq
