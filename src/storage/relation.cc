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

void Relation::AppendUnchecked(Tuple tuple) {
  TCQ_DCHECK(tuple.size() == static_cast<size_t>(schema_.num_columns()),
             "tuple arity differs from the schema");
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const Column& column = schema_.column(c);
    if (column.type != DataType::kString) continue;
    const auto& s = std::get<std::string>(tuple[static_cast<size_t>(c)]);
    TCQ_CHECK(s.size() <= static_cast<size_t>(column.width),
              OverwideMessage(c, column.width, s.size()).c_str());
  }
  if (blocks_.empty() ||
      static_cast<int>(blocks_.back().tuples.size()) >= blocking_factor_) {
    blocks_.emplace_back();
    blocks_.back().tuples.reserve(static_cast<size_t>(blocking_factor_));
  }
  blocks_.back().tuples.push_back(std::move(tuple));
  ++num_tuples_;
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
