#include "storage/relation.h"

#include <cstdint>
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

std::string TypeMessage(const Column& column, DataType got) {
  return "Relation::AppendUnchecked: a " + std::string(DataTypeName(got)) +
         " value was appended to " + std::string(DataTypeName(column.type)) +
         " column '" + column.name + "'";
}

std::string ArityMessage(const std::string& relation, size_t arity,
                         size_t got) {
  return "Relation::AppendUnchecked: relation '" + relation + "' has " +
         std::to_string(arity) + " columns, but a row of " +
         std::to_string(got) + " cells was appended";
}

}  // namespace

Block::Block(size_t cells, size_t string_bytes) {
  const size_t bytes = sizeof(Header) + cells * sizeof(Cell) + string_bytes;
  TCQ_CHECK(bytes <= UINT32_MAX, "Block: more than 4 GiB in one block");
  data_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  header() = Header{0, static_cast<uint32_t>(bytes - string_bytes)};
}

Block Block::Of(std::span<const Tuple> tuples) {
  size_t cells = 0;
  size_t string_bytes = 0;
  for (const Tuple& tuple : tuples) {
    cells += tuple.size();
    for (const Value& value : tuple) {
      if (const auto* s = std::get_if<std::string>(&value)) {
        string_bytes += Cell::PrefixedBytes(s->size());
      }
    }
  }
  Block block(cells, string_bytes);
  for (const Tuple& tuple : tuples) block.AppendRow(tuple);
  return block;
}

Cell* Block::AppendCells(size_t count) {
  Header& h = header();
  Cell* first = reinterpret_cast<Cell*>(data_.get() + sizeof(Header)) + h.cells;
  h.cells += static_cast<uint32_t>(count);
  return first;
}

Cell Block::AddString(std::string_view s) {
  Header& h = header();
  auto* out = reinterpret_cast<uint8_t*>(data_.get() + h.string_end);
  h.string_end += static_cast<uint32_t>(Cell::PrefixedBytes(s.size()));
  return Cell::WriteString(s, out);
}

void Block::AppendRow(std::span<const Value> row) {
  Cell* cells = AppendCells(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& value = row[c];
    if (const auto* i = std::get_if<int64_t>(&value)) {
      cells[c] = Cell::Int64(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      cells[c] = Cell::Double(*d);
    } else {
      cells[c] = AddString(std::get<std::string>(value));
    }
  }
}

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

void Relation::AppendUnchecked(std::span<const Value> row) {
  const auto arity = static_cast<size_t>(schema_.num_columns());
  TCQ_CHECK(row.size() == arity,
            ArityMessage(name_, arity, row.size()).c_str());
  size_t string_room = 0;  // a tail block's room for one row's strings
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const Column& column = schema_.column(c);
    const Value& value = row[static_cast<size_t>(c)];
    TCQ_CHECK(ValueType(value) == column.type,
              TypeMessage(column, ValueType(value)).c_str());
    if (column.type != DataType::kString) continue;
    const size_t length = std::get<std::string>(value).size();
    TCQ_CHECK(length <= static_cast<size_t>(column.width),
              OverwideMessage(c, column.width, length).c_str());
    string_room += Cell::PrefixedBytes(static_cast<size_t>(column.width));
  }
  if (blocks_.empty() || blocks_.back().num_cells() >= BlockCells()) {
    blocks_.emplace_back(BlockCells(),
                         static_cast<size_t>(blocking_factor_) * string_room);
  }
  blocks_.back().AppendRow(row);
  ++num_tuples_;
}

void Relation::AppendBlock(Block block) {
  const auto arity = static_cast<size_t>(schema_.num_columns());
  const size_t cells = block.num_cells();
  TCQ_CHECK(cells % arity == 0 && cells <= BlockCells(),
            "Relation::AppendBlock: the block does not hold whole rows "
            "within the blocking factor");
  if (cells == BlockCells() &&
      (blocks_.empty() || blocks_.back().num_cells() == BlockCells())) {
    num_tuples_ += blocking_factor_;
    blocks_.push_back(std::move(block));
    return;
  }
  for (Row row : RowRange(block.cells(), arity, cells / arity)) {
    AppendUnchecked(ToTuple(row, schema_));
  }
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
