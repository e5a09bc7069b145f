#include "storage/schema.h"

#include <cmath>
#include <unordered_set>

namespace tcq {

int Schema::TupleBytes() const {
  int total = 0;
  for (const Column& c : columns_) total += c.ByteWidth();
  return total;
}

Result<int> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound("no column named '" + name + "'");
}

bool Schema::CompatibleWith(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != other.columns_[i].type) return false;
    if (columns_[i].type == DataType::kString &&
        columns_[i].width != other.columns_[i].width) {
      return false;
    }
  }
  return true;
}

Schema Schema::SelectColumns(const std::vector<int>& indices) const {
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (int i : indices) cols.push_back(columns_[static_cast<size_t>(i)]);
  return Schema(std::move(cols));
}

Schema Schema::ConcatForJoin(const Schema& right) const {
  std::unordered_set<std::string> left_names;
  for (const Column& c : columns_) left_names.insert(c.name);
  std::vector<Column> cols = columns_;
  for (const Column& c : right.columns_) {
    Column out = c;
    if (left_names.count(out.name) > 0) out.name = "r_" + out.name;
    cols.push_back(std::move(out));
  }
  return Schema(std::move(cols));
}

Status NaNValueError(const Column& column) {
  return Status::InvalidArgument("NaN in double column '" + column.name +
                                 "': sorts and merges need ordered values");
}

Status Schema::ValidateRow(std::span<const Value> tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " + std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (ValueType(tuple[i]) != columns_[i].type) {
      return Status::InvalidArgument("value type mismatch in column '" +
                                     columns_[i].name + "'");
    }
    if (columns_[i].type == DataType::kString &&
        static_cast<int>(std::get<std::string>(tuple[i]).size()) >
            columns_[i].width) {
      return Status::InvalidArgument("string too wide for column '" +
                                     columns_[i].name + "'");
    }
    if (columns_[i].type == DataType::kDouble &&
        std::isnan(std::get<double>(tuple[i]))) {
      return NaNValueError(columns_[i]);
    }
  }
  return Status::OK();
}

Tuple ToTuple(Row row, const Schema& schema) {
  Tuple tuple;
  tuple.reserve(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    tuple.push_back(
        ToValue(row[static_cast<size_t>(c)], schema.column(c).type));
  }
  return tuple;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += DataTypeName(columns_[i].type);
    if (columns_[i].type == DataType::kString) {
      // Appended piecewise: the operator+ chain form trips GCC 12's
      // -Wrestrict false positive (PR 105329) at -O2.
      out += "[";
      out += std::to_string(columns_[i].width);
      out += "]";
    }
  }
  out += ")";
  return out;
}

}  // namespace tcq
