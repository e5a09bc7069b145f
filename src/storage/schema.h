#ifndef TCQ_STORAGE_SCHEMA_H_
#define TCQ_STORAGE_SCHEMA_H_

#include <span>
#include <string>
#include <vector>

#include "storage/value.h"
#include "util/result.h"
#include "util/status.h"

namespace tcq {

/// One column of a schema. `width` is the on-disk byte width and is only
/// meaningful for kString columns (kInt64/kDouble are 8 bytes).
struct Column {
  std::string name;
  DataType type = DataType::kInt64;
  int width = 0;

  /// On-disk byte width of this column.
  int ByteWidth() const { return type == DataType::kString ? width : 8; }
};

/// The error for a NaN in double column `column`. NaN has no place in the
/// order every sort and merge relies on, so storage refuses it on every
/// way in: Schema::ValidateTuple and the page decoders.
[[nodiscard]] Status NaNValueError(const Column& column);

/// Ordered list of columns describing the tuples of a relation or of an
/// operator's output.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }

  /// On-disk bytes per tuple (sum of column widths).
  int TupleBytes() const;

  /// Index of the named column, or NotFound.
  [[nodiscard]] Result<int> IndexOf(const std::string& name) const;

  /// True when the two schemas are union/intersect-compatible: same column
  /// count, types, and widths (names may differ).
  bool CompatibleWith(const Schema& other) const;

  /// Schema of a projection onto the given column positions.
  Schema SelectColumns(const std::vector<int>& indices) const;

  /// Schema of a join output: all of `this`'s columns followed by all of
  /// `right`'s. Right-side names that collide get a "r_" prefix.
  Schema ConcatForJoin(const Schema& right) const;

  /// Validates that `tuple` matches this schema (arity, value types, string
  /// widths) and holds no NaN, which has no place in the order every sort
  /// and merge relies on.
  [[nodiscard]] Status ValidateTuple(const Tuple& tuple) const {
    return ValidateRow(tuple);
  }
  /// ValidateTuple over one row's cells.
  [[nodiscard]] Status ValidateRow(std::span<const Value> row) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// An owned copy of `row`, whose cells `schema` types.
Tuple ToTuple(Row row, const Schema& schema);

}  // namespace tcq

#endif  // TCQ_STORAGE_SCHEMA_H_
