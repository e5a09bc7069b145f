#ifndef TCQ_STORAGE_VALUE_H_
#define TCQ_STORAGE_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tcq {

/// Column data types supported by the storage layer.
enum class DataType {
  kInt64,
  kDouble,
  kString,  // fixed maximum width, declared in the schema
};

std::string_view DataTypeName(DataType type);

/// A single typed cell value.
///
/// Values are passive data; ordering and equality follow the underlying
/// type. Comparing values of different alternatives is a programming error
/// guarded by debug contracts (TCQ_DCHECK, armed in the sanitizer builds)
/// in the comparison helpers below.
using Value = std::variant<int64_t, double, std::string>;

/// Returns the DataType of the alternative held by `v`.
DataType ValueType(const Value& v);

/// Three-way comparison of two values of one alternative's type: -1, 0 or
/// 1. CompareValues applies it to the alternative both values hold.
template <typename T>
int Compare3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// Three-way comparison; requires both values to hold the same alternative.
int CompareValues(const Value& a, const Value& b);

/// Renders a value for debugging/output ("42", "3.5", "abc").
std::string ValueToString(const Value& v);

/// A tuple is a row of values, positionally matching a Schema: the owned
/// row type at the API edges (appends, the exact oracle's results, tests).
using Tuple = std::vector<Value>;

/// An 8-byte handle to one row: the address of its first cell. Rows lie
/// back to back in a block's cell array, in the output cells of a join or
/// projection, or in a Tuple. The handle does not know its arity; a reader
/// takes it from the schema or key it holds. It stays valid while the
/// cells it points at neither die nor move (DESIGN.md, "Run
/// representation").
class Row {
 public:
  Row() = default;
  explicit Row(const Value* cells) : cells_(cells) {}

  const Value& operator[](size_t column) const { return cells_[column]; }
  const Value* data() const { return cells_; }

  friend bool operator==(Row a, Row b) { return a.cells_ == b.cells_; }

 private:
  const Value* cells_ = nullptr;
};

/// The handle of a tuple's cells.
inline Row RowOf(const Tuple& tuple) { return Row(tuple.data()); }

/// An owned copy of the `arity` cells of `row`.
inline Tuple ToTuple(Row row, size_t arity) {
  return Tuple(row.data(), row.data() + arity);
}

/// `count` rows of `arity` cells stored back to back from `first`: an
/// indexable, iterable range of Row handles.
class RowRange {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    Iterator() = default;
    Iterator(const Value* cell, size_t arity) : cell_(cell), arity_(arity) {}
    Row operator*() const { return Row(cell_); }
    Iterator& operator++() {
      cell_ += arity_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return cell_ == other.cell_;
    }

   private:
    const Value* cell_ = nullptr;
    size_t arity_ = 0;
  };

  RowRange(const Value* first, size_t arity, size_t count)
      : first_(first), arity_(arity), count_(count) {}

  size_t size() const { return count_; }
  Row operator[](size_t i) const { return Row(first_ + i * arity_); }
  Iterator begin() const { return Iterator(first_, arity_); }
  Iterator end() const { return Iterator(first_ + count_ * arity_, arity_); }

 private:
  const Value* first_;
  size_t arity_;
  size_t count_;
};

/// Lexicographic three-way comparison of two tuples restricted to the given
/// column positions (`key` indexes into both tuples).
int CompareTuplesOnKey(const Tuple& a, const Tuple& b,
                       const std::vector<int>& key);

/// Lexicographic three-way comparison over all positions; the tuples must
/// have equal arity.
int CompareTuples(const Tuple& a, const Tuple& b);

}  // namespace tcq

#endif  // TCQ_STORAGE_VALUE_H_
