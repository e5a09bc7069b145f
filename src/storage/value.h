#ifndef TCQ_STORAGE_VALUE_H_
#define TCQ_STORAGE_VALUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
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

/// One resident cell: 8 bytes whose type its column declares, so a reader
/// takes it from the schema or key it holds. An int64 or a double sits in
/// place. A string is the address of its length-prefixed bytes, which lie
/// in the allocation of the block that stores the row (Block, in
/// storage/relation.h); a cell copied into a join's or a projection's
/// output refers to the same bytes, valid while the block's relation lives
/// (DESIGN.md, "Run representation").
class Cell {
 public:
  /// A string shorter than this takes a one-byte length prefix; a longer
  /// one takes this byte followed by its length as 4 little-endian bytes.
  static constexpr uint8_t kLongString = 0xff;

  Cell() = default;
  static Cell Int64(int64_t v) {
    Cell cell;
    cell.int64_ = v;
    return cell;
  }
  static Cell Double(double v) {
    Cell cell;
    cell.double_ = v;
    return cell;
  }
  /// The string whose length prefix starts at `prefixed`.
  static Cell String(const uint8_t* prefixed) {
    Cell cell;
    cell.string_ = prefixed;
    return cell;
  }

  int64_t int64() const { return int64_; }
  double float64() const { return double_; }
  std::string_view string() const {
    if (string_[0] != kLongString) {
      return {reinterpret_cast<const char*>(string_ + 1), string_[0]};
    }
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(string_[1 + i]) << (8 * i);
    }
    return {reinterpret_cast<const char*>(string_ + 5), length};
  }

  /// The bytes a string of `length` bytes takes with its prefix.
  static size_t PrefixedBytes(size_t length) {
    return length + (length < kLongString ? 1 : 5);
  }
  /// Writes the prefixed form of `s` at `out`, which has room for
  /// PrefixedBytes(s.size()) bytes, and returns its cell.
  static Cell WriteString(std::string_view s, uint8_t* out) {
    uint8_t* bytes = out + 1;
    if (s.size() < kLongString) {
      out[0] = static_cast<uint8_t>(s.size());
    } else {
      out[0] = kLongString;
      for (int i = 0; i < 4; ++i) {
        out[1 + i] = static_cast<uint8_t>(s.size() >> (8 * i));
      }
      bytes = out + 5;
    }
    if (!s.empty()) std::memcpy(bytes, s.data(), s.size());
    return String(out);
  }

  /// The same 8 bytes: the same number, or a reference to the same string
  /// bytes.
  friend bool operator==(Cell a, Cell b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  }

 private:
  union {
    int64_t int64_;
    double double_;
    const uint8_t* string_;
  };
};
static_assert(sizeof(Cell) == 8 && std::is_trivially_copyable_v<Cell>);

/// Three-way comparison of two cells of a `type` column, with the order
/// CompareValues gives their values.
inline int CompareCells(Cell a, Cell b, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Compare3(a.int64(), b.int64());
    case DataType::kDouble:
      return Compare3(a.float64(), b.float64());
    case DataType::kString:
      return Compare3(a.string(), b.string());
  }
  return 0;
}

/// The number in a numeric (int64 or double) cell, as SUM and AVG add it.
inline double CellNumber(Cell cell, DataType type) {
  return type == DataType::kInt64 ? static_cast<double>(cell.int64())
                                  : cell.float64();
}

/// The owned value of a `type` cell.
Value ToValue(Cell cell, DataType type);

/// An 8-byte handle to one row: the address of its first cell. Rows lie
/// back to back in a block's cell array, or in the output cells of a join
/// or projection. The handle knows neither its arity nor its column types;
/// a reader takes them from the schema or key it holds. It stays valid
/// while the cells it points at neither die nor move (DESIGN.md, "Run
/// representation").
class Row {
 public:
  Row() = default;
  explicit Row(const Cell* cells) : cells_(cells) {}

  Cell operator[](size_t column) const { return cells_[column]; }
  const Cell* data() const { return cells_; }

  friend bool operator==(Row a, Row b) { return a.cells_ == b.cells_; }

 private:
  const Cell* cells_ = nullptr;
};

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
    Iterator(const Cell* cell, size_t arity) : cell_(cell), arity_(arity) {}
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
    const Cell* cell_ = nullptr;
    size_t arity_ = 0;
  };

  RowRange(const Cell* first, size_t arity, size_t count)
      : first_(first), arity_(arity), count_(count) {}

  size_t size() const { return count_; }
  Row operator[](size_t i) const { return Row(first_ + i * arity_); }
  Iterator begin() const { return Iterator(first_, arity_); }
  Iterator end() const { return Iterator(first_ + count_ * arity_, arity_); }

 private:
  const Cell* first_;
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
