#ifndef TCQ_STORAGE_VALUE_H_
#define TCQ_STORAGE_VALUE_H_

#include <cstdint>
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

/// A tuple is a row of values, positionally matching a Schema.
using Tuple = std::vector<Value>;

/// Lexicographic three-way comparison of two tuples restricted to the given
/// column positions (`key` indexes into both tuples).
int CompareTuplesOnKey(const Tuple& a, const Tuple& b,
                       const std::vector<int>& key);

/// Lexicographic three-way comparison over all positions; the tuples must
/// have equal arity.
int CompareTuples(const Tuple& a, const Tuple& b);

}  // namespace tcq

#endif  // TCQ_STORAGE_VALUE_H_
