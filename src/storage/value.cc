#include "storage/value.h"

#include "util/check.h"

namespace tcq {

std::string_view DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType ValueType(const Value& v) {
  switch (v.index()) {
    case 0:
      return DataType::kInt64;
    case 1:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

int CompareValues(const Value& a, const Value& b) {
  TCQ_DCHECK(a.index() == b.index(),
             "values of different types compared");
  switch (a.index()) {
    case 0:
      return Compare3(std::get<int64_t>(a), std::get<int64_t>(b));
    case 1:
      return Compare3(std::get<double>(a), std::get<double>(b));
    default:
      return Compare3(std::get<std::string>(a), std::get<std::string>(b));
  }
}

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1:
      return std::to_string(std::get<double>(v));
    default:
      return std::get<std::string>(v);
  }
}

int CompareTuplesOnKey(const Tuple& a, const Tuple& b,
                       const std::vector<int>& key) {
  for (int idx : key) {
    TCQ_DCHECK(idx >= 0 && static_cast<size_t>(idx) < a.size() &&
                   static_cast<size_t>(idx) < b.size(),
               "key column out of range of a compared tuple");
    int c = CompareValues(a[static_cast<size_t>(idx)],
                          b[static_cast<size_t>(idx)]);
    if (c != 0) return c;
  }
  return 0;
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  TCQ_DCHECK(a.size() == b.size(), "tuples of different arity compared");
  for (size_t i = 0; i < a.size(); ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

}  // namespace tcq
