#include "storage/column_batch.h"

#include <cstring>
#include <string>

namespace tcq {

namespace {

/// Every column starts at a multiple of this, so int64/double spans are
/// naturally aligned whatever string widths precede them.
constexpr size_t kColumnAlign = 8;

size_t AlignUp(size_t n) {
  return (n + kColumnAlign - 1) / kColumnAlign * kColumnAlign;
}

std::string OverwideMessage(size_t column, size_t width, size_t length) {
  return "ColumnBatch::AppendRow: a " + std::to_string(length) +
         "-byte string does not fit column " + std::to_string(column) +
         ", a CHAR(" + std::to_string(width) + ")";
}

}  // namespace

void ColumnBatch::Configure(const Schema& schema, int64_t capacity) {
  TCQ_CHECK(capacity >= 0, "ColumnBatch capacity must be non-negative");
  columns_.clear();
  columns_.reserve(static_cast<size_t>(schema.num_columns()));
  size_t bytes = 0;
  for (const Column& c : schema.columns()) {
    columns_.push_back({c.type, c.ByteWidth(), bytes});
    bytes += AlignUp(static_cast<size_t>(capacity) *
                     static_cast<size_t>(c.ByteWidth()));
  }
  // Only written cells are ever read (the spans stop at num_rows), so the
  // buffer is left uninitialized.
  data_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  num_rows_ = 0;
  capacity_ = capacity;
}

void ColumnBatch::AppendRow(const Tuple& tuple) {
  TCQ_CHECK(num_rows_ < capacity_,
            "ColumnBatch::AppendRow: the batch is full (its capacity is "
            "fixed at Configure)");
  TCQ_DCHECK(tuple.size() == columns_.size(),
             "tuple arity differs from the batch's columns");
  const auto row = static_cast<size_t>(num_rows_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnSlot& col = columns_[c];
    const auto width = static_cast<size_t>(col.width);
    std::byte* cell = data_.get() + col.offset + row * width;
    const Value& v = tuple[c];
    switch (col.type) {
      case DataType::kInt64: {
        const int64_t x = std::get<int64_t>(v);
        std::memcpy(cell, &x, sizeof(x));
        break;
      }
      case DataType::kDouble: {
        const double x = std::get<double>(v);
        std::memcpy(cell, &x, sizeof(x));
        break;
      }
      case DataType::kString: {
        const std::string& s = std::get<std::string>(v);
        TCQ_CHECK(s.size() <= width,
                  OverwideMessage(c, width, s.size()).c_str());
        std::memcpy(cell, s.data(), s.size());
        std::memset(cell + s.size(), 0, width - s.size());
        break;
      }
    }
  }
  ++num_rows_;
}

}  // namespace tcq
