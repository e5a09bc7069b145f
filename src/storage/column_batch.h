#ifndef TCQ_STORAGE_COLUMN_BATCH_H_
#define TCQ_STORAGE_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/check.h"

namespace tcq {

/// Column-major storage of one batch of tuples in a single exact-size
/// buffer — the in-memory form of a TCQF v3 page. The capacity is fixed
/// at Configure; each column's `capacity` values sit back to back, and
/// every column starts at an 8-byte-aligned offset so the typed spans can
/// be read in place. Numeric columns hold their native values; string
/// columns hold fixed-width zero-padded bytes (the on-disk encoding, so
/// lexicographic memcmp over one value equals CompareValues on the decoded
/// strings). Every Block keeps one beside its row tuples, giving the
/// vectorized evaluation path (Select bitmaps, encoded-key merges)
/// contiguous inputs without re-decoding.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Declares the column types and allocates room for exactly `capacity`
  /// rows. Must be called before the first append; drops any previous
  /// contents.
  void Configure(const Schema& schema, int64_t capacity);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  int64_t capacity() const { return capacity_; }

  DataType type(int c) const { return columns_[static_cast<size_t>(c)].type; }
  /// Byte width of one value: 8, or the string column's declared width.
  int width(int c) const { return columns_[static_cast<size_t>(c)].width; }

  /// Appends one row. The tuple must match the configured schema; a full
  /// batch, or a string wider than its column, aborts the process.
  void AppendRow(const Tuple& tuple);

  /// Typed spans over the buffer, `num_rows()` values each.
  std::span<const int64_t> I64(int c) const {
    TCQ_DCHECK(type(c) == DataType::kInt64, "I64 over a non-int64 column");
    return {reinterpret_cast<const int64_t*>(At(c)),
            static_cast<size_t>(num_rows_)};
  }
  std::span<const double> F64(int c) const {
    TCQ_DCHECK(type(c) == DataType::kDouble, "F64 over a non-double column");
    return {reinterpret_cast<const double*>(At(c)),
            static_cast<size_t>(num_rows_)};
  }
  /// Raw fixed-width bytes of a string column (row r starts at r·width).
  std::span<const uint8_t> StringBytes(int c) const {
    TCQ_DCHECK(type(c) == DataType::kString,
               "StringBytes over a non-string column");
    return {reinterpret_cast<const uint8_t*>(At(c)),
            static_cast<size_t>(num_rows_) * static_cast<size_t>(width(c))};
  }

 private:
  struct ColumnSlot {
    DataType type = DataType::kInt64;
    int width = 0;
    size_t offset = 0;  // of the column's first value in `data_`
  };

  // The buffer is a std::byte array, whose storage implicitly creates the
  // int64/double objects the typed spans read; AppendRow writes them with
  // memcpy.
  const std::byte* At(int c) const {
    return data_.get() + columns_[static_cast<size_t>(c)].offset;
  }

  std::vector<ColumnSlot> columns_;
  std::unique_ptr<std::byte[]> data_;
  int64_t num_rows_ = 0;
  int64_t capacity_ = 0;
};

}  // namespace tcq

#endif  // TCQ_STORAGE_COLUMN_BATCH_H_
