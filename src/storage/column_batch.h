#ifndef TCQ_STORAGE_COLUMN_BATCH_H_
#define TCQ_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace tcq {

/// Per-column contiguous storage of one batch of tuples — the in-memory
/// mirror of a TCQF v3 columnar page. Numeric columns are typed arrays;
/// string columns are fixed-width zero-padded byte runs (the on-disk
/// encoding, so lexicographic memcmp over one value equals CompareValues
/// on the decoded strings). The batch is maintained alongside the row
/// tuples of every Block, giving the vectorized evaluation path (Select
/// bitmaps, encoded-key merges) contiguous inputs without re-decoding.
class ColumnBatch {
 public:
  /// One column's contiguous values. Exactly one of the three arrays is
  /// populated, matching `type`.
  struct ColumnData {
    DataType type = DataType::kInt64;
    int width = 0;  // byte width of one value (8, or the string width)
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> bytes;  // kString: num_rows × width, zero-padded
  };

  ColumnBatch() = default;

  /// Declares the column types. Must be called before the first append;
  /// resets any previous contents.
  void Configure(const Schema& schema);

  bool configured() const { return !columns_.empty(); }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }

  /// Appends one row. The tuple must match the configured schema.
  void AppendRow(const Tuple& tuple);

  const ColumnData& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  /// Typed spans for the tight loops.
  std::span<const int64_t> I64(int c) const {
    return columns_[static_cast<size_t>(c)].i64;
  }
  std::span<const double> F64(int c) const {
    return columns_[static_cast<size_t>(c)].f64;
  }
  /// Raw fixed-width bytes of a string column (row r starts at r·width).
  std::span<const uint8_t> StringBytes(int c) const {
    return columns_[static_cast<size_t>(c)].bytes;
  }

 private:
  std::vector<ColumnData> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace tcq

#endif  // TCQ_STORAGE_COLUMN_BATCH_H_
