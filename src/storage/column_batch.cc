#include "storage/column_batch.h"

namespace tcq {

void ColumnBatch::Configure(const Schema& schema) {
  columns_.clear();
  num_rows_ = 0;
  columns_.reserve(static_cast<size_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    ColumnData data;
    data.type = c.type;
    data.width = c.ByteWidth();
    columns_.push_back(std::move(data));
  }
}

void ColumnBatch::AppendRow(const Tuple& tuple) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnData& col = columns_[c];
    const Value& v = tuple[c];
    switch (col.type) {
      case DataType::kInt64:
        col.i64.push_back(std::get<int64_t>(v));
        break;
      case DataType::kDouble:
        col.f64.push_back(std::get<double>(v));
        break;
      case DataType::kString: {
        const std::string& s = std::get<std::string>(v);
        col.bytes.insert(col.bytes.end(), s.begin(), s.end());
        col.bytes.insert(col.bytes.end(),
                         static_cast<size_t>(col.width) - s.size(), 0);
        break;
      }
    }
  }
  ++num_rows_;
}

}  // namespace tcq
