#include "storage/page_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string_view>

namespace tcq {

namespace {

constexpr char kMagic[4] = {'T', 'C', 'Q', 'F'};
/// v1: row pages, no checksums; v2 appends a 64-bit FNV-1a sum after each
/// page; v3 keeps the checksums but stores each page column-major.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  Result<uint32_t> U32() {
    TCQ_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> U64() {
    TCQ_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<std::string> String() {
    TCQ_ASSIGN_OR_RETURN(uint32_t len, U32());
    TCQ_RETURN_NOT_OK(Need(len));
    std::string s(reinterpret_cast<const char*>(&bytes_[pos_]), len);
    pos_ += len;
    return s;
  }

  Result<std::vector<uint8_t>> Raw(size_t n) {
    TCQ_RETURN_NOT_OK(Need(n));
    std::vector<uint8_t> out(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                             bytes_.begin() +
                                 static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

 private:
  Status Need(size_t n) {
    if (pos_ + n > bytes_.size()) {
      return Status::OutOfRange("truncated relation file");
    }
    return Status::OK();
  }

  std::vector<uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t PageChecksum(const std::vector<uint8_t>& page) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t byte : page) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Where each value of a page's rows lies, as value (row, column) at byte
/// start[column] + row · stride[column]: a row-major page (v1, v2) keeps
/// each row's values together, a column-major one (v3) each column's.
class PageLayout {
 public:
  PageLayout(const Schema& schema, size_t rows, bool columnar) {
    const auto tuple_bytes = static_cast<size_t>(schema.TupleBytes());
    size_t offset = 0;
    for (const Column& column : schema.columns()) {
      const auto width = static_cast<size_t>(column.ByteWidth());
      start_.push_back(offset);
      stride_.push_back(columnar ? width : tuple_bytes);
      offset += columnar ? rows * width : width;
    }
  }

  size_t At(size_t row, size_t column) const {
    return start_[column] + row * stride_[column];
  }

 private:
  std::vector<size_t> start_;
  std::vector<size_t> stride_;
};

/// Writes the fixed-width encoding of a `column` cell at `out`, whose
/// column.ByteWidth() bytes are zero: int64 and double little-endian, a
/// string's bytes with its zero padding left in place. A string wider than
/// its column or a NaN has no encoding.
Status EncodeCell(Cell cell, const Column& column, uint8_t* out) {
  uint64_t raw = 0;
  switch (column.type) {
    case DataType::kInt64:
      raw = static_cast<uint64_t>(cell.int64());
      break;
    case DataType::kDouble: {
      const double d = cell.float64();
      if (std::isnan(d)) return NaNValueError(column);
      std::memcpy(&raw, &d, sizeof(raw));
      break;
    }
    case DataType::kString: {
      const std::string_view s = cell.string();
      if (s.size() > static_cast<size_t>(column.width)) {
        return Status::InvalidArgument("string too wide for column '" +
                                       column.name + "'");
      }
      if (!s.empty()) std::memcpy(out, s.data(), s.size());
      return Status::OK();
    }
  }
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(raw >> (8 * i));
  return Status::OK();
}

/// The length of the string encoded in `width` bytes at `bytes`: its
/// trailing zero padding dropped.
size_t EncodedStringLength(const uint8_t* bytes, size_t width) {
  while (width > 0 && bytes[width - 1] == 0) --width;
  return width;
}

/// The cell of the `column` value encoded at `bytes`, a string's bytes
/// copied into `block`.
Result<Cell> DecodeCell(const uint8_t* bytes, const Column& column,
                        Block* block) {
  if (column.type == DataType::kString) {
    const auto width = static_cast<size_t>(column.width);
    return block->AddString(
        std::string_view(reinterpret_cast<const char*>(bytes),
                         EncodedStringLength(bytes, width)));
  }
  uint64_t raw = 0;
  for (int i = 0; i < 8; ++i) {
    raw |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  if (column.type == DataType::kInt64) {
    return Cell::Int64(static_cast<int64_t>(raw));
  }
  double d = 0.0;
  std::memcpy(&d, &raw, sizeof(d));
  if (std::isnan(d)) return NaNValueError(column);
  return Cell::Double(d);
}

/// Encodes the first `rows` rows of `block` at their `layout` places in a
/// zeroed page of `page_bytes` bytes.
Result<std::vector<uint8_t>> EncodeRows(const Block& block, size_t rows,
                                        const Schema& schema,
                                        const PageLayout& layout,
                                        size_t page_bytes) {
  const auto arity = static_cast<size_t>(schema.num_columns());
  std::vector<uint8_t> page(page_bytes, 0);
  const Cell* cells = block.cells();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) {
      TCQ_RETURN_NOT_OK(EncodeCell(cells[r * arity + c],
                                   schema.column(static_cast<int>(c)),
                                   &page[layout.At(r, c)]));
    }
  }
  return page;
}

/// Decodes `rows` rows at their `layout` places in `bytes` straight into
/// the cells of a block sized to their strings.
Result<Block> DecodeRows(const uint8_t* bytes, size_t rows,
                         const Schema& schema, const PageLayout& layout) {
  const auto arity = static_cast<size_t>(schema.num_columns());
  size_t string_bytes = 0;
  for (size_t c = 0; c < arity; ++c) {
    const Column& column = schema.column(static_cast<int>(c));
    if (column.type != DataType::kString) continue;
    for (size_t r = 0; r < rows; ++r) {
      string_bytes += Cell::PrefixedBytes(EncodedStringLength(
          bytes + layout.At(r, c), static_cast<size_t>(column.width)));
    }
  }
  Block block(rows * arity, string_bytes);
  Cell* cells = block.AppendCells(rows * arity);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) {
      TCQ_ASSIGN_OR_RETURN(cells[r * arity + c],
                           DecodeCell(bytes + layout.At(r, c),
                                      schema.column(static_cast<int>(c)),
                                      &block));
    }
  }
  return block;
}

/// The rows a block holds: whole rows of the schema's arity that fit a
/// page of `block_bytes`.
Result<size_t> BlockRows(const Block& block, const Schema& schema,
                         int block_bytes) {
  const auto arity = static_cast<size_t>(schema.num_columns());
  const size_t rows = block.num_cells() / arity;
  if (rows * arity != block.num_cells()) {
    return Status::InvalidArgument("block cells do not form whole rows");
  }
  if (static_cast<int64_t>(rows) * schema.TupleBytes() > block_bytes) {
    return Status::InvalidArgument("block holds more bytes than the page");
  }
  return rows;
}

/// A page of `count` rows in `page`, or OutOfRange when they overrun it.
Status CheckPageRows(const std::vector<uint8_t>& page, int count,
                     const Schema& schema) {
  if (count < 0 || static_cast<size_t>(count) *
                           static_cast<size_t>(schema.TupleBytes()) >
                       page.size()) {
    return Status::OutOfRange("page smaller than its tuples");
  }
  return Status::OK();
}

}  // namespace

Status EncodeTuple(const Tuple& tuple, const Schema& schema,
                   std::vector<uint8_t>* out) {
  TCQ_RETURN_NOT_OK(schema.ValidateTuple(tuple));
  const auto tuple_bytes = static_cast<size_t>(schema.TupleBytes());
  TCQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      EncodeRows(Block::Of(std::span<const Tuple>(&tuple, 1)), 1, schema,
                 PageLayout(schema, 1, /*columnar=*/false), tuple_bytes));
  out->insert(out->end(), bytes.begin(), bytes.end());
  return Status::OK();
}

Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t offset,
                          const Schema& schema) {
  if (offset + static_cast<size_t>(schema.TupleBytes()) > bytes.size()) {
    return Status::OutOfRange("tuple extends past the buffer");
  }
  TCQ_ASSIGN_OR_RETURN(Block block,
                       DecodeRows(bytes.data() + offset, 1, schema,
                                  PageLayout(schema, 1, /*columnar=*/false)));
  return ToTuple(Row(block.cells()), schema);
}

Result<std::vector<uint8_t>> EncodePage(const Block& block,
                                        const Schema& schema,
                                        int block_bytes) {
  TCQ_ASSIGN_OR_RETURN(size_t rows, BlockRows(block, schema, block_bytes));
  return EncodeRows(block, rows, schema,
                    PageLayout(schema, rows, /*columnar=*/false),
                    static_cast<size_t>(block_bytes));
}

Result<Block> DecodePage(const std::vector<uint8_t>& page, int count,
                         const Schema& schema) {
  TCQ_RETURN_NOT_OK(CheckPageRows(page, count, schema));
  const auto rows = static_cast<size_t>(count);
  return DecodeRows(page.data(), rows, schema,
                    PageLayout(schema, rows, /*columnar=*/false));
}

Result<std::vector<uint8_t>> EncodePageColumnar(const Block& block,
                                                const Schema& schema,
                                                int block_bytes) {
  TCQ_ASSIGN_OR_RETURN(size_t rows, BlockRows(block, schema, block_bytes));
  return EncodeRows(block, rows, schema,
                    PageLayout(schema, rows, /*columnar=*/true),
                    static_cast<size_t>(block_bytes));
}

Result<Block> DecodePageColumnar(const std::vector<uint8_t>& page, int count,
                                 const Schema& schema) {
  TCQ_RETURN_NOT_OK(CheckPageRows(page, count, schema));
  const auto rows = static_cast<size_t>(count);
  return DecodeRows(page.data(), rows, schema,
                    PageLayout(schema, rows, /*columnar=*/true));
}

Status SaveRelation(const Relation& relation, const std::string& path) {
  return SaveRelationAtVersion(relation, path, kVersion);
}

Status SaveRelationAtVersion(const Relation& relation, const std::string& path,
                             uint32_t version) {
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported TCQF version " +
                                   std::to_string(version));
  }
  std::vector<uint8_t> out;
  // Byte-wise append: vector::insert over the char[4] range makes GCC 12
  // under -fsanitize report a bogus -Wstringop-overflow (memmove into a
  // "size 0" region); the loop compiles to the same stores warning-free.
  for (char c : kMagic) out.push_back(static_cast<uint8_t>(c));
  PutU32(version, &out);
  PutString(relation.name(), &out);
  PutU32(static_cast<uint32_t>(relation.schema().num_columns()), &out);
  for (const Column& c : relation.schema().columns()) {
    PutString(c.name, &out);
    PutU32(static_cast<uint32_t>(c.type), &out);
    PutU32(static_cast<uint32_t>(c.width), &out);
  }
  PutU32(static_cast<uint32_t>(relation.block_bytes()), &out);
  PutU64(static_cast<uint64_t>(relation.NumBlocks()), &out);
  PutU64(static_cast<uint64_t>(relation.NumTuples()), &out);
  const auto arity = static_cast<size_t>(relation.schema().num_columns());
  for (const Block& b : relation.blocks()) {
    PutU32(static_cast<uint32_t>(b.num_cells() / arity), &out);
  }
  for (const Block& b : relation.blocks()) {
    TCQ_ASSIGN_OR_RETURN(
        std::vector<uint8_t> page,
        version >= 3
            ? EncodePageColumnar(b, relation.schema(), relation.block_bytes())
            : EncodePage(b, relation.schema(), relation.block_bytes()));
    out.insert(out.end(), page.begin(), page.end());
    if (version >= 2) PutU64(PageChecksum(page), &out);
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  file.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  if (!file) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

Result<Relation> LoadRelation(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  Reader reader(std::move(bytes));
  TCQ_ASSIGN_OR_RETURN(std::vector<uint8_t> magic, reader.Raw(4));
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a TCQF file");
  }
  TCQ_ASSIGN_OR_RETURN(uint32_t version, reader.U32());
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported TCQF version " +
                                   std::to_string(version));
  }
  TCQ_ASSIGN_OR_RETURN(std::string name, reader.String());
  TCQ_ASSIGN_OR_RETURN(uint32_t ncols, reader.U32());
  std::vector<Column> columns;
  for (uint32_t c = 0; c < ncols; ++c) {
    Column column;
    TCQ_ASSIGN_OR_RETURN(column.name, reader.String());
    TCQ_ASSIGN_OR_RETURN(uint32_t type, reader.U32());
    if (type > static_cast<uint32_t>(DataType::kString)) {
      return Status::InvalidArgument("bad column type in '" + path + "'");
    }
    column.type = static_cast<DataType>(type);
    TCQ_ASSIGN_OR_RETURN(uint32_t width, reader.U32());
    column.width = static_cast<int>(width);
    columns.push_back(std::move(column));
  }
  Schema schema(std::move(columns));
  TCQ_ASSIGN_OR_RETURN(uint32_t block_bytes, reader.U32());
  TCQ_ASSIGN_OR_RETURN(uint64_t num_blocks, reader.U64());
  TCQ_ASSIGN_OR_RETURN(uint64_t num_tuples, reader.U64());
  std::vector<uint32_t> counts;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    TCQ_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
    counts.push_back(count);
  }
  TCQ_ASSIGN_OR_RETURN(
      Relation relation,
      Relation::Create(name, schema, static_cast<int>(block_bytes)));
  // The page counts were read from the file, so their number is bounded
  // by its size; the header's tuple count is not, so it sizes nothing.
  relation.Reserve(static_cast<int64_t>(counts.size()) *
                   relation.blocking_factor());
  uint64_t loaded = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    TCQ_ASSIGN_OR_RETURN(std::vector<uint8_t> page,
                         reader.Raw(block_bytes));
    if (version >= 2) {
      TCQ_ASSIGN_OR_RETURN(uint64_t stored_sum, reader.U64());
      if (stored_sum != PageChecksum(page)) {
        return Status::DataLoss("page " + std::to_string(b) + " of '" +
                                path + "' failed checksum verification");
      }
    }
    int count = static_cast<int>(counts[static_cast<size_t>(b)]);
    TCQ_ASSIGN_OR_RETURN(Block block,
                         version >= 3 ? DecodePageColumnar(page, count, schema)
                                      : DecodePage(page, count, schema));
    relation.AppendBlock(std::move(block));
    loaded += static_cast<uint64_t>(count);
  }
  // The header's count is covered by no checksum: a file whose pages
  // disagree with it misdescribes itself, like a corrupt page.
  if (loaded != num_tuples) {
    return Status::DataLoss("tuple count mismatch in '" + path +
                            "': the header says " +
                            std::to_string(num_tuples) + ", the pages hold " +
                            std::to_string(loaded));
  }
  return relation;
}

Status ConvertRelationFile(const std::string& in_path,
                           const std::string& out_path,
                           uint32_t target_version) {
  TCQ_ASSIGN_OR_RETURN(Relation relation, LoadRelation(in_path));
  return SaveRelationAtVersion(relation, out_path, target_version);
}

Status SaveCatalog(const Catalog& catalog, const std::string& directory) {
  for (const std::string& name : catalog.Names()) {
    TCQ_ASSIGN_OR_RETURN(RelationPtr rel, catalog.Find(name));
    TCQ_RETURN_NOT_OK(
        SaveRelation(*rel, directory + "/" + name + ".tcq"));
  }
  return Status::OK();
}

Result<Catalog> LoadCatalog(const std::string& directory) {
  Catalog catalog;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) {
    return Status::NotFound("cannot list directory '" + directory + "'");
  }
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".tcq") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    TCQ_ASSIGN_OR_RETURN(Relation rel, LoadRelation(path));
    TCQ_RETURN_NOT_OK(
        catalog.Register(std::make_shared<Relation>(std::move(rel))));
  }
  return catalog;
}

}  // namespace tcq
