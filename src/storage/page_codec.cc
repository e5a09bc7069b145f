#include "storage/page_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <variant>
#include <filesystem>
#include <fstream>

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

Status EncodeTuple(const Tuple& tuple, const Schema& schema,
                   std::vector<uint8_t>* out) {
  TCQ_RETURN_NOT_OK(schema.ValidateTuple(tuple));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    const Value& v = tuple[static_cast<size_t>(c)];
    switch (column.type) {
      case DataType::kInt64: {
        auto raw = static_cast<uint64_t>(std::get<int64_t>(v));
        PutU64(raw, out);
        break;
      }
      case DataType::kDouble: {
        uint64_t raw = 0;
        double d = std::get<double>(v);
        std::memcpy(&raw, &d, sizeof(raw));
        PutU64(raw, out);
        break;
      }
      case DataType::kString: {
        const std::string& s = std::get<std::string>(v);
        out->insert(out->end(), s.begin(), s.end());
        out->insert(out->end(),
                    static_cast<size_t>(column.width) - s.size(), 0);
        break;
      }
    }
  }
  return Status::OK();
}

Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t offset,
                          const Schema& schema) {
  if (offset + static_cast<size_t>(schema.TupleBytes()) > bytes.size()) {
    return Status::OutOfRange("tuple extends past the buffer");
  }
  Tuple tuple;
  tuple.reserve(static_cast<size_t>(schema.num_columns()));
  size_t pos = offset;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    switch (column.type) {
      case DataType::kInt64: {
        uint64_t raw = 0;
        for (int i = 0; i < 8; ++i) {
          raw |= static_cast<uint64_t>(bytes[pos + static_cast<size_t>(i)])
                 << (8 * i);
        }
        // In-place construction: push_back(Value{...}) move-constructs a
        // temporary variant, which GCC 12 under -fsanitize flags as
        // maybe-uninitialized through the string alternative (PR 105562).
        tuple.emplace_back(std::in_place_type<int64_t>,
                           static_cast<int64_t>(raw));
        pos += 8;
        break;
      }
      case DataType::kDouble: {
        uint64_t raw = 0;
        for (int i = 0; i < 8; ++i) {
          raw |= static_cast<uint64_t>(bytes[pos + static_cast<size_t>(i)])
                 << (8 * i);
        }
        double d = 0.0;
        std::memcpy(&d, &raw, sizeof(d));
        if (std::isnan(d)) return NaNValueError(column);
        tuple.emplace_back(std::in_place_type<double>, d);  // see kInt64
        pos += 8;
        break;
      }
      case DataType::kString: {
        size_t len = static_cast<size_t>(column.width);
        while (len > 0 && bytes[pos + len - 1] == 0) --len;
        tuple.push_back(std::string(
            reinterpret_cast<const char*>(&bytes[pos]), len));
        pos += static_cast<size_t>(column.width);
        break;
      }
    }
  }
  return tuple;
}

Result<std::vector<uint8_t>> EncodePage(const Block& block,
                                        const Schema& schema,
                                        int block_bytes) {
  int tuple_bytes = schema.TupleBytes();
  if (static_cast<int>(block.tuples.size()) * tuple_bytes > block_bytes) {
    return Status::InvalidArgument("block holds more bytes than the page");
  }
  std::vector<uint8_t> page;
  page.reserve(static_cast<size_t>(block_bytes));
  for (const Tuple& t : block.tuples) {
    TCQ_RETURN_NOT_OK(EncodeTuple(t, schema, &page));
  }
  page.resize(static_cast<size_t>(block_bytes), 0);
  return page;
}

Result<Block> DecodePage(const std::vector<uint8_t>& page, int count,
                         const Schema& schema) {
  Block block;
  size_t tuple_bytes = static_cast<size_t>(schema.TupleBytes());
  for (int i = 0; i < count; ++i) {
    TCQ_ASSIGN_OR_RETURN(
        Tuple t,
        DecodeTuple(page, static_cast<size_t>(i) * tuple_bytes, schema));
    block.tuples.push_back(std::move(t));
  }
  return block;
}

Result<std::vector<uint8_t>> EncodePageColumnar(const Block& block,
                                                const Schema& schema,
                                                int block_bytes) {
  int tuple_bytes = schema.TupleBytes();
  if (static_cast<int>(block.tuples.size()) * tuple_bytes > block_bytes) {
    return Status::InvalidArgument("block holds more bytes than the page");
  }
  for (const Tuple& t : block.tuples) {
    TCQ_RETURN_NOT_OK(schema.ValidateTuple(t));
  }
  std::vector<uint8_t> page;
  page.reserve(static_cast<size_t>(block_bytes));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    for (const Tuple& t : block.tuples) {
      const Value& v = t[static_cast<size_t>(c)];
      switch (column.type) {
        case DataType::kInt64:
          PutU64(static_cast<uint64_t>(std::get<int64_t>(v)), &page);
          break;
        case DataType::kDouble: {
          uint64_t raw = 0;
          double d = std::get<double>(v);
          std::memcpy(&raw, &d, sizeof(raw));
          PutU64(raw, &page);
          break;
        }
        case DataType::kString: {
          const std::string& s = std::get<std::string>(v);
          page.insert(page.end(), s.begin(), s.end());
          page.insert(page.end(),
                      static_cast<size_t>(column.width) - s.size(), 0);
          break;
        }
      }
    }
  }
  page.resize(static_cast<size_t>(block_bytes), 0);
  return page;
}

Result<Block> DecodePageColumnar(const std::vector<uint8_t>& page, int count,
                                 const Schema& schema) {
  size_t need = static_cast<size_t>(count) *
                static_cast<size_t>(schema.TupleBytes());
  if (need > page.size()) {
    return Status::OutOfRange("columnar page smaller than its tuples");
  }
  Block block;
  block.tuples.resize(static_cast<size_t>(count));
  for (Tuple& t : block.tuples) {
    t.reserve(static_cast<size_t>(schema.num_columns()));
  }
  size_t pos = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    switch (column.type) {
      case DataType::kInt64:
        for (int r = 0; r < count; ++r) {
          uint64_t raw = 0;
          for (int i = 0; i < 8; ++i) {
            raw |= static_cast<uint64_t>(page[pos + static_cast<size_t>(i)])
                   << (8 * i);
          }
          // In-place construction, as in DecodeTuple (GCC 12 PR 105562).
          block.tuples[static_cast<size_t>(r)].emplace_back(
              std::in_place_type<int64_t>, static_cast<int64_t>(raw));
          pos += 8;
        }
        break;
      case DataType::kDouble:
        for (int r = 0; r < count; ++r) {
          uint64_t raw = 0;
          for (int i = 0; i < 8; ++i) {
            raw |= static_cast<uint64_t>(page[pos + static_cast<size_t>(i)])
                   << (8 * i);
          }
          double d = 0.0;
          std::memcpy(&d, &raw, sizeof(d));
          if (std::isnan(d)) return NaNValueError(column);
          block.tuples[static_cast<size_t>(r)].emplace_back(
              std::in_place_type<double>, d);
          pos += 8;
        }
        break;
      case DataType::kString:
        for (int r = 0; r < count; ++r) {
          size_t len = static_cast<size_t>(column.width);
          while (len > 0 && page[pos + len - 1] == 0) --len;
          block.tuples[static_cast<size_t>(r)].push_back(std::string(
              reinterpret_cast<const char*>(&page[pos]), len));
          pos += static_cast<size_t>(column.width);
        }
        break;
    }
  }
  return block;
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
  for (const Block& b : relation.blocks()) {
    PutU32(static_cast<uint32_t>(b.tuples.size()), &out);
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
    for (Tuple& t : block.tuples) {
      relation.AppendUnchecked(std::move(t));
      ++loaded;
    }
  }
  if (loaded != num_tuples) {
    return Status::Internal("tuple count mismatch in '" + path + "'");
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
