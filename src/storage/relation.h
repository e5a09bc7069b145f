#ifndef TCQ_STORAGE_RELATION_H_
#define TCQ_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/result.h"
#include "util/status.h"

namespace tcq {

/// Default disk block (page) size — the paper uses 1 KiB blocks.
inline constexpr int kDefaultBlockBytes = 1024;

/// A disk block in memory: up to `blocking factor` rows stored together.
/// The block is the cluster-sampling unit (paper §2): drawing a block
/// retrieves all of its rows at the cost of one random read.
///
/// A block is one allocation: an 8-byte header, its rows' 8-byte cells
/// back to back (row r's at [r·arity, (r+1)·arity)), then the
/// length-prefixed bytes of its string cells. Its room for cells and
/// string bytes is fixed when it is made, so no row and no string ever
/// moves. A block built whole — decoded from a TCQF page (storage/
/// page_codec.h), written by a generator, or made from tuples — is sized
/// to its rows' strings; a relation's tail block, filled row by row, keeps
/// room for every string at its declared width (DESIGN.md §11, "In
/// memory").
class Block {
 public:
  Block() = default;
  /// An empty block with room for `cells` cells and `string_bytes` bytes
  /// of prefixed strings (Cell::PrefixedBytes).
  Block(size_t cells, size_t string_bytes);
  /// A block holding `tuples`, rows of one arity, sized to their strings.
  static Block Of(std::span<const Tuple> tuples);

  size_t num_cells() const { return data_ ? header().cells : 0; }
  const Cell* cells() const {
    return data_ ? reinterpret_cast<const Cell*>(data_.get() + sizeof(Header))
                 : nullptr;
  }

  /// Appends `count` cells for the caller to fill and returns the first.
  /// The block must have room for them.
  Cell* AppendCells(size_t count);
  /// Copies `s` into the block's strings and returns its cell. The block
  /// must have room for Cell::PrefixedBytes(s.size()) more bytes.
  Cell AddString(std::string_view s);
  /// Appends one row of values, each cell typed by its value, copying its
  /// strings in.
  void AppendRow(std::span<const Value> row);

 private:
  struct Header {
    uint32_t cells;       // cells appended so far
    uint32_t string_end;  // offset of the first free string byte
  };
  Header& header() const { return *reinterpret_cast<Header*>(data_.get()); }

  std::unique_ptr<std::byte[]> data_;
};

/// Read-only view of one block: the access surface operators and samplers
/// consume. The view borrows the block; the owning Relation must outlive
/// it.
class BlockView {
 public:
  BlockView(const Block* block, int arity) : block_(block), arity_(arity) {}

  /// The rows, in block order.
  RowRange rows() const {
    return RowRange(block_->cells(), static_cast<size_t>(arity_),
                    block_->num_cells() / static_cast<size_t>(arity_));
  }
  int64_t num_rows() const {
    return static_cast<int64_t>(block_->num_cells()) / arity_;
  }
  /// Underlying block pointer, for identity checks and the engine's
  /// per-stage block lists. Stable for the Relation's lifetime.
  const Block* raw() const { return block_; }

 private:
  const Block* block_;
  int arity_;
};

/// A stored relation: a schema plus a sequence of disk blocks.
///
/// The in-memory representation holds 8-byte cells typed by the schema,
/// but block geometry (block size, blocking factor, block count) matches
/// the declared byte widths exactly, because the sampling plan, the
/// estimators (space blocks) and the cost formulas are all expressed in
/// blocks. Every block but the last is full.
class Relation {
 public:
  /// Creates an empty relation. `block_bytes` must be at least one tuple.
  [[nodiscard]] static Result<Relation> Create(std::string name, Schema schema,
                                 int block_bytes = kDefaultBlockBytes);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int block_bytes() const { return block_bytes_; }
  /// Tuples per block.
  int blocking_factor() const { return blocking_factor_; }

  int64_t NumTuples() const { return num_tuples_; }
  int64_t NumBlocks() const { return static_cast<int64_t>(blocks_.size()); }

  /// Appends a tuple (validated against the schema), packing blocks to the
  /// blocking factor.
  [[nodiscard]] Status Append(Tuple tuple);

  /// Append without the schema's NaN check, for trusted callers: the row's
  /// cells are copied into the tail block, which keeps room for every
  /// string at its column's width. A row whose arity differs from the
  /// schema's would shift every later row of the block, a value of another
  /// type than its column's would be read as that type, and a string
  /// wider than its column would break the declared block geometry (and,
  /// on save, the page it must fit): all three abort the process.
  void AppendUnchecked(std::span<const Value> row);
  void AppendUnchecked(const Tuple& tuple) {
    AppendUnchecked(std::span<const Value>(tuple));
  }

  /// Adopts a block built whole (the loader's and the generators' path)
  /// as the next block. Its cells must hold whole, schema-conforming rows,
  /// at most a blocking factor of them. A full block behind a full tail is
  /// adopted as it is; otherwise its rows are appended one by one, packing
  /// blocks as AppendUnchecked does, so a tail with room for more rows
  /// always has room for their strings.
  void AppendBlock(Block block);

  /// Reserves room for the blocks of `num_tuples` rows, so the block
  /// table is allocated once when its final size is known.
  void Reserve(int64_t num_tuples);

  /// Bulk accessor for the page codec (serialization walks every block).
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Unchecked view of one block — the index must be in range.
  BlockView ViewBlock(int64_t i) const {
    return BlockView(&blocks_[static_cast<size_t>(i)], schema_.num_columns());
  }

  /// Fallible read path to one block: `OutOfRange` on a bad index. The
  /// fault-tolerant executor fetches drawn blocks through this (not the
  /// unchecked `ViewBlock()` accessor) so the returned Status is a real
  /// failure channel — the `status-discarded-in-storage` lint rule
  /// forbids ignoring it.
  [[nodiscard]] Result<BlockView> ReadBlock(int64_t i) const {
    if (i < 0 || i >= NumBlocks()) {
      return Status::OutOfRange("block " + std::to_string(i) +
                                " out of range for relation '" + name_ +
                                "'");
    }
    return BlockView(&blocks_[static_cast<size_t>(i)], schema_.num_columns());
  }

 private:
  Relation(std::string name, Schema schema, int block_bytes,
           int blocking_factor)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        block_bytes_(block_bytes),
        blocking_factor_(blocking_factor) {}

  /// The cells of a full block.
  size_t BlockCells() const {
    return static_cast<size_t>(blocking_factor_) *
           static_cast<size_t>(schema_.num_columns());
  }

  std::string name_;
  Schema schema_;
  int block_bytes_;
  int blocking_factor_;
  int64_t num_tuples_ = 0;
  std::vector<Block> blocks_;
};

using RelationPtr = std::shared_ptr<const Relation>;

/// Named registry of base relations available to queries.
class Catalog {
 public:
  /// Registers a relation under its own name; AlreadyExists on duplicates.
  [[nodiscard]] Status Register(RelationPtr relation);

  /// Looks a relation up by name.
  [[nodiscard]] Result<RelationPtr> Find(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  std::vector<RelationPtr> relations_;
};

}  // namespace tcq

#endif  // TCQ_STORAGE_RELATION_H_
