#ifndef TCQ_STORAGE_RELATION_H_
#define TCQ_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/result.h"
#include "util/status.h"

namespace tcq {

/// Default disk block (page) size — the paper uses 1 KiB blocks.
inline constexpr int kDefaultBlockBytes = 1024;

/// A disk block: up to `blocking factor` tuples stored together. The block
/// is the cluster-sampling unit (paper §2): drawing a block retrieves all
/// of its tuples at the cost of one random read. In memory a block holds
/// its decoded row tuples only; the column-major TCQF v3 page is the
/// on-disk form (storage/page_codec.h), decoded to rows at load.
struct Block {
  std::vector<Tuple> tuples;
};

/// Read-only view of one block: the access surface operators and samplers
/// consume. The view borrows the block; the owning Relation must outlive
/// it.
class BlockView {
 public:
  explicit BlockView(const Block* block) : block_(block) {}

  /// Decoded row tuples, in block order.
  const std::vector<Tuple>& rows() const { return block_->tuples; }
  int64_t num_rows() const {
    return static_cast<int64_t>(block_->tuples.size());
  }
  /// Underlying block pointer, for identity checks and the engine's
  /// per-stage block lists. Stable for the Relation's lifetime.
  const Block* raw() const { return block_; }

 private:
  const Block* block_;
};

/// A stored relation: a schema plus a sequence of disk blocks.
///
/// The in-memory representation holds decoded tuples, but block geometry
/// (block size, blocking factor, block count) matches the declared byte
/// widths exactly, because the sampling plan, the estimators (space blocks)
/// and the cost formulas are all expressed in blocks.
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

  /// Unchecked append for bulk loading by trusted generators: the tuple's
  /// types and arity are not validated, but a string wider than its
  /// column aborts the process rather than break the declared block
  /// geometry (and, on save, the page it must fit).
  void AppendUnchecked(Tuple tuple);

  /// Bulk accessor for the page codec (serialization walks every block).
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Unchecked view of one block — the index must be in range.
  BlockView ViewBlock(int64_t i) const {
    return BlockView(&blocks_[static_cast<size_t>(i)]);
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
    return BlockView(&blocks_[static_cast<size_t>(i)]);
  }

 private:
  Relation(std::string name, Schema schema, int block_bytes,
           int blocking_factor)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        block_bytes_(block_bytes),
        blocking_factor_(blocking_factor) {}

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
