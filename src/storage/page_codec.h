#ifndef TCQ_STORAGE_PAGE_CODEC_H_
#define TCQ_STORAGE_PAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "storage/schema.h"
#include "util/result.h"

namespace tcq {

/// Fixed-width byte encoding of tuples and disk pages — the on-disk
/// representation behind the simulator's block geometry. Every column
/// occupies exactly its schema byte width: int64 and double are 8 bytes
/// little-endian; strings are zero-padded to their declared width
/// (embedded or trailing NULs are therefore not representable).
///
/// File format (TCQF): magic "TCQF", version, name, schema, geometry,
/// per-page tuple counts, then the raw pages. Version 2 follows every
/// page with its 64-bit FNV-1a checksum; `LoadRelation` verifies each
/// page and reports a corrupt one as `StatusCode::kDataLoss` — the
/// permanently-unreadable-block signal the fault-tolerant execution path
/// (DESIGN.md §10) maps to a lost block. Version 1 files (no checksums)
/// still load, skipping verification. Version 3 keeps v2's framing and
/// per-page checksums but lays each page out column-major: column 0's n
/// values contiguous, then column 1's, …, zero-padded to the block size.
/// Every version decodes to row tuples at load; the in-memory block holds
/// rows only (DESIGN.md, "Block storage"). Writers default to v3;
/// `SaveRelationAtVersion` emits any supported version and
/// `ConvertRelationFile` rewrites files between versions (tools/
/// tcqf_convert is the CLI).

/// 64-bit FNV-1a checksum of a page buffer (the TCQF v2 per-page sum).
[[nodiscard]] uint64_t PageChecksum(const std::vector<uint8_t>& page);

/// Appends the encoded tuple (schema.TupleBytes() bytes) to `out`.
/// The tuple must validate against the schema.
[[nodiscard]] Status EncodeTuple(const Tuple& tuple, const Schema& schema,
                   std::vector<uint8_t>* out);

/// Decodes one tuple from `bytes` (which must hold at least
/// schema.TupleBytes() bytes at `offset`).
[[nodiscard]] Result<Tuple> DecodeTuple(const std::vector<uint8_t>& bytes, size_t offset,
                          const Schema& schema);

/// Encodes a block's tuples into exactly `block_bytes` bytes (unused tail
/// zero-padded). Fails if the tuples exceed the block capacity.
[[nodiscard]] Result<std::vector<uint8_t>> EncodePage(const Block& block,
                                        const Schema& schema,
                                        int block_bytes);

/// Decodes `count` tuples from a page buffer.
[[nodiscard]] Result<Block> DecodePage(const std::vector<uint8_t>& page, int count,
                         const Schema& schema);

/// Encodes a block column-major (TCQF v3 page body): column 0's values
/// contiguous, then column 1's, …, zero-padded to `block_bytes`.
[[nodiscard]] Result<std::vector<uint8_t>> EncodePageColumnar(
    const Block& block, const Schema& schema, int block_bytes);

/// Decodes `count` tuples from a column-major (v3) page buffer.
[[nodiscard]] Result<Block> DecodePageColumnar(const std::vector<uint8_t>& page,
                                               int count, const Schema& schema);

/// Serializes a whole relation to a single file (magic "TCQF", version,
/// name, schema, geometry, per-page tuple counts, then the raw pages) at
/// the current default format version (v3, columnar pages).
[[nodiscard]] Status SaveRelation(const Relation& relation, const std::string& path);

/// Serializes at an explicit format version (1: row pages, no checksums;
/// 2: row pages + per-page checksums; 3: columnar pages + checksums).
/// InvalidArgument for unsupported versions.
[[nodiscard]] Status SaveRelationAtVersion(const Relation& relation,
                                           const std::string& path,
                                           uint32_t version);

/// Loads a relation previously written by SaveRelation (any supported
/// version; page bodies are decoded per the file's version).
[[nodiscard]] Result<Relation> LoadRelation(const std::string& path);

/// Rewrites a TCQF file at `target_version` (the v2→v3 migration tool's
/// core). Loading verifies checksums first, so a corrupt input still
/// surfaces as kDataLoss rather than being silently re-encoded.
[[nodiscard]] Status ConvertRelationFile(const std::string& in_path,
                                         const std::string& out_path,
                                         uint32_t target_version);

/// Saves every relation of the catalog into `directory` (one
/// "<name>.tcq" file each; the directory must exist).
[[nodiscard]] Status SaveCatalog(const Catalog& catalog, const std::string& directory);

/// Loads every "*.tcq" file in `directory` into a fresh catalog.
[[nodiscard]] Result<Catalog> LoadCatalog(const std::string& directory);

}  // namespace tcq

#endif  // TCQ_STORAGE_PAGE_CODEC_H_
