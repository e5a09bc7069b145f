#ifndef TCQ_EXEC_VECTORIZED_H_
#define TCQ_EXEC_VECTORIZED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/tuple_set.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace tcq {

/// Columnar counterparts of the merge kernels in operators.h. The sort and
/// merge loops run over *encoded keys*: each key column is serialized into
/// a fixed-width, order-preserving byte form (int64: sign bit flipped,
/// big-endian; double: -0.0 normalized to +0.0, all bits flipped when
/// negative, else sign bit flipped, big-endian; string: the zero-padded
/// on-disk bytes), so one memcmp over the concatenation is an exact 3-way
/// substitute for CompareTuples/CompareTuplesOnKey. A numeric column
/// encodes as its KeyPrefix (operators.h). No NaN reaches a key: storage
/// rejects it on every way in.
///
/// Bit-identity with the row kernels is load-bearing: each columnar kernel
/// increments `*comparisons` at exactly the call sites its row counterpart
/// does, and std::sort over an index permutation makes the same comparator
/// decisions as std::sort over the tuples, so realized comparison counts —
/// and therefore every simulated-time charge — are identical across
/// layouts.

/// Bytes of one encoded key (the sum of the key columns' byte widths; all
/// columns when `key` is empty).
int EncodedKeyWidth(const Schema& schema, const std::vector<int>& key);

/// Appends the order-preserving encodings of `run`'s key columns to `out`
/// (run.size() × EncodedKeyWidth bytes, row-major over keys).
void EncodeKeyColumns(TupleRefSpan run, const Schema& schema,
                      const std::vector<int>& key, std::vector<uint8_t>* out);

/// True when a join's two key column lists encode to comparable bytes
/// (pairwise same type and byte width) — the precondition for the columnar
/// merge-join kernel. Callers fall back to the row kernel otherwise.
bool ColumnarJoinKeysCompatible(const Schema& left_schema,
                                const std::vector<int>& left_key,
                                const Schema& right_schema,
                                const std::vector<int>& right_key);

/// Columnar sort kernel: sorts the run on `key` (all columns when empty)
/// by perm-sorting an index vector over encoded keys, then applying the
/// permutation to both the references and the key buffer. `*keys` is left
/// holding the sorted encoded keys (run->size() × width bytes) for the
/// downstream merge. Appends the comparison count to `*comparisons`;
/// bit-identical count and resulting order to SortRunRange.
void SortRunRangeColumnar(TupleRefs* run, const Schema& schema,
                          const std::vector<int>& key,
                          std::vector<uint8_t>* keys, int64_t* comparisons);

/// Columnar merge-intersect kernel: both runs sorted on all columns, with
/// `left_keys`/`right_keys` pointing at their encoded keys (stride
/// `key_width`). Same loop structure, comparison counts, output count and
/// (when `out` is non-null) output references as MergeIntersectRange.
int64_t MergeIntersectRangeColumnar(TupleRefSpan left,
                                    const uint8_t* left_keys,
                                    TupleRefSpan right,
                                    const uint8_t* right_keys, int key_width,
                                    TupleRefs* out, int64_t* comparisons);

/// Columnar merge-join kernel: runs sorted on their join keys, encoded at
/// `left_keys`/`right_keys` (stride `key_width`, same width both sides —
/// see ColumnarJoinKeysCompatible). Same loop structure, comparison
/// counts, output count and (when `out` is non-null) concatenated output
/// as MergeJoinRange.
int64_t MergeJoinRangeColumnar(TupleRefSpan left, const uint8_t* left_keys,
                               TupleRefSpan right, const uint8_t* right_keys,
                               int key_width, std::vector<Tuple>* out,
                               int64_t* comparisons);

}  // namespace tcq

#endif  // TCQ_EXEC_VECTORIZED_H_
