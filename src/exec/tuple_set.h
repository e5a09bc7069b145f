#ifndef TCQ_EXEC_TUPLE_SET_H_
#define TCQ_EXEC_TUPLE_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace tcq {

/// A materialized intermediate result: a bag of tuples with a schema.
///
/// The prototype keeps all intermediates "on disk" (paper §4); in this
/// implementation the bytes live in memory but every page written or read
/// is charged to the cost ledger using the schema's tuple width and the
/// block geometry below.
struct TupleSet {
  Schema schema;
  std::vector<Tuple> tuples;

  int64_t size() const { return static_cast<int64_t>(tuples.size()); }
};

/// Reference runs. Operators pass tuples by address, never by value: a
/// scan's run points into the resident rows of the fetched blocks,
/// selections and intersections forward the addresses they were given,
/// and only the operators that create new tuples (join, project) own
/// storage for them. The referenced tuples must outlive the run
/// (DESIGN.md, "Run representation").
using TupleRefs = std::vector<const Tuple*>;
/// Read-only view of a reference run (or of a contiguous part of one).
using TupleRefSpan = std::span<const Tuple* const>;

/// References to every tuple of `tuples`, in order.
inline TupleRefs RefsOf(std::span<const Tuple> tuples) {
  TupleRefs refs;
  refs.reserve(tuples.size());
  for (const Tuple& t : tuples) refs.push_back(&t);
  return refs;
}

/// Number of disk pages occupied by `num_tuples` tuples of `schema`
/// (the paper's `p = sel × points / blockingfactor`).
inline int64_t PagesFor(const Schema& schema, int64_t num_tuples,
                        int block_bytes = kDefaultBlockBytes) {
  if (num_tuples <= 0) return 0;
  int tuple_bytes = schema.TupleBytes();
  int bf = tuple_bytes > 0 ? block_bytes / tuple_bytes : 1;
  if (bf < 1) bf = 1;
  return (num_tuples + bf - 1) / bf;
}

}  // namespace tcq

#endif  // TCQ_EXEC_TUPLE_SET_H_
