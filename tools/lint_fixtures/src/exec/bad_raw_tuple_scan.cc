// Fixture: tuple-at-a-time block access in src/exec/ must go through
// BlockView (raw-tuple-scan).
#include "storage/relation.h"

namespace tcq {
int64_t CountAll(const Block* b) {
  return static_cast<int64_t>(b->tuples.size());
}
}  // namespace tcq
