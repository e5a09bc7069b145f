#ifndef TCQ_SAMPLING_BLOCK_SAMPLER_H_
#define TCQ_SAMPLING_BLOCK_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "cache/sample_pool.h"
#include "obs/metrics.h"
#include "storage/relation.h"
#include "util/random.h"
#include "util/result.h"

namespace tcq {

/// One sampled block together with its index in the relation — the
/// identity the fault injector keys on (faults are per physical block,
/// not per draw).
struct DrawnBlock {
  uint32_t index = 0;
  const Block* block = nullptr;
};

/// Without-replacement stream of disk blocks from one relation — the
/// cluster-sampling primitive of the paper (§2): a disk block is the
/// sample unit, and blocks already drawn in earlier stages are never
/// drawn again. One sampler per relation is shared by all query terms
/// that scan it.
///
/// With a `RelationSamplePool` attached the sampler becomes warm-start
/// aware: draws first *replay* the pooled prefix (blocks retained by
/// earlier queries of the session, in their original draw order —
/// consuming no randomness), then fall back to fresh uniform draws over
/// the blocks not yet pooled, which are appended to the pool for the
/// next query. Replay of a uniform without-replacement prefix followed
/// by uniform draws over its complement is distributionally identical to
/// a cold without-replacement sample, so estimators stay unbiased (see
/// cache/sample_pool.h). With no pool — or an empty one — behaviour is
/// bit-identical to the historical sampler: same blocks, same RNG
/// consumption.
///
/// Concurrency: the sampler copies the pooled prefix ONCE, at
/// construction, and replays from that private snapshot — it never holds
/// references into the live pool, whose vectors may grow concurrently
/// when several queries of a tcq::Server share it. Fresh draws are
/// offered to the pool with TryAppend; a block another query appended
/// first simply is not pooled again (this query still samples it). The
/// sampler object itself is per-query state and is not shared across
/// threads other than through the engine's disjoint-slot draw tasks.
class BlockSampler {
 public:
  explicit BlockSampler(RelationPtr rel) : BlockSampler(std::move(rel), nullptr) {}
  BlockSampler(RelationPtr rel, RelationSamplePool* pool);

  const RelationPtr& relation() const { return rel_; }
  int64_t total_blocks() const { return rel_->NumBlocks(); }
  /// Blocks this query has not yet drawn: the unreplayed pooled prefix
  /// plus the blocks no query of the session has touched.
  int64_t remaining_blocks() const {
    const int64_t fresh =
        universe_built_
            ? static_cast<int64_t>(remaining_.size())
            : total_blocks() - static_cast<int64_t>(replay_order_.size());
    return pooled_remaining() + fresh;
  }
  int64_t drawn_blocks() const {
    return total_blocks() - remaining_blocks();
  }

  /// Pooled blocks this query has not replayed yet (from the prefix
  /// snapshot taken at construction); the next `pooled_remaining()` drawn
  /// blocks are replays, everything after is a fresh draw. Zero with no
  /// pool attached.
  int64_t pooled_remaining() const {
    return static_cast<int64_t>(replay_order_.size()) - replay_pos_;
  }

  /// How many blocks of the most recent Draw/DrawSubstream call were
  /// served by replaying the pool (the rest were fresh draws).
  int64_t last_draw_replayed() const { return last_draw_replayed_; }

  /// Publishes draw activity to `metrics` (may be null to detach): every
  /// drawn block increments the `sampling.blocks_drawn` counter. The
  /// counter is atomic and the increments commute, so draws may happen
  /// from parallel tasks without affecting the exported total.
  void SetMetrics(Metrics* metrics) {
    blocks_counter_ =
        metrics != nullptr ? metrics->counter("sampling.blocks_drawn")
                           : nullptr;
  }

  /// Draws up to `count` random blocks without replacement (fewer when
  /// the relation is nearly exhausted). Pointers stay valid for the
  /// relation's lifetime.
  std::vector<const Block*> Draw(int64_t count, Rng* rng);

  /// Draw from the deterministic per-relation substream for stage `stage`
  /// of a run seeded with `seed`: the randomness comes from
  /// Rng::Substream(seed, relation name, stage), so the blocks a stage
  /// draws depend only on (seed, relation, stage, draws so far) — never on
  /// other relations or on which thread performs the draw. This is the
  /// engine's sampling primitive in both the serial and parallel paths.
  std::vector<const Block*> DrawSubstream(int64_t count, uint64_t seed,
                                          uint64_t stage);

  /// Fallible variant of DrawSubstream for the fault-tolerant path: the
  /// draw itself is identical (same RNG consumption, same blocks in the
  /// same order), but every drawn block is fetched through the checked
  /// `Relation::ReadBlock` storage API and returned with its block index
  /// so the engine can probe the FaultInjector per physical block. The
  /// Status must be consulted (`status-discarded-in-storage` lint rule).
  [[nodiscard]] Result<std::vector<DrawnBlock>> DrawSubstreamChecked(
      int64_t count, uint64_t seed, uint64_t stage);

  /// Indices (into the relation) of the blocks returned by the most
  /// recent Draw/DrawSubstream call, in draw order.
  const std::vector<uint32_t>& last_draw_indices() const {
    return last_draw_indices_;
  }

 private:
  std::vector<const Block*> DrawInternal(int64_t count, Rng* rng,
                                         uint64_t substream);
  /// Lists the fresh-draw universe, the blocks outside the snapshot, into
  /// `remaining_`.
  void BuildUniverse();

  RelationPtr rel_;
  RelationSamplePool* pool_ = nullptr;  // not owned; may be null
  std::vector<uint32_t> replay_order_;  // pooled prefix snapshot to replay
  // Blocks not pooled at snapshot time and not yet drawn. A query that
  // only replays never needs them, so with a pooled prefix to replay the
  // list is built on the first fresh draw; with none, at construction.
  std::vector<uint32_t> remaining_;
  bool universe_built_ = false;
  int64_t replay_pos_ = 0;              // snapshot entries already replayed
  int64_t last_draw_replayed_ = 0;
  std::vector<uint32_t> last_draw_indices_;
  Counter* blocks_counter_ = nullptr;
};

}  // namespace tcq

#endif  // TCQ_SAMPLING_BLOCK_SAMPLER_H_
