#include "sampling/block_sampler.h"

#include <algorithm>

#include "util/check.h"

namespace tcq {

BlockSampler::BlockSampler(RelationPtr rel, RelationSamplePool* pool)
    : rel_(std::move(rel)), pool_(pool) {
  if (pool_ != nullptr) {
    TCQ_CHECK_INVARIANT(pool_->total_blocks() == rel_->NumBlocks(),
                        "sample pool sized for a different relation");
    // One consistent snapshot of the pooled prefix; blocks a concurrent
    // query appends later are neither replayed nor excluded from our
    // fresh-draw universe (TryAppend resolves the overlap).
    replay_order_ = pool_->SnapshotOrder();
  }
  // A cold sampler's first draw is fresh: build the universe here, so a
  // cold query's draw timing is what it always was.
  if (replay_order_.empty()) BuildUniverse();
}

void BlockSampler::BuildUniverse() {
  std::vector<char> pooled(static_cast<size_t>(rel_->NumBlocks()), 0);
  for (uint32_t b : replay_order_) pooled[static_cast<size_t>(b)] = 1;
  remaining_.reserve(static_cast<size_t>(rel_->NumBlocks()) -
                     replay_order_.size());
  for (int64_t i = 0; i < rel_->NumBlocks(); ++i) {
    uint32_t b = static_cast<uint32_t>(i);
    if (pooled[static_cast<size_t>(b)] != 0) continue;
    remaining_.push_back(b);
  }
  universe_built_ = true;
}

std::vector<const Block*> BlockSampler::Draw(int64_t count, Rng* rng) {
  return DrawInternal(count, rng, 0);
}

std::vector<const Block*> BlockSampler::DrawInternal(int64_t count, Rng* rng,
                                                     uint64_t substream) {
  TCQ_DCHECK(rng != nullptr, "Draw needs a generator");
  TCQ_DCHECK(count >= 0, "negative block count requested");
  int64_t k = std::min<int64_t>(count, remaining_blocks());
  std::vector<const Block*> out;
  out.reserve(static_cast<size_t>(k));
  last_draw_indices_.clear();
  last_draw_indices_.reserve(static_cast<size_t>(k));

  // Replay first: the snapshotted pooled prefix in original draw order,
  // consuming no randomness — the fresh-draw RNG stream is untouched by
  // replays.
  int64_t replay_n = std::min<int64_t>(k, pooled_remaining());
  for (int64_t i = 0; i < replay_n; ++i) {
    uint32_t block = replay_order_[static_cast<size_t>(replay_pos_++)];
    last_draw_indices_.push_back(block);
    out.push_back(rel_->ViewBlock(block).raw());
  }
  if (replay_n > 0) pool_->NoteReplayed(replay_n);
  last_draw_replayed_ = replay_n;

  if (replay_n < k && !universe_built_) BuildUniverse();
  for (int64_t i = replay_n; i < k; ++i) {
    size_t j = remaining_.size() - 1 -
               static_cast<size_t>(rng->Uniform(remaining_.size()));
    std::swap(remaining_[j], remaining_.back());
    uint32_t block = remaining_.back();
    last_draw_indices_.push_back(block);
    out.push_back(rel_->ViewBlock(block).raw());
    remaining_.pop_back();
    if (pool_ != nullptr) {
      // Replays never reach past the snapshot, so our own appends cannot
      // be replayed back to this query; a false return means a
      // concurrent query pooled the block first and we keep the draw.
      (void)pool_->TryAppend(block, substream);
    }
  }
  // Sampling without replacement: the pool only shrinks, and exactly
  // by the number of blocks handed out.
  TCQ_CHECK_INVARIANT(static_cast<int64_t>(out.size()) == k,
                      "drawn block count disagrees with request");
  if (blocks_counter_ != nullptr && k > 0) blocks_counter_->Add(k);
  return out;
}

std::vector<const Block*> BlockSampler::DrawSubstream(int64_t count,
                                                      uint64_t seed,
                                                      uint64_t stage) {
  uint64_t sub = SubstreamSeed(seed, rel_->name(), stage);
  Rng rng(sub);
  return DrawInternal(count, &rng, sub);
}

Result<std::vector<DrawnBlock>> BlockSampler::DrawSubstreamChecked(
    int64_t count, uint64_t seed, uint64_t stage) {
  std::vector<const Block*> drawn = DrawSubstream(count, seed, stage);
  std::vector<DrawnBlock> out;
  out.reserve(drawn.size());
  for (size_t i = 0; i < drawn.size(); ++i) {
    uint32_t index = last_draw_indices_[i];
    TCQ_ASSIGN_OR_RETURN(BlockView view,
                         rel_->ReadBlock(static_cast<int64_t>(index)));
    TCQ_CHECK_INVARIANT(view.raw() == drawn[i],
                        "checked read disagrees with the drawn block");
    out.push_back(DrawnBlock{index, view.raw()});
  }
  return out;
}

}  // namespace tcq
