#include "sampling/block_sampler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/sample_pool.h"
#include "workload/generators.h"

namespace tcq {
namespace {

RelationPtr SmallRel() {
  return MakeUniformRelation("r", 100, 10, 5, 200, 1024);  // 20 blocks
}

TEST(BlockSamplerTest, InitialState) {
  BlockSampler sampler(SmallRel());
  EXPECT_EQ(sampler.total_blocks(), 20);
  EXPECT_EQ(sampler.remaining_blocks(), 20);
  EXPECT_EQ(sampler.drawn_blocks(), 0);
}

TEST(BlockSamplerTest, DrawsWithoutReplacement) {
  auto rel = SmallRel();
  BlockSampler sampler(rel);
  Rng rng(1);
  std::set<const Block*> seen;
  for (int stage = 0; stage < 4; ++stage) {
    auto blocks = sampler.Draw(5, &rng);
    ASSERT_EQ(blocks.size(), 5u);
    for (const Block* b : blocks) {
      EXPECT_TRUE(seen.insert(b).second) << "block drawn twice";
    }
  }
  EXPECT_EQ(sampler.remaining_blocks(), 0);
  EXPECT_EQ(seen.size(), 20u);
}

TEST(BlockSamplerTest, DrawCappedByRemaining) {
  BlockSampler sampler(SmallRel());
  Rng rng(2);
  EXPECT_EQ(sampler.Draw(15, &rng).size(), 15u);
  EXPECT_EQ(sampler.Draw(15, &rng).size(), 5u);
  EXPECT_TRUE(sampler.Draw(15, &rng).empty());
}

TEST(BlockSamplerTest, DeterministicPerSeed) {
  auto rel = SmallRel();
  BlockSampler a(rel), b(rel);
  Rng ra(7), rb(7);
  EXPECT_EQ(a.Draw(10, &ra), b.Draw(10, &rb));
}

TEST(BlockSamplerTest, UniformOverBlocks) {
  auto rel = SmallRel();
  std::map<const Block*, int> counts;
  Rng rng(3);
  const int reps = 4000;
  for (int rep = 0; rep < reps; ++rep) {
    BlockSampler sampler(rel);
    for (const Block* b : sampler.Draw(4, &rng)) ++counts[b];
  }
  // Each of the 20 blocks should be drawn in ~1/5 of the reps.
  for (const auto& [block, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / reps, 0.2, 0.05);
  }
}

std::vector<uint32_t> DrawnIndices(BlockSampler* sampler, int64_t count,
                                   uint64_t seed, uint64_t stage) {
  sampler->DrawSubstream(count, seed, stage);
  return sampler->last_draw_indices();
}

// A warm sampler builds its fresh-draw universe on its first fresh draw,
// not at construction. The draws and the remaining counts are pinned to
// the values of the eager build at a fixed seed: fresh-only, replay-only
// and replay-then-fresh.
TEST(BlockSamplerTest, LazyFreshUniverseKeepsDrawsAndCounts) {
  auto rel = SmallRel();
  RelationSamplePool pool(rel->NumBlocks());
  using Indices = std::vector<uint32_t>;
  {
    BlockSampler fresh(rel, &pool);  // empty pool: nothing to replay
    EXPECT_EQ(fresh.remaining_blocks(), 20);
    EXPECT_EQ(DrawnIndices(&fresh, 5, 42, 0), (Indices{5, 7, 19, 17, 9}));
    EXPECT_EQ(fresh.remaining_blocks(), 15);
    EXPECT_EQ(DrawnIndices(&fresh, 5, 42, 1), (Indices{15, 11, 12, 16, 2}));
    EXPECT_EQ(fresh.remaining_blocks(), 10);
  }
  {
    BlockSampler replay(rel, &pool);  // ten pooled blocks
    EXPECT_EQ(replay.remaining_blocks(), 20);
    EXPECT_EQ(DrawnIndices(&replay, 4, 43, 0), (Indices{5, 7, 19, 17}));
    EXPECT_EQ(replay.remaining_blocks(), 16);
    EXPECT_EQ(DrawnIndices(&replay, 6, 43, 1),
              (Indices{9, 15, 11, 12, 16, 2}));
    EXPECT_EQ(replay.last_draw_replayed(), 6);
    EXPECT_EQ(replay.remaining_blocks(), 10);
  }
  {
    BlockSampler mixed(rel, &pool);
    EXPECT_EQ(DrawnIndices(&mixed, 8, 44, 0),
              (Indices{5, 7, 19, 17, 9, 15, 11, 12}));
    EXPECT_EQ(mixed.remaining_blocks(), 12);
    EXPECT_EQ(DrawnIndices(&mixed, 5, 44, 1), (Indices{16, 2, 18, 13, 0}));
    EXPECT_EQ(mixed.last_draw_replayed(), 2);
    EXPECT_EQ(mixed.remaining_blocks(), 7);
    EXPECT_EQ(DrawnIndices(&mixed, 4, 44, 2), (Indices{10, 4, 3, 8}));
    EXPECT_EQ(mixed.last_draw_replayed(), 0);
    EXPECT_EQ(mixed.remaining_blocks(), 3);
  }
  BlockSampler cold(rel);
  EXPECT_EQ(DrawnIndices(&cold, 6, 45, 0), (Indices{14, 6, 17, 18, 13, 19}));
  EXPECT_EQ(cold.remaining_blocks(), 14);
}

}  // namespace
}  // namespace tcq
