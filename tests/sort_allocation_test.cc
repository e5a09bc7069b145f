// The sort allocates no run-sized buffer: the caller sizes the keyed run,
// and the sort fills and permutes it in place. A buffer allocated inside a
// sort task lands in that worker thread's malloc arena, which keeps it
// (DESIGN.md, "Threading model"). This binary replaces the global
// operator new to count large allocations on every thread, so it is its
// own test executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "exec/operators.h"
#include "parallel/thread_pool.h"
#include "workload/generators.h"

// The sanitizers replace the allocator and its operator new.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

namespace {

// Allocations of at least this many bytes are counted while `armed`. A
// 100,000-row run takes 1.6 MB as keyed rows and 800 KB as handles or
// prefixes; a section's task bookkeeping stays far below.
constexpr std::size_t kLargeAllocation = 64 * 1024;
std::atomic<bool> armed{false};
std::atomic<int> large_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kLargeAllocation && armed.load(std::memory_order_relaxed)) {
    large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tcq {
namespace {

// Large allocations made by `sort` on any thread.
template <typename Sort>
int LargeAllocationsDuring(Sort&& sort) {
  large_allocations.store(0);
  armed.store(true);
  sort();
  armed.store(false);
  return large_allocations.load();
}

TEST(SortAllocationTest, SortAllocatesNoRunSizedBuffer) {
  RelationPtr rel = MakeUniformRelation("u", 100000, 1000, 7);
  ASSERT_NE(rel, nullptr);
  Rows rows;
  for (int64_t b = 0; b < rel->NumBlocks(); ++b) {
    const RowRange block = rel->ViewBlock(b).rows();
    rows.insert(rows.end(), block.begin(), block.end());
  }
  ASSERT_EQ(rows.size(), 100000u);
  const Key key = KeyOf(rel->schema(), {1});

  KeyedRun serial(rows.size());
  int64_t serial_comp = 0;
  EXPECT_EQ(LargeAllocationsDuring(
                [&] { SortRunRange(rows, key, &serial, &serial_comp); }),
            0);

  ThreadPool pool(3);  // four wide with the calling thread
  FanOut fan{&pool, 0, {}};
  KeyedRun forked(rows.size());
  int64_t forked_comp = 0;
  EXPECT_EQ(LargeAllocationsDuring([&] {
              SortRunRange(rows, key, &forked, &forked_comp, &fan);
            }),
            0);
  EXPECT_GT(fan.stats.tasks, 0);
  EXPECT_EQ(forked_comp, serial_comp);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(forked[i].cells, serial[i].cells) << i;
  }
}

}  // namespace
}  // namespace tcq

#endif
