#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/executor.h"
#include "workload/generators.h"

namespace tcq {
namespace {

// Quota is unified into ExecutorOptions::quota_s (the pre-unification
// overloads are gone); set it via this copy-and-set helper.
ExecutorOptions WithQuota(ExecutorOptions options, double quota_s) {
  options.quota_s = quota_s;
  return options;
}


TEST(WallClockModeTest, AnswersWithinRealQuota) {
  auto w = MakeSelectionWorkload(2000, 1);
  ASSERT_TRUE(w.ok());
  ExecutorOptions options;
  options.use_wall_clock = true;
  options.physical = CostModel::ModernInMemory();
  options.strategy.one_at_a_time.d_beta = 24.0;
  options.epsilon_s = 0.001;
  // 50 real milliseconds: on any modern machine this covers the whole
  // 2,000-block relation many times over after the coefficients adapt.
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(options, 0.050));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stages_counted, 0);
  EXPECT_GT(r->estimate, 0.0);
  // The wall clock really advanced and stayed near the quota even if the
  // last stage overshot; generous bound for noisy CI machines.
  EXPECT_GT(r->elapsed_seconds, 0.0);
  EXPECT_LT(r->elapsed_seconds, 5.0);
}

TEST(WallClockModeTest, CoefficientsAdaptFromWrongInitialScale) {
  // Seed the coefficients with the 1989 disk-era constants — about four
  // orders of magnitude too slow for an in-memory run. Stage 1 is
  // therefore tiny, but the coefficients are re-fitted from the real
  // timings it produces, so stage 2 samples vastly more blocks: the
  // paper's adaptive-formula argument, live against a wall clock.
  auto w = MakeSelectionWorkload(2000, 2);
  ASSERT_TRUE(w.ok());
  ExecutorOptions options;
  options.use_wall_clock = true;
  options.physical = CostModel::Sun360();  // deliberately wrong scale
  options.strategy.one_at_a_time.d_beta = 12.0;
  options.epsilon_s = 0.0005;
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(options, 1.0));
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->stages_run, 2) << "expected multiple stages in 1 s";
  EXPECT_GT(r->stages()[1].blocks_drawn, r->stages()[0].blocks_drawn);
  // Real elapsed time is far below what the 1989 constants predicted for
  // the work done (the run should finish the relation quickly).
  EXPECT_LT(r->elapsed_seconds, 5.0);
}

TEST(WallClockModeTest, SamplingStillSeedDeterministic) {
  // Timing is real, but which blocks get drawn at a given stage size is
  // still driven by the seeded RNG.
  auto w = MakeSelectionWorkload(2000, 3);
  ASSERT_TRUE(w.ok());
  ExecutorOptions options;
  options.use_wall_clock = true;
  options.physical = CostModel::ModernInMemory();
  options.seed = 9;
  auto r = RunTimeConstrainedCount(w->query, w->catalog, WithQuota(options, 0.050));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->blocks_sampled, 0);
}

// An observer that takes 30 ms to start, standing in for any work the
// engine does between query entry and its first stage.
class SlowStartObserver : public ProgressObserver {
 public:
  void OnQueryBegin(double quota_s, int num_terms) override {
    (void)quota_s;
    (void)num_terms;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
};

TEST(WallClockModeTest, QuotaRunsFromQueryEntry) {
  auto w = MakeSelectionWorkload(2000, 4);
  ASSERT_TRUE(w.ok());
  ExecutorOptions options;
  options.use_wall_clock = true;
  options.physical = CostModel::ModernInMemory();
  SlowStartObserver observer;
  options.obs.observer = &observer;
  auto r = RunTimeConstrainedCount(w->query, w->catalog,
                                   WithQuota(options, 0.050));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->stages().empty());
  // The 30 ms spent before stage 0 came out of the 50 ms quota.
  EXPECT_LE(r->stages()[0].time_left_before, 0.020);
}

}  // namespace
}  // namespace tcq
