#ifndef TCQ_CACHE_WARM_START_H_
#define TCQ_CACHE_WARM_START_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include "cache/sample_pool.h"
#include "cache/signature.h"
#include "cost/adaptive_model.h"
#include "cost/sel_predictor.h"

namespace tcq {

/// Aggregate view of a warm-start cache (Session::CacheStats()).
struct WarmStartStats {
  int relations = 0;           // relations with a sample pool
  int64_t pooled_blocks = 0;   // blocks currently retained across pools
  int64_t replayed_blocks = 0;  // draws served from pooled prefixes
  int64_t fresh_blocks = 0;     // fresh draws retained into pools
  int64_t prior_entries = 0;    // cached operator selectivities
  int64_t prior_hits = 0;       // stage-0 lookups that found a prior
  int64_t prior_misses = 0;     // stage-0 lookups that fell back to defaults
  int64_t cost_snapshots = 0;       // cached fitted cost-coefficient sets
  int64_t cost_snapshot_hits = 0;   // queries that started from one
  // Hybrid selectivity predictor (all zero until a predictor-enabled run
  // instantiates it; see PredictorFor).
  int64_t predictor_entries = 0;       // chooser entries (nodes tracked)
  int64_t predictor_history_hits = 0;  // predictions with a history hit
  int64_t predictor_history_misses = 0;
  int64_t predictor_updates = 0;       // realized selectivities scored
};

/// Session-lifetime warm-start state shared by consecutive queries: the
/// per-relation sample pools (pooled-prefix replay; see sample_pool.h for
/// the unbiasedness argument), the selectivity prior cache (stage-0 of
/// Sample-Size-Determine starts from the last observed selectivity of a
/// canonically equal operator instead of the default prior), and the
/// fitted cost-coefficient snapshots of AdaptiveCostModel keyed by whole-
/// query signature.
///
/// All keys are CacheKeys produced by CanonicalSignature — never raw
/// strings — so equivalent operators cannot shadow each other under
/// different spellings (enforced by the `cache-key-canonical` lint rule).
///
/// Thread safety: the cache is sharded by key (priors and cost snapshots
/// by signature text, sample pools by relation name) with one mutex per
/// shard, so concurrent queries served out of one tcq::Server contend
/// only when they touch the same shard. Lookups return *copies*
/// (std::optional) rather than pointers into shard maps, since a
/// concurrent Record/Clear may rehash or erase behind a reference; the
/// returned RelationSamplePool pointer is stable (pools are never
/// destroyed before Clear) and the pool is internally synchronized. With
/// a single owner, cached runs stay bit-identical across thread counts
/// at a fixed seed: shard assignment depends only on key text, and every
/// counter is updated under its shard lock in engine serial sections.
class WarmStartCache {
 public:
  static constexpr int kDefaultShards = 8;

  explicit WarmStartCache(int shards = kDefaultShards);

  /// The relation's sample pool, created empty on first use. The pointer
  /// stays valid until Clear() or destruction.
  RelationSamplePool* PoolFor(const std::string& relation,
                              int64_t total_blocks);
  /// Blocks the relation's pool holds (0 without one), without creating
  /// it — the replay prefix a run's sampler would snapshot (EXPLAIN).
  int64_t PeekPoolSize(const std::string& relation) const;

  /// Last observed selectivity of a canonically equal operator, or
  /// nullopt; counts a prior hit or miss.
  std::optional<double> LookupPrior(const CacheKey& key);
  /// Same lookup without touching the hit/miss counters — for EXPLAIN
  /// and other read-only previews that must not skew the stats.
  std::optional<double> PeekPrior(const CacheKey& key) const;
  /// Records (or overwrites with) the latest observed selectivity.
  void RecordPrior(const CacheKey& key, double selectivity);

  /// The session's hybrid selectivity predictor (DESIGN.md §12), created
  /// lazily with `options` on first use so its history persists across
  /// runs alongside the priors. The pointer stays valid until Clear() or
  /// destruction; later calls ignore `options` (first writer wins, as
  /// with pools). SelPredictor is internally synchronized.
  SelPredictor* PredictorFor(const SelPredictorOptions& options);
  /// The predictor if one was ever created, else nullptr (EXPLAIN peeks).
  SelPredictor* predictor() const;

  /// Fitted cost-coefficient snapshot of the last run of a canonically
  /// equal query, or nullopt; counts a snapshot hit when found.
  std::optional<AdaptiveCostModel::Snapshot> LookupCostSnapshot(
      const CacheKey& key);
  /// Same lookup without counting a hit (EXPLAIN).
  std::optional<AdaptiveCostModel::Snapshot> PeekCostSnapshot(
      const CacheKey& key) const;
  void RecordCostSnapshot(const CacheKey& key,
                          AdaptiveCostModel::Snapshot snapshot);

  WarmStartStats Stats() const;

  /// Drops every pool, prior, and snapshot (counters included). Must not
  /// race a running query: callers (Session/Server) only clear while no
  /// query holds a pool pointer.
  void Clear();

 private:
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, std::unique_ptr<RelationSamplePool>> pools
        TCQ_GUARDED_BY(mu);
    std::map<CacheKey, double> priors TCQ_GUARDED_BY(mu);
    std::map<CacheKey, AdaptiveCostModel::Snapshot> snapshots
        TCQ_GUARDED_BY(mu);
    int64_t prior_hits TCQ_GUARDED_BY(mu) = 0;
    int64_t prior_misses TCQ_GUARDED_BY(mu) = 0;
    int64_t snapshot_hits TCQ_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(std::string_view key_text);
  const Shard& ShardFor(std::string_view key_text) const;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex predictor_mu_;
  std::unique_ptr<SelPredictor> predictor_ TCQ_GUARDED_BY(predictor_mu_);
};

}  // namespace tcq

#endif  // TCQ_CACHE_WARM_START_H_
