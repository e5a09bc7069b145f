#include "cache/warm_start.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/check.h"

namespace tcq {

WarmStartCache::WarmStartCache(int shards) {
  int n = std::max(1, shards);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

WarmStartCache::Shard& WarmStartCache::ShardFor(std::string_view key_text) {
  size_t h = std::hash<std::string_view>{}(key_text);
  return *shards_[h % shards_.size()];
}

const WarmStartCache::Shard& WarmStartCache::ShardFor(
    std::string_view key_text) const {
  size_t h = std::hash<std::string_view>{}(key_text);
  return *shards_[h % shards_.size()];
}

RelationSamplePool* WarmStartCache::PoolFor(const std::string& relation,
                                            int64_t total_blocks) {
  Shard& shard = ShardFor(relation);
  MutexLock lock(shard.mu);
  auto it = shard.pools.find(relation);
  if (it == shard.pools.end()) {
    it = shard.pools
             .emplace(relation,
                      std::make_unique<RelationSamplePool>(total_blocks))
             .first;
  }
  TCQ_CHECK_INVARIANT(it->second->total_blocks() == total_blocks,
                      "sample pool re-requested with a different block count");
  return it->second.get();
}

int64_t WarmStartCache::PeekPoolSize(const std::string& relation) const {
  const Shard& shard = ShardFor(relation);
  MutexLock lock(shard.mu);
  auto it = shard.pools.find(relation);
  return it == shard.pools.end() ? 0 : it->second->size();
}

std::optional<double> WarmStartCache::LookupPrior(const CacheKey& key) {
  Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  auto it = shard.priors.find(key);
  if (it == shard.priors.end()) {
    ++shard.prior_misses;
    return std::nullopt;
  }
  ++shard.prior_hits;
  return it->second;
}

std::optional<double> WarmStartCache::PeekPrior(const CacheKey& key) const {
  const Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  auto it = shard.priors.find(key);
  if (it == shard.priors.end()) return std::nullopt;
  return it->second;
}

void WarmStartCache::RecordPrior(const CacheKey& key, double selectivity) {
  Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  shard.priors[key] = selectivity;
}

SelPredictor* WarmStartCache::PredictorFor(const SelPredictorOptions& options) {
  MutexLock lock(predictor_mu_);
  if (predictor_ == nullptr) {
    predictor_ = std::make_unique<SelPredictor>(options);
  }
  return predictor_.get();
}

SelPredictor* WarmStartCache::predictor() const {
  MutexLock lock(predictor_mu_);
  return predictor_.get();
}

std::optional<AdaptiveCostModel::Snapshot> WarmStartCache::LookupCostSnapshot(
    const CacheKey& key) {
  Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  auto it = shard.snapshots.find(key);
  if (it == shard.snapshots.end()) return std::nullopt;
  ++shard.snapshot_hits;
  return it->second;
}

std::optional<AdaptiveCostModel::Snapshot> WarmStartCache::PeekCostSnapshot(
    const CacheKey& key) const {
  const Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  auto it = shard.snapshots.find(key);
  if (it == shard.snapshots.end()) return std::nullopt;
  return it->second;
}

void WarmStartCache::RecordCostSnapshot(const CacheKey& key,
                                        AdaptiveCostModel::Snapshot snapshot) {
  Shard& shard = ShardFor(key.text());
  MutexLock lock(shard.mu);
  shard.snapshots[key] = std::move(snapshot);
}

WarmStartStats WarmStartCache::Stats() const {
  WarmStartStats s;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    s.relations += static_cast<int>(shard->pools.size());
    for (const auto& [name, pool] : shard->pools) {
      (void)name;
      s.pooled_blocks += pool->size();
      s.replayed_blocks += pool->replayed_total();
      s.fresh_blocks += pool->fresh_total();
    }
    s.prior_entries += static_cast<int64_t>(shard->priors.size());
    s.prior_hits += shard->prior_hits;
    s.prior_misses += shard->prior_misses;
    s.cost_snapshots += static_cast<int64_t>(shard->snapshots.size());
    s.cost_snapshot_hits += shard->snapshot_hits;
  }
  if (SelPredictor* p = predictor()) {
    SelPredictorStats ps = p->stats();
    s.predictor_entries = ps.chooser_entries;
    s.predictor_history_hits = ps.history_hits;
    s.predictor_history_misses = ps.history_misses;
    s.predictor_updates = ps.updates;
  }
  return s;
}

void WarmStartCache::Clear() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->pools.clear();
    shard->priors.clear();
    shard->snapshots.clear();
    shard->prior_hits = 0;
    shard->prior_misses = 0;
    shard->snapshot_hits = 0;
  }
  MutexLock lock(predictor_mu_);
  predictor_.reset();
}

}  // namespace tcq
