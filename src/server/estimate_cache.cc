#include "server/estimate_cache.h"

namespace sitstats {

EstimateCache::EstimateCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

uint64_t EstimateCache::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

bool EstimateCache::Lookup(const std::string& key,
                           CardinalityEstimator::Estimate* estimate) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  *estimate = it->second->estimate;
  return true;
}

void EstimateCache::Insert(uint64_t observed_epoch, const std::string& key,
                           const CardinalityEstimator::Estimate& estimate) {
  MutexLock lock(mu_);
  if (observed_epoch != epoch_) return;  // raced with an invalidation
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->estimate = estimate;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, estimate});
  index_[key] = lru_.begin();
  EvictToCapacityLocked();
}

void EstimateCache::EvictToCapacityLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void EstimateCache::Invalidate() {
  MutexLock lock(mu_);
  ++epoch_;
  ++invalidations_;
  lru_.clear();
  index_.clear();
}

EstimateCache::Stats EstimateCache::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.invalidations = invalidations_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace sitstats
