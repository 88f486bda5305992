#ifndef SITSTATS_SERVER_ESTIMATE_CACHE_H_
#define SITSTATS_SERVER_ESTIMATE_CACHE_H_

#include <cstdint>

#include <list>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "estimator/sit_estimator.h"

namespace sitstats {

/// LRU cache of estimator results, keyed by the request's wire form (spec
/// + bounds normalize a query exactly). Invalidation is epoch-based:
/// every catalog mutation (a completed SIT build) bumps the epoch and
/// clears the cache, and inserts computed against a stale epoch are
/// dropped — an estimate that raced with a build can never park a
/// pre-mutation answer in a post-mutation cache.
class EstimateCache {
 public:
  explicit EstimateCache(size_t capacity);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    size_t entries = 0;
  };

  /// The epoch to capture *before* computing an estimate destined for
  /// Insert().
  uint64_t epoch() const;

  /// Copies the cached estimate into `*estimate` on hit (and refreshes
  /// recency); false on miss.
  bool Lookup(const std::string& key,
              CardinalityEstimator::Estimate* estimate);

  /// Inserts unless the cache has been invalidated since `observed_epoch`
  /// was read. Evicts the least-recently-used entry at capacity.
  void Insert(uint64_t observed_epoch, const std::string& key,
              const CardinalityEstimator::Estimate& estimate);

  /// Bumps the epoch and drops every entry. Called on catalog mutation.
  void Invalidate();

  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    CardinalityEstimator::Estimate estimate;
  };

  /// Unlinks the least-recently-used entries until the cache fits
  /// capacity_.
  void EvictToCapacityLocked() REQUIRES(mu_);

  const size_t capacity_;

  mutable Mutex mu_;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ GUARDED_BY(mu_) = 0;
  /// Front = most recently used.
  std::list<Entry> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
};

}  // namespace sitstats

#endif  // SITSTATS_SERVER_ESTIMATE_CACHE_H_
