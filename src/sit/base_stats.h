#ifndef SITSTATS_SIT_BASE_STATS_H_
#define SITSTATS_SIT_BASE_STATS_H_

#include <map>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/sync.h"
#include "common/rng.h"
#include "histogram/builder.h"
#include "storage/catalog.h"

namespace sitstats {

/// Cache of base-table histograms keyed by (table, column). Sweep consults
/// base statistics for every join column of every scanned table; building
/// them once per experiment mirrors a real system's statistics store.
///
/// A base histogram is exact over the full column: it is built from the
/// catalog's key-count index (Catalog::EnsureIndex), the same count table
/// the Index m-Oracle reads, so a column is counted once whichever
/// variant asks first. NaN rows are not counted (NaN joins nothing and
/// satisfies no range predicate); an infinite value fails the build.
///
/// Thread safety: reads and GetOrBuild are safe concurrently (the parallel
/// schedule executor resolves base histograms from several worker threads).
/// Lookups take a shared lock; a miss builds outside any lock and the
/// first finished build wins — every build of one column is the same
/// histogram, and cached pointers are never invalidated by later inserts
/// (node-based map). Clear() must not race with readers holding returned
/// pointers.
class BaseStatsCache {
 public:
  explicit BaseStatsCache(HistogramSpec spec = {}) : spec_(spec) {}

  // Movable (the mutex stays with the object, not the contents); moving
  // is not thread-safe — callers must quiesce readers first. The locks
  // below keep the guarded-field contract total, nothing more.
  BaseStatsCache(BaseStatsCache&& other) noexcept : spec_(other.spec_) {
    WriterLock other_lock(other.mu_);
    cache_ = std::move(other.cache_);
  }
  BaseStatsCache& operator=(BaseStatsCache&& other) noexcept {
    if (this != &other) {
      spec_ = other.spec_;
      WriterLock this_lock(mu_);
      WriterLock other_lock(other.mu_);
      cache_ = std::move(other.cache_);
    }
    return *this;
  }

  /// The histogram over table.column, building (and caching) it on first
  /// request. `rng` is unused: a base histogram draws nothing.
  Result<const Histogram*> GetOrBuild(const Catalog& catalog,
                                      const std::string& table,
                                      const std::string& column, Rng* rng);

  /// Drops every cached histogram.
  void Clear() {
    WriterLock lock(mu_);
    cache_.clear();
  }

  size_t size() const {
    ReaderLock lock(mu_);
    return cache_.size();
  }
  const HistogramSpec& spec() const { return spec_; }

 private:
  mutable SharedMutex mu_;
  HistogramSpec spec_;
  std::map<std::pair<std::string, std::string>, Histogram> cache_
      GUARDED_BY(mu_);
};

}  // namespace sitstats

#endif  // SITSTATS_SIT_BASE_STATS_H_
