#include "sit/base_stats.h"

#include "common/fault_injection.h"

namespace sitstats {

Result<const Histogram*> BaseStatsCache::GetOrBuild(const Catalog& catalog,
                                                    const std::string& table,
                                                    const std::string& column,
                                                    Rng* /*rng*/) {
  auto key = std::make_pair(table, column);
  {
    ReaderLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
  }

  // Build outside the lock: concurrent misses on the same key each build
  // the same histogram from the one count table, and the first insert
  // wins. The counts are integral, so the histogram is the one a build
  // over every non-NaN row of the column gives.
  SITSTATS_FAULT_SITE("sit.base_stats.build");
  SITSTATS_ASSIGN_OR_RETURN(const WeightTable* counts,
                            catalog.EnsureIndex(table, column));
  SITSTATS_ASSIGN_OR_RETURN(Histogram histogram,
                            BuildHistogramWeighted(counts->Entries(), spec_));
  SITSTATS_OOM_SITE("oom.base_stats.cache_insert",
                    histogram.buckets().size() * sizeof(Bucket));
  WriterLock lock(mu_);
  auto [pos, inserted] = cache_.emplace(key, std::move(histogram));
  (void)inserted;
  return &pos->second;
}

}  // namespace sitstats
