#include "sit/base_stats.h"

#include <algorithm>
#include <cmath>

#include "common/fault_injection.h"
#include "sampling/bernoulli.h"

namespace sitstats {

Result<const Histogram*> BaseStatsCache::GetOrBuild(const Catalog& catalog,
                                                    const std::string& table,
                                                    const std::string& column,
                                                    Rng* rng) {
  auto key = std::make_pair(table, column);
  {
    ReaderLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
  }

  // Build outside the lock: concurrent misses on the same key each build a
  // copy and the first insert wins (histograms over the same column are
  // identical unless base-stats sampling is on, in which case whichever
  // sample wins is cached for everyone — determinism across runs then
  // requires building base stats up front, which the default full-scan
  // mode does implicitly).
  SITSTATS_FAULT_SITE("sit.base_stats.build");
  SITSTATS_ASSIGN_OR_RETURN(const Table* t, catalog.GetTable(table));
  SITSTATS_ASSIGN_OR_RETURN(const Column* col, t->GetColumn(column));
  if (col->type() == ValueType::kString) {
    return Status::InvalidArgument("histogram over string column " + table +
                                   "." + column);
  }
  SITSTATS_OOM_SITE("oom.sampling.values", col->size() * sizeof(double));
  std::vector<double> values = col->ToNumericVector();
  // NaN joins nothing and satisfies no range predicate, so it is no part
  // of the distribution (CountKeys skips NaN rows the same way); +-inf
  // still reaches the builders, which reject it.
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  Histogram histogram;
  if (options_.sample && !values.empty()) {
    SITSTATS_FAULT_SITE("sampling.bernoulli.sample");
    std::vector<double> sample =
        BernoulliSample(values, options_.sampling_rate, rng);
    if (sample.empty()) sample.push_back(values.front());
    SITSTATS_ASSIGN_OR_RETURN(
        histogram,
        BuildHistogramFromSample(std::move(sample),
                                 static_cast<double>(values.size()),
                                 options_.histogram_spec));
  } else {
    SITSTATS_ASSIGN_OR_RETURN(
        histogram,
        BuildHistogram(std::move(values), options_.histogram_spec));
  }
  SITSTATS_OOM_SITE("oom.base_stats.cache_insert",
                    histogram.buckets().size() * sizeof(Bucket));
  WriterLock lock(mu_);
  auto [pos, inserted] = cache_.emplace(key, std::move(histogram));
  (void)inserted;
  return &pos->second;
}

}  // namespace sitstats
