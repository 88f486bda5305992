#include "server/estimate_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace sitstats {
namespace {

using Estimate = CardinalityEstimator::Estimate;

Estimate SitEstimate(double cardinality) {
  Estimate estimate;
  estimate.cardinality = cardinality;
  estimate.provenance = CardinalityEstimator::Provenance::kSit;
  estimate.used_sit = true;
  return estimate;
}

/// Built with += rather than operator+ on a string literal: the latter
/// trips GCC 12's -Wrestrict false positive (PR105651) at -O2 under
/// -Werror (see NumberedName in common/string_util.h).
std::string WorkerKey(int worker, int i) {
  std::string key = "k";
  key += std::to_string(worker);
  key += "_";
  key += std::to_string(i);
  return key;
}

TEST(EstimateCacheTest, LookupHitAfterInsert) {
  EstimateCache cache(4);
  cache.Insert(cache.epoch(), "q1", SitEstimate(42.5));
  Estimate estimate;
  ASSERT_TRUE(cache.Lookup("q1", &estimate));
  EXPECT_EQ(estimate.cardinality, 42.5);
  EXPECT_EQ(estimate.provenance, CardinalityEstimator::Provenance::kSit);
  EXPECT_TRUE(estimate.used_sit);
  EXPECT_FALSE(cache.Lookup("q2", &estimate));
  EstimateCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsed) {
  EstimateCache cache(2);
  cache.Insert(cache.epoch(), "a", SitEstimate(1));
  cache.Insert(cache.epoch(), "b", SitEstimate(2));
  Estimate estimate;
  ASSERT_TRUE(cache.Lookup("a", &estimate));  // refresh a; b becomes LRU
  cache.Insert(cache.epoch(), "c", SitEstimate(3));
  EXPECT_TRUE(cache.Lookup("a", &estimate));
  EXPECT_EQ(estimate.cardinality, 1.0);
  EXPECT_FALSE(cache.Lookup("b", &estimate));
  EXPECT_TRUE(cache.Lookup("c", &estimate));
  EXPECT_EQ(estimate.cardinality, 3.0);
}

TEST(EstimateCacheTest, StaleEpochInsertIsDropped) {
  // The epoch protocol, deterministically interleaved the way a server
  // race unfolds: request thread captures the epoch, computes an estimate
  // against the pre-mutation catalog; a SIT build completes (Invalidate)
  // before the insert lands. The insert must be dropped — otherwise a
  // pre-mutation answer is parked in a post-mutation cache and served
  // until the *next* mutation.
  EstimateCache cache(4);
  uint64_t observed = cache.epoch();  // step 1: capture
  Estimate computed = SitEstimate(7);  // step 2: compute (pre-mutation)
  cache.Invalidate();  // step 3: catalog mutates
  cache.Insert(observed, "q", computed);  // step 4: insert loses the race
  Estimate estimate;
  EXPECT_FALSE(cache.Lookup("q", &estimate));
  EXPECT_EQ(cache.GetStats().entries, 0u);

  // Same sequence without the intervening mutation: the insert lands.
  uint64_t fresh = cache.epoch();
  cache.Insert(fresh, "q", SitEstimate(8));
  ASSERT_TRUE(cache.Lookup("q", &estimate));
  EXPECT_EQ(estimate.cardinality, 8.0);
}

TEST(EstimateCacheTest, InvalidateDropsEntriesAndBumpsEpoch) {
  EstimateCache cache(4);
  uint64_t before = cache.epoch();
  cache.Insert(before, "q", SitEstimate(1));
  cache.Invalidate();
  EXPECT_GT(cache.epoch(), before);
  Estimate estimate;
  EXPECT_FALSE(cache.Lookup("q", &estimate));
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
}

TEST(EstimateCacheTest, EveryInterleavingOfComputeAndInvalidate) {
  // Exhaustive deterministic schedule sweep over the three-step protocol
  // (capture epoch, Invalidate somewhere, Insert): an Invalidate at or
  // after the capture point but before the insert must always drop the
  // insert; an Invalidate strictly before the capture never does.
  for (int invalidate_at : {0, 1, 2}) {
    EstimateCache cache(4);
    if (invalidate_at == 0) cache.Invalidate();  // before capture: harmless
    uint64_t observed = cache.epoch();
    if (invalidate_at == 1) cache.Invalidate();  // between capture and insert
    cache.Insert(observed, "q", SitEstimate(5));
    if (invalidate_at == 2) cache.Invalidate();  // after insert: entry drops
    Estimate estimate;
    bool hit = cache.Lookup("q", &estimate);
    if (invalidate_at == 0) {
      EXPECT_TRUE(hit) << "pre-capture invalidation must not block inserts";
    } else {
      EXPECT_FALSE(hit) << "interleaving " << invalidate_at
                        << " must not serve a stale estimate";
    }
  }
}

TEST(EstimateCacheTest, ConcurrentInsertsNeverResurrectAcrossInvalidate) {
  // Hammer the protocol from many threads while the main thread
  // invalidates; afterwards every surviving entry must carry the final
  // epoch (inserted after the last invalidation). This is the TSan-facing
  // companion to the deterministic interleaving tests above.
  EstimateCache cache(64);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&cache, w] {
      for (int i = 0; i < 500; ++i) {
        uint64_t observed = cache.epoch();
        cache.Insert(observed, WorkerKey(w, i),
                     SitEstimate(static_cast<double>(observed)));
      }
    });
  }
  for (int i = 0; i < 50; ++i) cache.Invalidate();
  for (std::thread& t : workers) t.join();
  const uint64_t final_epoch = cache.epoch();
  // Every cached estimate records the epoch it was computed against; any
  // entry that survived the last Invalidate must have observed it.
  Estimate estimate;
  size_t checked = 0;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 500; ++i) {
      if (cache.Lookup(WorkerKey(w, i), &estimate)) {
        EXPECT_EQ(estimate.cardinality, static_cast<double>(final_epoch));
        ++checked;
      }
    }
  }
  // Not asserting a particular count: depending on scheduling all inserts
  // may have lost the race. The invariant is only about survivors.
  (void)checked;
}

}  // namespace
}  // namespace sitstats
