#include "histogram/join_estimate.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "datagen/distributions.h"
#include "histogram/builder.h"

namespace sitstats {
namespace {

TEST(JoinEstimateTest, EmptyHistograms) {
  Histogram h({Bucket{0, 10, 5, 2}});
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(Histogram(), h), 0.0);
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(h, Histogram()), 0.0);
}

TEST(JoinEstimateTest, DisjointDomains) {
  Histogram r({Bucket{0, 10, 100, 10}});
  Histogram s({Bucket{20, 30, 100, 10}});
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 0.0);
}

TEST(JoinEstimateTest, IdenticalSingletonBuckets) {
  // R has 10 tuples of value 5; S has 4 tuples of value 5.
  Histogram r({Bucket{5, 5, 10, 1}});
  Histogram s({Bucket{5, 5, 4, 1}});
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 40.0);
}

TEST(JoinEstimateTest, ContainmentFormulaPerBucket) {
  // Aligned buckets: f_R=100, dv_R=10; f_S=60, dv_S=15.
  // Estimate = f_R * f_S / max(dv_R, dv_S) = 6000/15 = 400.
  Histogram r({Bucket{0, 14, 100, 10}});
  Histogram s({Bucket{0, 14, 60, 15}});
  EXPECT_NEAR(EstimateJoinCardinality(r, s), 400.0, 1e-9);
  // Symmetric.
  EXPECT_NEAR(EstimateJoinCardinality(s, r), 400.0, 1e-9);
}

TEST(JoinEstimateTest, PartialOverlapScalesFractions) {
  // R covers [0,9] (f=100, dv=10), S covers [5,14] (f=100, dv=10).
  // Continuous overlap [5,9] is 4/9 of each bucket's width:
  // f = 100*4/9 = 44.4, dv = 4.44 on both sides -> 44.4^2/4.44 = 444.4.
  Histogram r({Bucket{0, 9, 100, 10}});
  Histogram s({Bucket{5, 14, 100, 10}});
  double est = EstimateJoinCardinality(r, s);
  EXPECT_NEAR(est, 1000.0 * 4.0 / 9.0, 1e-6);
}

TEST(JoinEstimateTest, SharedEndpointNotDoubleCountedAcrossBucketPairs) {
  // Both inputs have adjacent buckets meeting exactly at 5 (legal for this
  // function: it accepts unvalidated histograms, e.g. propagated ones).
  // Value 5 already belongs to the closed overlap [0,5] of the first
  // bucket pair; the point overlap [5,5] of the second pair must not
  // count it again.
  Histogram r({Bucket{0, 5, 60, 6}, Bucket{5, 5, 10, 1}});
  Histogram s({Bucket{0, 5, 30, 6}, Bucket{5, 9, 20, 5}});
  // First pair: full overlap 60*30/6 = 300. Second pair: point overlap on
  // the already-counted 5 — skipped (it used to add 10 * (20/5) = 40).
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 300.0);
}

TEST(JoinEstimateTest, SingletonBucketOnNeighborsEndpointCountsOnce) {
  // r's singleton bucket [5,5] sits exactly on the endpoint of its
  // neighbor [0,5]; s's bucket starts at 5. The merge visits (r0, s0) and
  // (r1, s0), both reducing to the point overlap [5,5].
  Histogram r({Bucket{0, 5, 10, 5}, Bucket{5, 5, 4, 1}});
  Histogram s({Bucket{5, 8, 9, 3}});
  // Counted once, by the first pair: (10/5) * (9/3) / 1 = 6. The
  // pre-fix estimate added the second pair's 4 * 3 = 12 on top.
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 6.0);
}

TEST(JoinEstimateTest, PointOverlapAfterEmptyPairStillCounts) {
  // The dedup must track *counted* overlaps only: here the first pair
  // contributes nothing (zero frequency), so the point overlap of the
  // second pair is the first real sighting of value 5 and must count.
  Histogram r({Bucket{0, 5, 0, 0}, Bucket{5, 5, 4, 1}});
  Histogram s({Bucket{5, 8, 9, 3}});
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 12.0);
}

TEST(JoinEstimateTest, LonePointOverlapAtBucketBoundaryStillCounts) {
  // A single legitimate point overlap (no preceding shared endpoint) is
  // unaffected by the dedup.
  Histogram r({Bucket{5, 5, 4, 1}});
  Histogram s({Bucket{0, 9, 30, 10}});
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(r, s), 12.0);
}

TEST(JoinEstimateTest, SelfJoinKeyEstimateIsAccurateForUniform) {
  // Exact join size of a uniform column with itself: n tuples per value
  // squared, summed.
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(static_cast<double>(rng.UniformInt(1, 1'000)));
  }
  // Exact cardinality.
  std::map<double, double> counts;
  for (double v : values) counts[v] += 1.0;
  double exact = 0.0;
  for (const auto& [v, c] : counts) exact += c * c;

  HistogramSpec spec;
  spec.num_buckets = 100;
  Histogram h = BuildHistogram(values, spec).ValueOrDie();
  double est = EstimateJoinCardinality(h, h);
  EXPECT_NEAR(est, exact, 0.15 * exact);
}

TEST(JoinEstimateTest, ZipfSelfJoinStaysInBallpark) {
  Rng rng(19);
  ZipfDistribution zipf(1'000, 1.0);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(static_cast<double>(zipf.Sample(&rng)));
  }
  std::map<double, double> counts;
  for (double v : values) counts[v] += 1.0;
  double exact = 0.0;
  for (const auto& [v, c] : counts) exact += c * c;

  HistogramSpec spec;
  spec.num_buckets = 100;
  Histogram h = BuildHistogram(values, spec).ValueOrDie();
  double est = EstimateJoinCardinality(h, h);
  // MaxDiff singles out the head values, so a skewed self-join should
  // still be within a factor of ~2.
  EXPECT_GT(est, exact / 2);
  EXPECT_LT(est, exact * 2);
}

TEST(JoinEstimateTest, JoinEstimateIsSymmetricOnRandomInputs) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 2'000; ++i) {
      a.push_back(static_cast<double>(rng.UniformInt(1, 300)));
      b.push_back(static_cast<double>(rng.UniformInt(100, 500)));
    }
    HistogramSpec spec;
    spec.num_buckets = 30;
    Histogram ha = BuildHistogram(a, spec).ValueOrDie();
    Histogram hb = BuildHistogram(b, spec).ValueOrDie();
    double ab = EstimateJoinCardinality(ha, hb);
    double ba = EstimateJoinCardinality(hb, ha);
    EXPECT_NEAR(ab, ba, 1e-6 * std::max(1.0, ab)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sitstats
