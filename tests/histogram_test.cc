#include "histogram/histogram.h"

#include <gtest/gtest.h>

#include "histogram/bucket.h"

namespace sitstats {
namespace {

Histogram ThreeBuckets() {
  // [0,9] f=100 dv=10, [10,19] f=50 dv=5, [30,30] f=7 dv=1 (gap 20-29).
  return Histogram({Bucket{0, 9, 100, 10}, Bucket{10, 19, 50, 5},
                    Bucket{30, 30, 7, 1}});
}

TEST(BucketTest, Basics) {
  Bucket b{0, 9, 100, 10};
  EXPECT_TRUE(b.Contains(0));
  EXPECT_TRUE(b.Contains(9));
  EXPECT_FALSE(b.Contains(9.5));
  EXPECT_DOUBLE_EQ(b.Width(), 9.0);
  EXPECT_DOUBLE_EQ(b.TuplesPerDistinct(), 10.0);
  EXPECT_NE(b.ToString().find("f=100"), std::string::npos);
}

TEST(HistogramTest, Totals) {
  Histogram h = ThreeBuckets();
  EXPECT_EQ(h.num_buckets(), 3u);
  EXPECT_DOUBLE_EQ(h.TotalFrequency(), 157.0);
  EXPECT_DOUBLE_EQ(h.TotalDistinct(), 16.0);
  EXPECT_DOUBLE_EQ(h.MinValue(), 0.0);
  EXPECT_DOUBLE_EQ(h.MaxValue(), 30.0);
}

TEST(HistogramTest, FindBucket) {
  Histogram h = ThreeBuckets();
  EXPECT_EQ(h.FindBucket(0.0), 0);
  EXPECT_EQ(h.FindBucket(9.0), 0);
  EXPECT_EQ(h.FindBucket(10.0), 1);
  EXPECT_EQ(h.FindBucket(30.0), 2);
  EXPECT_EQ(h.FindBucket(25.0), -1);   // gap
  EXPECT_EQ(h.FindBucket(-1.0), -1);   // before
  EXPECT_EQ(h.FindBucket(31.0), -1);   // after
}

TEST(HistogramTest, EstimateEqualsUsesUniformSpread) {
  Histogram h = ThreeBuckets();
  EXPECT_DOUBLE_EQ(h.EstimateEquals(5.0), 10.0);   // 100/10
  EXPECT_DOUBLE_EQ(h.EstimateEquals(15.0), 10.0);  // 50/5
  EXPECT_DOUBLE_EQ(h.EstimateEquals(30.0), 7.0);
  EXPECT_DOUBLE_EQ(h.EstimateEquals(25.0), 0.0);
}

TEST(HistogramTest, EstimateRangeFullBuckets) {
  Histogram h = ThreeBuckets();
  EXPECT_DOUBLE_EQ(h.EstimateRange(0, 30), 157.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(-100, 100), 157.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(10, 19), 50.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(20, 29), 0.0);  // gap only
}

TEST(HistogramTest, EstimateRangeInterpolates) {
  Histogram h = ThreeBuckets();
  // Bucket 0 models 10 values spaced 1 apart on [0,9]; [0,4.5] contains
  // the grid points 0..4 -> 100 * 5/10.
  EXPECT_NEAR(h.EstimateRange(0.0, 4.5), 50.0, 1e-9);
  // Empty range inverted bounds.
  EXPECT_DOUBLE_EQ(h.EstimateRange(5.0, 4.0), 0.0);
  // Singleton bucket inside range counts fully.
  EXPECT_DOUBLE_EQ(h.EstimateRange(29.5, 30.5), 7.0);
}

TEST(HistogramTest, ScaledToTotal) {
  Histogram h = ThreeBuckets();
  Histogram scaled = h.ScaledToTotal(314.0);
  EXPECT_NEAR(scaled.TotalFrequency(), 314.0, 1e-9);
  // Shape preserved: first bucket has 100/157 of the mass.
  EXPECT_NEAR(scaled.bucket(0).frequency, 200.0, 1e-9);
  // Bucket boundaries unchanged.
  EXPECT_DOUBLE_EQ(scaled.bucket(2).lo, 30.0);
  EXPECT_DOUBLE_EQ(scaled.bucket(1).hi, 19.0);
  // Original untouched.
  EXPECT_DOUBLE_EQ(h.TotalFrequency(), 157.0);
}

TEST(HistogramTest, ScaledToTotalCapsDistinct) {
  Histogram h({Bucket{0, 9, 100, 10}});
  Histogram scaled = h.ScaledToTotal(5.0);
  EXPECT_DOUBLE_EQ(scaled.bucket(0).frequency, 5.0);
  EXPECT_DOUBLE_EQ(scaled.bucket(0).distinct_values, 5.0);
}

TEST(HistogramTest, ScaleEmptyAndZero) {
  Histogram empty;
  EXPECT_EQ(empty.ScaledToTotal(10.0).num_buckets(), 0u);
  Histogram zero({Bucket{0, 1, 0, 0}});
  EXPECT_DOUBLE_EQ(zero.ScaledToTotal(10.0).TotalFrequency(), 0.0);
}

TEST(HistogramTest, CheckValidAcceptsGood) {
  EXPECT_TRUE(ThreeBuckets().CheckValid().ok());
  EXPECT_TRUE(Histogram().CheckValid().ok());
}

TEST(HistogramTest, CheckValidRejectsBad) {
  EXPECT_FALSE(Histogram({Bucket{5, 4, 1, 1}}).CheckValid().ok());
  EXPECT_FALSE(Histogram({Bucket{0, 1, -1, 1}}).CheckValid().ok());
  EXPECT_FALSE(Histogram({Bucket{0, 1, 1, -1}}).CheckValid().ok());
  EXPECT_FALSE(Histogram({Bucket{0, 1, 5, 0}}).CheckValid().ok());
  // Overlapping buckets.
  EXPECT_FALSE(
      Histogram({Bucket{0, 5, 1, 1}, Bucket{5, 9, 1, 1}}).CheckValid().ok());
  // Out of order.
  EXPECT_FALSE(
      Histogram({Bucket{10, 12, 1, 1}, Bucket{0, 2, 1, 1}}).CheckValid().ok());
}

}  // namespace
}  // namespace sitstats
