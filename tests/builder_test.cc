#include "histogram/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "datagen/distributions.h"

namespace sitstats {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(BuilderTest, RejectsBadBucketCount) {
  HistogramSpec spec;
  spec.num_buckets = 0;
  EXPECT_FALSE(BuildHistogram({1.0}, spec).ok());
  EXPECT_FALSE(BuildHistogramFromSample({1.0}, 10, spec).ok());
  EXPECT_FALSE(BuildHistogramWeighted({{1.0, 1.0}}, spec).ok());
}

TEST(BuilderTest, EmptyInputGivesEmptyHistogram) {
  HistogramSpec spec;
  EXPECT_TRUE(BuildHistogram({}, spec).ValueOrDie().empty());
  EXPECT_TRUE(BuildHistogramWeighted({}, spec).ValueOrDie().empty());
}

TEST(BuilderTest, SingleValue) {
  HistogramSpec spec;
  Histogram h = BuildHistogram({7.0, 7.0, 7.0}, spec).ValueOrDie();
  ASSERT_EQ(h.num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h.bucket(0).lo, 7.0);
  EXPECT_DOUBLE_EQ(h.bucket(0).hi, 7.0);
  EXPECT_DOUBLE_EQ(h.bucket(0).frequency, 3.0);
  EXPECT_DOUBLE_EQ(h.bucket(0).distinct_values, 1.0);
}

class BuilderTypeTest : public ::testing::TestWithParam<HistogramType> {};

TEST_P(BuilderTypeTest, PreservesTotalsExactly) {
  HistogramSpec spec;
  spec.type = GetParam();
  spec.num_buckets = 13;
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<double>(rng.UniformInt(1, 200)));
  }
  Histogram h = BuildHistogram(values, spec).ValueOrDie();
  EXPECT_TRUE(h.CheckValid().ok());
  EXPECT_LE(h.num_buckets(), 13u);
  EXPECT_NEAR(h.TotalFrequency(), 5000.0, 1e-6);
  // Each value appears; total distinct == distinct in input.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_NEAR(h.TotalDistinct(), static_cast<double>(sorted.size()), 1e-6);
}

TEST_P(BuilderTypeTest, RangeEstimateOverWholeDomainIsExact) {
  HistogramSpec spec;
  spec.type = GetParam();
  spec.num_buckets = 7;
  Histogram h = BuildHistogram(Iota(500), spec).ValueOrDie();
  EXPECT_NEAR(h.EstimateRange(0, 501), 500.0, 1e-6);
}

TEST_P(BuilderTypeTest, UniformDataEstimatesWell) {
  HistogramSpec spec;
  spec.type = GetParam();
  spec.num_buckets = 50;
  Histogram h = BuildHistogram(Iota(10'000), spec).ValueOrDie();
  // Uniform data: a quarter of the domain holds ~a quarter of the mass.
  EXPECT_NEAR(h.EstimateRange(1, 2500), 2500.0, 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, BuilderTypeTest,
                         ::testing::Values(HistogramType::kEquiWidth,
                                           HistogramType::kEquiDepth,
                                           HistogramType::kMaxDiff),
                         [](const auto& info) {
                           return HistogramTypeToString(info.param);
                         });

TEST(BuilderTest, MaxDiffIsolatesHeavyHitters) {
  // 1000 copies of value 50 inside an otherwise uniform domain: MaxDiff
  // should give the heavy value (nearly) its own bucket, making its
  // equality estimate much better than equi-width's.
  std::vector<double> values = Iota(100);
  for (int i = 0; i < 1000; ++i) values.push_back(50.0);
  HistogramSpec maxdiff;
  maxdiff.type = HistogramType::kMaxDiff;
  maxdiff.num_buckets = 10;
  Histogram h = BuildHistogram(values, maxdiff).ValueOrDie();
  double est = h.EstimateEquals(50.0);
  EXPECT_GT(est, 500.0) << h.ToString();
}

TEST(BuilderTest, EquiDepthBalancesFrequency) {
  Rng rng(3);
  ZipfDistribution zipf(1000, 1.0);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(static_cast<double>(zipf.Sample(&rng)));
  }
  HistogramSpec spec;
  spec.type = HistogramType::kEquiDepth;
  spec.num_buckets = 20;
  Histogram h = BuildHistogram(values, spec).ValueOrDie();
  // No bucket should be wildly above twice the target depth (except when a
  // single value exceeds it, which zipf(1) head values do; allow those).
  double depth = 20'000.0 / 20.0;
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    const Bucket& b = h.bucket(i);
    if (b.distinct_values > 1.5) {
      EXPECT_LT(b.frequency, 3 * depth) << "bucket " << i;
    }
  }
}

TEST(BuilderTest, WeightedMatchesExpanded) {
  HistogramSpec spec;
  spec.num_buckets = 8;
  std::vector<double> expanded;
  std::vector<std::pair<double, double>> weighted;
  Rng rng(11);
  for (int v = 1; v <= 40; ++v) {
    int64_t w = rng.UniformInt(1, 20);
    weighted.emplace_back(v, static_cast<double>(w));
    for (int64_t i = 0; i < w; ++i) expanded.push_back(v);
  }
  Histogram a = BuildHistogram(expanded, spec).ValueOrDie();
  Histogram b = BuildHistogramWeighted(weighted, spec).ValueOrDie();
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_DOUBLE_EQ(a.bucket(i).lo, b.bucket(i).lo);
    EXPECT_DOUBLE_EQ(a.bucket(i).hi, b.bucket(i).hi);
    EXPECT_DOUBLE_EQ(a.bucket(i).frequency, b.bucket(i).frequency);
    EXPECT_DOUBLE_EQ(a.bucket(i).distinct_values,
                     b.bucket(i).distinct_values);
  }
}

TEST(BuilderTest, RejectsNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  HistogramSpec spec;
  EXPECT_EQ(BuildHistogram({3, nan, 1, 2, nan, 5, 4}, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildHistogram({1, inf}, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildHistogramFromSample({1, -inf, 2}, 30, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildHistogramFromSample({nan}, 30, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BuildHistogramWeighted({{1, 1}, {nan, 2}}, spec).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BuildHistogramWeighted({{1, 1}, {2, nan}}, spec).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildHistogramWeighted({{1, inf}}, spec).status().code(),
            StatusCode::kInvalidArgument);
  // A NaN value is rejected even when its weight would drop it.
  EXPECT_EQ(BuildHistogramWeighted({{nan, 0}}, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BuilderTest, NegativeZeroMergesWithZero) {
  HistogramSpec spec;
  Histogram h = BuildHistogram({0.0, -0.0, 1.0}, spec).ValueOrDie();
  ASSERT_EQ(h.num_buckets(), 2u);
  EXPECT_EQ(h.bucket(0).lo, 0.0);
  EXPECT_FALSE(std::signbit(h.bucket(0).lo));
  EXPECT_EQ(h.bucket(0).frequency, 2.0);
  EXPECT_EQ(h.bucket(0).distinct_values, 1.0);
  EXPECT_DOUBLE_EQ(h.TotalDistinct(), 2.0);
}

TEST(BuilderTest, WeightedSumsFollowPairOrder) {
  // Fractional weights with heavy value duplicates: the per-value sums
  // depend on summation order, and must equal summing in the order
  // std::sort gives the (value, weight) pairs.
  Rng rng(23);
  std::vector<std::pair<double, double>> weighted;
  for (int i = 0; i < 20'000; ++i) {
    weighted.emplace_back(static_cast<double>(rng.UniformInt(-50, 50)),
                          rng.UniformDouble(0.0, 3.0) * 1e-3 +
                              static_cast<double>(rng.UniformInt(0, 5)));
  }
  std::vector<std::pair<double, double>> sorted = weighted;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> sums;
  for (const auto& [value, weight] : sorted) {
    if (weight <= 0.0) continue;
    if (!sums.empty() && sums.back().first == value) {
      sums.back().second += weight;
    } else {
      sums.emplace_back(value, weight);
    }
  }
  HistogramSpec spec;
  spec.num_buckets = 200;  // one bucket per distinct value
  Histogram h = BuildHistogramWeighted(weighted, spec).ValueOrDie();
  ASSERT_EQ(h.num_buckets(), sums.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(h.bucket(i).lo, sums[i].first);
    EXPECT_EQ(std::bit_cast<uint64_t>(h.bucket(i).frequency),
              std::bit_cast<uint64_t>(sums[i].second))
        << "value " << sums[i].first;
  }
}

TEST(BuilderTest, WeightedUnsortedInputAndZeroWeights) {
  HistogramSpec spec;
  Histogram h = BuildHistogramWeighted(
                    {{5.0, 2.0}, {1.0, 3.0}, {5.0, 1.0}, {2.0, 0.0}}, spec)
                    .ValueOrDie();
  EXPECT_DOUBLE_EQ(h.TotalFrequency(), 6.0);
  EXPECT_DOUBLE_EQ(h.TotalDistinct(), 2.0);  // value 2 dropped (weight 0)
}

TEST(BuilderTest, SampleScalingMatchesPopulation) {
  HistogramSpec spec;
  std::vector<double> sample = Iota(100);
  Histogram h = BuildHistogramFromSample(sample, 5'000.0, spec).ValueOrDie();
  EXPECT_NEAR(h.TotalFrequency(), 5'000.0, 1e-6);
}

class DistinctEstimatorTest
    : public ::testing::TestWithParam<DistinctEstimator> {};

TEST_P(DistinctEstimatorTest, NeverBelowSampleOrAboveFrequency) {
  HistogramSpec spec;
  spec.distinct_estimator = GetParam();
  spec.num_buckets = 10;
  Rng rng(23);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back(static_cast<double>(rng.UniformInt(1, 80)));
  }
  Histogram h = BuildHistogramFromSample(sample, 50'000.0, spec).ValueOrDie();
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    const Bucket& b = h.bucket(i);
    EXPECT_GE(b.distinct_values, 1.0);
    EXPECT_LE(b.distinct_values, b.frequency + 1e-9);
    // Integral data: distinct count can never exceed the integer span.
    EXPECT_LE(b.distinct_values, b.hi - b.lo + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, DistinctEstimatorTest,
    ::testing::Values(DistinctEstimator::kSampleCount,
                      DistinctEstimator::kLinearScale,
                      DistinctEstimator::kGee),
    [](const auto& info) { return DistinctEstimatorToString(info.param); });

TEST(BuilderTest, GeeCorrectsUpward) {
  // Sample 1% of a 100k-row uniform population over a 5000-value domain:
  // the sample sees ~1000 values mostly once; GEE should estimate far more
  // distinct values than the naive sample count.
  Rng rng(31);
  std::vector<double> population;
  for (int i = 0; i < 100'000; ++i) {
    population.push_back(static_cast<double>(rng.UniformInt(1, 5'000)));
  }
  std::vector<double> sample;
  for (double v : population) {
    if (rng.Bernoulli(0.01)) sample.push_back(v);
  }
  HistogramSpec naive;
  naive.distinct_estimator = DistinctEstimator::kSampleCount;
  HistogramSpec gee;
  gee.distinct_estimator = DistinctEstimator::kGee;
  double d_naive = BuildHistogramFromSample(sample, 100'000.0, naive)
                       .ValueOrDie()
                       .TotalDistinct();
  double d_gee = BuildHistogramFromSample(sample, 100'000.0, gee)
                     .ValueOrDie()
                     .TotalDistinct();
  EXPECT_GT(d_gee, d_naive * 1.5);
  EXPECT_LE(d_gee, 5'500.0);
}

TEST(BuilderTest, BucketCountRespected) {
  for (int nb : {1, 2, 5, 50, 100, 1000}) {
    HistogramSpec spec;
    spec.num_buckets = nb;
    Histogram h = BuildHistogram(Iota(200), spec).ValueOrDie();
    EXPECT_LE(h.num_buckets(), static_cast<size_t>(nb));
    EXPECT_TRUE(h.CheckValid().ok());
  }
}

}  // namespace
}  // namespace sitstats
