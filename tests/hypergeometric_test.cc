#include "sampling/hypergeometric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace sitstats {
namespace {

/// Upper p = 0.001 critical value of chi-square with `df` degrees of
/// freedom (Wilson–Hilferty).
double ChiSquareCritical001(double df) {
  const double z = 3.0902;
  const double h = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
}

/// ln C(n, k) in long double; exact enough for the small grid below.
long double LogChoose(uint64_t n, uint64_t k) {
  return std::lgamma(static_cast<long double>(n) + 1) -
         std::lgamma(static_cast<long double>(k) + 1) -
         std::lgamma(static_cast<long double>(n - k) + 1);
}

struct Grid {
  uint64_t draws;
  uint64_t successes;
  uint64_t population;
};

TEST(HypergeometricTest, MatchesTheExactPmf) {
  // Pearson's chi-square of 20k draws per (c, M, N) against the exact pmf,
  // cells of expectation below 5 pooled into one. The grid covers
  // inversion (mean < 10) and HRUA, both reductions (M > N/2, c > N/2),
  // and supports whose lower end is above 0.
  const Grid kGrid[] = {{5, 3, 10},     {8, 6, 10},    {1, 1, 2},
                        {10, 50, 100},  {40, 60, 100}, {60, 80, 100},
                        {45, 50, 100},  {70, 30, 100}, {500, 400, 1'000},
                        {200, 9'000, 10'000}};
  const int kDraws = 20'000;
  uint64_t seed = 1;
  for (const Grid& g : kGrid) {
    SCOPED_TRACE(testing::Message() << "c=" << g.draws << " M="
                                    << g.successes << " N=" << g.population);
    const uint64_t failures = g.population - g.successes;
    const uint64_t lo = g.draws > failures ? g.draws - failures : 0;
    const uint64_t hi = std::min(g.draws, g.successes);
    std::vector<double> observed(hi - lo + 1, 0.0);
    SplitMix64 stream(seed++);
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t k = SampleHypergeometric(g.draws, g.successes,
                                              g.population, &stream);
      ASSERT_GE(k, lo);
      ASSERT_LE(k, hi);
      observed[k - lo] += 1.0;
    }
    double chi = 0.0;
    double cells = 0.0;
    double pooled_observed = 0.0;
    double pooled_expected = 0.0;
    for (uint64_t k = lo; k <= hi; ++k) {
      const double pmf = static_cast<double>(
          std::exp(LogChoose(g.successes, k) +
                   LogChoose(failures, g.draws - k) -
                   LogChoose(g.population, g.draws)));
      const double expected = pmf * kDraws;
      if (expected < 5.0) {
        pooled_observed += observed[k - lo];
        pooled_expected += expected;
        continue;
      }
      const double diff = observed[k - lo] - expected;
      chi += diff * diff / expected;
      cells += 1.0;
    }
    if (pooled_expected >= 5.0) {
      const double diff = pooled_observed - pooled_expected;
      chi += diff * diff / pooled_expected;
      cells += 1.0;
    } else {
      EXPECT_LT(pooled_observed, 5.0 + 5.0 * std::sqrt(5.0));
    }
    ASSERT_GE(cells, 2.0);
    EXPECT_LT(chi, ChiSquareCritical001(cells - 1.0));
    // Both support ends are reached where they carry mass.
    if (lo == 0 && hi <= 6) {
      EXPECT_GT(observed.front(), 0.0);
      EXPECT_GT(observed.back(), 0.0);
    }
  }
}

TEST(HypergeometricTest, MomentsHoldAtHugePopulations) {
  // At N = 10^12 and 10^16 (past 2^53), the sample mean and variance of
  // 20k draws match c p and c p (1 - p) (N - c) / (N - 1) within five
  // standard errors, and every draw lies in [max(0, c - t), min(c, M)].
  const Grid kGrid[] = {
      {10'000, 300'000'000'000, 1'000'000'000'000},            // HRUA
      {10'000, 3'000'000'000'000'000, 10'000'000'000'000'000},  // HRUA
      {10'000, 2'000'000'000'000, 10'000'000'000'000'000},      // mean 2
      {10'000'000'000'000'000 - 5, 5'000'000'000'000'000,
       10'000'000'000'000'000},                                 // c - t > 0
      {1'000'000, 7'000'000'000'000'000, 10'000'000'000'000'000}};
  const int kDraws = 20'000;
  uint64_t seed = 100;
  for (const Grid& g : kGrid) {
    SCOPED_TRACE(testing::Message() << "c=" << g.draws << " M="
                                    << g.successes << " N=" << g.population);
    const uint64_t t = g.population - g.successes;
    const uint64_t lo = g.draws > t ? g.draws - t : 0;
    const uint64_t hi = std::min(g.draws, g.successes);
    SplitMix64 stream(seed++);
    double sum = 0.0;
    double sum_sq = 0.0;
    const double c = static_cast<double>(g.draws);
    const double n = static_cast<double>(g.population);
    const double p = static_cast<double>(g.successes) / n;
    // The mean c M / N = whole + frac in exact integer arithmetic, so
    // draws near 10^16 are centered without rounding.
    const unsigned __int128 cm =
        static_cast<unsigned __int128>(g.draws) * g.successes;
    const uint64_t whole = static_cast<uint64_t>(cm / g.population);
    const double frac = static_cast<double>(
                            static_cast<uint64_t>(cm % g.population)) /
                        n;
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t k = SampleHypergeometric(g.draws, g.successes,
                                              g.population, &stream);
      ASSERT_GE(k, lo);
      ASSERT_LE(k, hi);
      const double x = static_cast<double>(static_cast<int64_t>(k - whole)) -
                       frac;
      sum += x;
      sum_sq += x * x;
    }
    const double var = c * p * (static_cast<double>(t) / n) *
                       static_cast<double>(g.population - g.draws) /
                       (n - 1.0);
    const double sample_mean = sum / kDraws;
    const double sample_var = sum_sq / kDraws - sample_mean * sample_mean;
    EXPECT_LT(std::abs(sample_mean), 5.0 * std::sqrt(var / kDraws))
        << "mean off by " << sample_mean;
    EXPECT_NEAR(sample_var, var, 5.0 * var * std::sqrt(2.0 / kDraws));
  }
}

TEST(HypergeometricTest, DegenerateParametersDrawNothing) {
  SplitMix64 stream(7);
  SplitMix64 control(7);
  EXPECT_EQ(SampleHypergeometric(0, 5, 10, &stream), 0u);
  EXPECT_EQ(SampleHypergeometric(4, 0, 10, &stream), 0u);
  EXPECT_EQ(SampleHypergeometric(4, 10, 10, &stream), 4u);
  EXPECT_EQ(SampleHypergeometric(10, 3, 10, &stream), 3u);
  EXPECT_EQ(stream.NextUint64(), control.NextUint64());
}

}  // namespace
}  // namespace sitstats
