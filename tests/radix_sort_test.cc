#include "common/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sitstats {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMax = std::numeric_limits<double>::max();

/// Doubles drawn from every corner of the format: arbitrary bit patterns
/// (all exponents, subnormals included, NaNs redrawn), a small integer
/// pool for heavy duplicates, tiny values around zero, and the specials
/// ±0, ±inf, ±denorm_min and ±max.
std::vector<double> MixedDoubles(size_t n, uint64_t seed) {
  const double specials[] = {0.0,         -0.0, kInf, -kInf, kDenormMin,
                             -kDenormMin, kMax, -kMax};
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        const double v = std::bit_cast<double>(rng.NextUint64());
        if (!std::isnan(v)) out.push_back(v);
        break;
      }
      case 1:
        out.push_back(static_cast<double>(rng.UniformInt(-5, 5)));
        break;
      case 2:
        out.push_back(specials[rng.UniformInt(0, 7)]);
        break;
      default:
        out.push_back(rng.UniformDouble(-1e-300, 1e-300));
        break;
    }
  }
  return out;
}

const size_t kSizes[] = {0, 1, 2, 255, 256, 257, 100'000};

TEST(OrderedKeyTest, PreservesOrderAndFoldsNegativeZero) {
  EXPECT_EQ(OrderedKey(-0.0), OrderedKey(0.0));
  EXPECT_LT(OrderedKey(-kInf), OrderedKey(-kMax));
  EXPECT_LT(OrderedKey(-kDenormMin), OrderedKey(0.0));
  EXPECT_LT(OrderedKey(0.0), OrderedKey(kDenormMin));
  EXPECT_LT(OrderedKey(kMax), OrderedKey(kInf));
  std::vector<double> values = MixedDoubles(20'000, 1);
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    const double a = values[i], b = values[i + 1];
    EXPECT_EQ(a < b, OrderedKey(a) < OrderedKey(b)) << a << " vs " << b;
    EXPECT_EQ(a == b, OrderedKey(a) == OrderedKey(b)) << a << " vs " << b;
  }
}

TEST(RadixSortTest, MatchesStdSortOnDoubles) {
  for (size_t n : kSizes) {
    std::vector<double> values = MixedDoubles(n, 100 + n);
    std::vector<double> expected = values;
    std::sort(expected.begin(), expected.end());
    RadixSort(&values);
    // Element-wise ==: the two zeros tie, so their order may differ.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(values[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(RadixSortTest, TiedZerosKeepInputOrder) {
  std::vector<double> values = {0.0, 1.0, -0.0, -1.0, 0.0, -0.0};
  RadixSort(&values);
  ASSERT_EQ(values, (std::vector<double>{-1.0, 0.0, 0.0, 0.0, 0.0, 1.0}));
  EXPECT_FALSE(std::signbit(values[1]));
  EXPECT_TRUE(std::signbit(values[2]));
  EXPECT_FALSE(std::signbit(values[3]));
  EXPECT_TRUE(std::signbit(values[4]));
}

TEST(RadixSortTest, AllEqualAndNarrowKeys) {
  std::vector<double> same(1000, 3.5);
  RadixSort(&same);
  EXPECT_EQ(same, std::vector<double>(1000, 3.5));
  // Powers of two differ in their exponent bits only: one or two passes.
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::ldexp(1.0, (37 * i) % 200 - 100));
  }
  std::vector<double> expected = values;
  std::sort(expected.begin(), expected.end());
  RadixSort(&values);
  EXPECT_EQ(values, expected);
}

TEST(RadixSortTest, PairsMatchStdSortOnValueWeightPairs) {
  for (size_t n : kSizes) {
    std::vector<double> values = MixedDoubles(n, 200 + n);
    Rng rng(n);
    std::vector<std::pair<double, double>> pairs;
    for (double v : values) {
      // Few weights, so equal values often tie on weight too.
      pairs.emplace_back(v, static_cast<double>(rng.UniformInt(1, 4)) * 0.75);
    }
    std::vector<std::pair<double, double>> expected = pairs;
    std::sort(expected.begin(), expected.end());
    RadixSort(&pairs);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(pairs[i].first, expected[i].first) << "n=" << n << " i=" << i;
      ASSERT_EQ(pairs[i].second, expected[i].second)
          << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace sitstats
