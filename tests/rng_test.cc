#include "common/rng.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

namespace sitstats {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit in 1000 draws
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, UniformDoubleBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(RngTest, DrawsArePinned) {
  // The inline draws are part of every seeded result (datagen goldens,
  // pinned SIT bytes); pin the first outputs for one seed.
  Rng rng(2024);
  EXPECT_EQ(rng.NextDouble(), 0x1.39b1c9e957cb2p-1);
  EXPECT_EQ(rng.NextDouble(), 0x1.96e50634f5cdbp-1);
  EXPECT_EQ(rng.NextDouble(), 0x1.10086ce6c6f19p-2);
  const bool kExpected[] = {true, true, true, false, false, true, false,
                            false};
  for (bool expected : kExpected) EXPECT_EQ(rng.Bernoulli(0.5), expected);
}

TEST(RngTest, SplitMix64IsPositionAddressable) {
  // The i-th draw of SplitMix64(key) is SplitMix64At(key, i), so a draw can
  // be taken by position; the first outputs for key 0 are SplitMix64's
  // published reference values.
  SplitMix64 stream(1234567);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(stream.NextUint64(), SplitMix64At(1234567, i)) << i;
  }
  SplitMix64 zero(0);
  EXPECT_EQ(zero.NextUint64(), 0xe220a8397b1dcdafull);
  EXPECT_EQ(zero.NextUint64(), 0x6e789e6aa1b965f4ull);
  for (int i = 0; i < 1'000; ++i) {
    const double u = UnitDouble(zero.NextUint64());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(UnitDouble(~uint64_t{0}), 1.0 - 0x1p-53);
}

TEST(RngTest, SplitMix64BelowIsUniform) {
  // Below(n) stays in [0, n) and hits each of 10 values about equally; at
  // n = 2^63 + 1 almost half the raw draws are rejected, and the result is
  // still in range.
  SplitMix64 stream(99);
  std::vector<int> hits(10, 0);
  const int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++hits[stream.Below(10)];
  for (int h : hits) EXPECT_NEAR(h, kDraws / 10, 500);
  EXPECT_EQ(stream.Below(1), 0u);
  const uint64_t n = (uint64_t{1} << 63) + 1;
  for (int i = 0; i < 1'000; ++i) EXPECT_LT(stream.Below(n), n);
}

#if defined(__GLIBCXX__)
TEST(RngTest, DrawsMatchLibstdcxxDistributions) {
  // NextDouble, UniformDouble and Bernoulli reproduce what libstdc++'s
  // uniform_real_distribution and bernoulli_distribution compute over the
  // same engine, value for value, so no seeded result depends on which
  // spelling draws it.
  Rng rng(99);
  std::mt19937_64 engine(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> wide(-5.0, 100.0);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    switch (i % 3) {
      case 0:
        mismatches += rng.NextDouble() != unit(engine);
        break;
      case 1:
        mismatches += rng.UniformDouble(-5.0, 100.0) != wide(engine);
        break;
      default: {
        const double p = static_cast<double>(i % 1'000) / 1'000.0 + 1e-4;
        std::bernoulli_distribution coin(p);
        mismatches += rng.Bernoulli(p) != coin(engine);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(rng.NextUint64(), engine());
}
#endif

}  // namespace
}  // namespace sitstats
