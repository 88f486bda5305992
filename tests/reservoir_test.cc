#include "sampling/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>

namespace sitstats {
namespace {

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  Rng rng(1);
  ReservoirSampler sampler(10, &rng);
  for (int i = 0; i < 5; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 5u);
  EXPECT_EQ(sampler.stream_size(), 5u);
}

TEST(ReservoirTest, CapsAtCapacity) {
  Rng rng(2);
  ReservoirSampler sampler(10, &rng);
  for (int i = 0; i < 1000; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 10u);
  EXPECT_EQ(sampler.stream_size(), 1000u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 200 stream elements should land in a size-20 reservoir with
  // probability 0.1; average inclusion counts over many trials.
  const int kStream = 200;
  const int kCap = 20;
  const int kTrials = 3'000;
  std::vector<int> included(kStream, 0);
  Rng rng(7);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler sampler(kCap, &rng);
    for (int i = 0; i < kStream; ++i) {
      sampler.Add(static_cast<double>(i));
    }
    for (double v : sampler.sample()) {
      included[static_cast<size_t>(v)] += 1;
    }
  }
  for (int i = 0; i < kStream; ++i) {
    double rate = static_cast<double>(included[static_cast<size_t>(i)]) /
                  kTrials;
    EXPECT_NEAR(rate, 0.1, 0.03) << "element " << i;
  }
}

TEST(ReservoirTest, AddRepeatedMatchesIndividualAddsDistribution) {
  // The fraction of the sample holding the repeated value must match its
  // stream share whether added via Add or AddRepeated.
  const uint64_t kRun = 5'000;
  const int kCap = 500;
  Rng rng1(11);
  Rng rng2(12);
  ReservoirSampler a(kCap, &rng1);
  ReservoirSampler b(kCap, &rng2);
  for (int i = 0; i < 5'000; ++i) {
    a.Add(1.0);
    b.Add(1.0);
  }
  for (uint64_t i = 0; i < kRun; ++i) a.Add(2.0);
  b.AddRepeated(2.0, kRun);
  EXPECT_EQ(a.stream_size(), b.stream_size());
  auto share = [](const ReservoirSampler& s, double v) {
    double hits = 0;
    for (double x : s.sample()) {
      if (x == v) hits += 1;
    }
    return hits / static_cast<double>(s.sample().size());
  };
  EXPECT_NEAR(share(a, 2.0), 0.5, 0.07);
  EXPECT_NEAR(share(b, 2.0), 0.5, 0.07);
}

TEST(ReservoirTest, HugeRunsUseSkipSamplingAndStayUnbiased) {
  // Stream: 1e9 copies of A, then 1e9 copies of B, then 2e9 copies of C.
  // Expected sample shares: 25% / 25% / 50%. Must complete fast (skip
  // sampling) and unbiased despite positions ~1e9.
  Rng rng(13);
  ReservoirSampler sampler(2'000, &rng);
  sampler.AddRepeated(1.0, 1'000'000'000ull);
  sampler.AddRepeated(2.0, 1'000'000'000ull);
  sampler.AddRepeated(3.0, 2'000'000'000ull);
  EXPECT_EQ(sampler.stream_size(), 4'000'000'000ull);
  std::map<double, int> counts;
  for (double v : sampler.sample()) counts[v] += 1;
  double n = static_cast<double>(sampler.sample().size());
  EXPECT_NEAR(counts[1.0] / n, 0.25, 0.04);
  EXPECT_NEAR(counts[2.0] / n, 0.25, 0.04);
  EXPECT_NEAR(counts[3.0] / n, 0.50, 0.04);
}

TEST(ReservoirTest, ManyInterleavedRunsKeepProportions) {
  // Alternating runs of two values with 1:3 weight ratio.
  Rng rng(17);
  ReservoirSampler sampler(1'000, &rng);
  for (int i = 0; i < 200; ++i) {
    sampler.AddRepeated(1.0, 10'000);
    sampler.AddRepeated(2.0, 30'000);
  }
  double ones = 0;
  for (double v : sampler.sample()) {
    if (v == 1.0) ones += 1;
  }
  EXPECT_NEAR(ones / 1'000.0, 0.25, 0.05);
}

TEST(ReservoirTest, StreamCountsPastUint32StayExact) {
  // Overflow regression (ISSUE 4): join-multiplicity streams exceed
  // 2^32 rows at production scale, so stream positions must be tracked
  // in 64 bits — a 32-bit counter would wrap and re-inflate inclusion
  // probabilities. Skip sampling keeps this cheap despite the counts.
  Rng rng(37);
  ReservoirSampler sampler(100, &rng);
  const uint64_t kRun = (1ull << 31) + 12'345;
  sampler.AddRepeated(1.0, kRun);
  sampler.AddRepeated(2.0, kRun);
  sampler.AddRepeated(3.0, kRun);
  const uint64_t expected = 3 * kRun;  // 6'442'487'939 > 2^32
  ASSERT_GT(expected, 1ull << 32);
  EXPECT_EQ(sampler.stream_size(), expected);
  EXPECT_EQ(sampler.sample().size(), 100u);
  // Late elements still displace early ones: with 2/3 of the stream
  // being values 2 and 3, a sample of only value 1 has probability
  // ~(1/3)^100 under correct 64-bit accounting.
  int late = 0;
  for (double v : sampler.sample()) {
    if (v != 1.0) late += 1;
  }
  EXPECT_GT(late, 0);
}

TEST(ReservoirTest, CapacityEqualToStreamLengthKeepsEverything) {
  // Boundary: the fill phase exactly consumes the stream. No replacement
  // draw may fire, so the sample is the stream verbatim and the rng is
  // untouched (checked by comparing against a fresh rng's next draw).
  Rng rng(41);
  Rng control(41);
  const size_t kLen = 256;
  ReservoirSampler sampler(kLen, &rng);
  for (size_t i = 0; i < kLen; ++i) sampler.Add(static_cast<double>(i));
  ASSERT_EQ(sampler.sample().size(), kLen);
  EXPECT_EQ(sampler.stream_size(), kLen);
  for (size_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(sampler.sample()[i], static_cast<double>(i));
  }
  EXPECT_EQ(rng.NextDouble(), control.NextDouble());
}

TEST(ReservoirTest, SplitRunsAreDrawIdentical) {
  // The sampler carries the next replacement position across calls, so
  // AddRepeated(v, a + b), AddRepeated(v, a) + AddRepeated(v, b), and
  // a + b calls to Add give the same sample and leave the rng at the same
  // point — for splits before, at and after the fill boundary, and below
  // and past the t = 64c skip switch.
  const size_t kCap = 16;
  const int kPrefix = 8;  // distinct values, so slot identity shows
  // Splits after a = 8 fill the reservoir exactly, and a = 1'016 ends at
  // position 64c = 1'024.
  for (uint64_t a : {uint64_t{0}, uint64_t{5}, uint64_t{8}, uint64_t{9},
                     uint64_t{300}, uint64_t{1'016}, uint64_t{1'017},
                     uint64_t{5'000}}) {
    for (uint64_t b : {uint64_t{1}, uint64_t{64}, uint64_t{2'000}}) {
      Rng rng_whole(43);
      Rng rng_split(43);
      Rng rng_single(43);
      ReservoirSampler whole(kCap, &rng_whole);
      ReservoirSampler split(kCap, &rng_split);
      ReservoirSampler single(kCap, &rng_single);
      for (int i = 0; i < kPrefix; ++i) {
        whole.Add(static_cast<double>(-i));
        split.Add(static_cast<double>(-i));
        single.Add(static_cast<double>(-i));
      }
      whole.AddRepeated(1.0, a + b);
      split.AddRepeated(1.0, a);
      split.AddRepeated(1.0, b);
      for (uint64_t i = 0; i < a + b; ++i) single.Add(1.0);
      SCOPED_TRACE(testing::Message() << "a=" << a << " b=" << b);
      EXPECT_EQ(split.sample(), whole.sample());
      EXPECT_EQ(single.sample(), whole.sample());
      EXPECT_EQ(split.stream_size(), whole.stream_size());
      EXPECT_EQ(single.stream_size(), whole.stream_size());
      const uint64_t next = rng_whole.NextUint64();
      EXPECT_EQ(rng_split.NextUint64(), next);
      EXPECT_EQ(rng_single.NextUint64(), next);
    }
  }
}

TEST(ReservoirTest, AddRepeatedAtCapacityBoundaries) {
  // AddRepeated runs hitting exactly capacity and capacity - 1: the
  // sample must never report more elements than were offered, and the
  // accept set must match per-element Add exactly (same seed).
  for (uint64_t delta : {uint64_t{0}, uint64_t{1}}) {
    const uint64_t kCap = 128;
    const uint64_t len = kCap - delta;
    Rng rng_run(47);
    Rng rng_single(47);
    ReservoirSampler via_run(kCap, &rng_run);
    ReservoirSampler via_add(kCap, &rng_single);
    via_run.AddRepeated(7.5, len);
    for (uint64_t i = 0; i < len; ++i) via_add.Add(7.5);
    EXPECT_EQ(via_run.stream_size(), len);
    EXPECT_EQ(via_run.sample().size(), len);
    EXPECT_EQ(via_run.sample(), via_add.sample());
    EXPECT_EQ(rng_run.NextDouble(), rng_single.NextDouble());
  }
}

// Accuracy gate for the reservoir's draws. Every stream element lands in
// the sample with probability c/N, so the number of sample slots holding
// run g's value has expectation c * len_g / N. Summed over many fixed
// seeds, Pearson's statistic over the 40 runs is (conservatively, since
// the sample is drawn without replacement) chi-square with 39 degrees of
// freedom. The seeds are fixed, so the test is deterministic; the bound is
// the p = 0.001 critical value.
constexpr size_t kChiSquareRuns = 40;
constexpr double kChiSquareCritical39 = 72.055;

/// Feeds one stream of runs (run g = `lengths[g]` copies of value g) per
/// trial into a fresh sampler, via Add per element or AddRepeated per run,
/// and returns Pearson's chi-square of the summed per-run sample counts.
double InclusionChiSquare(const std::vector<uint64_t>& lengths,
                          size_t capacity, int trials, bool per_element,
                          uint64_t seed) {
  std::vector<double> observed(lengths.size(), 0.0);
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(seed + static_cast<uint64_t>(trial));
    ReservoirSampler sampler(capacity, &rng);
    for (size_t g = 0; g < lengths.size(); ++g) {
      const double value = static_cast<double>(g);
      if (per_element) {
        for (uint64_t i = 0; i < lengths[g]; ++i) sampler.Add(value);
      } else {
        sampler.AddRepeated(value, lengths[g]);
      }
    }
    for (double v : sampler.sample()) observed[static_cast<size_t>(v)] += 1;
  }
  const double total = static_cast<double>(
      std::accumulate(lengths.begin(), lengths.end(), uint64_t{0}));
  double chi_square = 0.0;
  for (size_t g = 0; g < lengths.size(); ++g) {
    const double expected = static_cast<double>(trials) *
                            static_cast<double>(capacity) *
                            static_cast<double>(lengths[g]) / total;
    EXPECT_GE(expected, 5.0) << "run " << g << " too short for the test";
    const double diff = observed[g] - expected;
    chi_square += diff * diff / expected;
  }
  return chi_square;
}

/// kChiSquareRuns run lengths drawn uniformly from [lo, hi].
std::vector<uint64_t> UniformRunLengths(uint64_t lo, uint64_t hi,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> lengths;
  for (size_t g = 0; g < kChiSquareRuns; ++g) {
    lengths.push_back(static_cast<uint64_t>(rng.UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(hi))));
  }
  return lengths;
}

TEST(ReservoirChiSquareTest, PerElementAdd) {
  // 40 runs of 2 elements, c = 2: N = 40c, all below 64c. With a tiny
  // capacity, neighbouring positions' replacement odds c/i differ most,
  // so an off-by-one in the skip draw shows.
  std::vector<uint64_t> lengths(kChiSquareRuns, 2);
  const double chi = InclusionChiSquare(lengths, 2, 10'000, true, 1'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, ShortRuns) {
  // Runs of 1-20 copies, c = 20: every replacement decision falls inside
  // a short run.
  const double chi = InclusionChiSquare(UniformRunLengths(1, 20, 71), 20,
                                        1'000, false, 2'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, RunsCrossingTheSkipBoundary) {
  // Runs of 1-100 copies, c = 10: the stream crosses t = 64c mid-run, so
  // both skip draws (exact product and closed form) decide replacements.
  const double chi = InclusionChiSquare(UniformRunLengths(1, 100, 73), 10,
                                        2'000, false, 3'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, ZipfRunsFarPastTheSkipBoundary) {
  // Zipf-like run lengths 1e7 / rank, shuffled, c = 100: N is about 4e7,
  // so almost every replacement happens at t >> 64c.
  std::vector<uint64_t> lengths;
  for (size_t g = 0; g < kChiSquareRuns; ++g) {
    lengths.push_back(10'000'000 / (g + 1));
  }
  std::mt19937_64 shuffle(79);
  std::shuffle(lengths.begin(), lengths.end(), shuffle);
  const double chi = InclusionChiSquare(lengths, 100, 300, false, 4'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

}  // namespace
}  // namespace sitstats
