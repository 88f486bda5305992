#include "sampling/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <vector>

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
  // Expected sample shares: 25% / 25% / 50%. Must complete fast (one
  // hypergeometric draw per run) and unbiased despite positions ~1e9.
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
  // probabilities. One merge per run keeps this cheap despite the counts.
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
  // Boundary: the fill phase exactly consumes the stream. No merge draws,
  // so the sample is the stream verbatim and the rng, whose one draw
  // would be the merge key, is untouched (checked by comparing against a
  // fresh rng's next draw).
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

TEST(ReservoirTest, EqualStateKeyAndBatchMergeIdentically) {
  // A merge is a pure function of (sample, stream size, key, batch index):
  // two samplers that reach the same state by different splits of the same
  // fill-phase prefix merge the next batch into the same sample, and
  // drawing that key takes one NextUint64 of the rng, however long the
  // stream.
  const size_t kCap = 16;
  const std::vector<double> prefix = {0, 1, 2, 3, 4, 5, 6, 7,
                                      8, 9, 10, 11, 12, 13, 14, 15};
  const std::vector<double> next_values = {100, 101, 102};
  const std::vector<uint64_t> next_copies = {5, 0, 40};
  for (size_t split : {size_t{1}, size_t{5}, size_t{8}, size_t{15}}) {
    Rng rng_a(43);
    Rng rng_b(43);
    ReservoirSampler a(kCap, &rng_a);
    ReservoirSampler b(kCap, &rng_b);
    // a: one batch of `split` rows, then one of the rest; b: the other way
    // round. Both hold the prefix after two merges.
    const std::vector<uint64_t> ones(prefix.size(), 1);
    const std::span<const double> values(prefix);
    const std::span<const uint64_t> copies(ones);
    a.MergeBatch(values.first(split), copies.first(split));
    a.MergeBatch(values.subspan(split), copies.subspan(split));
    b.MergeBatch(values.first(kCap - split), copies.first(kCap - split));
    b.MergeBatch(values.subspan(kCap - split), copies.subspan(kCap - split));
    ASSERT_EQ(a.sample(), b.sample());
    a.MergeBatch(next_values, next_copies);
    b.MergeBatch(next_values, next_copies);
    SCOPED_TRACE(testing::Message() << "split=" << split);
    EXPECT_EQ(a.sample(), b.sample());
    EXPECT_EQ(a.stream_size(), kCap + 45);
    EXPECT_EQ(a.slots_merged(), b.slots_merged());
    Rng control(43);
    control.NextUint64();
    const uint64_t next = control.NextUint64();
    EXPECT_EQ(rng_a.NextUint64(), next);
    EXPECT_EQ(rng_b.NextUint64(), next);
  }
  // The same state under another key, or at another batch index, draws
  // differently (with overwhelming probability).
  const std::vector<double> big_values = {1, 2, 3, 4};
  const std::vector<uint64_t> big_copies = {1'000, 1'000, 1'000, 1'000};
  auto merged = [&](uint64_t key, size_t empty_batches) {
    ReservoirSampler sampler(64, key);
    for (size_t i = 0; i < 64; ++i) sampler.Add(-static_cast<double>(i));
    for (size_t i = 0; i < empty_batches; ++i) {
      sampler.MergeBatch(std::span<const double>(),
                         std::span<const uint64_t>());
    }
    sampler.MergeBatch(big_values, big_copies);
    return sampler.sample();
  };
  EXPECT_EQ(merged(7, 0), merged(7, 0));
  EXPECT_NE(merged(7, 0), merged(8, 0));
  EXPECT_NE(merged(7, 0), merged(7, 1));
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
  // 40 runs of 2 elements, c = 2, one merge per element. With a tiny
  // capacity, neighbouring positions' inclusion odds differ most between
  // merges, so an off-by-one in the hypergeometric draw shows.
  std::vector<uint64_t> lengths(kChiSquareRuns, 2);
  const double chi = InclusionChiSquare(lengths, 2, 10'000, true, 1'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, ShortRuns) {
  // Runs of 1-20 copies, c = 20: every merge is a short one-row batch.
  const double chi = InclusionChiSquare(UniformRunLengths(1, 20, 71), 20,
                                        1'000, false, 2'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, RunsCrossingTheSkipBoundary) {
  // Runs of 1-100 copies, c = 10: merges right after the fill, where K is
  // near the run length, and later ones, where it is near 0.
  const double chi = InclusionChiSquare(UniformRunLengths(1, 100, 73), 10,
                                        2'000, false, 3'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

TEST(ReservoirChiSquareTest, ZipfRunsFarPastTheSkipBoundary) {
  // Zipf-like run lengths 1e7 / rank, shuffled, c = 100: N is about 4e7,
  // so almost every merge happens at t >> c, by HRUA.
  std::vector<uint64_t> lengths;
  for (size_t g = 0; g < kChiSquareRuns; ++g) {
    lengths.push_back(10'000'000 / (g + 1));
  }
  std::mt19937_64 shuffle(79);
  std::shuffle(lengths.begin(), lengths.end(), shuffle);
  const double chi = InclusionChiSquare(lengths, 100, 300, false, 4'000);
  EXPECT_LT(chi, kChiSquareCritical39);
}

/// Upper p = 0.001 critical value of chi-square with `df` degrees of
/// freedom (Wilson–Hilferty; within 0.2% of the table at df = 39).
double ChiSquareCritical001(double df) {
  const double z = 3.0902;  // the standard normal's 0.999 quantile
  const double h = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
}

/// A stream cut into batches: batch b is one MergeBatch of rows whose
/// copies are `batches[b]`. Every row carries its own value, its index in
/// the stream, so a sampled slot names the row its position came from.
using BatchShapes = std::vector<std::vector<uint64_t>>;

/// Merges the stream into fresh samplers (key = seed + trial) and checks
/// each position's inclusion probability c / T: summed over the trials, a
/// row of q copies must be sampled trials * c * q / T times. Rows of zero
/// copies must never be sampled. Returns Pearson's statistic over the rows
/// with copies, and sets `*df` to their number minus one.
double PositionChiSquare(const BatchShapes& batches, size_t capacity,
                         int trials, uint64_t seed, double* df) {
  std::vector<uint64_t> copies;
  std::vector<std::vector<double>> values(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    for (uint64_t q : batches[b]) {
      values[b].push_back(static_cast<double>(copies.size()));
      copies.push_back(q);
    }
  }
  std::vector<double> observed(copies.size(), 0.0);
  for (int trial = 0; trial < trials; ++trial) {
    ReservoirSampler sampler(capacity, seed + static_cast<uint64_t>(trial));
    for (size_t b = 0; b < batches.size(); ++b) {
      sampler.MergeBatch(values[b], batches[b]);
    }
    for (double v : sampler.sample()) observed[static_cast<size_t>(v)] += 1;
  }
  const double total = static_cast<double>(
      std::accumulate(copies.begin(), copies.end(), uint64_t{0}));
  double chi_square = 0.0;
  double cells = 0.0;
  for (size_t r = 0; r < copies.size(); ++r) {
    if (copies[r] == 0) {
      EXPECT_EQ(observed[r], 0.0) << "row " << r << " has no copies";
      continue;
    }
    const double expected = static_cast<double>(trials) *
                            static_cast<double>(capacity) *
                            static_cast<double>(copies[r]) / total;
    EXPECT_GE(expected, 5.0) << "row " << r << " too short for the test";
    const double diff = observed[r] - expected;
    chi_square += diff * diff / expected;
    cells += 1.0;
  }
  *df = cells - 1.0;
  return chi_square;
}

/// `rows` copy counts drawn uniformly from [lo, hi].
std::vector<uint64_t> UniformCopies(size_t rows, uint64_t lo, uint64_t hi,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> copies;
  for (size_t r = 0; r < rows; ++r) {
    copies.push_back(static_cast<uint64_t>(rng.UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(hi))));
  }
  return copies;
}

TEST(ReservoirChiSquareTest, OneRowBatches) {
  // 300 one-row merges of 1-5 copies, c = 20: each merge draws K and
  // evicts, with no position draws.
  BatchShapes batches;
  for (uint64_t q : UniformCopies(300, 1, 5, 81)) batches.push_back({q});
  double df = 0.0;
  const double chi = PositionChiSquare(batches, 20, 3'000, 5'000, &df);
  EXPECT_LT(chi, ChiSquareCritical001(df));
}

TEST(ReservoirChiSquareTest, ScanBatchesWhoseFillEndsMidBatch) {
  // Three 4096-row batches, c = 1'500. The first batch's ~2k copies end
  // the fill mid-batch and leave ~550 positions, of which K ~ 400 must be
  // drawn (rejection near its densest); the next two (0-3 copies a row,
  // zeros included) are the scan's steady state.
  BatchShapes batches = {UniformCopies(4'096, 0, 1, 83),
                         UniformCopies(4'096, 0, 3, 85),
                         UniformCopies(4'096, 0, 3, 87)};
  double df = 0.0;
  const double chi = PositionChiSquare(batches, 1'500, 150, 6'000, &df);
  EXPECT_LT(chi, ChiSquareCritical001(df));
}

TEST(ReservoirChiSquareTest, BatchesWithZeroCopies) {
  // Empty batches, all-zero batches and zero rows between 1-8 copy rows,
  // c = 30: a batch that adds nothing changes nothing but its index.
  BatchShapes batches;
  for (int b = 0; b < 20; ++b) {
    batches.push_back({});
    batches.push_back({0, 0, 0});
    std::vector<uint64_t> rows =
        UniformCopies(10, 1, 8, 89 + static_cast<uint64_t>(b));
    rows[3] = 0;
    rows[7] = 0;
    batches.push_back(rows);
  }
  double df = 0.0;
  const double chi = PositionChiSquare(batches, 30, 2'000, 7'000, &df);
  EXPECT_LT(chi, ChiSquareCritical001(df));
}

TEST(ReservoirChiSquareTest, OneBatchFarLargerThanTheReservoir) {
  // One batch of 64 rows of 1e8-2e8 copies, c = 50: M is ~10^10 times c,
  // so the fill ends inside row 0 and almost every slot is refilled from
  // positions past 2^32.
  BatchShapes batches = {UniformCopies(64, 100'000'000, 200'000'000, 91)};
  double df = 0.0;
  const double chi = PositionChiSquare(batches, 50, 1'000, 8'000, &df);
  EXPECT_LT(chi, ChiSquareCritical001(df));
}

}  // namespace
}  // namespace sitstats
