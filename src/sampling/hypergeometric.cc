#include "sampling/hypergeometric.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"

namespace sitstats {

namespace {

constexpr uint64_t kTabulated = 16;

/// ln(k!) for k <= kTabulated.
double LogFactorialSmall(uint64_t k) {
  static const std::array<double, kTabulated + 1> kTable = [] {
    std::array<double, kTabulated + 1> table{};
    for (uint64_t i = 1; i <= kTabulated; ++i) {
      table[i] = table[i - 1] + std::log(static_cast<double>(i));
    }
    return table;
  }();
  return kTable[k];
}

/// Stirling's series for lgamma(z) past its leading terms:
/// lgamma(z) = (z - 1/2) ln z - z + ln(2 pi) / 2 + StirlingTail(z). The
/// first omitted term is below 2e-12 for z >= kTabulated + 1.
double StirlingTail(double z) {
  const double r = 1.0 / z;
  const double r2 = r * r;
  return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0));
}

/// ln(a!) - ln(b!). Past the table it is one difference of Stirling
/// expansions, (x - 1/2) log1p(d / x) + d (ln y - 1) + tails with
/// x = b + 1, y = a + 1, d = a - b, so two nearby huge arguments (10^16,
/// where lgamma's own rounding exceeds the difference) lose nothing to
/// cancellation. Calls no lgamma, which writes the global signgam.
double LogFactorialRatio(uint64_t a, uint64_t b) {
  if (a < b) return -LogFactorialRatio(b, a);
  if (a <= kTabulated) return LogFactorialSmall(a) - LogFactorialSmall(b);
  if (b < kTabulated) {
    return LogFactorialRatio(a, kTabulated) + LogFactorialSmall(kTabulated) -
           LogFactorialSmall(b);
  }
  if (a == b) return 0.0;
  const double x = static_cast<double>(b) + 1.0;
  const double y = static_cast<double>(a) + 1.0;
  const double d = static_cast<double>(a - b);
  return (x - 0.5) * std::log1p(d / x) + d * (std::log(y) - 1.0) +
         StirlingTail(y) - StirlingTail(x);
}

// Both samplers below take reduced parameters: `s` successes and `m`
// draws, each at most half of the population `n`.

/// Inversion from zero: walks the pmf up from f(0) by its recurrence.
/// Expected steps are about the mean.
uint64_t SampleByInversion(uint64_t s, uint64_t m, uint64_t n,
                           SplitMix64* stream) {
  const uint64_t failures = n - s;
  // f(0) = C(failures, m) / C(n, m), the chance of no success.
  const double p0 = std::exp(LogFactorialRatio(failures, failures - m) -
                             LogFactorialRatio(n, n - m));
  const uint64_t top = std::min(s, m);
  for (;;) {
    double u = stream->NextDouble();
    double p = p0;
    for (uint64_t k = 0;; ++k) {
      if (u < p) return k;
      if (k == top) break;  // rounding left mass past the support: redraw
      u -= p;
      p *= static_cast<double>(s - k) * static_cast<double>(m - k) /
           (static_cast<double>(k + 1) *
            static_cast<double>(failures - m + k + 1));
    }
  }
}

/// Stadlober's HRUA: ratio of uniforms around the mean under a table
/// mountain hat, with the pmf ratio f(z) / f(mode) as the exact test.
uint64_t SampleByRatioOfUniforms(uint64_t s, uint64_t m, uint64_t n,
                                 SplitMix64* stream) {
  constexpr double kD1 = 1.7155277699214135;  // 2 sqrt(2 / e)
  constexpr double kD2 = 0.8989161620588988;  // 3 - 2 sqrt(3 / e)
  const uint64_t failures = n - s;
  const double nd = static_cast<double>(n);
  const double p = static_cast<double>(s) / nd;
  const double center = static_cast<double>(m) * p + 0.5;
  const double sigma = std::sqrt(static_cast<double>(n - m) *
                                     static_cast<double>(m) * p * (1.0 - p) /
                                     (nd - 1.0) +
                                 0.5);
  const double width = kD1 * sigma + kD2;
  // floor((m + 1)(s + 1) / (n + 2)) in integers: a double product past
  // 2^53 could round the mode off by one.
  const uint64_t mode = static_cast<uint64_t>(
      static_cast<unsigned __int128>(m + 1) * (s + 1) /
      (static_cast<unsigned __int128>(n) + 2));
  const double bound =
      std::min(static_cast<double>(std::min(m, s)) + 1.0,
               std::floor(center + 16.0 * sigma));
  for (;;) {
    const double x = 1.0 - stream->NextDouble();  // (0, 1]
    const double y = stream->NextDouble();
    const double w = center + width * (y - 0.5) / x;
    if (!(w >= 0.0 && w < bound)) continue;
    const uint64_t z = static_cast<uint64_t>(w);
    // ln f(z) - ln f(mode).
    const double t = LogFactorialRatio(mode, z) +
                     LogFactorialRatio(s - mode, s - z) +
                     LogFactorialRatio(m - mode, m - z) +
                     LogFactorialRatio(failures - m + mode,
                                       failures - m + z);
    if (x * (4.0 - x) - 3.0 <= t) return z;  // quick accept
    if (x * (x - t) >= 1.0) continue;        // quick reject
    if (2.0 * std::log(x) <= t) return z;
  }
}

}  // namespace

uint64_t SampleHypergeometric(uint64_t draws, uint64_t successes,
                              uint64_t population, SplitMix64* stream) {
  SITSTATS_DCHECK(draws <= population && successes <= population);
  // Reduce to at most half the population on both sides: count the rarer
  // kind among the smaller of the draws and their complement, then map
  // back.
  const uint64_t failures = population - successes;
  const uint64_t s = std::min(successes, failures);
  const uint64_t m = std::min(draws, population - draws);
  uint64_t k = 0;
  if (s > 0 && m > 0) {
    const double mean = static_cast<double>(m) * static_cast<double>(s) /
                        static_cast<double>(population);
    k = mean < 10.0 ? SampleByInversion(s, m, population, stream)
                    : SampleByRatioOfUniforms(s, m, population, stream);
  }
  if (successes > failures) k = m - k;
  if (m < draws) k = successes - k;
  return k;
}

}  // namespace sitstats
