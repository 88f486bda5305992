#ifndef SITSTATS_COMMON_RADIX_SORT_H_
#define SITSTATS_COMMON_RADIX_SORT_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace sitstats {

/// Maps a double to a 64-bit key whose unsigned order is the double's
/// numeric order: the sign bit is flipped for positive values and every
/// bit is inverted for negative ones. -0.0 is first folded into +0.0
/// (`v + 0.0` is +0.0 for either zero and `v` for anything else), so the
/// two zeros share one key just as they compare equal under `==`.
/// Non-finite values get keys too (±inf at the ends, NaNs beyond them);
/// callers that must not see them reject them before sorting.
inline uint64_t OrderedKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v + 0.0);
  const uint64_t sign = bits >> 63;
  return bits ^ ((uint64_t{0} - sign) | (uint64_t{1} << 63));
}

/// The double whose OrderedKey is `key`: the inverse of OrderedKey, except
/// that a zero comes back as +0.0.
inline double FromOrderedKey(uint64_t key) {
  const uint64_t positive = key >> 63;
  return std::bit_cast<double>(
      key ^ (positive != 0 ? uint64_t{1} << 63 : ~uint64_t{0}));
}

// Stable LSD radix sorts on OrderedKey, one byte per pass, ascending.
// Keys are computed on the fly, so the only allocation is one scratch
// array the size of the input, held for the duration of the call. A pass
// whose byte is the same in every key is skipped: integers or a narrow
// value range cost a few passes, and an input of equal keys allocates
// nothing.

/// Sorts `values` numerically; -0.0 and +0.0 tie.
void RadixSort(std::vector<double>* values);

/// Sorts (value, weight) pairs by (OrderedKey(value), OrderedKey(weight)):
/// the order std::sort gives the pairs, up to the order of tied zeros.
void RadixSort(std::vector<std::pair<double, double>>* pairs);

}  // namespace sitstats

#endif  // SITSTATS_COMMON_RADIX_SORT_H_
