#include "common/radix_sort.h"

#include <array>
#include <cstddef>
#include <utility>

namespace sitstats {

namespace {

constexpr size_t kRadix = 256;

/// Stable LSD radix sort of `items` by a key of `kWords` 64-bit words,
/// `word(item, w)`, w = 0 least significant; one pass per byte. An AND/OR
/// reduction over the keys finds the bytes that are the same in every key,
/// and their passes are skipped. Each pass scatters between `items` and
/// one scratch array and counts the next pass's byte as it goes, so only
/// the first pass needs a counting pass of its own.
template <size_t kWords, typename T, typename Word>
void LsdRadixSort(std::vector<T>* items, Word word) {
  const size_t n = items->size();
  if (n < 2) return;
  std::array<uint64_t, kWords> all_and;
  all_and.fill(~uint64_t{0});
  std::array<uint64_t, kWords> all_or{};
  for (const T& item : *items) {
    for (size_t w = 0; w < kWords; ++w) {
      const uint64_t key = word(item, w);
      all_and[w] &= key;
      all_or[w] |= key;
    }
  }
  // Byte d of the key is byte d % 8 of word d / 8.
  std::array<size_t, 8 * kWords> digits{};
  size_t num_digits = 0;
  for (size_t d = 0; d < 8 * kWords; ++d) {
    const uint64_t varying = all_and[d / 8] ^ all_or[d / 8];
    if (((varying >> (8 * (d % 8))) & 0xff) != 0) digits[num_digits++] = d;
  }
  if (num_digits == 0) return;
  auto digit = [&word](const T& item, size_t d) {
    return static_cast<size_t>((word(item, d / 8) >> (8 * (d % 8))) & 0xff);
  };
  std::array<size_t, kRadix> counts{};
  std::array<size_t, kRadix> next_counts{};
  for (const T& item : *items) ++counts[digit(item, digits[0])];
  std::vector<T> scratch(n);
  T* src = items->data();
  T* dst = scratch.data();
  for (size_t j = 0; j < num_digits; ++j) {
    size_t offset = 0;
    for (size_t& c : counts) {
      const size_t count = c;
      c = offset;
      offset += count;
    }
    const size_t d = digits[j];
    if (j + 1 < num_digits) {
      const size_t next_d = digits[j + 1];
      next_counts.fill(0);
      for (size_t i = 0; i < n; ++i) {
        ++next_counts[digit(src[i], next_d)];
        dst[counts[digit(src[i], d)]++] = src[i];
      }
    } else {
      for (size_t i = 0; i < n; ++i) dst[counts[digit(src[i], d)]++] = src[i];
    }
    counts = next_counts;
    std::swap(src, dst);
  }
  if (src != items->data()) items->swap(scratch);
}

}  // namespace

void RadixSort(std::vector<double>* values) {
  LsdRadixSort<1>(values, [](double v, size_t) { return OrderedKey(v); });
}

void RadixSort(std::vector<std::pair<double, double>>* pairs) {
  LsdRadixSort<2>(pairs, [](const std::pair<double, double>& p, size_t w) {
    return OrderedKey(w == 0 ? p.second : p.first);
  });
}

}  // namespace sitstats
