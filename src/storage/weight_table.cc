#include "storage/weight_table.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/radix_sort.h"

namespace sitstats {

namespace {

// The OrderedKey of a NaN, so never the key of a stored tuple: it marks an
// empty slot. Empty slots keep a weight of +0.0, so a probe that ends on
// one reads the "absent" weight without a second test.
constexpr uint64_t kEmpty = ~uint64_t{0};
constexpr uint64_t kZeroBits = 0;  // std::bit_cast<uint64_t>(0.0)

// 2^53: every integer of smaller magnitude is a double, and so are its
// neighbours, so the dense layout's integer arithmetic is exact.
constexpr double kDenseLimit = 9007199254740992.0;

// The murmur3 64-bit finalizer: the keys of integral doubles differ only
// in their high bits, and the table indexes by the low ones.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

uint64_t Hash(const uint64_t* keys, size_t width) {
  uint64_t h = 0;
  for (size_t c = 0; c < width; ++c) h = Mix(h ^ keys[c]);
  return h;
}

}  // namespace

size_t WeightTable::Probe(const uint64_t* keys) const {
  size_t i = Hash(keys, width_) & mask_;
  while (true) {
    const uint64_t* slot = &slots_[i * stride()];
    if (slot[0] == kEmpty || std::equal(keys, keys + width_, slot)) return i;
    i = (i + 1) & mask_;
  }
}

void WeightTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : 2 * (mask_ + 1);
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(capacity * stride(), kEmpty);
  for (size_t i = 0; i < capacity; ++i) {
    slots_[i * stride() + width_] = kZeroBits;
  }
  mask_ = capacity - 1;
  for (size_t at = 0; at < old.size(); at += stride()) {
    if (old[at] == kEmpty) continue;
    const size_t i = Probe(&old[at]);
    std::copy(&old[at], &old[at] + stride(), &slots_[i * stride()]);
  }
}

uint64_t* WeightTable::Insert(const uint64_t* keys) {
  if (slots_.empty() || 2 * (size_ + 1) > mask_ + 1) Grow();
  uint64_t* slot = &slots_[Probe(keys) * stride()];
  if (slot[0] == kEmpty) {
    std::copy(keys, keys + width_, slot);
    ++size_;
  }
  return slot + width_;
}

void WeightTable::SetDenseSpan(int64_t lo, size_t span) {
  std::vector<double> dense(span, 0.0);
  std::vector<uint8_t> present(span, 0);
  for (size_t i = 0; i < present_.size(); ++i) {
    if (present_[i] == 0) continue;
    const size_t to = static_cast<size_t>(lo_ + static_cast<int64_t>(i) - lo);
    dense[to] = dense_[i];
    present[to] = 1;
  }
  dense_ = std::move(dense);
  present_ = std::move(present);
  lo_ = lo;
  lo_value_ = static_cast<double>(lo);
  hi_value_ = static_cast<double>(lo + static_cast<int64_t>(span) - 1);
}

bool WeightTable::FitDense(int64_t key) {
  const int64_t end = lo_ + static_cast<int64_t>(dense_.size());
  if (key >= lo_ && key < end) return true;
  const int64_t lo = dense_.empty() ? key : std::min(lo_, key);
  const int64_t hi = dense_.empty() ? key : std::max(end - 1, key);
  const size_t needed = static_cast<size_t>(hi - lo) + 1;
  const size_t cap =
      std::max(kDenseGrowthFloor, kDenseSpanFactor * (size_ + 1));
  if (needed > cap) return false;
  // Grow by at least doubling, on the new key's side, so keys that arrive
  // in order cost amortised O(1). The span stays inside (-2^53, 2^53), so
  // its ends are exact doubles.
  const int64_t span = static_cast<int64_t>(
      std::min(cap, std::max(needed, 2 * dense_.size())));
  const int64_t limit = static_cast<int64_t>(kDenseLimit) - 1;
  const int64_t new_lo = key < lo_ ? std::max(hi - span + 1, -limit) : lo;
  const int64_t new_hi = key < lo_ ? hi : std::min(lo + span - 1, limit);
  SetDenseSpan(new_lo, static_cast<size_t>(new_hi - new_lo + 1));
  return true;
}

void WeightTable::SpillToHash() {
  hashed_ = true;
  size_ = 0;
  for (size_t i = 0; i < dense_.size(); ++i) {
    if (present_[i] == 0) continue;
    const uint64_t key =
        OrderedKey(static_cast<double>(lo_ + static_cast<int64_t>(i)));
    *Insert(&key) = std::bit_cast<uint64_t>(dense_[i]);
  }
  std::vector<double>().swap(dense_);
  std::vector<uint8_t>().swap(present_);
}

void WeightTable::Add(const double* key, double weight) {
  if (!hashed_) {
    const double k = key[0];
    if (std::isnan(k)) return;
    // Below 2^53 in magnitude the cast is exact, and an integer
    // round-trips.
    const int64_t integer =
        std::fabs(k) < kDenseLimit ? static_cast<int64_t>(k) : 0;
    if (static_cast<double>(integer) == k && FitDense(integer)) {
      const size_t i = static_cast<size_t>(integer - lo_);
      if (present_[i] == 0) {
        present_[i] = 1;
        ++size_;
      }
      dense_[i] += weight;
      return;
    }
    SpillToHash();
  }
  scratch_.resize(width_);
  for (size_t c = 0; c < width_; ++c) {
    if (std::isnan(key[c])) return;
    scratch_[c] = OrderedKey(key[c]);
  }
  uint64_t* weight_bits = Insert(scratch_.data());
  *weight_bits =
      std::bit_cast<uint64_t>(std::bit_cast<double>(*weight_bits) + weight);
}

void WeightTable::Compact() {
  if (hashed_) return;
  // Trim the span to the stored keys, or give it up when they are too
  // sparse for it.
  size_t first = 0;
  size_t last = dense_.size();
  while (first < last && present_[first] == 0) ++first;
  while (last > first && present_[last - 1] == 0) --last;
  if (last - first > kDenseSpanFactor * size_) {
    SpillToHash();
    return;
  }
  SetDenseSpan(lo_ + static_cast<int64_t>(first), last - first);
}

std::vector<std::pair<double, double>> WeightTable::Entries() const {
  SITSTATS_DCHECK_EQ(width_, size_t{1});
  std::vector<std::pair<double, double>> entries;
  entries.reserve(size_);
  if (!hashed_) {
    for (size_t i = 0; i < dense_.size(); ++i) {
      if (present_[i] == 0) continue;
      entries.emplace_back(static_cast<double>(lo_ + static_cast<int64_t>(i)),
                           dense_[i]);
    }
    return entries;
  }
  for (size_t at = 0; at < slots_.size(); at += stride()) {
    if (slots_[at] == kEmpty) continue;
    entries.emplace_back(FromOrderedKey(slots_[at]),
                         std::bit_cast<double>(slots_[at + width_]));
  }
  return entries;
}

void WeightTable::Lookup(const double* const* columns, size_t num_rows,
                         double* out) const {
  if (dense()) {
    const double* y = columns[0];
    for (size_t r = 0; r < num_rows; ++r) {
      const double v = y[r];
      double weight = 0.0;
      // NaN fails the range test; inside it the cast is exact, and an
      // integer that round-trips is a key of the span (-0.0 is key 0).
      if (v >= lo_value_ && v <= hi_value_) {
        const int64_t key = static_cast<int64_t>(v);
        if (static_cast<double>(key) == v) {
          weight = dense_[static_cast<size_t>(key - lo_)];
        }
      }
      out[r] = weight;
    }
    return;
  }
  if (size_ == 0) {
    std::fill(out, out + num_rows, 0.0);
    return;
  }
  // A NaN needs no test here: no stored key is a NaN's, so its probe ends
  // on an empty slot, whose weight is 0.0.
  if (width_ == 1) {
    const double* y = columns[0];
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t key = OrderedKey(y[r]);
      size_t i = Mix(key) & mask_;
      while (slots_[2 * i] != key && slots_[2 * i] != kEmpty) {
        i = (i + 1) & mask_;
      }
      out[r] = std::bit_cast<double>(slots_[2 * i + 1]);
    }
    return;
  }
  std::vector<uint64_t> keys(width_);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < width_; ++c) keys[c] = OrderedKey(columns[c][r]);
    out[r] = std::bit_cast<double>(
        slots_[Probe(keys.data()) * stride() + width_]);
  }
}

}  // namespace sitstats
