#include "storage/weight_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "storage/column.h"

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

// The span [lo, hi] of keys that are all integers of magnitude below 2^53,
// where the cast is exact and an integer round-trips (-0.0 is key 0).
struct KeySpan {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();

  // False when `v` is no such integer.
  bool Take(double v) {
    if (!(std::fabs(v) < kDenseLimit)) return false;
    const int64_t key = static_cast<int64_t>(v);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
    return static_cast<double>(key) == v;
  }
  // hi - lo + 1 when there are keys spanning at most `limit` integers, or
  // 0.
  size_t DenseSpan(size_t limit) const {
    return lo <= hi && static_cast<uint64_t>(hi - lo) < limit
               ? static_cast<size_t>(hi - lo) + 1
               : 0;
  }
};

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

size_t WeightTable::DenseIndex(double key) const {
  // NaN fails the range test; inside it the cast is exact (see KeySpan).
  if (key >= lo_value_ && key <= hi_value_) {
    const int64_t integer = static_cast<int64_t>(key);
    if (static_cast<double>(integer) == key) {
      return static_cast<size_t>(integer - lo_);
    }
  }
  return dense_.size();
}

template <typename Fn>
void WeightTable::ForEachEntry(Fn fn) const {
  for (size_t i = 0; i < dense_.size(); ++i) {
    if (dense_[i] != 0.0) {
      fn(static_cast<double>(lo_ + static_cast<int64_t>(i)), dense_[i]);
    }
  }
  for (size_t at = 0; at < slots_.size(); at += 2) {
    if (slots_[at] == kEmpty) continue;
    fn(FromOrderedKey(slots_[at]), std::bit_cast<double>(slots_[at + 1]));
  }
}

void WeightTable::Relayout(int64_t lo, size_t span) {
  if (span == dense_.size() && (span == 0 || lo == lo_)) return;
  const WeightTable old = std::move(*this);
  *this = WeightTable();
  if (span > 0) {
    dense_.assign(span, 0.0);
    lo_ = lo;
    // The span lies inside (-2^53, 2^53), so its ends are exact doubles.
    lo_value_ = static_cast<double>(lo);
    hi_value_ = static_cast<double>(lo + static_cast<int64_t>(span) - 1);
  }
  old.ForEachEntry([this](double key, double weight) {
    if (!dense()) {
      const uint64_t bits = OrderedKey(key);
      *Insert(&bits) = std::bit_cast<uint64_t>(weight);
      return;
    }
    dense_[DenseIndex(key)] = weight;
    ++size_;
  });
}

WeightTable WeightTable::ForColumn(const Column& column) {
  KeySpan keys;
  // Stops at the first value that is neither NaN nor such an integer; an
  // int64 of magnitude 2^53 or more widens to a double that large.
  auto take_all = [&keys](auto values) {
    for (const auto value : values) {
      const double v = static_cast<double>(value);
      if (!std::isnan(v) && !keys.Take(v)) return false;
    }
    return true;
  };
  const bool integral =
      column.type() == ValueType::kInt64    ? take_all(column.int64_data())
      : column.type() == ValueType::kDouble ? take_all(column.double_data())
                                            : false;
  WeightTable table;
  if (integral) {
    table.Relayout(keys.lo, keys.DenseSpan(kDenseSpanFactor * column.size()));
  }
  return table;
}

void WeightTable::Add(const double* key, double weight) {
  if (!(weight > 0.0)) return;
  if (dense()) {
    const size_t i = DenseIndex(key[0]);
    if (i < dense_.size()) {
      size_ += dense_[i] == 0.0;
      dense_[i] += weight;
      return;
    }
    if (std::isnan(key[0])) return;
    // A key the table was not laid out for.
    Relayout(0, 0);
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
  if (width_ > 1) return;
  KeySpan keys;
  bool integral = true;
  ForEachEntry([&](double key, double) {
    integral = integral && keys.Take(key);
  });
  Relayout(keys.lo, integral ? keys.DenseSpan(kDenseSpanFactor * size_) : 0);
}

std::vector<std::pair<double, double>> WeightTable::Entries() const {
  SITSTATS_DCHECK_EQ(width_, size_t{1});
  std::vector<std::pair<double, double>> entries;
  entries.reserve(size_);
  ForEachEntry([&entries](double key, double weight) {
    entries.emplace_back(key, weight);
  });
  return entries;
}

void WeightTable::Lookup(const double* const* columns, size_t num_rows,
                         double* out) const {
  if (dense()) {
    const double* y = columns[0];
    for (size_t r = 0; r < num_rows; ++r) {
      const size_t i = DenseIndex(y[r]);
      out[r] = i < dense_.size() ? dense_[i] : 0.0;
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
