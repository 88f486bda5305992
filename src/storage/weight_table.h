#ifndef SITSTATS_STORAGE_WEIGHT_TABLE_H_
#define SITSTATS_STORAGE_WEIGHT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sitstats {

/// Exact key -> weight table: the one lookup structure behind the
/// catalog's key-count indexes (CountKeys in storage/catalog.h), the exact
/// m-Oracles and the sweep's exact-map accumulator (DESIGN.md note 15).
///
/// A key is a tuple of width() doubles, and two tuples are one key when
/// their components compare equal under `==`: -0.0 and +0.0 are one key,
/// and a tuple holding a NaN is never stored and never matches.
///
/// Two layouts answer a lookup with one probe:
///  - dense: one weight per integer of a span [lo, lo + n), for one-column
///    keys that are all integers of magnitude below 2^53;
///  - hash: open addressing with linear probing (load at most 1/2) on the
///    components' OrderedKey bits, for everything else.
/// A one-column table accumulates densely while its keys allow it and
/// their span stays within max(kDenseGrowthFloor, kDenseSpanFactor x the
/// key count), and moves to the hash layout, for good, once they do not.
/// Compact() trims a dense span to the stored keys, or moves the table to
/// the hash layout when they span more than kDenseSpanFactor x their
/// count. A key's weight is the left-to-right sum of its Add() weights; a
/// layout change moves weights, never re-sums them.
class WeightTable {
 public:
  /// Largest final dense span, as a multiple of the number of keys.
  static constexpr size_t kDenseSpanFactor = 4;
  /// Span a dense accumulator may reach whatever its key count.
  static constexpr size_t kDenseGrowthFloor = size_t{1} << 16;

  explicit WeightTable(size_t width = 1) : width_(width), hashed_(width > 1) {}

  size_t width() const { return width_; }
  /// Number of distinct keys.
  size_t size() const { return size_; }
  bool dense() const { return !hashed_ && !dense_.empty(); }

  /// Adds `weight` to the key tuple `key[0..width())`, whose entry starts
  /// at 0.0. Ignored when a component is NaN.
  void Add(const double* key, double weight);
  void Add(double key, double weight) { Add(&key, weight); }

  /// Trims a dense span to the stored keys, or moves the table to the hash
  /// layout when they are too sparse for it (see the class comment): what
  /// a one-column oracle calls once the table is complete. A hashed table,
  /// composite ones included, is left as it is.
  void Compact();

  /// Every (key, weight) entry of a one-column table, in no particular
  /// order; -0.0 comes back as +0.0.
  std::vector<std::pair<double, double>> Entries() const;

  /// out[r] = the weight of row r's key tuple (columns[c][r] for c below
  /// width()), or 0.0 when the tuple is absent.
  void Lookup(const double* const* columns, size_t num_rows,
              double* out) const;

 private:
  // Slot layout of `slots_`: width() key words, then the weight's bits.
  size_t stride() const { return width_ + 1; }
  // Index of the slot holding `keys`, or of the empty slot ending its
  // probe sequence.
  size_t Probe(const uint64_t* keys) const;
  // The weight word of the slot for `keys`, inserting the key if absent.
  uint64_t* Insert(const uint64_t* keys);
  void Grow();
  // Makes room in the dense span for integer `key`; false when the span
  // would outgrow its cap.
  bool FitDense(int64_t key);
  void SetDenseSpan(int64_t lo, size_t span);
  // Moves every dense entry into the hash layout.
  void SpillToHash();

  size_t width_;
  size_t size_ = 0;
  bool hashed_;  // the hash layout holds the entries
  std::vector<uint64_t> scratch_;  // Add()'s key words
  // Hash layout.
  size_t mask_ = 0;              // capacity - 1; capacity is a power of 2
  std::vector<uint64_t> slots_;  // empty until the first insert
  // Dense layout: dense_[k - lo_] is the weight of integer key k, and
  // present_ marks the stored keys.
  std::vector<double> dense_;
  std::vector<uint8_t> present_;
  int64_t lo_ = 0;
  double lo_value_ = 0.0;  // the span as doubles, for the lookup's range
  double hi_value_ = -1.0;  // test (empty: nothing passes)
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_WEIGHT_TABLE_H_
