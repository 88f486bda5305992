#ifndef SITSTATS_STORAGE_WEIGHT_TABLE_H_
#define SITSTATS_STORAGE_WEIGHT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sitstats {

class Column;

/// Exact key -> weight table: the one lookup structure behind the
/// catalog's key-count indexes (CountKeys in storage/catalog.h), the exact
/// m-Oracles and the sweep's weighted accumulators (DESIGN.md note 15).
///
/// A key is a tuple of width() doubles, and two tuples are one key when
/// their components compare equal under `==`: -0.0 and +0.0 are one key,
/// and a tuple holding a NaN is never stored and never matches. A key is
/// stored iff its summed weight is positive: Add() ignores a weight that
/// is not.
///
/// Two layouts answer a lookup with one probe:
///  - dense: one weight per integer of a span [lo, lo + n), for one-column
///    keys that are all integers of magnitude below 2^53;
///  - hash: open addressing with linear probing (load at most 1/2) on the
///    components' OrderedKey bits, for everything else.
/// The layout follows the key set, never the order keys arrive in:
/// ForColumn() lays an empty table out for a column's keys, Compact() a
/// complete one for the keys it holds, and a dense table never grows (a
/// key outside its span moves it to the hash). A key's weight is the
/// left-to-right sum of its Add() weights; a layout change moves weights,
/// never re-sums them. Composite (width > 1) tables are always hashed.
class WeightTable {
 public:
  /// Largest dense span, as a multiple of the number of keys (Compact) or
  /// of the column's rows (ForColumn).
  static constexpr size_t kDenseSpanFactor = 4;

  /// An empty table, hashed until Compact() says otherwise.
  explicit WeightTable(size_t width = 1) : width_(width) {}

  /// An empty one-column table laid out for the keys of `column`, read
  /// once: dense over [min, max] when every non-NaN value is an integer of
  /// magnitude below 2^53 and the span is at most kDenseSpanFactor x the
  /// column's rows, hashed otherwise (string columns included).
  static WeightTable ForColumn(const Column& column);

  size_t width() const { return width_; }
  /// Number of distinct keys.
  size_t size() const { return size_; }
  bool dense() const { return !dense_.empty(); }

  /// Adds `weight` to the key tuple `key[0..width())`, whose entry starts
  /// at 0.0. Ignored when a component is NaN or the weight is not
  /// positive.
  void Add(const double* key, double weight);
  void Add(double key, double weight) { Add(&key, weight); }

  /// Lays a complete one-column table out for the keys it holds: dense
  /// when they are integers spanning at most kDenseSpanFactor x their
  /// count, hashed otherwise. A composite table is left as it is.
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
  // The index of `key` in the dense span, or dense_.size().
  size_t DenseIndex(double key) const;
  // Calls fn(key, weight) for every entry of a one-column table.
  template <typename Fn>
  void ForEachEntry(Fn fn) const;
  // Moves every entry of a one-column table into the dense span
  // [lo, lo + span), which holds its keys, or into the hash when `span` is
  // 0.
  void Relayout(int64_t lo, size_t span);

  size_t width_;
  size_t size_ = 0;
  std::vector<uint64_t> scratch_;  // Add()'s key words
  // Hash layout.
  size_t mask_ = 0;              // capacity - 1; capacity is a power of 2
  std::vector<uint64_t> slots_;  // empty until the first insert
  // Dense layout, when dense_ is not empty: dense_[k - lo_] is the weight
  // of integer key k, and a positive weight marks a stored key.
  std::vector<double> dense_;
  int64_t lo_ = 0;
  double lo_value_ = 0.0;  // the span as doubles, for the range tests
  double hi_value_ = -1.0;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_WEIGHT_TABLE_H_
