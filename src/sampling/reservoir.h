#ifndef SITSTATS_SAMPLING_RESERVOIR_H_
#define SITSTATS_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace sitstats {

/// One-pass uniform reservoir sampler with skip-ahead replacement
/// (Vitter, [19]).
///
/// Sweep streams the approximated join projection — conceptually "n copies
/// of a_i" per scanned tuple — through one of these (step 4 in Figure 2 of
/// the paper), so the temporary table is never materialized. Once the
/// reservoir is full, the sampler carries the stream position of the next
/// element that replaces a slot. A run that ends before that position
/// costs one add and one compare; each replacement costs a slot draw plus
/// the draw of the next position. The draws depend only on the stream, not
/// on how it is split into Add / AddRepeated calls.
class ReservoirSampler {
 public:
  /// `capacity`: maximum sample size (> 0). `rng` is borrowed and must
  /// outlive the sampler.
  ReservoirSampler(size_t capacity, Rng* rng);

  /// Fallible construction: rejects capacity == 0 or a null rng with a
  /// Status instead of aborting, and carries the sampling layer's
  /// fault-injection site ("sampling.reservoir.create"). Library code that
  /// can propagate errors (the sweep scan) uses this; the constructor
  /// remains for contexts where a violation is a programming error.
  static Result<ReservoirSampler> Create(size_t capacity, Rng* rng);

  /// Offers one stream element.
  void Add(double value) { AddRepeated(value, 1); }

  /// Offers `count` consecutive copies of `value`: draw-for-draw identical
  /// to calling Add(value) `count` times.
  void AddRepeated(double value, uint64_t count);

  /// Number of stream elements offered so far.
  uint64_t stream_size() const { return stream_size_; }

  /// The current sample (size = min(capacity, stream_size)).
  const std::vector<double>& sample() const { return sample_; }
  size_t capacity() const { return capacity_; }

 private:
  /// Draws the 1-based stream position of the first element after
  /// position `t` (>= capacity) that replaces a slot.
  uint64_t NextReplacement(uint64_t t);

  size_t capacity_;
  Rng* rng_;
  std::vector<double> sample_;
  uint64_t stream_size_ = 0;
  /// Position of the next replacing element; 0 until the stream first
  /// passes the capacity.
  uint64_t next_replace_ = 0;
};

}  // namespace sitstats

#endif  // SITSTATS_SAMPLING_RESERVOIR_H_
