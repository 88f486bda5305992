#ifndef SITSTATS_SAMPLING_RESERVOIR_H_
#define SITSTATS_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace sitstats {

/// One-pass uniform reservoir sampler that takes its stream a batch at a
/// time.
///
/// Sweep streams the approximated join projection — conceptually "n copies
/// of a_i" per scanned tuple — through one of these (step 4 in Figure 2 of
/// the paper), so the temporary table is never materialized. A batch is a
/// list of (value, copies) rows. After the first `capacity` copies fill the
/// reservoir, each batch of M copies is merged with one hypergeometric draw
/// K ~ Hypergeometric(c; M; t + M), where t copies came before it: K
/// uniformly chosen slots are evicted (partial Fisher–Yates, in place) and
/// refilled with K distinct copy positions drawn uniformly from the batch,
/// each mapped to its row through the batch's prefix sums and a cutpoint
/// guide table. The sample stays a uniform c-subset of the stream without
/// replacement, the law per-copy reservoir sampling (Vitter's Algorithm R,
/// [19]) gives; the draws differ from it (DESIGN.md note 2).
///
/// Draws are counter-keyed, not sequential: batch b's merge draws from
/// SplitMix64(SplitMix64At(~key, b)), so a merge depends only on
/// (sample, stream size, key, b). SplitMix64At(key, i) is left to the
/// caller's own position-keyed draws (the sweep's rounding, by row).
class ReservoirSampler {
 public:
  /// `capacity`: maximum sample size (> 0). `key` seeds every draw.
  ReservoirSampler(size_t capacity, uint64_t key);

  /// Takes the key from one NextUint64() of `rng`, at the first merge that
  /// draws, so a stream that fits in the reservoir leaves `rng` untouched.
  /// `rng` is borrowed and must outlive the sampler.
  ReservoirSampler(size_t capacity, Rng* rng);

  /// Fallible construction: rejects capacity == 0 with a Status instead of
  /// aborting, and carries the sampling layer's fault-injection site
  /// ("sampling.reservoir.create"). Library code that can propagate errors
  /// (the sweep scan) uses this; the constructors remain for contexts where
  /// a violation is a programming error.
  static Result<ReservoirSampler> Create(size_t capacity, uint64_t key);

  /// Offers one stream element.
  void Add(double value) { AddRepeated(value, 1); }

  /// Offers `count` consecutive copies of `value`: a one-row batch.
  void AddRepeated(double value, uint64_t count) {
    MergeBatch(std::span<const double>(&value, 1),
               std::span<const uint64_t>(&count, 1));
  }

  /// Offers one batch: `copies[r]` consecutive copies of `values[r]`, row
  /// after row (equal lengths). Scratch is O(rows + capacity), reused
  /// across batches.
  void MergeBatch(std::span<const double> values,
                  std::span<const uint64_t> copies);

  /// Number of stream elements offered so far.
  uint64_t stream_size() const { return stream_size_; }

  /// Slots refilled by merges so far: the sum of every batch's K (the
  /// copies that filled the reservoir are not counted).
  uint64_t slots_merged() const { return slots_merged_; }

  /// The current sample (size = min(capacity, stream_size)), in no
  /// particular order.
  const std::vector<double>& sample() const { return sample_; }
  size_t capacity() const { return capacity_; }

 private:
  uint64_t key();

  size_t capacity_;
  /// Source of the key until it is drawn; null once key_ holds it.
  Rng* rng_ = nullptr;
  uint64_t key_ = 0;
  std::vector<double> sample_;
  uint64_t stream_size_ = 0;
  uint64_t batches_ = 0;
  uint64_t slots_merged_ = 0;
  /// One batch's prefix sums of copies, its guide table and the set of
  /// positions drawn so far.
  std::vector<uint64_t> prefix_;
  std::vector<size_t> guide_;
  std::vector<uint64_t> positions_;
};

}  // namespace sitstats

#endif  // SITSTATS_SAMPLING_RESERVOIR_H_
