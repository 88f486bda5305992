#include "sampling/reservoir.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "sampling/hypergeometric.h"

namespace sitstats {

ReservoirSampler::ReservoirSampler(size_t capacity, uint64_t key)
    : capacity_(capacity), key_(key) {
  SITSTATS_CHECK(capacity_ > 0) << "reservoir capacity must be positive";
  sample_.reserve(capacity_);
}

ReservoirSampler::ReservoirSampler(size_t capacity, Rng* rng)
    : ReservoirSampler(capacity, uint64_t{0}) {
  SITSTATS_CHECK(rng != nullptr);
  rng_ = rng;
}

Result<ReservoirSampler> ReservoirSampler::Create(size_t capacity,
                                                  uint64_t key) {
  SITSTATS_FAULT_SITE("sampling.reservoir.create");
  if (capacity == 0) {
    return Status::InvalidArgument("reservoir capacity must be positive");
  }
  // The constructor reserves the full reservoir up front; model that
  // reservation failing before committing to it.
  SITSTATS_OOM_SITE("oom.sampling.reservoir", capacity * sizeof(double));
  return ReservoirSampler(capacity, key);
}

uint64_t ReservoirSampler::key() {
  if (rng_ != nullptr) {
    key_ = rng_->NextUint64();
    rng_ = nullptr;
  }
  return key_;
}

void ReservoirSampler::MergeBatch(std::span<const double> values,
                                  std::span<const uint64_t> copies) {
  SITSTATS_DCHECK(values.size() == copies.size());
  const uint64_t batch = batches_++;
  const size_t rows = copies.size();
  prefix_.resize(rows + 1);
  prefix_[0] = 0;
  for (size_t r = 0; r < rows; ++r) prefix_[r + 1] = prefix_[r] + copies[r];
  const uint64_t total = prefix_[rows];

  // Fill phase: the first `capacity` copies of the stream are kept
  // without a draw.
  const uint64_t fill =
      std::min<uint64_t>(total, capacity_ - sample_.size());
  for (uint64_t r = 0, kept = 0; kept < fill; ++r) {
    const uint64_t take = std::min(copies[r], fill - kept);
    sample_.insert(sample_.end(), static_cast<size_t>(take), values[r]);
    kept += take;
  }
  stream_size_ += fill;
  // The batch's positions [fill, total) merge into the full reservoir: K
  // of its c slots hold batch copies in a uniform c-sample of the t + M
  // copies so far.
  const uint64_t rest = total - fill;
  if (rest == 0) return;
  SplitMix64 stream(SplitMix64At(~key(), batch));
  const uint64_t k =
      SampleHypergeometric(capacity_, rest, stream_size_ + rest, &stream);
  stream_size_ += rest;
  slots_merged_ += k;
  // Partial Fisher–Yates: slots [0, k) become a uniform k-subset, evicted.
  for (size_t i = 0; i < k; ++i) {
    std::swap(sample_[i], sample_[i + stream.Below(capacity_ - i)]);
  }
  if (rows == 1) {
    std::fill_n(sample_.begin(), k, values[0]);
    return;
  }
  // K distinct positions by rejection, each mapped to its row by a guide
  // table (Chen and Asau): bucket g covers positions
  // [g << shift, (g + 1) << shift) and holds the row of its first
  // position, so a lookup walks a couple of rows on average, with no sort
  // and no binary search. Rejection costs rest * ln(rest / (rest - K))
  // draws, under 1.4 K while K <= rest / 2, which holds once the stream
  // is twice the capacity; K near rest needs rest << c, so even then the
  // cost is O(c log c) per scan.
  unsigned shift = 0;
  while (((total - 1) >> shift) >= rows) ++shift;
  guide_.resize(static_cast<size_t>((total - 1) >> shift) + 1);
  for (size_t g = 0, row = 0; g < guide_.size(); ++g) {
    while (prefix_[row + 1] <= (static_cast<uint64_t>(g) << shift)) ++row;
    guide_[g] = row;
  }
  // Open addressing over 2K slots (load 1/2) rejects repeated positions.
  constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();
  const uint64_t slots = 2 * k;
  positions_.assign(static_cast<size_t>(slots), kEmpty);
  for (size_t filled = 0; filled < k;) {
    const uint64_t p = fill + stream.Below(rest);
    size_t h = static_cast<size_t>(
        static_cast<unsigned __int128>(p * kSplitMix64Gamma) * slots >> 64);
    while (positions_[h] != kEmpty && positions_[h] != p) {
      if (++h == slots) h = 0;
    }
    if (positions_[h] == p) continue;
    positions_[h] = p;
    size_t row = guide_[static_cast<size_t>(p >> shift)];
    while (prefix_[row + 1] <= p) ++row;
    sample_[filled++] = values[row];
  }
}

}  // namespace sitstats
