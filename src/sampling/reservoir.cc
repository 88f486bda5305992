#include "sampling/reservoir.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace sitstats {

ReservoirSampler::ReservoirSampler(size_t capacity, Rng* rng)
    : capacity_(capacity), rng_(rng) {
  SITSTATS_CHECK(capacity_ > 0) << "reservoir capacity must be positive";
  SITSTATS_CHECK(rng_ != nullptr);
  sample_.reserve(capacity_);
}

Result<ReservoirSampler> ReservoirSampler::Create(size_t capacity,
                                                  Rng* rng) {
  SITSTATS_FAULT_SITE("sampling.reservoir.create");
  if (capacity == 0) {
    return Status::InvalidArgument("reservoir capacity must be positive");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("reservoir sampler needs a random stream");
  }
  // The constructor reserves the full reservoir up front; model that
  // reservation failing before committing to it.
  SITSTATS_OOM_SITE("oom.sampling.reservoir", capacity * sizeof(double));
  return ReservoirSampler(capacity, rng);
}

void ReservoirSampler::AddRepeated(double value, uint64_t count) {
  // Fill phase: the first `capacity` elements are kept without a draw.
  if (sample_.size() < capacity_) {
    const uint64_t take = std::min<uint64_t>(count, capacity_ - sample_.size());
    sample_.insert(sample_.end(), static_cast<size_t>(take), value);
    stream_size_ += take;
    count -= take;
    if (count == 0) return;
  }
  if (next_replace_ == 0) next_replace_ = NextReplacement(stream_size_);
  const uint64_t end = stream_size_ + count;
  while (next_replace_ <= end) {
    const int64_t slot =
        rng_->UniformInt(0, static_cast<int64_t>(capacity_) - 1);
    sample_[static_cast<size_t>(slot)] = value;
    next_replace_ = NextReplacement(next_replace_);
  }
  stream_size_ = end;
}

uint64_t ReservoirSampler::NextReplacement(uint64_t t) {
  // Element i replaces a slot with probability c/i, so the chance that
  // none of positions t+1 .. t+s does is
  //   Q(s) = prod_{i=t+1}^{t+s} (1 - c/i),
  // and the next replacement is at t + S for the smallest S with
  // Q(S) < u, u ~ U(0,1). Expected replacements over a run of n elements
  // are c * ln((t+n)/t), independent of n's magnitude.
  const double c = static_cast<double>(capacity_);
  double u = rng_->NextDouble();
  if (u <= 0.0) u = 1e-300;  // keeps the log below finite
  // Below 64c, multiply the product out (Vitter's Algorithm X): exact, and
  // about t/c multiplies per draw.
  const uint64_t closed_form_from = 64 * static_cast<uint64_t>(capacity_);
  double q = 1.0;
  while (t < closed_form_from) {
    ++t;
    q *= 1.0 - c / static_cast<double>(t);
    if (q < u) return t;
  }
  // From 64c on, where the product would cost t/c multiplies per draw,
  // invert the continuous approximation
  //   Q(s) = ((t-c+.5) / (t+s-c+.5))^c                   (error O(c/t))
  // in closed form, for the threshold left after surviving the product.
  // Skips past 2^63 saturate to a position no stream reaches.
  const double log_u = std::log(u / q);
  const double s_real = (static_cast<double>(t) - c + 0.5) *
                        std::expm1(-log_u / c);
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  if (!(s_real < 0x1p63)) return kNever;
  const uint64_t s = static_cast<uint64_t>(s_real) + 1;
  return s > kNever - t ? kNever : t + s;
}

}  // namespace sitstats
