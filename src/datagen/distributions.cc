#include "datagen/distributions.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sitstats {

ZipfDistribution::ZipfDistribution(uint64_t domain_size, double z)
    : domain_size_(domain_size), z_(z) {
  SITSTATS_CHECK(domain_size_ > 0) << "zipf domain must be non-empty";
  SITSTATS_CHECK(z_ >= 0.0) << "zipf parameter must be non-negative";
  cdf_.resize(domain_size_);
  double acc = 0.0;
  for (uint64_t k = 1; k <= domain_size_; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), z_);
    cdf_[k - 1] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

int64_t ZipfDistribution::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::Probability(int64_t k) const {
  if (k < 1 || static_cast<uint64_t>(k) > domain_size_) return 0.0;
  size_t idx = static_cast<size_t>(k - 1);
  double prev = idx == 0 ? 0.0 : cdf_[idx - 1];
  return cdf_[idx] - prev;
}

}  // namespace sitstats
