#ifndef SITSTATS_DATAGEN_DISTRIBUTIONS_H_
#define SITSTATS_DATAGEN_DISTRIBUTIONS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace sitstats {

/// Zipf distribution over the integer domain {1, ..., domain_size} with
/// P(k) proportional to 1/k^z. z = 0 degenerates to uniform; the paper's
/// experiments use z between 0.1 and 1. Sampling is inverse-CDF with
/// binary search over a precomputed cumulative table (O(log n) per draw).
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t domain_size, double z);

  /// One draw in [1, domain_size].
  int64_t Sample(Rng* rng) const;

  uint64_t domain_size() const { return domain_size_; }
  double z() const { return z_; }

  /// Exact probability of value k (1-based).
  double Probability(int64_t k) const;

 private:
  uint64_t domain_size_;
  double z_;
  std::vector<double> cdf_;
};

}  // namespace sitstats

#endif  // SITSTATS_DATAGEN_DISTRIBUTIONS_H_
