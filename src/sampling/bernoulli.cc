#include "sampling/bernoulli.h"

namespace sitstats {

std::vector<double> BernoulliSample(const std::vector<double>& values,
                                    double rate, Rng* rng) {
  // `!(rate > 0.0)` rather than `rate <= 0.0`: a NaN rate fails both
  // orderings, so the latter would fall through to the reserve below and
  // compute `size * NaN` — casting that to size_t is undefined behavior.
  // NaN keeps nothing, matching SampleSize's [0, num_rows] clamp (rate=0
  // and NaN both clamp to an empty sample there).
  if (!(rate > 0.0)) return {};
  if (rate >= 1.0) return values;
  std::vector<double> out;
  out.reserve(static_cast<size_t>(static_cast<double>(values.size()) * rate) +
              16);
  for (double v : values) {
    if (rng->Bernoulli(rate)) out.push_back(v);
  }
  return out;
}

}  // namespace sitstats
