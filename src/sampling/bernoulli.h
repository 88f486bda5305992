#ifndef SITSTATS_SAMPLING_BERNOULLI_H_
#define SITSTATS_SAMPLING_BERNOULLI_H_

#include <vector>

#include "common/rng.h"

namespace sitstats {

/// Row-level Bernoulli sampling: each element of `values` is kept
/// independently with probability `rate`. Used to build approximate
/// base-table histograms (the "sampling assumption" context).
///
/// Rate boundaries match SampleSize's [0, num_rows] clamp: rate <= 0,
/// denormals that round to nothing, and NaN keep no elements; rate >= 1
/// keeps everything (and consumes no randomness).
std::vector<double> BernoulliSample(const std::vector<double>& values,
                                    double rate, Rng* rng);

}  // namespace sitstats

#endif  // SITSTATS_SAMPLING_BERNOULLI_H_
