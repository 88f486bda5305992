#ifndef SITSTATS_SAMPLING_HYPERGEOMETRIC_H_
#define SITSTATS_SAMPLING_HYPERGEOMETRIC_H_

#include <cstdint>

#include "common/rng.h"

namespace sitstats {

/// Draws the number of successes among `draws` items taken without
/// replacement from `population` items, `successes` of which are
/// successes: Hypergeometric(draws; successes; population). Requires
/// draws <= population and successes <= population; the result lies in
/// [max(0, draws - (population - successes)), min(draws, successes)].
///
/// Exact in law: inversion from zero for means below 10, Stadlober's
/// ratio-of-uniforms method HRUA otherwise ("The ratio of uniforms
/// approach for generating discrete random variates", J. Comput. Appl.
/// Math. 1990). Every log-factorial enters as a difference of two nearby
/// arguments, evaluated through log1p, so populations up to 10^16 and past
/// 2^53 keep full precision. O(1) expected draws from `stream`.
uint64_t SampleHypergeometric(uint64_t draws, uint64_t successes,
                              uint64_t population, SplitMix64* stream);

}  // namespace sitstats

#endif  // SITSTATS_SAMPLING_HYPERGEOMETRIC_H_
