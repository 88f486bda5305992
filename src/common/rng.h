#ifndef SITSTATS_COMMON_RNG_H_
#define SITSTATS_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string_view>

namespace sitstats {

/// FNV-1a over the bytes of `text`. Stable across platforms/runs — used
/// for deriving named RNG streams, not for hash tables.
uint64_t HashString64(std::string_view text);

/// Finalizer of the SplitMix64 generator: a cheap, high-quality 64-bit
/// mixer (every input bit affects every output bit).
uint64_t MixSeed64(uint64_t x);

/// Derives the seed of an independent, named random stream from a base
/// seed: MixSeed64(base_seed ^ HashString64(name)).
///
/// Every randomized consumer that can run in a batch (one RNG stream per
/// SIT, per worker, ...) seeds itself with its *name* rather than drawing
/// from a shared generator, so results are byte-identical no matter how
/// many other consumers run, in what order, or on how many threads.
uint64_t DeriveStreamSeed(uint64_t base_seed, std::string_view name);

/// Deterministic pseudo-random number generator used throughout the library.
///
/// Every randomized component (data generation, sampling, workload
/// generation) takes an explicit Rng so experiments are reproducible from a
/// single seed. Wraps std::mt19937_64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1): one engine output scaled by 2^-64, clamped
  /// below 1. Bit-identical to libstdc++'s generate_canonical<double, 53>
  /// over this engine, which the seeded datagen goldens rely on.
  double NextDouble() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi) (std::uniform_real_distribution's formula).
  double UniformDouble(double lo, double hi) {
    return NextDouble() * (hi - lo) + lo;
  }

  /// Bernoulli trial with success probability p. Draws nothing when p is
  /// outside (0, 1); otherwise std::bernoulli_distribution's rule.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Raw 64-bit output.
  uint64_t NextUint64() { return engine_(); }

  /// The engine itself, for std algorithms (the instance generator's
  /// std::shuffle calls).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sitstats

#endif  // SITSTATS_COMMON_RNG_H_
