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
inline uint64_t MixSeed64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// SplitMix64's state increment (the odd integer nearest 2^64 / phi).
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// The `index`-th output (0-based) of the SplitMix64 stream seeded with
/// `key`: a pure function of (key, index), so a draw is addressed by its
/// position (a row of a table, a batch of a scan) rather than by how many
/// draws came before it. That is what lets the sweep's draws be split at
/// any batch boundary without changing them.
inline uint64_t SplitMix64At(uint64_t key, uint64_t index) {
  return MixSeed64(key + (index + 1) * kSplitMix64Gamma);
}

/// A uniform double in [0, 1) from the top 53 bits of `bits`.
inline double UnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1p-53;
}

/// Counter-keyed sequential stream: SplitMix64 (Steele, Lea and Flood,
/// OOPSLA 2014) seeded with a key, so its i-th draw is SplitMix64At(key,
/// i). Costs one add and one MixSeed64 per draw; the sampling layer keys
/// one per scan batch.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t key) : state_(key) {}

  uint64_t NextUint64() {
    state_ += kSplitMix64Gamma;
    return MixSeed64(state_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return UnitDouble(NextUint64()); }

  /// Uniform integer in [0, n), n > 0: Lemire's multiply-shift with the
  /// rejection step that makes it exact (ACM TOMACS 2019).
  uint64_t Below(uint64_t n) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(NextUint64()) * n;
    if (static_cast<uint64_t>(product) < n) {
      const uint64_t threshold = (0 - n) % n;
      while (static_cast<uint64_t>(product) < threshold) {
        product = static_cast<unsigned __int128>(NextUint64()) * n;
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

 private:
  uint64_t state_;
};

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
