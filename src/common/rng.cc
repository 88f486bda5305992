#include "common/rng.h"

#include "common/logging.h"

namespace sitstats {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SITSTATS_CHECK(lo <= hi) << "UniformInt with lo=" << lo << " hi=" << hi;
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

uint64_t HashString64(std::string_view text) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (char c : text) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

uint64_t DeriveStreamSeed(uint64_t base_seed, std::string_view name) {
  return MixSeed64(base_seed ^ HashString64(name));
}

}  // namespace sitstats
