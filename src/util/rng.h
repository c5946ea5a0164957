#ifndef LAPSE_UTIL_RNG_H_
#define LAPSE_UTIL_RNG_H_

#include <cstdint>

namespace lapse {

// Fast, seedable pseudo-random number generator (xoshiro256**), suitable for
// workload generation and SGD sampling. Not cryptographically secure.
//
// Satisfies the UniformRandomBitGenerator concept so it can be plugged into
// <random> distributions where convenient, but also provides the handful of
// draws the trainers need directly (uniform ints, floats, gaussians).
class Rng {
 public:
  using result_type = uint64_t;

  // Seeds the state via SplitMix64 so that nearby seeds give unrelated
  // streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // Next raw 64 random bits.
  uint64_t Next();
  result_type operator()() { return Next(); }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform float in [lo, hi).
  float UniformReal(float lo, float hi);

  // Standard normal draw (Box-Muller; one value per call).
  double NextGaussian();

  // Returns true with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// SplitMix64 step; exposed for deterministic hashing/seeding elsewhere.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stateless mix of a 64-bit value (finalizer of SplitMix64). Useful as a
// cheap hash for keys. Inline: the latch lookup hashes every key of every
// fast-path operation.
inline uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(state);
}

}  // namespace lapse

#endif  // LAPSE_UTIL_RNG_H_
