#include "util/rng.h"

#include <cmath>

namespace lapse {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& s : s_) s = SplitMix64(state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  // Lemire's multiply-shift rejection-free variant is overkill here; simple
  // modulo bias is negligible for the bounds we use (<< 2^64), but we use
  // the multiply-high trick anyway since it is branch-free.
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(Next()) * static_cast<__uint128_t>(bound)) >>
      64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

float Rng::UniformReal(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

}  // namespace lapse
