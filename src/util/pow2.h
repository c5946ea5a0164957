#ifndef LAPSE_UTIL_POW2_H_
#define LAPSE_UTIL_POW2_H_

#include <cstddef>

namespace lapse {

// Smallest power of two >= n (1 for n <= 1), for tables indexed by a mask.
inline size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace lapse

#endif  // LAPSE_UTIL_POW2_H_
