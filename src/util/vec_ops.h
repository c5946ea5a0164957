#ifndef LAPSE_UTIL_VEC_OPS_H_
#define LAPSE_UTIL_VEC_OPS_H_

#include <cstddef>

#include "net/message.h"

namespace lapse {

// Both helpers work in fixed 8-float chunks plus a short tail. A chunk
// has a compile-time trip count, so GCC vectorizes it at -O2, whose cost
// model declines loops that would need a scalar epilogue. Neither helper
// calls into libc: the owned-key fast paths run them once per key. The
// restrict qualifiers hold because update and destination buffers never
// alias parameter slots (workers pass their own buffers, servers message
// payloads).
inline constexpr size_t kValChunk = 8;

// dst[j] += src[j] for j in [0, n).
inline void AddTo(Val* __restrict dst, const Val* __restrict src, size_t n) {
  size_t j = 0;
  for (; j + kValChunk <= n; j += kValChunk) {
    for (size_t t = 0; t < kValChunk; ++t) dst[j + t] += src[j + t];
  }
  for (; j < n; ++j) dst[j] += src[j];
}

// dst[j] = src[j] for j in [0, n); the call-free memcpy of one value.
// The tail copies 4, 2 and 1 values with fixed-size builtins: a plain tail
// loop would be turned back into a memcpy call by GCC's loop distribution.
inline void CopyVals(Val* __restrict dst, const Val* __restrict src,
                     size_t n) {
  size_t j = 0;
  for (; j + kValChunk <= n; j += kValChunk) {
    __builtin_memcpy(dst + j, src + j, kValChunk * sizeof(Val));
  }
  if (n - j >= 4) {
    __builtin_memcpy(dst + j, src + j, 4 * sizeof(Val));
    j += 4;
  }
  if (n - j >= 2) {
    __builtin_memcpy(dst + j, src + j, 2 * sizeof(Val));
    j += 2;
  }
  if (j < n) dst[j] = src[j];
}

}  // namespace lapse

#endif  // LAPSE_UTIL_VEC_OPS_H_
