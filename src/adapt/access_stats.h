#ifndef LAPSE_ADAPT_ACCESS_STATS_H_
#define LAPSE_ADAPT_ACCESS_STATS_H_

#include <cstdint>

#include "net/message.h"
#include "util/spsc_ring.h"

namespace lapse {
namespace adapt {

// One sampled parameter access, as recorded by a worker on its hot path.
// The flags capture what the worker knew at record time; the placement
// policy re-checks ownership at classification time, so a slightly stale
// locality bit is harmless.
struct AccessSample {
  Key key = 0;
  uint16_t flags = 0;

  static constexpr uint16_t kWrite = 1u << 0;
  static constexpr uint16_t kLocal = 1u << 1;

  bool is_write() const { return (flags & kWrite) != 0; }
  bool is_local() const { return (flags & kLocal) != 0; }
};

inline uint16_t SampleFlags(bool is_write, bool is_local) {
  return (is_write ? AccessSample::kWrite : 0) |
         (is_local ? AccessSample::kLocal : 0);
}

// Each worker records its samples into its thread slot's ring; the node's
// placement manager drains them all. A drop (the manager fell behind)
// only thins the sample.
using SampleRing = SpscRing<AccessSample>;
using AccessStats = SpscRingSet<AccessSample>;

}  // namespace adapt
}  // namespace lapse

#endif  // LAPSE_ADAPT_ACCESS_STATS_H_
