#ifndef LAPSE_ADAPT_ACCESS_STATS_H_
#define LAPSE_ADAPT_ACCESS_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"

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

// Bounded single-producer/single-consumer ring of access samples. The
// producer is one worker thread, the consumer is the node's placement
// manager. Push never blocks and never allocates: when the consumer falls
// behind, samples are dropped (they are a statistical sample anyway) and
// counted, so the manager can widen its sampling period if drops persist.
class SampleRing {
 public:
  // `capacity` is rounded up to a power of two (minimum 64).
  explicit SampleRing(size_t capacity);

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  // Producer side. Returns false (and counts a drop) when full.
  bool TryPush(AccessSample sample) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf_[tail & mask_] = sample;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: appends every pending sample to `out`, returns how many.
  size_t Drain(std::vector<AccessSample>* out);

  size_t capacity() const { return buf_.size(); }
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Returns the drops counted since the last call and restarts the count.
  // Writes only when there were drops: the count shares the producer's
  // cache line.
  int64_t TakeDropped() {
    return dropped() == 0 ? 0
                          : dropped_.exchange(0, std::memory_order_relaxed);
  }

 private:
  std::vector<AccessSample> buf_;
  uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer cursor
  std::atomic<int64_t> dropped_{0};
};

// The per-node collection of sample rings, one per sending thread slot
// (slot 0 = server, 1..W = workers, W+1 = the placement manager's own
// protocol worker). Owned by the NodeContext; workers hold a raw pointer
// to their slot's ring.
class AccessStats {
 public:
  AccessStats(int num_slots, size_t ring_capacity);

  SampleRing* Ring(int32_t slot) { return rings_[slot].get(); }

  // Drains every ring into `out` (appending); returns total drained.
  size_t DrainAll(std::vector<AccessSample>* out);

  // Drops of every ring since the last call.
  int64_t TakeDropped();

 private:
  std::vector<std::unique_ptr<SampleRing>> rings_;
};

}  // namespace adapt
}  // namespace lapse

#endif  // LAPSE_ADAPT_ACCESS_STATS_H_
