#ifndef LAPSE_UTIL_SPSC_RING_H_
#define LAPSE_UTIL_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/pow2.h"

namespace lapse {

// Bounded single-producer/single-consumer ring of small value records. The
// producer is one hot-path thread, the consumer one background thread.
// TryPush never blocks and never allocates: when the consumer falls
// behind, records are dropped and counted. Both users (access samples for
// the placement manager, trace events for the collector) record samples,
// so a drop costs accuracy, not correctness.
template <typename T>
class SpscRing {
 public:
  // `capacity` is rounded up to a power of two (minimum 64).
  explicit SpscRing(size_t capacity)
      : buf_(RoundUpPow2(std::max<size_t>(capacity, 64))),
        mask_(buf_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false (and counts a drop) when full.
  bool TryPush(const T& record) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf_[tail & mask_] = record;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: appends every pending record to `out`, returns how many.
  size_t Drain(std::vector<T>* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    for (uint64_t i = head; i != tail; ++i) out->push_back(buf_[i & mask_]);
    head_.store(tail, std::memory_order_release);
    return static_cast<size_t>(tail - head);
  }

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
  std::vector<T> buf_;
  uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer cursor
  std::atomic<int64_t> dropped_{0};
};

// One SpscRing per thread slot of a node (numbered by ps::Config): each
// slot's thread produces into its own ring, and one consumer drains them
// all. Threads hold a raw pointer to their slot's ring.
template <typename T>
class SpscRingSet {
 public:
  SpscRingSet(int num_slots, size_t ring_capacity) {
    rings_.reserve(static_cast<size_t>(num_slots));
    for (int i = 0; i < num_slots; ++i) {
      rings_.push_back(std::make_unique<SpscRing<T>>(ring_capacity));
    }
  }

  SpscRing<T>* Ring(int32_t slot) { return rings_[slot].get(); }

  // Drains every ring into `out` (appending); returns how many.
  size_t DrainAll(std::vector<T>* out) {
    size_t n = 0;
    for (auto& ring : rings_) n += ring->Drain(out);
    return n;
  }

  // Drops of every ring since the last TakeDropped.
  int64_t TakeDropped() {
    int64_t n = 0;
    for (auto& ring : rings_) n += ring->TakeDropped();
    return n;
  }
  // Drops of every ring, for a consumer that never calls TakeDropped.
  int64_t TotalDropped() const {
    int64_t n = 0;
    for (const auto& ring : rings_) n += ring->dropped();
    return n;
  }

 private:
  std::vector<std::unique_ptr<SpscRing<T>>> rings_;
};

}  // namespace lapse

#endif  // LAPSE_UTIL_SPSC_RING_H_
