#include "adapt/access_stats.h"

namespace lapse {
namespace adapt {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SampleRing::SampleRing(size_t capacity)
    : buf_(RoundUpPow2(capacity)), mask_(buf_.size() - 1) {}

size_t SampleRing::Drain(std::vector<AccessSample>* out) {
  uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  const size_t n = static_cast<size_t>(tail - head);
  for (; head != tail; ++head) {
    out->push_back(buf_[head & mask_]);
  }
  head_.store(head, std::memory_order_release);
  return n;
}

AccessStats::AccessStats(int num_slots, size_t ring_capacity) {
  rings_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) {
    rings_.push_back(std::make_unique<SampleRing>(ring_capacity));
  }
}

size_t AccessStats::DrainAll(std::vector<AccessSample>* out) {
  size_t n = 0;
  for (auto& ring : rings_) n += ring->Drain(out);
  return n;
}

int64_t AccessStats::TakeDropped() {
  int64_t n = 0;
  for (auto& ring : rings_) n += ring->TakeDropped();
  return n;
}

}  // namespace adapt
}  // namespace lapse
