#ifndef LAPSE_PS_LOCATION_H_
#define LAPSE_PS_LOCATION_H_

#include <atomic>
#include <vector>

#include "net/message.h"
#include "ps/key_layout.h"

namespace lapse {
namespace ps {

// Owner table: which node currently holds each key.
//
// Under the home-node strategy, node n's table is authoritative only for
// the keys homed at n (the rest is unused). Under broadcast-relocations,
// every node maintains a full mirror that lags the true owner by at most
// the location mails in flight. Entries are atomics because the server
// thread writes them while worker threads read them for routing.
class LocationTable {
 public:
  // Initializes every key's owner to its home node (the initial allocation
  // of a classic PS). `epochs` adds the hand-over epochs of the
  // broadcast-relocations mirrors (SetOwnerAt).
  LocationTable(const KeyLayout* layout, bool epochs);

  NodeId Owner(Key k) const {
    return owner_[k].load(std::memory_order_acquire);
  }
  void SetOwner(Key k, NodeId node) {
    owner_[k].store(node, std::memory_order_release);
  }

  // Broadcast-relocations mirrors: every hand-over of key k opens a new
  // epoch, and a mirror takes an owner only from a newer epoch, so location
  // mails that race each other still converge on the last hand-over. Only
  // the server thread of k's shard calls these (it handles every hand-over,
  // transfer and location mail of k).
  uint32_t Epoch(Key k) const { return epoch_[k]; }
  void SetOwnerAt(Key k, NodeId node, uint32_t epoch) {
    if (epoch <= epoch_[k]) return;
    epoch_[k] = epoch;
    SetOwner(k, node);
  }

 private:
  std::vector<std::atomic<NodeId>> owner_;
  std::vector<uint32_t> epoch_;  // empty unless constructed with epochs
};

// Optional per-node location cache (Section 3.3). Entries are hints only:
// they are updated opportunistically from returning responses and
// relocations, never invalidated, and may be stale. A stale hint costs one
// extra forward (Figure 5d), never correctness.
class LocationCache {
 public:
  explicit LocationCache(uint64_t num_keys);

  static constexpr NodeId kUnknown = -1;

  NodeId Get(Key k) const {
    return entries_[k].load(std::memory_order_relaxed);
  }
  void Update(Key k, NodeId node) {
    entries_[k].store(node, std::memory_order_relaxed);
  }

  // Fraction of keys with a cached location (diagnostics).
  double FillFraction() const;

 private:
  std::vector<std::atomic<NodeId>> entries_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_LOCATION_H_
