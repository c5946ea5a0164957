#ifndef LAPSE_PS_OP_TRACKER_H_
#define LAPSE_PS_OP_TRACKER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <chrono>

#include "net/message.h"
#include "util/logging.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Tracks outstanding asynchronous operations of one worker thread.
//
// An operation covers one or more keys; completions arrive key-subset-wise
// (responses from different owners, queued local ops draining, relocation
// transfers) on the node's server thread while the issuing worker may
// concurrently Wait(). An operation is done once all its keys completed.
//
// Thread-safety: Create/Wait are called by the owning worker; Complete*
// by the node's server thread (and by the worker itself for immediately
// satisfiable keys).
class OpTracker {
 public:
  static int64_t NowNanosForSpin() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Handle value returned for operations that completed inline.
  static constexpr uint64_t kImmediate = 0;

  struct OpState {
    // Atomic so the owning worker can spin-wait on completion without
    // holding the tracker mutex (which the server needs to complete keys).
    std::atomic<size_t> remaining{0};
    Val* pull_dst = nullptr;  // destination buffer for pulls (else null)
    // (key, offset into pull_dst) pairs, sorted by key, for scattering
    // response values.
    std::vector<std::pair<Key, size_t>> key_offsets;
    int64_t issue_ns = 0;
  };

  // Registers an operation over `key_offsets.size()` keys. Returns its id.
  // `key_offsets` is copied into a recycled op slot, so callers can pass a
  // reusable scratch buffer; in steady state no allocation happens here.
  // The op also holds one count for its issuer: however fast other threads
  // complete its keys, it stays open until the issuing call has recorded
  // it and calls Release.
  uint64_t Create(Val* pull_dst,
                  const std::vector<std::pair<Key, size_t>>& key_offsets,
                  int64_t issue_ns) {
    MutexLock lock(mu_);
    const uint64_t id = next_id_++;
    OpState* op;
    if (!spare_ops_.empty()) {
      // Reuse a retired op's map node; its key_offsets keeps its capacity.
      auto node = std::move(spare_ops_.back());
      spare_ops_.pop_back();
      node.key() = id;
      op = &ops_.insert(std::move(node)).position->second;
      op->key_offsets.clear();
    } else {
      op = &ops_[id];
    }
    op->remaining.store(key_offsets.size() + 1, std::memory_order_relaxed);
    op->pull_dst = pull_dst;
    op->key_offsets.insert(op->key_offsets.end(), key_offsets.begin(),
                           key_offsets.end());
    std::sort(op->key_offsets.begin(), op->key_offsets.end());
    op->issue_ns = issue_ns;
    issuing_ = op;
    issuing_id_ = id;
    return id;
  }

  // Returns the destination address for key `k` of pull op `id`, or nullptr
  // if the op has no pull buffer. Used to serve a key and complete it in two
  // steps without holding the tracker lock during the copy.
  Val* PullDst(uint64_t id, Key k) {
    MutexLock lock(mu_);
    auto it = ops_.find(id);
    if (it == ops_.end() || it->second.pull_dst == nullptr) return nullptr;
    const auto& ko = it->second.key_offsets;
    auto pos = std::lower_bound(
        ko.begin(), ko.end(), std::make_pair(k, size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    LAPSE_CHECK(pos != ko.end() && pos->first == k)
        << "key " << k << " not part of op " << id;
    return it->second.pull_dst + pos->second;
  }

  // Marks `n` keys of op `id` complete; wakes waiters when it reaches zero.
  // Returns true iff this call completed the op (exactly one caller per op
  // observes true -- the observability layer uses it to stamp the op's
  // completion event at the site that actually finished it).
  bool CompleteKeys(uint64_t id, size_t n) {
    if (id == kImmediate || n == 0) return false;
    MutexLock lock(mu_);
    auto it = ops_.find(id);
    LAPSE_CHECK(it != ops_.end()) << "completion for unknown op " << id;
    const size_t before =
        it->second.remaining.fetch_sub(n, std::memory_order_acq_rel);
    LAPSE_CHECK_GE(before, n);
    if (before == n) {
      lock.Unlock();
      cv_.NotifyAll();
      return true;
    }
    return false;
  }

  // The issuer's last call on op `id`, the op it created last: completes
  // the `inline_keys` keys it served itself and drops the issuer's hold.
  // Returns true iff this call completed the op. Lock-free: only the
  // issuer inserts or retires ops, so the op cannot move, and the issuer
  // is the op's only waiter, so no wakeup is owed.
  bool Release(uint64_t id, size_t inline_keys) {
    LAPSE_CHECK_EQ(id, issuing_id_);
    const size_t n = inline_keys + 1;
    const size_t before =
        issuing_->remaining.fetch_sub(n, std::memory_order_acq_rel);
    LAPSE_CHECK_GE(before, n);
    return before == n;
  }

  // Issue timestamp of op `id` (0 if unknown/retired).
  int64_t IssueNs(uint64_t id) {
    MutexLock lock(mu_);
    auto it = ops_.find(id);
    return it == ops_.end() ? 0 : it->second.issue_ns;
  }

  // Blocks until op `id` is fully complete, then retires it. Spins briefly
  // before sleeping: completions typically arrive within tens of
  // microseconds (one simulated network round trip), far below the OS
  // wakeup granularity.
  void Wait(uint64_t id) {
    if (id == kImmediate) return;
    // Locate the op once; spin lock-free on its atomic counter (element
    // references in unordered_map are stable, and only the owning worker
    // erases entries).
    std::atomic<size_t>* remaining = nullptr;
    {
      MutexLock lock(mu_);
      auto it = ops_.find(id);
      if (it == ops_.end()) return;
      if (it->second.remaining.load(std::memory_order_acquire) == 0) {
        Retire(it);
        return;
      }
      remaining = &it->second.remaining;
    }
    const int64_t spin_until = NowNanosForSpin() + 400'000;
    while (remaining->load(std::memory_order_acquire) > 0) {
      if (NowNanosForSpin() >= spin_until) {
        MutexLock lock(mu_);
        while (remaining->load(std::memory_order_acquire) != 0) {
          cv_.Wait(mu_);
        }
        break;
      }
      for (int p = 0; p < 32; ++p) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    MutexLock lock(mu_);
    auto it = ops_.find(id);
    if (it != ops_.end()) Retire(it);
  }

  // Blocks until every outstanding op completed; retires them all.
  void WaitAll() {
    MutexLock lock(mu_);
    while (!AllCompleteLocked()) cv_.Wait(mu_);
    ops_.clear();
  }

  // True if op `id` has fully completed (or was retired).
  bool IsDone(uint64_t id) {
    if (id == kImmediate) return true;
    MutexLock lock(mu_);
    auto it = ops_.find(id);
    return it == ops_.end() ||
           it->second.remaining.load(std::memory_order_acquire) == 0;
  }

  size_t NumPending() {
    MutexLock lock(mu_);
    size_t n = 0;
    for (auto& [id, op] : ops_) {
      if (op.remaining.load(std::memory_order_acquire) > 0) ++n;
    }
    return n;
  }

 private:
  using OpMap = std::unordered_map<uint64_t, OpState>;

  // Moves a finished op's map node to the spare list, so the node
  // allocation and its key_offsets capacity get reused by Create.
  void Retire(OpMap::iterator it) LAPSE_REQUIRES(mu_) {
    if (spare_ops_.size() < kMaxSpareOps) {
      spare_ops_.push_back(ops_.extract(it));
    } else {
      ops_.erase(it);
    }
  }

  bool AllCompleteLocked() const LAPSE_REQUIRES(mu_) {
    for (const auto& [id, op] : ops_) {
      if (op.remaining.load(std::memory_order_acquire) > 0) return false;
    }
    return true;
  }

  static constexpr size_t kMaxSpareOps = 64;
  // The issuing worker and the drain thread that completes its ops take
  // mu_ in turn, each for well under a microsecond. Spinning before
  // blocking keeps that hand-off off the futex: on the host-bound
  // micro_server_scaling point (4-core host) a blocking mutex made the
  // drain thread take 2.1 us per response instead of 1.5 us.
  static constexpr int kLockSpinTries = 64;
  Mutex mu_{kLockSpinTries};
  CondVar cv_;
  OpMap ops_ LAPSE_GUARDED_BY(mu_);
  std::vector<OpMap::node_type> spare_ops_ LAPSE_GUARDED_BY(mu_);
  uint64_t next_id_ LAPSE_GUARDED_BY(mu_) = 1;
  // The op Create made last, for the issuer's Release (issuer-only).
  OpState* issuing_ = nullptr;
  uint64_t issuing_id_ = 0;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_OP_TRACKER_H_
