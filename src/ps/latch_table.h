#ifndef LAPSE_PS_LATCH_TABLE_H_
#define LAPSE_PS_LATCH_TABLE_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "net/message.h"
#include "ps/key_layout.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Tiny test-and-set spinlock (BasicLockable; lock with LatchGuard below so
// the thread-safety analysis sees the acquisition). Latches guard
// sub-microsecond critical sections (a state check plus a short value
// copy), where a spinlock's uncontended lock/unlock is several times
// cheaper than std::mutex. The spin loop yields periodically so an
// oversubscribed machine cannot live-lock against a preempted holder.
class LAPSE_CAPABILITY("latch") Latch {
 public:
  void lock() noexcept LAPSE_ACQUIRE() {
    for (;;) {
      // Test-and-test-and-set: contend with plain loads (shared cache
      // line) and only attempt the RFO exchange when the latch looks free,
      // so spinning waiters do not slow down the holder.
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          spins = 0;
          Yield();
        }
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }
  void unlock() noexcept LAPSE_RELEASE() {
    locked_.store(false, std::memory_order_release);
  }

 private:
  static constexpr int kSpinsBeforeYield = 256;
  static void Yield() noexcept;  // sched yield; out of line

  std::atomic<bool> locked_{false};
};

// RAII guard for a Latch (the annotated std::lock_guard<Latch>). Callers
// that guard per-key state bind the latch to a local reference first --
//   Latch& latch = latches.ForKey(k);
//   LatchGuard guard(latch);
// -- so functions annotated LAPSE_REQUIRES(latch) can be checked against
// the exact capability expression the caller holds.
class LAPSE_SCOPED_CAPABILITY LatchGuard {
 public:
  explicit LatchGuard(Latch& latch) LAPSE_ACQUIRE(latch) : latch_(latch) {
    latch_.lock();
  }
  ~LatchGuard() LAPSE_RELEASE() { latch_.unlock(); }

  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  Latch& latch_;
};

// Fixed pool of latches with a one-to-many mapping from parameters to
// latches (Section 3.7). Guards per-key atomic reads/writes for local
// shared-memory access while allowing parallel access to different
// parameters. The paper's default pool size is 1000; the pool rounds the
// requested size up to the next power of two so the per-access latch lookup
// is a mask instead of a 64-bit division.
//
// With a sharded server (layout->num_shards() > 1) the pool is partitioned
// by shard: keys of different shards never share a latch, so concurrent
// shard drain threads cannot contend on (or deadlock through) each other's
// latches. Within a shard the mapping stays the mixed mask.
class LatchTable {
 public:
  explicit LatchTable(size_t num_latches);

  // Shard-partitioned pool: num_latches total (rounded up per shard),
  // partitioned across layout->num_shards() shards.
  LatchTable(size_t num_latches, const KeyLayout* layout);

  LatchTable(const LatchTable&) = delete;
  LatchTable& operator=(const LatchTable&) = delete;

  Latch& ForKey(Key k) { return slots_[IndexOf(k)].mu; }
  Latch& ByIndex(size_t i) { return slots_[i].mu; }

  // Index of the latch guarding key k; exposed so callers that lock several
  // keys can deduplicate/order latch acquisitions to avoid deadlock. Inline:
  // every fast-path key pays this lookup.
  size_t IndexOf(Key k) const {
    // Mix so that contiguous key ranges (which one worker often touches
    // together) spread across latches; power-of-two per-shard size makes
    // this a mask. Partitioned pools prepend the key's shard so distinct
    // shards occupy disjoint slot ranges.
    const size_t within = Mix64(k) & per_shard_mask_;
    if (layout_ == nullptr) return within;
    return static_cast<size_t>(layout_->Shard(k)) * per_shard_ + within;
  }

  size_t size() const { return num_latches_; }

 private:
  struct alignas(64) Slot {
    Latch mu;
  };

  size_t num_latches_;       // total slots; per-shard count is a power of two
  size_t per_shard_mask_;    // per-shard slot count - 1
  size_t per_shard_;         // per-shard slot count
  const KeyLayout* layout_;  // null for the unpartitioned pool
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_LATCH_TABLE_H_
