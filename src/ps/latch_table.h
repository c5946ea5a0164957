#ifndef LAPSE_PS_LATCH_TABLE_H_
#define LAPSE_PS_LATCH_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "net/message.h"
#include "ps/key_layout.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// A local worker operation deferred because its key is currently arriving.
struct DeferredLocalOp {
  bool is_push = false;
  Val* pull_dst = nullptr;        // for pulls
  std::vector<Val> push_update;   // for pushes (copied)
  int32_t worker_thread = -1;     // issuing worker slot
  uint64_t op_id = 0;
  // Observability: the op is traced; queued_ns (set only then) is when the
  // item entered the arrival queue, so the drain can attribute the
  // relocation stall.
  bool traced = false;
  int64_t queued_ns = 0;
};

// Items queued for an arriving key, in arrival order: local ops, remote
// ones (one-entry kBatchOp envelopes), and relocation instructions (a
// chained localize that must transfer the key away once it lands).
using Deferred = std::variant<DeferredLocalOp, net::Message>;

// What waits for one key's relocation to land. Records sit in short
// per-latch-slot lists (LatchTable::ArrivalsAt, through
// NodeContext::ArrivalFor) and are reused: a record drained by
// Server::DrainArrived goes free with its buffers' capacity, for the next
// key of that latch slot.
struct ArrivingKey {
  Key key = 0;
  bool active = false;  // holds `key`'s items; free for reuse otherwise
  std::vector<Deferred> queue;
  // Localize ops of this node's own workers issued while the key was
  // already in flight; coalesced onto the pending relocation instead of
  // re-sending. Completed when the transfer arrives.
  struct LocalizeWaiter {
    int32_t thread = -1;
    uint64_t op_id = 0;
    bool traced = false;      // observability: record stall + completion
    int64_t queued_ns = 0;    // set only when traced
  };
  std::vector<LocalizeWaiter> localize_waiters;
};

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
// Each slot also holds the arrival records (ArrivingKey) of the keys it
// guards, in the padding of the latch's cache line.
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

  // Arrival records of the keys that latch slot i guards, read and written
  // only under that latch (NodeContext::ArrivalFor). Mostly empty or one
  // record long; tables that guard no relocations leave them empty.
  std::vector<ArrivingKey>& ArrivalsAt(size_t i) { return slots_[i].arrivals; }

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
    std::vector<ArrivingKey> arrivals;  // in the line's padding
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
