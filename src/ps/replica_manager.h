#ifndef LAPSE_PS_REPLICA_MANAGER_H_
#define LAPSE_PS_REPLICA_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "obs/histogram.h"
#include "ps/key_layout.h"
#include "ps/latch_table.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Monitoring counters of one node's replica manager.
struct ReplicaManagerStats {
  int64_t pinned = 0;         // keys currently pinned for replication
  int64_t stale_misses = 0;   // pinned reads that found no fresh copy
  int64_t installs = 0;       // fresh owner copies installed (pull-through)
  int64_t invalidations = 0;  // copies dropped because ownership moved
  int64_t folds = 0;          // pushes aggregated locally (no owner message)
  int64_t flushed_keys = 0;   // accumulators drained toward the owner
  int64_t unpins = 0;         // pins dropped (manual or policy-driven)
};

// Per-node replica store for contended read-mostly keys (the keys the
// adaptive placement engine flags: hot on several nodes at once, so
// relocation just ping-pongs them). A pinned key's reads are served from
// node-local memory when the local copy is fresh; everything else falls
// through to the normal message path.
//
// Same tag/latch design as stale::ReplicaStore, with wall-clock install
// times as tags instead of SSP clocks: value content is guarded by a latch
// table, tags are atomics so the staleness check can run without a latch
// (a racy pass is re-validated under the latch before the copy). The copy,
// the write accumulator and its counters live in a per-pin struct that Pin
// allocates and Unpin frees, so memory tracks the pinned set; only the pin
// flag, the install tag and the flush epoch span the whole key space.
//
// Writes (Petuum-style accumulators): a push to a pinned key folds into
// the key's accumulator and the visible copy (FoldWrite) instead of paying
// an owner round trip. Accumulators are drained -- by the pushing worker
// once a count (flush_max_folds, or the key's SetFlushCap) or age
// (flush_micros) trigger fires, by the server before it honors an
// invalidation, and by Unpin -- and the drained folds travel to the owner
// as pushes that the owner acks. Draining and folding serialize under the
// key's latch, so every fold reaches the owner exactly once.
//
// Consistency contract:
//  * Bounded staleness: a replica-served read returns a value the
//    then-current owner held at most `staleness_micros` plus one fetch
//    round trip before the read, plus this node's own writes.
//  * Read-your-writes: every answer this node gives for k includes every
//    write folded here before the read was issued. Served from the copy,
//    that holds because folds land in the copy. For an owner snapshot it
//    is the flush epoch's job: each drain of k opens an epoch in the latch
//    hold that empties the accumulator, and the owner's ack of that flush
//    closes it (NoteWriteAcked). Install refuses a snapshot requested
//    while one of this node's flushes of k was unacked, or before the last
//    one settled; an accepted snapshot holds every flushed fold, and
//    Install adds the folds still pending. A refused snapshot is neither
//    installed nor returned: the server asks the owner again once the
//    epoch has closed. The epoch outlives the pin, so a hand-back whose
//    ack is still out holds back snapshots even after the key is pinned
//    again.
//  * When a pinned key's ownership moves, the home directs an invalidation
//    at every registered replica holder: the copy is dropped (the pin
//    stays), and the next read faults a fresh value in from the new owner.
class ReplicaManager {
 public:
  // What FoldWrite did with a push to key k.
  enum class FoldOutcome : uint8_t {
    kNotPinned,       // k is not pinned here: the caller sends the push
    kFolded,          // folded into the local accumulator; no message needed
    kFoldedFlushDue,  // folded, and the key hit its flush cap: drain now
  };

  ReplicaManager(const KeyLayout* layout, int64_t staleness_micros,
                 size_t num_latches, int64_t flush_micros = 0,
                 uint32_t flush_max_folds = 0);

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  // Lock-free: is key k pinned for replication on this node?
  bool IsPinned(Key k) const {
    return pinned_[k].load(std::memory_order_acquire) != 0;
  }

  // Lock-free: must an owner snapshot of k pass through Install before it
  // answers a pull? True while k is pinned, and for good once this node
  // has flushed k (the epoch holds back snapshots of unpinned keys too).
  bool NeedsInstall(Key k) const {
    return IsPinned(k) || epoch_[k].load(std::memory_order_acquire) != 0;
  }

  // Lock-free: is one of this node's flushes of k still unacked?
  bool FlushInFlight(Key k) const {
    return epoch_[k].load(std::memory_order_acquire) < 0;
  }

  // Marks key k replicated here (idempotent). The copy starts absent; the
  // first read falls through to the message path and installs it.
  void Pin(Key k);

  // Drops the pin, the copy, and the write accumulator. If the accumulator
  // held folds, they are copied into `pending` (layout Length(k) values),
  // k's epoch opens, and true is returned: the caller must send them to
  // the owner as a flush, whose ack closes the epoch. Registration at the
  // home is not undone by this call -- senders follow up with
  // kReplicaUnregister (Worker::Unreplicate); a later invalidation for an
  // unpinned key is a no-op either way. The hand-back happens under one
  // hold of the key's latch (enforced via TakeFoldsLocked), closing the
  // fold-in-the-gap race.
  bool Unpin(Key k, Val* pending) LAPSE_EXCLUDES(dirty_mu_);

  // Serves a read from the local copy iff key k is pinned and the copy was
  // installed within the staleness bound. Copies into dst and returns true
  // on success; returns false (counting a stale miss for pinned keys) when
  // the caller must use the message path instead.
  bool TryRead(Key k, Val* dst);

  // An owner snapshot of k answers a pull that was sent at `issue_ns`.
  // Returns false if the flush epoch refuses it (a flush of k is unacked,
  // or issue_ns predates the last settle): then the snapshot may lack
  // folds this node already drained, and it must be neither installed nor
  // returned. Otherwise, for a pinned k, installs the snapshot plus the
  // pending folds as the fresh copy, stamped with the current time; `out`
  // (if not null) receives what the pull returns: that copy, or the
  // snapshot itself when k is not pinned.
  bool Install(Key k, const Val* snapshot, int64_t issue_ns = 0,
               Val* out = nullptr);

  // The owner acked one of this node's flushes of k (a push entry whose
  // drain opened k's epoch). The ack of the last one in flight closes the
  // epoch: snapshots requested from then on hold every flushed fold.
  void NoteWriteAcked(Key k);

  // Folds `update` into key k's accumulator and into the visible copy, if
  // present, so this node's readers see it at once. Returns kNotPinned
  // when the caller must send the push itself; kFoldedFlushDue
  // additionally asks the caller to drain (Worker::FlushReplicas) because
  // the key hit its flush cap (SetFlushCap, default flush_max_folds).
  FoldOutcome FoldWrite(Key k, const Val* update)
      LAPSE_EXCLUDES(dirty_mu_);

  // Lock-free: has the node's oldest unflushed fold aged past
  // flush_micros? A pusher asks before it folds, and drains first if so:
  // the age trigger then never drains the folds of the push that fired
  // it. A pull of the same key that pusher issued just before would
  // otherwise race the flush, and the flush epoch would make the origin
  // ask the owner a second time.
  bool FlushDue() const;

  // Per-key override of the count trigger (adaptive flush sizing): key k's
  // accumulator drains once it holds `cap` folds instead of the global
  // flush_max_folds. 0 restores the global cap; a no-op unless k is
  // pinned. Every pin starts from the configured behavior; the placement
  // manager re-derives caps from observed write rates each tick. The age
  // trigger (flush_micros) is unaffected -- it is what bounds a cold
  // writer's flush delay no matter how high the cap scales.
  void SetFlushCap(Key k, uint32_t cap);

  // The count trigger currently in force for key k (the global cap unless
  // overridden). Test observability.
  uint32_t FlushCap(Key k);

  // Drains every key with pending folds: appends the key to `keys` and its
  // accumulated update (layout Length(key) values) to `vals`, resets the
  // accumulator and opens the key's epoch; the caller owns sending the
  // flush. Returns the number of keys drained. Callable from any thread;
  // concurrent drains split the dirty set, they never double-deliver a
  // fold.
  size_t DrainDirty(std::vector<Key>* keys, std::vector<Val>* vals)
      LAPSE_EXCLUDES(dirty_mu_);

  // Drains key k's accumulator into `out` (layout Length(k) values) and
  // opens k's epoch. Returns false if it held no folds. Used by the server
  // to forward pending folds before honoring an invalidation.
  bool DrainKey(Key k, Val* out) LAPSE_EXCLUDES(dirty_mu_);

  // Pending (unflushed) fold count of key k. Test observability.
  uint32_t PendingFolds(Key k);

  // Drops the copy because ownership moved; the pin stays so the next read
  // refreshes from the new owner. The write accumulator is NOT dropped:
  // the server drains it (DrainKey) and forwards the folds before calling
  // this, so an invalidation never loses aggregated updates.
  void Invalidate(Key k);

  ReplicaManagerStats stats() const;

  int64_t staleness_nanos() const { return staleness_ns_; }

  // Observability hook: every replica-served read records its copy's age
  // (now - install time, ns) into `h` -- the distribution shows how much
  // of the staleness budget reads actually consume. Null (default) costs
  // the replica hit path one relaxed load + branch; the main fast path is
  // untouched.
  void SetReadAgeHistogram(obs::Histogram* h) {
    read_age_hist_.store(h, std::memory_order_release);
  }

 private:
  static constexpr int64_t kAbsent = -1;

  // What Pin allocates and Unpin frees.
  struct Pinned {
    explicit Pinned(size_t len) : copy(len), acc(len) {}
    std::vector<Val> copy;  // the visible copy (valid iff install tag set)
    std::vector<Val> acc;   // folds not yet drained toward the owner
    uint32_t folds = 0;     // folds in acc
    uint32_t flush_cap = 0;  // count trigger override; 0 = flush_max_folds_
  };

  // Copies key k's pending folds into `out`, empties the accumulator and
  // opens k's epoch (the flush carrying the folds is about to leave),
  // handing delivery to the caller. The key's latch serializes this
  // against concurrent FoldWrite/Install/Unpin -- `latch` must be
  // latches_.ForKey(k), and the thread-safety analysis verifies every
  // caller actually holds it ("drain and fold serialize under the key
  // latch", compiler-checked). Returns false if the accumulator held no
  // folds.
  bool TakeFoldsLocked(Key k, Pinned& p, Latch& latch, Val* out)
      LAPSE_REQUIRES(latch) LAPSE_EXCLUDES(dirty_mu_);

  const KeyLayout* layout_;
  const int64_t staleness_ns_;
  const int64_t flush_ns_;
  const uint32_t flush_max_folds_;
  // Per-pin state; null for unpinned keys.
  std::vector<std::unique_ptr<Pinned>> pins_ LAPSE_GUARDED_BY_KEY_LATCH;
  std::vector<std::atomic<int64_t>> install_ns_;  // kAbsent = no copy
  std::vector<std::atomic<uint8_t>> pinned_;
  // Flush epoch of each key: -n while n of this node's flushes of k are
  // unacked, else when the last one settled (0 = never flushed). Written
  // under the key's latch; read lock-free by the prechecks above.
  std::vector<std::atomic<int64_t>> epoch_;
  LatchTable latches_;

  // Keys whose accumulator holds at least one fold, in first-fold order,
  // plus the age of the oldest unflushed fold (kAbsent when clean). A key
  // enters on its 0 -> 1 fold transition and leaves when a drain resets
  // it. n_dirty_ counts keys with pending folds exactly (every 0 -> 1
  // transition is +1, every accumulator zeroing is -1), so a drain that
  // empties the set can re-arm the age clock -- without this, a stale
  // oldest-fold timestamp left behind by an invalidation drain would make
  // the next fold spuriously report a flush as due. The clock
  // is deliberately approximate in one direction: a single-key drain
  // that removes the oldest fold while OTHER keys stay dirty keeps the
  // older timestamp (recomputing the true oldest would need per-key
  // timestamps and a scan), so the next age check may fire one flush
  // early. Early flushes are contract-safe and self-correcting -- the
  // DrainDirty they trigger resets the clock exactly.
  Mutex dirty_mu_;
  std::vector<Key> dirty_ LAPSE_GUARDED_BY(dirty_mu_);
  size_t n_dirty_ LAPSE_GUARDED_BY(dirty_mu_) = 0;
  std::atomic<int64_t> oldest_fold_ns_{kAbsent};

  std::atomic<int64_t> n_pinned_{0};
  std::atomic<int64_t> n_stale_misses_{0};
  std::atomic<int64_t> n_installs_{0};
  std::atomic<int64_t> n_invalidations_{0};
  std::atomic<int64_t> n_folds_{0};
  std::atomic<int64_t> n_flushed_keys_{0};
  std::atomic<int64_t> n_unpins_{0};
  // Appended at the end per the ServerStats counter rules.
  std::atomic<obs::Histogram*> read_age_hist_{nullptr};
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_REPLICA_MANAGER_H_
