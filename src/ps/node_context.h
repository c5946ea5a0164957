#ifndef LAPSE_PS_NODE_CONTEXT_H_
#define LAPSE_PS_NODE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "adapt/access_stats.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/histogram.h"
#include "obs/timeline.h"
#include "ps/config.h"
#include "ps/key_layout.h"
#include "ps/latch_table.h"
#include "ps/location.h"
#include "ps/op_tracker.h"
#include "ps/replica_manager.h"
#include "ps/storage.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Ownership state of a key at one node. Guarded by the key's latch for
// transitions; stored as an atomic so lock-free fast-path pre-checks are
// well-defined.
enum class KeyState : uint8_t {
  kNotOwned = 0,
  kOwned = 1,
  // A relocation to this node is in flight; operations are queued
  // (Section 3.2) until the transfer arrives.
  kArriving = 2,
};

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

struct ArrivingKey {
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

// Per-node performance counters (Table 5, Section 4.6).
//
// RULES for adding counters here -- or any counter touched on the hot
// paths (learned the hard way in PR 3):
//  * Append new counters at the END of the struct. The hot counters sit on
//    cache lines the fast paths already own; inserting a field mid-struct
//    shifts them onto new lines and showed up as a double-digit-percent
//    local-op regression.
//  * Never call Counter::Add on a fast path. The worker-written counters
//    (local/remote/replica key reads and writes, queued_local_ops) are
//    summed in plain Worker members and published here by
//    Worker::PublishStats at Barrier(), WaitAll(), on every op's slow
//    path, every Worker::kPublishEveryOps fast-path ops and at teardown.
//    A new worker-written counter joins that batch.
//  * Publish only positive counts -- `if (n > 0) stats.c.Add(n)`: an
//    Add(0) still dirties the counter's cache line, and count() == 0 must
//    keep meaning "never happened".
// For those counters sum() is exact once published at the points above
// (between two barriers, after PsSystem::Run) and lags each running worker
// by at most kPublishEveryOps - 1 fast-path ops otherwise; count() counts
// publications, not operations; and ResetStats() is valid only while no
// worker runs (a running worker would publish pre-reset counts after it).
// The same discipline applies to observability hooks: one predictable
// branch (null/zero check) per operation is the budget, everything else
// runs only for sampled ops or off the hot path entirely.
struct ServerStats {
  Counter local_key_reads;    // keys served via shared-memory fast path
  Counter remote_key_reads;   // keys this node's workers read via messages
  Counter local_key_writes;
  Counter remote_key_writes;
  Counter queued_local_ops;   // local ops that had to wait for a relocation
  // count = relocated keys (as requester); sum = total relocation time (ns),
  // measured from localize issue to transfer arrival.
  Counter relocations;
  // count = relocated keys; sum = total blocking time (ns), measured from
  // the moment the first operation was queued (or the transfer arrival if
  // nothing queued) -- approximates the paper's blocking-time notion.
  Counter localization_conflicts;  // transfers of keys some other node took
  // Keys that returned to this node (their home) via an eviction issued by
  // some node's placement manager or Worker::Evict.
  Counter evictions_received;
  // Per-message-type lag between simulated delivery time and actual
  // processing start at the server (diagnoses server backlog).
  Counter backlog_ns[static_cast<size_t>(net::MsgType::kNumTypes)];
  // Keys served from the node's replica store (bounded-staleness local
  // reads of contended keys; neither local_key_reads nor remote). Kept
  // last so the hot counters above stay on their established cache lines.
  Counter replica_key_reads;
  // Pushes folded into the node's replica write accumulators (no owner
  // message paid), and holders dropped from this home's replica directory
  // by kReplicaUnregister. Appended after replica_key_reads for the same
  // cache-line reason.
  Counter replica_key_writes;
  Counter replica_unregisters;
  // Request coalescing (ps::Coalescer), appended at the end per the rules
  // above. coalesced_ops counts worker ops that queued at least one key in
  // the coalescer; coalesce_batches records one Add(n_sub_ops) per batched
  // wire message, so count = batches and sum = sub-ops (sum/count = mean
  // batch size); coalesce_forced_drains counts Wait/WaitAll/teardown
  // drains that actually released a held batch.
  Counter coalesced_ops;
  Counter coalesce_batches;
  Counter coalesce_forced_drains;
  void Reset() {
    local_key_reads.Reset();
    remote_key_reads.Reset();
    local_key_writes.Reset();
    remote_key_writes.Reset();
    queued_local_ops.Reset();
    relocations.Reset();
    localization_conflicts.Reset();
    evictions_received.Reset();
    for (auto& b : backlog_ns) b.Reset();
    replica_key_reads.Reset();
    replica_key_writes.Reset();
    replica_unregisters.Reset();
    coalesced_ops.Reset();
    coalesce_batches.Reset();
    coalesce_forced_drains.Reset();
  }
};

// Everything one logical node's server thread and worker threads share.
struct NodeContext {
  NodeId node = -1;
  const Config* config = nullptr;
  const KeyLayout* layout = nullptr;

  std::unique_ptr<Storage> store;
  std::unique_ptr<LatchTable> latches;
  std::vector<std::atomic<uint8_t>> key_state;  // KeyState per key
  std::unique_ptr<LocationTable> owners;
  std::unique_ptr<LocationCache> cache;  // null unless enabled
  // Sample rings of the adaptive placement engine, one per thread slot
  // (null unless config.adaptive.enabled).
  std::unique_ptr<adapt::AccessStats> access_stats;
  // Replica store for contended read-mostly keys (null unless
  // config.replication).
  std::unique_ptr<ReplicaManager> replicas;
  // Trace-event rings of the observability layer, one per thread slot
  // (owned by the PsSystem's obs::Observability; null unless
  // config.obs.enabled with sample_every > 0).
  obs::NodeObs* obs = nullptr;
  // Coalescing histograms (owned by the PsSystem's obs::Observability;
  // null unless obs is enabled). Histogram::Add is lock-free and
  // multi-producer safe, so every worker's coalescer feeds them directly.
  obs::Histogram* coalesce_batch_size_hist = nullptr;
  obs::Histogram* coalesce_wait_ns_hist = nullptr;

  // Sharded by key to keep worker queueing and server draining off one
  // mutex.
  static constexpr size_t kArrivingShards = 16;
  struct ArrivingShard {
    Mutex mu;
    std::unordered_map<Key, ArrivingKey> map LAPSE_GUARDED_BY(mu);
  };
  ArrivingShard arriving_shards[kArrivingShards];
  ArrivingShard& ArrivingShardFor(Key k) {
    return arriving_shards[k % kArrivingShards];
  }

  // One tracker per worker slot (index 0 unused; workers use slots >= 1).
  std::vector<std::unique_ptr<OpTracker>> trackers;

  // Messages this node's server has finished handling (incremented after
  // the handler's own sends). Paired with Inbox::PutCount for quiescing.
  std::atomic<int64_t> processed_msgs{0};

  // Node-level counters written by this node's *workers* (local/remote
  // reads+writes, queued ops, replica reads/writes -- batched per worker,
  // see the RULES above ServerStats). Server-thread-written counters live
  // in shard_stats below so concurrent shard drains never share a counter
  // cache line.
  ServerStats stats;

  // One ServerStats per server shard, written only by the owning drain
  // thread (relocations, localization_conflicts, evictions_received,
  // backlog_ns[], replica_unregisters). Sized config->server_threads at
  // system construction and never resized afterwards. Same append-only
  // golden layout as `stats`; metric consumers sum across shards.
  std::vector<ServerStats> shard_stats;

  KeyState StateOf(Key k) const {
    return static_cast<KeyState>(
        key_state[k].load(std::memory_order_acquire));
  }
  void SetState(Key k, KeyState s) {
    key_state[k].store(static_cast<uint8_t>(s), std::memory_order_release);
  }

  OpTracker& TrackerFor(int32_t thread) { return *trackers[thread]; }

  // Appends a deferred item to key k's arrival queue. Caller must hold the
  // key's latch (which is what keeps the kArriving state stable).
  void QueueDeferred(Key k, Deferred item) {
    ArrivingShard& shard = ArrivingShardFor(k);
    MutexLock lock(shard.mu);
    shard.map[k].queue.push_back(std::move(item));
  }
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_NODE_CONTEXT_H_
