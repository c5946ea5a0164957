#ifndef LAPSE_PS_WORKER_H_
#define LAPSE_PS_WORKER_H_

#include <memory>
#include <vector>

#include "net/network.h"
#include "obs/timeline.h"
#include "ps/coalescer.h"
#include "ps/dest_groups.h"
#include "ps/node_context.h"
#include "ps/op_tracker.h"
#include "util/barrier.h"
#include "util/rng.h"

namespace lapse {
namespace ps {

// Per-thread client handle implementing the PS primitives of Table 2:
//
//   pull(parameters)            -- read values
//   push(parameters, updates)   -- cumulative update
//   localize(parameters)        -- request local allocation (DPA)
//
// Every primitive has an asynchronous form returning an operation handle
// (Wait(handle) blocks until completion; OpTracker::kImmediate means the
// operation completed inline) and a synchronous convenience wrapper.
//
// Contracts:
//  * Keys within one operation must be distinct.
//  * For asynchronous pulls, the destination buffer must stay valid until
//    Wait(). Push update buffers may be reused as soon as the call returns
//    (updates are copied if they cannot be applied immediately).
//  * A Worker is owned by exactly one thread.
//
// Fast local access (Section 3.3): under kLapse and kClassicFastLocal,
// owned keys are read/written directly in shared memory under a latch; the
// server thread is not involved. Under kClassic every access goes through
// the message path, emulating PS-Lite.
class Worker {
 public:
  static constexpr uint64_t kImmediate = OpTracker::kImmediate;

  Worker(NodeContext* ctx, net::Network* network, ::lapse::Barrier* barrier,
         int32_t thread_slot, int global_id, uint64_t seed);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Waits for all outstanding asynchronous operations.
  ~Worker();

  // --- asynchronous primitives -----------------------------------------
  // Reads keys into `dst`, concatenated in key order (layout lengths).
  uint64_t PullAsync(const std::vector<Key>& keys, Val* dst);
  // Adds `updates` (concatenated in key order) to the parameters.
  uint64_t PushAsync(const std::vector<Key>& keys, const Val* updates);
  // Requests relocation of the keys to this node. No-op outside kLapse.
  // Unlike pull/push, `keys` may contain duplicates and already-local
  // keys: the request is deduplicated and keys this node already owns are
  // skipped without touching the tracker, so policy-issued localizes are
  // idempotent and cheap.
  uint64_t LocalizeAsync(const std::vector<Key>& keys);

  // Hands owned keys whose home is elsewhere back to their home node (the
  // reverse of localize; used by the adaptive placement engine to retire
  // cold keys). Fire-and-forget: the transfer completes at the home node,
  // so there is no handle to wait on. Keys not owned here (or homed here)
  // are skipped. Returns the number of keys an eviction was issued for.
  // Home-node strategy only; no-op otherwise.
  size_t Evict(const std::vector<Key>& keys);

  // Pins keys into this node's replica store and registers the node as a
  // replica holder at each key's home (so ownership moves invalidate the
  // copy). From then on, pulls of the keys are served from node-local
  // memory whenever the copy is within the staleness bound, and pushes
  // fold into the node's write accumulators. Fire-and-forget, like
  // Evict; duplicates and already-pinned keys are skipped. Returns the
  // number of keys newly pinned. No-op unless Config::replication is on.
  size_t Replicate(const std::vector<Key>& keys);

  // Reverse of Replicate: drains each key's pending write folds (flushed
  // to the owner as a tracked push, so no fold is lost), drops the pin,
  // and unregisters this node at each key's home (new kReplicaUnregister
  // message) so the directory shrinks and later ownership moves stop
  // invalidating it. Unpinned keys become ordinary again: eligible for
  // localize (and the policy's churn slate is wiped by the caller).
  // Duplicates and unpinned keys are skipped; returns the number of keys
  // unpinned. Issue Replicate and Unreplicate for one key from the same
  // worker: the two registration messages then ride one FIFO connection
  // to the home, so the directory cannot end up stale (a violation would
  // only cost a spurious invalidation -- staleness stays the correctness
  // backstop -- but there is no reason to pay it).
  size_t Unreplicate(const std::vector<Key>& keys);

  // Drains every dirty write accumulator of this node's replica store and
  // sends the folds to the owners as one push op, one envelope per
  // destination (node, shard), never held. Called automatically whenever a
  // push trips a flush trigger (Config::replica_flush_micros /
  // replica_flush_max_folds) and on worker teardown; callable manually
  // for tighter phase boundaries. Tracked: returns an operation handle
  // whose completion means every drained fold was applied by its owner
  // (kImmediate when there was nothing to flush).
  uint64_t FlushReplicas();

  // Wait/IsDone release the coalescer batch still holding the op (a queued
  // sub-op can never complete before its batch is sent); WaitAll drains
  // every held batch, so barriers never stall on the delay trigger. Ops
  // already on the wire -- and kImmediate -- skip the drain, which is what
  // lets windowed async workloads actually accumulate batches. WaitAll
  // also publishes this worker's access counters (see PublishStats).
  void Wait(uint64_t op) {
    if (op == kImmediate) return;
    coalescer_.DrainIfQueued(op);
    tracker_->Wait(op);
  }
  void WaitAll() {
    PublishStats();
    coalescer_.DrainAll();
    tracker_->WaitAll();
  }
  bool IsDone(uint64_t op) {
    coalescer_.DrainIfQueued(op);
    return tracker_->IsDone(op);
  }

  // --- synchronous wrappers ---------------------------------------------
  void Pull(const std::vector<Key>& keys, Val* dst) {
    Wait(PullAsync(keys, dst));
  }
  void Push(const std::vector<Key>& keys, const Val* updates) {
    Wait(PushAsync(keys, updates));
  }
  void Localize(const std::vector<Key>& keys) {
    Wait(LocalizeAsync(keys));
  }

  // Single-key conveniences.
  void PullKey(Key k, Val* dst) { Pull({k}, dst); }
  void PushKey(Key k, const Val* update) { Push({k}, update); }
  void LocalizeKey(Key k) { Localize({k}); }

  // Reads key k only if it can be served from node-local memory: the node
  // owns it, or a fresh replica of it is pinned here (used by the
  // word-vectors trainer to sample local-only negatives, Appendix A).
  // Returns false without blocking if neither holds.
  bool PullIfLocal(Key k, Val* dst);

  // True if key k is currently owned by this node (and the architecture
  // exposes locality).
  bool IsLocal(Key k) const;

  // Global synchronization barrier across all workers of the system. Every
  // worker publishes its access counters on entry, so node stats read
  // between two barriers are exact.
  void Barrier() {
    PublishStats();
    barrier_->Wait();
  }

  NodeId node() const { return ctx_->node; }
  int worker_id() const { return global_id_; }
  int32_t thread_slot() const { return thread_; }
  const KeyLayout& layout() const { return *ctx_->layout; }
  const Config& config() const { return *ctx_->config; }
  Rng& rng() { return rng_; }

 private:
  // Destination node for a remote op on key k (worker-side routing:
  // location cache if enabled and filled, else home / owner view).
  NodeId RemoteDst(Key k) const;

  // Send-grouping slot for key k bound for node `dst`: (dst, shard-of-k)
  // flattened as dst * num_shards + shard. Grouping by slot instead of by
  // node keeps every grouped message shard-pure, which is what lets the
  // network route it straight to the owning server shard's inbox.
  // GroupNode decodes a slot back to its destination node.
  NodeId GroupSlot(NodeId dst, Key k) const {
    return dst * num_shards_ + static_cast<NodeId>(ctx_->layout->Shard(k));
  }
  NodeId GroupNode(NodeId slot) const { return slot / num_shards_; }

  // Queues remote key k of the current op in the coalescer: on the slot of
  // its believed owner, or under broadcast-ops on every peer's. `update`
  // (len values) makes it a push, null a pull.
  void AddRemote(Key k, const Val* update, size_t len);

  // Sends scratch_.flush_keys / flush_vals (drained replica folds, keys
  // distinct) to their owners as one tracked push op, never held. Returns
  // its handle (kImmediate when there is nothing to flush).
  uint64_t PushFolds();

  // Sends the grouped scratch keys to each touched node as a
  // fire-and-forget replica-directory control message
  // (kReplicaRegister / kReplicaUnregister).
  void SendReplicaControl(net::MsgType type);

  // Fills scratch_.localize_keys with `keys`, deduplicated. The shared
  // pre-pass of the keys-may-repeat primitives (Evict, Replicate,
  // Unreplicate; LocalizeAsync adds an owned-key filter of its own).
  void DedupKeysIntoScratch(const std::vector<Key>& keys);

  // Debug-only contract check: keys within one operation must be distinct.
  // Compiled out in release builds -- it costs a copy + sort per op.
#ifndef NDEBUG
  void CheckDistinct(const std::vector<Key>& keys) const;
#else
  void CheckDistinct(const std::vector<Key>&) const {}
#endif

  // Records the keys of a sampled operation into this worker's sample ring
  // (adaptive placement engine). Out of line: runs once per sample_period
  // operations.
  void RecordAccessSample(const std::vector<Key>& keys, bool is_write);

  // Decrement-and-test of the sampling countdown; the only cost the
  // sampling hook adds to an unsampled hot-path operation.
  bool SampleThisOp() {
    if (sample_ring_ == nullptr) return false;
    if (--sample_countdown_ > 0) return false;
    sample_countdown_ = sample_period_;
    return true;
  }

  // Same discipline for the per-op timeline tracer (obs.sample_every): one
  // null check per untraced op, nothing else on the hot path.
  bool TraceThisOp() {
    if (trace_ring_ == nullptr) return false;
    if (--trace_countdown_ > 0) return false;
    trace_countdown_ = trace_period_;
    return true;
  }

  // Emits the worker-side events of one traced operation: kIssue, kLocal
  // (issue until now) and replica-miss marks. `op` == kImmediate (the op
  // finished inline) gets a synthetic per-thread uid, since the tracker
  // never saw it, and its kComplete here. A tracked op calls it before its
  // issuer releases it (OpTracker::Release), so the op's kComplete --
  // wherever it is recorded -- cannot reach the collector ahead of it. Out
  // of line: runs once per obs.sample_every operations.
  void RecordTrace(obs::OpKind kind, uint64_t op, int64_t t_issue,
                   int64_t replica_misses);
  // kComplete of a tracked op that this worker's own Release finished.
  void RecordComplete(uint64_t op);

  // Worker-written node counters (ServerStats local/remote/replica key
  // reads and writes, queued_local_ops), summed in plain integers so the
  // fast paths pay no lock-prefixed add, and published into ctx_->stats by
  // PublishStats: at Barrier(), WaitAll(), on every op's slow path, every
  // kPublishEveryOps fast-path ops and at teardown.
  struct PendingStats {
    int64_t local_reads = 0;
    int64_t remote_reads = 0;
    int64_t replica_reads = 0;
    int64_t local_writes = 0;
    int64_t remote_writes = 0;
    int64_t replica_writes = 0;
    int64_t queued = 0;
  };
  static constexpr uint32_t kPublishEveryOps = 4096;

  // Adds the pending counts to ctx_->stats (guarded: a zero count is not
  // published) and restarts the countdown.
  void PublishStats();

  // Per-op countdown of the fast paths.
  void CountFastOp() {
    if (--publish_countdown_ == 0) PublishStats();
  }

  // Reusable per-op buffers: cleared every operation, never shrunk, so the
  // hot path performs no heap allocation in steady state. A Worker is owned
  // by one thread, so plain members suffice.
  struct Scratch {
    std::vector<std::pair<Key, size_t>> key_offsets;
    DestGroups groups;  // destination-grouped control messages
    std::vector<Key> localize_keys;  // deduped localize/evict request
    std::vector<Key> flush_keys;     // drained replica folds (PushFolds)
    std::vector<Val> flush_vals;
  };

  NodeContext* ctx_;
  ::lapse::Barrier* barrier_;
  int32_t thread_;
  int global_id_;
  std::unique_ptr<net::Endpoint> endpoint_;
  OpTracker* tracker_;
  Rng rng_;
  bool fast_local_;
  bool dpa_enabled_;
  NodeId num_shards_;  // server shards per node (Config::server_threads)
  Val* dense_base_;  // non-null iff the node store is dense
  // The node's replica store (null unless config.replication): consulted
  // on the pull path after the owned check fails, so replicated contended
  // keys are served from local memory instead of the message path.
  ReplicaManager* replicas_ = nullptr;
  // Access sampling for the adaptive placement engine (null when disabled).
  adapt::SampleRing* sample_ring_ = nullptr;
  uint32_t sample_period_ = 0;
  uint32_t sample_countdown_ = 0;
  Scratch scratch_;
  // Per-op timeline tracing (null unless config.obs enables it).
  obs::EventRing* trace_ring_ = nullptr;
  uint32_t trace_period_ = 0;
  uint32_t trace_countdown_ = 0;
  uint64_t trace_inline_seq_ = 0;  // uid source for inline-completed ops
  PendingStats pending_;
  uint32_t publish_countdown_ = kPublishEveryOps;
  // Builder of every pull/push envelope this worker sends.
  Coalescer coalescer_;

  // Slot of key k for fast-path access; devirtualized for dense stores.
  Val* Slot(Key k) {
    return dense_base_ ? dense_base_ + ctx_->layout->Offset(k)
                       : ctx_->store->GetOrCreate(k);
  }
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_WORKER_H_
