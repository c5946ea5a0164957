#ifndef LAPSE_PS_NODE_CONTEXT_H_
#define LAPSE_PS_NODE_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
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
#include "util/stats.h"

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

// Which threads write a ServerStats field, and so which copy counts it and
// what the metrics registry calls it.
enum class StatWriter : uint8_t {
  // The node's workers, into NodeContext::stats: node{n}.<name>.
  kWorker,
  // One server shard's drain thread, into NodeContext::shard_stats[s]:
  // node{n}.shard{s}.<name>.
  kShard,
};

// One Counter per message type, registered as <name>.<MsgTypeName>.
using MsgTypeCounters =
    std::array<Counter, static_cast<size_t>(net::MsgType::kNumTypes)>;

// The fields of ServerStats, X(type, name, writer): the per-node
// performance counters (Table 5, Section 4.6). All are cumulative: a
// Counter's count is events, its sum their total.
#define LAPSE_SERVER_STATS(X)                                               \
  /* Keys served via the shared-memory fast path. */                        \
  X(Counter, local_key_reads, kWorker)                                      \
  /* Keys this node's workers read via messages. */                         \
  X(Counter, remote_key_reads, kWorker)                                     \
  X(Counter, local_key_writes, kWorker)                                     \
  X(Counter, remote_key_writes, kWorker)                                    \
  /* Local ops that had to wait for a relocation. */                        \
  X(Counter, queued_local_ops, kWorker)                                     \
  /* Keys served from the node's replica store (bounded-staleness local    \
     reads of contended keys; neither local_key_reads nor remote). */       \
  X(Counter, replica_key_reads, kWorker)                                    \
  /* Pushes folded into the node's replica write accumulators (no owner    \
     message paid). */                                                      \
  X(Counter, replica_key_writes, kWorker)                                   \
  /* Worker ops that queued at least one key in the request coalescer. */   \
  X(Counter, coalesced_ops, kWorker)                                        \
  /* One Add(n_sub_ops) per batched wire message: count = batches, sum =   \
     sub-ops (sum/count = mean batch size). */                              \
  X(Counter, coalesce_batches, kWorker)                                     \
  /* Wait/WaitAll/teardown drains that actually released a held batch. */   \
  X(Counter, coalesce_forced_drains, kWorker)                               \
  /* count = keys relocated to this node (as requester); sum = their       \
     relocation time (ns), from localize issue to transfer arrival. */      \
  X(Counter, relocations, kShard)                                           \
  /* Transfers of keys some other node took. */                             \
  X(Counter, localization_conflicts, kShard)                                \
  /* Keys that returned to this node (their home) via an eviction issued   \
     by some node's placement manager or Worker::Evict. */                  \
  X(Counter, evictions_received, kShard)                                    \
  /* Holders dropped from this home's replica directory by                 \
     kReplicaUnregister. */                                                 \
  X(Counter, replica_unregisters, kShard)                                   \
  /* Per message type: count = messages, sum = lag (ns) between simulated  \
     delivery and processing start (diagnoses server backlog). */           \
  X(MsgTypeCounters, backlog_ns, kShard)

// Per-node performance counters, declared by LAPSE_SERVER_STATS.
//
// RULES for counters touched on the hot paths:
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
//
// alignas(64): each copy starts a cache line, so the copies of two shards
// never share one between their drain threads.
struct alignas(64) ServerStats {
#define LAPSE_STAT_MEMBER(type, name, writer) type name;
  LAPSE_SERVER_STATS(LAPSE_STAT_MEMBER)
#undef LAPSE_STAT_MEMBER

  // Calls f(name, get, writer) per field, where get(s) is that field of s.
  template <typename F>
  static void ForEachField(F&& f) {
#define LAPSE_STAT_VISIT_SERVER(type, name, writer) \
  f(#name, [](auto&& s) -> auto& { return s.name; }, StatWriter::writer);
    LAPSE_SERVER_STATS(LAPSE_STAT_VISIT_SERVER)
#undef LAPSE_STAT_VISIT_SERVER
  }

  void Reset();
};

#define LAPSE_STAT_SIZE(type, name, writer) +sizeof(type)
static_assert(sizeof(ServerStats) ==
                  (0 LAPSE_SERVER_STATS(LAPSE_STAT_SIZE) + 63) / 64 * 64,
              "every field of ServerStats belongs in LAPSE_SERVER_STATS");
#undef LAPSE_STAT_SIZE

// Calls f(suffix, counter) per Counter of a ServerStats field: once with
// "" for a Counter, once per message type with ".<MsgTypeName>" for
// MsgTypeCounters.
template <typename C, typename F>
void ForEachCounter(C& field, F&& f) {
  if constexpr (std::is_same_v<std::remove_const_t<C>, MsgTypeCounters>) {
    for (size_t t = 0; t < field.size(); ++t) {
      f(std::string(".") + net::MsgTypeName(static_cast<net::MsgType>(t)),
        field[t]);
    }
  } else {
    f(std::string(), field);
  }
}

inline void ServerStats::Reset() {
  ForEachField([this](const char*, auto get, StatWriter) {
    ForEachCounter(get(*this), [](const std::string&, Counter& c) {
      c.Reset();
    });
  });
}

// Everything one logical node's server thread and worker threads share.
struct NodeContext {
  NodeId node = -1;
  const Config* config = nullptr;
  const KeyLayout* layout = nullptr;

  // The node's parameter values: KeyLayout::TotalVals() of them, key k's
  // at Slot(k). With dynamic allocation any node may own any key, so every
  // node holds the full key space. Only the owner reads or writes key k's
  // values, under k's latch.
  std::vector<Val> values;
  std::unique_ptr<LatchTable> latches;
  std::vector<std::atomic<uint8_t>> key_state;  // KeyState per key
  std::unique_ptr<LocationTable> owners;
  std::unique_ptr<LocationCache> cache;  // null unless enabled
  // Sample rings of the adaptive placement engine, one per op-issuing
  // thread slot (null unless config.adaptive.enabled).
  std::unique_ptr<adapt::AccessStats> access_stats;
  // Replica store for contended read-mostly keys (null unless
  // config.replication).
  std::unique_ptr<ReplicaManager> replicas;
  // Trace-event rings of the observability layer, one per thread slot
  // (owned by the PsSystem's obs::Observability; null unless tracing is
  // on, config.obs.sample_every > 0).
  obs::NodeObs* obs = nullptr;
  // Coalescing histograms (owned by the PsSystem's obs::Observability;
  // null unless tracing is on). Histogram::Add is lock-free and
  // multi-producer safe, so every worker's coalescer feeds them directly.
  obs::Histogram* coalesce_batch_size_hist = nullptr;
  obs::Histogram* coalesce_wait_ns_hist = nullptr;

  // One tracker per op-issuing thread slot, 0..Config::manager_slot()
  // (slot 0, the shard-0 server, issues none).
  std::vector<std::unique_ptr<OpTracker>> trackers;

  // Messages this node's server has finished handling (incremented after
  // the handler's own sends). Paired with Inbox::PutCount for quiescing.
  // alignas(64): every drain thread bumps it per message, so it must not
  // share a cache line with the pointers above, which workers read on
  // every op or batch.
  alignas(64) std::atomic<int64_t> processed_msgs{0};

  // The kWorker fields of ServerStats, written by this node's workers
  // (batched per worker, see the RULES above ServerStats).
  ServerStats stats;

  // One ServerStats per server shard, whose kShard fields only the owning
  // drain thread writes. Sized config->server_threads at system
  // construction and never resized afterwards.
  std::vector<ServerStats> shard_stats;

  KeyState StateOf(Key k) const {
    return static_cast<KeyState>(
        key_state[k].load(std::memory_order_acquire));
  }
  void SetState(Key k, KeyState s) {
    key_state[k].store(static_cast<uint8_t>(s), std::memory_order_release);
  }

  Val* Slot(Key k) { return values.data() + layout->Offset(k); }

  OpTracker& TrackerFor(int32_t thread) { return *trackers[thread]; }

  // Key k's arrival record, or null if nothing waits for k. Caller must
  // hold k's latch, which guards its latch slot's records.
  ArrivingKey* FindArriving(Key k) {
    for (ArrivingKey& r : latches->ArrivalsAt(latches->IndexOf(k))) {
      if (r.active && r.key == k) return &r;
    }
    return nullptr;
  }

  // Key k's arrival record, claiming a free one of its latch slot (or
  // adding one) if k has none. Caller must hold k's latch.
  ArrivingKey& ArrivalFor(Key k) {
    std::vector<ArrivingKey>& list =
        latches->ArrivalsAt(latches->IndexOf(k));
    ArrivingKey* spare = nullptr;
    for (ArrivingKey& r : list) {
      if (r.active && r.key == k) return r;
      if (!r.active && spare == nullptr) spare = &r;
    }
    if (spare == nullptr) spare = &list.emplace_back();
    spare->key = k;
    spare->active = true;
    return *spare;
  }

  // Appends a deferred item to key k's arrival queue. Caller must hold the
  // key's latch (which is what keeps the kArriving state stable).
  void QueueDeferred(Key k, Deferred item) {
    ArrivalFor(k).queue.push_back(std::move(item));
  }
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_NODE_CONTEXT_H_
