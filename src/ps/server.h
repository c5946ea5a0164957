#ifndef LAPSE_PS_SERVER_H_
#define LAPSE_PS_SERVER_H_

#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "obs/timeline.h"
#include "ps/coalescer.h"
#include "ps/dest_groups.h"
#include "ps/node_context.h"

namespace lapse {
namespace ps {

// Server thread logic of one node: processes pulls/pushes for keys it owns,
// routes operations for keys it does not (forward strategy, Figure 5),
// executes the three-message relocation protocol (Figure 4), and completes
// the node's workers' pending operations when responses arrive.
//
// With Config::server_threads > 1 a node runs one Server instance per key-
// range shard (KeyLayout::Shard). Each instance drains only its own
// (node, shard) inbox, and because a key's shard is the same at every node,
// every message about a key -- ops, relocation traffic, invalidations, fold
// drains -- lands on the owning shard's thread. The per-key ordering
// guarantees (invalidate-before-transfer, folds-forwarded-before-invalidate)
// therefore hold per shard with no cross-shard locks; the latch table is
// shard-partitioned to match.
class Server {
 public:
  Server(NodeContext* ctx, net::Network* network, int shard = 0);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Event loop; returns when the network shuts down.
  void Run();

 private:
  // Handles one message. The message's payload buffers may be stolen for
  // replies; whatever remains is recycled by the caller.
  void Handle(net::Message& msg);

  // kBatchOp: serves the entries of keys owned here in entry order, queues
  // those of arriving keys, and forwards the rest, one envelope per
  // destination (RouteEntry + SendRouted).
  void HandleRequest(net::Message& msg);
  // Serves, queues or forwards entry (k, word) of envelope `msg` whose key
  // is in `state`; the caller holds k's latch. `push_vals` is the entry's
  // update (pushes only).
  void RouteEntry(const net::Message& msg, const EnvelopeView& in, Key k,
                  int64_t word, const Val* push_vals, KeyState state);
  // Sends what RouteEntry collected for `msg`: one kBatchResp to the origin
  // and one kBatchOp per forward destination.
  void SendRouted(const net::Message& msg, const EnvelopeView& in);
  // kBatchResp at the origin node: scatter served pull values into each
  // referencing sub-op's buffer (same-key pulls fan out from one entry),
  // refresh replicas/caches, and complete each sub-op in the tracker.
  void HandleResponse(const net::Message& msg);
  // Unless a flush of k is in flight, asks k's owner again for every
  // pull of k that waits in refetches_.
  void SendRefetches(Key k);

  // Home-node side of localize (message 1 -> message 2). Under the
  // broadcast-relocations strategy this arrives directly at the believed
  // owner instead.
  void HandleLocalize(net::Message& msg);

  // Old-owner side: hand keys over to the requester (message 2 -> 3).
  void HandleInstruct(net::Message& msg);

  // Requester side: install arrived keys, complete the localize op, drain
  // queued operations in order. Under broadcast-relocations, also mails
  // the new location (with the transfer's epochs) to the other nodes.
  void HandleTransfer(net::Message& msg);

  void HandleLocalizeNoop(const net::Message& msg);
  void HandleLocationUpdate(const net::Message& msg);

  // Replication directory (home side): records which nodes pinned a key
  // (kReplicaRegister), so ownership moves can invalidate their copies.
  void HandleReplicaRegister(const net::Message& msg);
  // Home side: an ex-holder unpinned these keys; drop it from the
  // directory so ownership moves stop invalidating it.
  void HandleReplicaUnregister(const net::Message& msg);
  // Replica-holder side: ownership of the keys moved; drain each key's
  // pending write folds toward the owner, then drop the copies.
  void HandleReplicaInvalidate(const net::Message& msg);
  // Sends kReplicaInvalidate to every registered holder of key k (called
  // by HandleLocalize right after the home's owner view changes).
  void InvalidateReplicaHolders(Key k);
  // Drains key k's pending write folds (if any) from the node's replica
  // store and forwards them toward the key's current owner as a flush no
  // op waits on. Called before an invalidation is honored, so the
  // invalidate/flush race can never lose aggregated updates.
  void ForwardReplicaFolds(Key k);

  // Hands owned key k (caller holds the latch) over to `requester`: removes
  // it here and appends it to transfer `t`. Under broadcast-relocations it
  // also opens the key's next epoch, in this node's mirror and in `t`.
  void HandOver(Key k, NodeId requester, net::Message* t);

  // Where this server forwards an operation on a non-owned key.
  NodeId RouteDst(Key k) const;

  // Drains the deferred queue of a freshly-arrived key. Caller holds the
  // latch of `k`. May transfer the key away again (chained instruct).
  void DrainArrived(Key k);

  // Re-sends a deferred item over the network after the key moved away.
  void ForwardDeferred(Key k, Deferred item);

  // Records the queue-wait and wire-time phase events of one hop of a
  // traced message for each traced op it carries (out of line; traced
  // messages are rare by sampling).
  void RecordHop(const net::Message& msg);
  // Records a `phase` duration for each traced op of `msg`.
  void RecordOpsPhase(const net::Message& msg, obs::Phase phase,
                      int64_t dur_ns);

  NodeContext* ctx_;
  net::Network* network_;
  // This instance's key-range shard; it drains inbox (node, shard_) only.
  int shard_;
  // Counters owned by this shard's drain thread: &ctx_->shard_stats[shard_].
  // Never written by any other thread.
  ServerStats* stats_;
  std::unique_ptr<net::Endpoint> endpoint_;

  // Reusable per-message scratch (the server is single-threaded): flat
  // destination-indexed grouping of relocation messages, and the batch
  // buffer for Inbox::TakeBatch.
  DestGroups groups_;
  std::vector<net::Message> batch_;
  // One key's value: a drained replica accumulator (ForwardReplicaFolds),
  // or a pull's answer from ReplicaManager::Install (HandleResponse).
  std::vector<Val> val_buf_;
  // Envelope scratch of RouteEntry/SendRouted: the reply to the origin, and
  // one forward per destination node (touched in fwd_dsts_).
  Envelope reply_;
  std::vector<Envelope> fwd_;
  std::vector<NodeId> fwd_dsts_;
  // Per-sub-op completion counts of HandleResponse.
  std::vector<size_t> op_counts_;
  // The items DrainArrived took out of an arrival record; their buffers
  // trade places with the record's on every drain.
  std::vector<Deferred> drain_queue_;
  std::vector<ArrivingKey::LocalizeWaiter> drain_waiters_;

  // Pull sub-ops (key, origin thread, op word) whose owner snapshot the
  // flush epoch refused (ReplicaManager::Install), and when each was asked
  // again (0 = not yet: a flush of the key is in flight).
  std::map<std::tuple<Key, int32_t, int64_t>, int64_t> refetches_;

  // Which nodes hold a replica of each key homed here. Server-thread-only
  // (registrations and ownership moves both arrive on this thread), so no
  // lock. Only keys that were ever flagged for replication have entries.
  std::unordered_map<Key, std::vector<NodeId>> replica_holders_;

  // This server thread's trace-event ring (its Config::server_slot);
  // null unless per-op tracing is enabled. Untraced messages pay one null
  // check + one flag test in Handle().
  obs::EventRing* trace_ring_ = nullptr;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_SERVER_H_
