#ifndef LAPSE_NET_NETWORK_H_
#define LAPSE_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "net/latency_model.h"
#include "net/message.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace net {

// Message counters of one sending thread slot, by type and locality.
// Only the thread holding the slot writes them, with a plain load and store
// (no lock-prefixed instruction); any thread may read them. Each slot's
// counters sit on cache lines of their own, so senders never share a
// counter line.
class alignas(64) SenderCounters {
 public:
  void Record(const Message& msg);

 private:
  friend class NetStats;
  static constexpr size_t kNumTypes = static_cast<size_t>(MsgType::kNumTypes);
  std::atomic<int64_t> msgs_[2][kNumTypes] = {};  // [remote][type]
  std::atomic<int64_t> bytes_[kNumTypes] = {};
};

// The totals of NetStats, X(name, expr): expr computes the total from t,
// the per-type sums since the last Reset (t.msgs[0] loop-back, t.msgs[1]
// cross-node). Every sender counts them; all are cumulative, and the
// registry names them net.<name>.
#define LAPSE_NET_TOTALS(X)                                \
  /* Messages sent, loop-back and cross-node. */           \
  X(total_messages, SumOf(t.msgs[0]) + SumOf(t.msgs[1]))  \
  /* Bytes sent (Message::WireBytes). */                   \
  X(total_bytes, SumOf(t.bytes))                           \
  /* Messages between two nodes. */                        \
  X(remote_messages, SumOf(t.msgs[1]))                     \
  /* Messages a node sent to itself. */                    \
  X(local_messages, SumOf(t.msgs[0]))

// Aggregate message statistics, by type and by locality (loop-back vs
// cross-node): the sum of every sender's counters since the last Reset.
// Reads take a mutex and sum all senders, so they cost microseconds and
// sends cost none of it. Snapshots are approximate under concurrency,
// exact once the system has quiesced; counts survive the sending threads.
class NetStats {
 public:
  // Counters for a new sender; they live, and count, as long as this.
  SenderCounters* AddSender();

  // Counts from here on: the current totals become the baseline.
  void Reset();

  int64_t MessagesOfType(MsgType type) const;
  int64_t BytesOfType(MsgType type) const;
#define LAPSE_NET_TOTAL_DECL(name, expr) int64_t name() const;
  LAPSE_NET_TOTALS(LAPSE_NET_TOTAL_DECL)
#undef LAPSE_NET_TOTAL_DECL

  // Calls f(name, get) per total, where get(stats) reads it.
  template <typename F>
  static void ForEachTotal(F&& f) {
#define LAPSE_NET_TOTAL_VISIT(name, expr) \
  f(#name, [](const NetStats& s) { return s.name(); });
    LAPSE_NET_TOTALS(LAPSE_NET_TOTAL_VISIT)
#undef LAPSE_NET_TOTAL_VISIT
  }

  // Multi-line human-readable dump of non-zero counters.
  std::string ToString() const;

 private:
  static constexpr size_t kNumTypes = SenderCounters::kNumTypes;
  struct Totals {
    int64_t msgs[2][kNumTypes] = {};  // [remote][type]
    int64_t bytes[kNumTypes] = {};
  };

  // Sum over all senders since the last Reset.
  Totals Sum() const;
  // Sum over all senders since construction.
  Totals SumLocked() const LAPSE_REQUIRES(mu_);

  mutable Mutex mu_;
  std::deque<SenderCounters> senders_ LAPSE_GUARDED_BY(mu_);
  Totals baseline_ LAPSE_GUARDED_BY(mu_);
};

class Network;

// A sending thread slot (node, thread): its lane into every inbox and its
// message counters. Slots live as long as the Network. An endpoint holds
// its slot for its lifetime, and the next endpoint on the same slot (a
// worker of the next PsSystem::Run, say) continues its predecessor's lanes
// and counters, so per-connection FIFO spans endpoint generations.
struct SenderSlot {
  NodeId node = -1;
  int32_t thread = -1;
  bool live = false;          // an endpoint holds it; under Network's mutex
  std::vector<Lane*> lanes;   // per destination (node, shard); inbox-owned
  SenderCounters* counters = nullptr;  // owned by NetStats
};

// Sending handle owned by exactly one thread. Messages sent through one
// endpoint to the same destination (node, shard) inbox are delivered in send
// order (per-connection FIFO, like one TCP connection per peer): each such
// connection is one Lane, and Send clamps every delivery time to the lane's
// last one. Thread-compatible, not thread-safe: each thread creates its own
// endpoint, and at most one endpoint per (node, thread) slot is alive.
//
// Send writes the message into its lane and bumps this slot's own
// counters. Beyond the NIC and service registers of the latency model (when
// those are on), the only lines it shares are its lane's, which the drain
// thread reads, and the inbox's parked flag, which it only reads. It takes
// no mutex and touches neither a shared queue nor process-wide counters.
class Endpoint {
 public:
  Endpoint(Network* network, SenderSlot* slot, uint64_t seed);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // Stamps src/timing fields and delivers to msg.dst_node's inbox.
  void Send(Message msg);

  NodeId node() const { return node_; }
  int32_t thread() const { return thread_; }

 private:
  Network* network_;
  SenderSlot* slot_;
  NodeId node_;
  int32_t thread_;
  LatencyModel latency_;
};

// In-process simulated cluster interconnect: one inbox per (node, server
// shard), endpoints for every sending thread, configurable latency, global
// statistics. With the default single shard this degenerates to one inbox
// per node.
//
// Shard routing: a keyed message goes to shard_of_key(keys[0]) of its
// destination node -- senders group keys so every keyed message is
// shard-pure -- and non-keyed control messages go to shard 0. Per-connection
// FIFO is kept per (endpoint -> node, shard) link, which is what each
// per-key protocol ordering argument actually needs: a key's messages all
// carry the same shard index everywhere.
class Network {
 public:
  Network(int num_nodes, const LatencyConfig& latency, uint64_t seed = 1,
          int shards_per_node = 1,
          std::function<int(Key)> shard_of_key = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int num_nodes() const { return num_nodes_; }
  int shards_per_node() const { return shards_per_node_; }
  const LatencyConfig& latency_config() const { return latency_config_; }

  // Creates a sending endpoint for (node, thread), thread being a thread
  // slot as ps::Config numbers them. CHECK-fails while another endpoint on
  // the same slot is alive.
  std::unique_ptr<Endpoint> CreateEndpoint(NodeId node, int32_t thread);

  // Blocking receive for `node`'s shard-0 server thread. Returns false once
  // the network is shut down and the inbox drained.
  bool Recv(NodeId node, Message* out) { return Recv(node, 0, out); }
  bool Recv(NodeId node, int shard, Message* out);

  // Batched receive: appends every currently-deliverable message for the
  // given (node, shard) inbox in delivery order (at least one; blocks like
  // Recv). One scan of the inbox's lanes per batch instead of per message.
  bool RecvBatch(NodeId node, std::vector<Message>* out) {
    return RecvBatch(node, 0, out);
  }
  bool RecvBatch(NodeId node, int shard, std::vector<Message>* out);

  // Wakes all server threads; Recv returns false after draining.
  void Shutdown();

  NetStats& stats() { return stats_; }
  Inbox& inbox(NodeId node) { return inbox(node, 0); }
  Inbox& inbox(NodeId node, int shard) {
    return *inboxes_[InboxIndex(node, shard)];
  }

  // Blocks until every message ever enqueued has been fully handled by its
  // receiver. `processed(n)` must return how many messages node n's server
  // shards have finished handling in total (counted *after* any sends the
  // handlers perform). Used by the systems to make fire-and-forget protocol
  // messages (location updates, clock broadcasts) visible before Run()
  // returns. Requires that the servers keep draining (i.e. the network is
  // not shut down) and that no new external messages are being injected.
  template <typename ProcessedFn>
  void Quiesce(ProcessedFn processed) const {
    // A single all-equal pass is not enough: a handler may send to an
    // already-checked inbox before bumping its own processed count. Both
    // counters are monotone, so requiring two consecutive all-equal passes
    // with *identical* PutCount values closes that window -- any activity
    // between the passes increments some PutCount, and a handler running
    // during a pass leaves its own node unequal.
    std::vector<int64_t> prev(static_cast<size_t>(num_nodes_), -1);
    std::vector<int64_t> cur(static_cast<size_t>(num_nodes_), -1);
    for (;;) {
      bool quiet = true;
      for (NodeId n = 0; n < num_nodes_; ++n) {
        cur[n] = NodePutCount(n);
        if (cur[n] != processed(n)) {
          quiet = false;
          break;
        }
      }
      if (quiet && cur == prev) return;
      if (quiet) {
        prev.swap(cur);
      } else {
        prev.assign(prev.size(), -1);  // partial pass; invalidate snapshot
        std::this_thread::yield();
      }
    }
  }

 private:
  friend class Endpoint;

  // Hands (node, thread)'s slot to a new endpoint, creating it on first use.
  SenderSlot* AcquireSlot(NodeId node, int32_t thread);
  void ReleaseSlot(SenderSlot* slot);

  size_t InboxIndex(NodeId node, int shard) const {
    return static_cast<size_t>(node) * shards_per_node_ + shard;
  }

  // Total messages ever enqueued across node n's shard inboxes. Monotone
  // (each lane tail is), which Quiesce's argument relies on.
  int64_t NodePutCount(NodeId n) const {
    int64_t total = 0;
    for (int s = 0; s < shards_per_node_; ++s) {
      total += inboxes_[InboxIndex(n, s)]->PutCount();
    }
    return total;
  }

  // Destination shard of a message: shard of its first key, or shard 0 for
  // non-keyed control messages. Senders keep keyed messages shard-pure, so
  // keys[0] speaks for all of them.
  int ShardOfMsg(const Message& msg) const {
    return (shards_per_node_ == 1 || msg.keys.empty())
               ? 0
               : shard_of_key_(msg.keys[0]);
  }

  // Reserves NIC time for a message of `bytes` bytes leaving `src` no
  // earlier than `earliest_ns` and returns when its last byte has left the
  // sender (egress capacity = 1/per_byte_ns bytes per second, shared by all
  // senders of the node). Ingress works symmetrically. This shared-capacity
  // model is what lets hot parameter servers saturate, like a real NIC.
  int64_t ReserveEgress(NodeId src, int64_t earliest_ns, int64_t cost_ns);
  int64_t ReserveIngress(NodeId dst, int64_t earliest_ns, int64_t cost_ns);

  // Reserves service time on the receiving (node, shard) drain thread
  // (LatencyConfig::server_ns_per_msg per message): the simulated analogue
  // of the CPU cost each message costs its server, and the resource that
  // sharding the server actually multiplies.
  int64_t ReserveService(NodeId dst, int shard, int64_t earliest_ns,
                         int64_t cost_ns);

  const int num_nodes_;
  const int shards_per_node_;
  const LatencyConfig latency_config_;
  const uint64_t seed_;
  const std::function<int(Key)> shard_of_key_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;        // (node, shard)
  std::vector<std::atomic<int64_t>> egress_busy_until_;
  std::vector<std::atomic<int64_t>> ingress_busy_until_;
  std::vector<std::atomic<int64_t>> service_busy_until_;  // (node, shard)
  NetStats stats_;
  Mutex slots_mu_;
  std::vector<std::unique_ptr<SenderSlot>> slots_ LAPSE_GUARDED_BY(slots_mu_);
};

}  // namespace net
}  // namespace lapse

#endif  // LAPSE_NET_NETWORK_H_
