#include "net/network.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/logging.h"
#include "util/timer.h"

namespace lapse {
namespace net {

void SenderCounters::Record(const Message& msg) {
  const size_t t = static_cast<size_t>(msg.type);
  std::atomic<int64_t>& n = msgs_[msg.src_node != msg.dst_node][t];
  std::atomic<int64_t>& b = bytes_[t];
  // Single writer: a plain add, published by a relaxed store.
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  b.store(b.load(std::memory_order_relaxed) +
              static_cast<int64_t>(msg.WireBytes()),
          std::memory_order_relaxed);
}

namespace {

template <size_t N>
int64_t SumOf(const int64_t (&counts)[N]) {
  return std::accumulate(counts, counts + N, int64_t{0});
}

}  // namespace

SenderCounters* NetStats::AddSender() {
  MutexLock lock(mu_);
  return &senders_.emplace_back();
}

NetStats::Totals NetStats::SumLocked() const {
  Totals sum;
  for (const SenderCounters& c : senders_) {
    for (size_t t = 0; t < kNumTypes; ++t) {
      for (int r = 0; r < 2; ++r) {
        sum.msgs[r][t] += c.msgs_[r][t].load(std::memory_order_relaxed);
      }
      sum.bytes[t] += c.bytes_[t].load(std::memory_order_relaxed);
    }
  }
  return sum;
}

NetStats::Totals NetStats::Sum() const {
  MutexLock lock(mu_);
  Totals sum = SumLocked();
  for (size_t t = 0; t < kNumTypes; ++t) {
    for (int r = 0; r < 2; ++r) sum.msgs[r][t] -= baseline_.msgs[r][t];
    sum.bytes[t] -= baseline_.bytes[t];
  }
  return sum;
}

void NetStats::Reset() {
  MutexLock lock(mu_);
  baseline_ = SumLocked();
}

int64_t NetStats::MessagesOfType(MsgType type) const {
  const Totals s = Sum();
  const size_t t = static_cast<size_t>(type);
  return s.msgs[0][t] + s.msgs[1][t];
}

int64_t NetStats::BytesOfType(MsgType type) const {
  return Sum().bytes[static_cast<size_t>(type)];
}

#define LAPSE_NET_TOTAL_DEF(name, expr) \
  int64_t NetStats::name() const {     \
    const Totals t = Sum();            \
    return (expr);                     \
  }
LAPSE_NET_TOTALS(LAPSE_NET_TOTAL_DEF)
#undef LAPSE_NET_TOTAL_DEF

std::string NetStats::ToString() const {
  const Totals s = Sum();
  const int64_t local = SumOf(s.msgs[0]), remote = SumOf(s.msgs[1]);
  std::ostringstream os;
  os << "messages=" << local + remote << " bytes=" << SumOf(s.bytes)
     << " remote=" << remote << " local=" << local;
  for (size_t t = 0; t < kNumTypes; ++t) {
    const int64_t n = s.msgs[0][t] + s.msgs[1][t];
    if (n == 0) continue;
    os << "\n  " << MsgTypeName(static_cast<MsgType>(t)) << ": " << n
       << " msgs, " << s.bytes[t] << " bytes";
  }
  return os.str();
}

Endpoint::Endpoint(Network* network, SenderSlot* slot, uint64_t seed)
    : network_(network),
      slot_(slot),
      node_(slot->node),
      thread_(slot->thread),
      latency_(network->latency_config(), seed) {}

Endpoint::~Endpoint() { network_->ReleaseSlot(slot_); }

void Endpoint::Send(Message msg) {
  LAPSE_CHECK_GE(msg.dst_node, 0);
  LAPSE_CHECK_LT(msg.dst_node, network_->num_nodes());
  msg.src_node = node_;
  msg.src_thread = thread_;
  msg.send_ns = NowNanos();
  const bool same_node = (msg.dst_node == node_);
  const int64_t base_delay = latency_.DelayNs(0, same_node);
  const int64_t bytes_ns = static_cast<int64_t>(
      latency_.config().per_byte_ns * static_cast<double>(msg.WireBytes()));
  // Store-and-forward with shared link capacities: the message occupies the
  // sender's egress for bytes_ns (serialized with all other traffic leaving
  // this node), propagates for base_delay, then occupies the receiver's
  // ingress for bytes_ns. Hot nodes thus saturate, like a real NIC.
  int64_t deliver;
  if (bytes_ns > 0) {
    const int64_t sent =
        network_->ReserveEgress(node_, msg.send_ns, bytes_ns);
    deliver = network_->ReserveIngress(msg.dst_node, sent + base_delay,
                                       bytes_ns);
  } else {
    deliver = msg.send_ns + base_delay;
  }
  const int shard = network_->ShardOfMsg(msg);
  // Simulated per-message server CPU: the message next occupies the
  // receiving drain thread's service register, serialized with everything
  // else bound for the same (node, shard) inbox. Reserved after link
  // capacity (a message must arrive before it can be served) and before the
  // FIFO clamp (service completion is part of this connection's order).
  const int64_t serve_ns = latency_.config().server_ns_per_msg;
  if (serve_ns > 0) {
    deliver =
        network_->ReserveService(msg.dst_node, shard, deliver, serve_ns);
  }
  // Per-connection FIFO: never deliver before an earlier message on this
  // (endpoint -> node, shard) connection, i.e. this lane.
  const size_t link = network_->InboxIndex(msg.dst_node, shard);
  Lane& lane = *slot_->lanes[link];
  msg.deliver_ns = std::max(deliver, lane.last_deliver_ns());
  slot_->counters->Record(msg);
  network_->inboxes_[link]->Put(lane, std::move(msg));
}

Network::Network(int num_nodes, const LatencyConfig& latency, uint64_t seed,
                 int shards_per_node, std::function<int(Key)> shard_of_key)
    : num_nodes_(num_nodes),
      shards_per_node_(shards_per_node),
      latency_config_(latency),
      seed_(seed),
      shard_of_key_(std::move(shard_of_key)),
      egress_busy_until_(num_nodes),
      ingress_busy_until_(num_nodes),
      service_busy_until_(static_cast<size_t>(num_nodes) * shards_per_node) {
  LAPSE_CHECK_GT(num_nodes, 0);
  LAPSE_CHECK_GT(shards_per_node, 0);
  if (shards_per_node > 1) {
    LAPSE_CHECK(shard_of_key_ != nullptr)
        << "Network: multi-shard routing needs a shard_of_key function";
  }
  inboxes_.reserve(static_cast<size_t>(num_nodes) * shards_per_node);
  for (int i = 0; i < num_nodes; ++i) {
    for (int s = 0; s < shards_per_node; ++s) {
      inboxes_.push_back(std::make_unique<Inbox>(latency.idle_spin_ns));
      service_busy_until_[InboxIndex(i, s)].store(0,
                                                  std::memory_order_relaxed);
    }
    egress_busy_until_[i].store(0, std::memory_order_relaxed);
    ingress_busy_until_[i].store(0, std::memory_order_relaxed);
  }
}

namespace {

// Appends a `cost_ns`-long slot to a busy-until register, starting no
// earlier than `earliest_ns`; returns the slot's end time.
int64_t ReserveSlot(std::atomic<int64_t>& busy_until, int64_t earliest_ns,
                    int64_t cost_ns) {
  int64_t busy = busy_until.load(std::memory_order_relaxed);
  for (;;) {
    const int64_t start = std::max(busy, earliest_ns);
    const int64_t end = start + cost_ns;
    if (busy_until.compare_exchange_weak(busy, end,
                                         std::memory_order_relaxed)) {
      return end;
    }
  }
}

}  // namespace

int64_t Network::ReserveEgress(NodeId src, int64_t earliest_ns,
                               int64_t cost_ns) {
  return ReserveSlot(egress_busy_until_[src], earliest_ns, cost_ns);
}

int64_t Network::ReserveIngress(NodeId dst, int64_t earliest_ns,
                                int64_t cost_ns) {
  return ReserveSlot(ingress_busy_until_[dst], earliest_ns, cost_ns);
}

int64_t Network::ReserveService(NodeId dst, int shard, int64_t earliest_ns,
                                int64_t cost_ns) {
  return ReserveSlot(service_busy_until_[InboxIndex(dst, shard)], earliest_ns,
                     cost_ns);
}

std::unique_ptr<Endpoint> Network::CreateEndpoint(NodeId node,
                                                  int32_t thread) {
  LAPSE_CHECK_GE(node, 0);
  LAPSE_CHECK_LT(node, num_nodes_);
  const uint64_t seed =
      Mix64(seed_ ^ (static_cast<uint64_t>(node) << 32) ^
            static_cast<uint64_t>(thread + 1));
  return std::make_unique<Endpoint>(this, AcquireSlot(node, thread), seed);
}

SenderSlot* Network::AcquireSlot(NodeId node, int32_t thread) {
  MutexLock lock(slots_mu_);
  SenderSlot* slot = nullptr;
  for (const auto& s : slots_) {
    if (s->node == node && s->thread == thread) slot = s.get();
  }
  if (slot == nullptr) {
    slots_.push_back(std::make_unique<SenderSlot>());
    slot = slots_.back().get();
    slot->node = node;
    slot->thread = thread;
    for (auto& inbox : inboxes_) slot->lanes.push_back(inbox->AddLane());
    slot->counters = stats_.AddSender();
  }
  LAPSE_CHECK(!slot->live) << "two live endpoints on thread slot (node "
                           << node << ", thread " << thread << ")";
  slot->live = true;
  return slot;
}

void Network::ReleaseSlot(SenderSlot* slot) {
  MutexLock lock(slots_mu_);
  slot->live = false;
}

bool Network::Recv(NodeId node, int shard, Message* out) {
  return inboxes_[InboxIndex(node, shard)]->Take(out);
}

bool Network::RecvBatch(NodeId node, int shard, std::vector<Message>* out) {
  return inboxes_[InboxIndex(node, shard)]->TakeBatch(out);
}

void Network::Shutdown() {
  for (auto& inbox : inboxes_) inbox->Shutdown();
}

}  // namespace net
}  // namespace lapse
