#include "ps/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"
#include "util/vec_ops.h"

namespace lapse {
namespace ps {

using net::BufferPool;
using net::Message;
using net::MsgType;

namespace {

// Copy of relocation request `msg` (a localize or instruct) for key k
// alone, to defer or chase it.
Message SingleKeyCopy(const Message& msg, Key k) {
  Message d;
  d.type = msg.type;
  d.orig_node = msg.orig_node;
  d.orig_thread = msg.orig_thread;
  d.op_id = msg.op_id;
  d.requester_node = msg.requester_node;
  d.hops = msg.hops;
  d.traced = msg.traced;
  d.deliver_ns = msg.deliver_ns;  // deferral start for the stall phase
  d.keys.push_back(k);
  return d;
}

// An empty envelope of `type` for the sub-ops of origin thread
// (orig_node, orig_thread). The envelope itself is nobody's op.
Message EnvelopeFor(MsgType type, NodeId orig_node, int32_t orig_thread) {
  Message m;
  m.type = type;
  m.orig_node = orig_node;
  m.orig_thread = orig_thread;
  m.op_id = OpTracker::kImmediate;
  return m;
}

// An empty kRelocateTransfer to the requester of relocation request `req`
// (a localize or instruct), completing the requester's localize op.
Message TransferFor(const Message& req) {
  Message t;
  t.type = MsgType::kRelocateTransfer;
  t.dst_node = req.requester_node;
  t.requester_node = req.requester_node;
  t.orig_node = req.orig_node;
  t.orig_thread = req.orig_thread;
  t.op_id = req.op_id;
  t.traced = req.traced;
  t.keys = BufferPool::GetKeys();
  t.vals = BufferPool::GetVals();
  return t;
}

// A kBatchOp holding the single entry (k, word) with update `vals` (n
// values), behind the sub-ops of `op_words` that the entry references.
Message OneEntry(NodeId orig_node, int32_t orig_thread,
                 const int64_t* op_words, Key k, int64_t word,
                 const Val* vals, size_t n) {
  Envelope e;
  e.Add(k, word, vals, n);
  Message m = EnvelopeFor(MsgType::kBatchOp, orig_node, orig_thread);
  e.Seal(op_words, &m);
  return m;
}

}  // namespace

Server::Server(NodeContext* ctx, net::Network* network, int shard)
    : ctx_(ctx),
      network_(network),
      shard_(shard),
      stats_(&ctx->shard_stats[shard]),
      // Thread-slot convention: 0 = shard-0 server, 1..W = workers, W+1 =
      // placement manager, W+2.. = the extra server shards, in order.
      endpoint_(network->CreateEndpoint(
          ctx->node,
          shard == 0 ? 0 : ctx->config->workers_per_node + 1 + shard)) {
  groups_.Resize(static_cast<size_t>(network->num_nodes()));
  fwd_.resize(static_cast<size_t>(network->num_nodes()));
  if (ctx_->obs != nullptr) {
    trace_ring_ = ctx_->obs->Ring(
        shard == 0 ? 0 : ctx->config->workers_per_node + 1 + shard);
  }
}

void Server::Run() {
  // Drain this shard's inbox in batches: one lock acquisition (and at most
  // one condvar wakeup) per burst of deliverable messages instead of per
  // message.
  while (network_->RecvBatch(ctx_->node, shard_, &batch_)) {
    for (Message& msg : batch_) {
      if (msg.type == MsgType::kShutdown) return;
      Handle(msg);
      ctx_->processed_msgs.fetch_add(1, std::memory_order_release);
      // Return whatever payload buffers the handler did not steal; replies
      // built on this thread reuse the capacity.
      msg.Recycle();
    }
    batch_.clear();
  }
}

void Server::RecordOpsPhase(const Message& msg, obs::Phase phase,
                            int64_t dur_ns) {
  auto record = [&](uint64_t op_id) {
    trace_ring_->TryPush(obs::TraceEvent::Dur(
        obs::PackUid(msg.orig_node, msg.orig_thread, op_id), phase, dur_ns,
        ctx_->node));
  };
  if (msg.type != MsgType::kBatchOp && msg.type != MsgType::kBatchResp) {
    if (msg.op_id != OpTracker::kImmediate) record(msg.op_id);
    return;
  }
  const EnvelopeView in(msg);
  for (size_t s = 0; s < in.n_ops; ++s) {
    if (IsTraced(in.ops[s])) record(OpIdOf(in.ops[s]));
  }
}

void Server::RecordHop(const Message& msg) {
  RecordOpsPhase(msg, obs::Phase::kQueue, NowNanos() - msg.deliver_ns);
  RecordOpsPhase(msg, obs::Phase::kNet, msg.deliver_ns - msg.send_ns);
}

void Server::Handle(Message& msg) {
  stats_->backlog_ns[static_cast<size_t>(msg.type)].Add(
      NowNanos() - msg.deliver_ns);
  if (msg.traced && trace_ring_ != nullptr) RecordHop(msg);
  LAPSE_CHECK_LE(msg.hops, 4 * network_->num_nodes())
      << "routing loop: " << msg.DebugString();
  switch (msg.type) {
    case MsgType::kBatchOp:
      HandleRequest(msg);
      break;
    case MsgType::kBatchResp:
      HandleResponse(msg);
      break;
    case MsgType::kLocalize:
      HandleLocalize(msg);
      break;
    case MsgType::kRelocateInstruct:
      HandleInstruct(msg);
      break;
    case MsgType::kRelocateTransfer:
      HandleTransfer(msg);
      break;
    case MsgType::kLocalizeNoop:
      HandleLocalizeNoop(msg);
      break;
    case MsgType::kLocationUpdate:
      HandleLocationUpdate(msg);
      break;
    case MsgType::kReplicaRegister:
      HandleReplicaRegister(msg);
      break;
    case MsgType::kReplicaUnregister:
      HandleReplicaUnregister(msg);
      break;
    case MsgType::kReplicaInvalidate:
      HandleReplicaInvalidate(msg);
      break;
    default:
      LAPSE_LOG(Fatal) << "server received unexpected message: "
                       << msg.DebugString();
  }
}

NodeId Server::RouteDst(Key k) const {
  switch (ctx_->config->strategy) {
    case LocationStrategy::kHomeNode: {
      const NodeId home = ctx_->layout->Home(k);
      if (home == ctx_->node) return ctx_->owners->Owner(k);
      return home;
    }
    case LocationStrategy::kStaticPartition:
      return ctx_->layout->Home(k);
    case LocationStrategy::kBroadcastRelocations: {
      const NodeId o = ctx_->owners->Owner(k);
      // A stale self-view would loop; fall back to the home node, which is
      // the key's initial owner and a reasonable guess.
      if (o == ctx_->node) return ctx_->layout->Home(k);
      return o;
    }
    case LocationStrategy::kBroadcastOps:
      LAPSE_LOG(Fatal) << "broadcast-ops does not route point-to-point";
  }
  return 0;
}

void Server::HandleRequest(Message& msg) {
  const EnvelopeView in(msg);
  size_t val_off = 0;
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    const Key k = msg.keys[i];
    const Val* push_vals = msg.vals.data() + val_off;
    if (IsPush(in.words[i])) val_off += ctx_->layout->Length(k);
    LatchGuard latch(ctx_->latches->ForKey(k));
    RouteEntry(msg, in, k, in.words[i], push_vals, ctx_->StateOf(k));
  }
  SendRouted(msg, in);
}

void Server::RouteEntry(const Message& msg, const EnvelopeView& in, Key k,
                        int64_t word, const Val* push_vals, KeyState state) {
  const bool is_push = IsPush(word);
  const size_t len = ctx_->layout->Length(k);
  const size_t push_len = is_push ? len : 0;
  if (state == KeyState::kOwned) {
    Val* slot = ctx_->store->GetOrCreate(k);
    if (is_push) AddTo(slot, push_vals, len);
    reply_.Add(k, word, slot, is_push ? 0 : len);
    return;
  }
  if (state != KeyState::kArriving) {
    if (ctx_->config->strategy == LocationStrategy::kBroadcastOps) {
      return;  // some other node owns this key and will answer
    }
    const NodeId dst = RouteDst(k);
    if (dst != ctx_->node) {
      if (fwd_[dst].empty()) fwd_dsts_.push_back(dst);
      fwd_[dst].Add(k, word, push_vals, push_len);
      return;
    }
    // Mid-relocation race: our owner view already points at this node but
    // the transfer has not landed (state is not yet kArriving when the
    // localize came from one of our own workers whose marking raced us, or
    // the owner view was updated by HandleLocalize before the transfer).
    // Forwarding would self-send and ping-pong; queue on the arrival
    // queue instead -- the transfer that made the view point here will
    // drain it.
  }
  // Queue a one-entry envelope until the relocation finishes (§3.2).
  Message d = OneEntry(msg.orig_node, msg.orig_thread, in.ops, k, word,
                       push_vals, push_len);
  d.hops = msg.hops;
  d.deliver_ns = msg.deliver_ns;  // deferral start for the stall phase
  ctx_->QueueDeferred(k, std::move(d));
}

void Server::SendRouted(const Message& msg, const EnvelopeView& in) {
  if (!reply_.empty()) {
    Message r =
        EnvelopeFor(MsgType::kBatchResp, msg.orig_node, msg.orig_thread);
    r.dst_node = msg.orig_node;
    reply_.Seal(in.ops, &r);
    endpoint_->Send(std::move(r));
  }
  for (const NodeId dst : fwd_dsts_) {
    Message f = EnvelopeFor(MsgType::kBatchOp, msg.orig_node, msg.orig_thread);
    f.dst_node = dst;
    f.hops = msg.hops + 1;
    fwd_[dst].Seal(in.ops, &f);
    endpoint_->Send(std::move(f));
  }
  fwd_dsts_.clear();
}

void Server::HandleResponse(const Message& msg) {
  const EnvelopeView in(msg);
  OpTracker& tracker = ctx_->TrackerFor(msg.orig_thread);
  ReplicaManager* const replicas = ctx_->replicas.get();
  op_counts_.assign(in.n_ops, 0);

  // Phase A: scatter values/acks per entry, counting completed keys per
  // sub-op. No sub-op is completed yet, so tracker slots stay valid (an op
  // retires only once all its keys -- including the ones counted here --
  // have been completed in phase B).
  size_t val_off = 0;
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    const Key k = msg.keys[i];
    const int64_t word = in.words[i];
    const uint64_t mask = EntryMask(word);
    if (ctx_->cache) ctx_->cache->Update(k, msg.src_node);

    if (IsPush(word)) {
      for (uint64_t r = mask; r != 0; r &= r - 1) {
        const size_t s = static_cast<size_t>(__builtin_ctzll(r));
        ++op_counts_[s];
        // A replica flush's ack closes the epoch its drain opened; the
        // pulls the epoch held back are asked again once it is closed.
        if (IsFlush(in.ops[s])) {
          replicas->NoteWriteAcked(k);
          SendRefetches(k);
        }
      }
      continue;
    }

    const size_t len = ctx_->layout->Length(k);
    const Val* vals = msg.vals.data() + val_off;
    val_off += len;
    bool installed = false;
    if (replicas != nullptr && replicas->NeedsInstall(k)) {
      // The answer must hold this node's own writes: Install adds the
      // pending folds (and refreshes a pinned copy), or refuses a snapshot
      // that may lack folds already flushed. A sub-op's snapshot was asked
      // for at its op's issue or, if re-requested, at the resend.
      int64_t issue = INT64_MAX;
      for (uint64_t r = mask; r != 0; r &= r - 1) {
        const int64_t op_word = in.ops[__builtin_ctzll(r)];
        const auto it = refetches_.find({k, msg.orig_thread, op_word});
        if (it == refetches_.end()) {
          issue = std::min(issue, tracker.IssueNs(OpIdOf(op_word)));
        } else {
          issue = std::min(issue, it->second);
          refetches_.erase(it);
        }
      }
      if (val_buf_.size() < len) val_buf_.resize(len);
      if (!replicas->Install(k, vals, issue, val_buf_.data())) {
        for (uint64_t r = mask; r != 0; r &= r - 1) {
          refetches_[{k, msg.orig_thread, in.ops[__builtin_ctzll(r)]}] = 0;
        }
        SendRefetches(k);
        continue;
      }
      vals = val_buf_.data();
      installed = replicas->IsPinned(k);
    }
    uint64_t refresh_uid = 0;
    for (uint64_t r = mask; r != 0; r &= r - 1) {
      const size_t s = static_cast<size_t>(__builtin_ctzll(r));
      const uint64_t op = OpIdOf(in.ops[s]);
      // Same-key fan-out: every referencing sub-op gets its own copy of
      // the single response entry.
      Val* dst = tracker.PullDst(op, k);
      LAPSE_CHECK(dst != nullptr);
      std::memcpy(dst, vals, len * sizeof(Val));
      ++op_counts_[s];
      if (installed && refresh_uid == 0 && IsTraced(in.ops[s])) {
        refresh_uid = obs::PackUid(msg.orig_node, msg.orig_thread, op);
      }
    }
    if (refresh_uid != 0 && trace_ring_ != nullptr) {
      trace_ring_->TryPush(obs::TraceEvent::Mark(
          refresh_uid, obs::Phase::kReplicaRefresh, ctx_->node));
    }
  }

  // Phase B: complete each sub-op's served keys in one tracker transaction.
  const int64_t now = NowNanos();
  for (size_t s = 0; s < in.n_ops; ++s) {
    const uint64_t op = OpIdOf(in.ops[s]);
    if (tracker.CompleteKeys(op, op_counts_[s]) && IsTraced(in.ops[s]) &&
        trace_ring_ != nullptr) {
      trace_ring_->TryPush(obs::TraceEvent::Complete(
          obs::PackUid(msg.orig_node, msg.orig_thread, op), now, ctx_->node));
    }
  }
}

void Server::SendRefetches(Key k) {
  if (ctx_->replicas->FlushInFlight(k)) return;
  for (auto it = refetches_.lower_bound({k, 0, 0});
       it != refetches_.end() && std::get<0>(it->first) == k; ++it) {
    if (it->second != 0) continue;  // already asked again
    it->second = NowNanos();
    const int32_t thread = std::get<1>(it->first);
    const int64_t op_word = std::get<2>(it->first);
    Message m = OneEntry(ctx_->node, thread, &op_word, k,
                         EntryWord(1, /*is_push=*/false), nullptr, 0);
    m.dst_node = RouteDst(k);
    endpoint_->Send(std::move(m));
  }
}

void Server::HandOver(Key k, NodeId requester, Message* t) {
  if (ctx_->config->strategy == LocationStrategy::kBroadcastRelocations) {
    const uint32_t epoch = ctx_->owners->Epoch(k) + 1;
    ctx_->owners->SetOwnerAt(k, requester, epoch);
    t->aux.push_back(epoch);
  }
  const Val* slot = ctx_->store->GetOrCreate(k);
  t->keys.push_back(k);
  t->vals.insert(t->vals.end(), slot, slot + ctx_->layout->Length(k));
  ctx_->store->Erase(k);
  ctx_->SetState(k, KeyState::kNotOwned);
}

void Server::HandleLocalize(Message& msg) {
  const NodeId requester = msg.requester_node;
  LAPSE_CHECK_GE(requester, 0);

  if (ctx_->config->strategy == LocationStrategy::kBroadcastRelocations) {
    // Direct localize at the believed owner.
    Message t = TransferFor(msg);
    for (const Key k : msg.keys) {
      LatchGuard latch(ctx_->latches->ForKey(k));
      const KeyState state = ctx_->StateOf(k);
      if (state == KeyState::kOwned) {
        HandOver(k, requester, &t);
      } else if (state == KeyState::kArriving) {
        ctx_->QueueDeferred(k, SingleKeyCopy(msg, k));
      } else {
        // Stale view: chase the owner.
        Message f = SingleKeyCopy(msg, k);
        f.dst_node = RouteDst(k);
        f.hops = msg.hops + 1;
        endpoint_->Send(std::move(f));
      }
    }
    if (!t.keys.empty()) {
      endpoint_->Send(std::move(t));
    } else {
      t.Recycle();
    }
    return;
  }

  // Home-node strategy: we are the home of every key in this message.
  std::vector<Key> noop_keys = BufferPool::GetKeys();
  groups_.Begin();
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "localize for key " << k << " routed to non-home node";
    const NodeId current = ctx_->owners->Owner(k);
    if (current == requester) {
      LAPSE_LOG(Warning) << "localize no-op: node " << requester
                         << " already owns key " << k;
      noop_keys.push_back(k);
      continue;
    }
    // Update the location immediately; subsequent accesses arriving at the
    // home are routed to the requester from now on (§3.2, message 1).
    ctx_->owners->SetOwner(k, requester);
    // Ownership moved: replicas of this key must not keep serving the old
    // owner's value stream; every registered holder drops its copy and
    // refreshes from the new owner on its next read.
    if (!replica_holders_.empty()) InvalidateReplicaHolders(k);
    if (requester == ctx_->node) {
      // Self-directed localize (an eviction, or a hand-over the home asked
      // for). A remote requester marked the key kArriving on its own node
      // before sending; the home must do the same here, otherwise the
      // window until the transfer lands has owner-view == self with state
      // kNotOwned, and a concurrent localize by another node would be
      // instructed against a key we do not hold yet (fatal). With the
      // mark, that instruct queues on the arrival queue and chains off
      // DrainArrived like any mid-relocation hand-over.
      LatchGuard latch(ctx_->latches->ForKey(k));
      if (ctx_->StateOf(k) == KeyState::kNotOwned) {
        ctx_->SetState(k, KeyState::kArriving);
        NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
        MutexLock lock(shard.mu);
        shard.map.try_emplace(k);
      }
    }
    groups_.AddKey(current, k);
  }

  if (!noop_keys.empty()) {
    Message n;
    n.type = MsgType::kLocalizeNoop;
    n.dst_node = requester;
    n.orig_node = msg.orig_node;
    n.orig_thread = msg.orig_thread;
    n.op_id = msg.op_id;
    n.traced = msg.traced;
    n.keys = std::move(noop_keys);
    endpoint_->Send(std::move(n));
  } else {
    BufferPool::PutKeys(std::move(noop_keys));
  }

  for (const NodeId old_owner : groups_.touched()) {
    Message instr;
    instr.type = MsgType::kRelocateInstruct;
    instr.dst_node = old_owner;
    instr.requester_node = requester;
    instr.orig_node = msg.orig_node;
    instr.orig_thread = msg.orig_thread;
    instr.op_id = msg.op_id;
    instr.hops = msg.hops + 1;
    instr.traced = msg.traced;
    instr.keys = groups_.TakeKeys(old_owner);
    if (old_owner == ctx_->node) {
      // The home itself is the old owner: hand over directly (the 2-message
      // relocation the paper notes for 2-node clusters).
      HandleInstruct(instr);
      instr.Recycle();
    } else {
      endpoint_->Send(std::move(instr));
    }
  }
}

void Server::HandleInstruct(Message& msg) {
  Message t = TransferFor(msg);
  for (const Key k : msg.keys) {
    LatchGuard latch(ctx_->latches->ForKey(k));
    const KeyState state = ctx_->StateOf(k);
    if (state == KeyState::kOwned) {
      HandOver(k, msg.requester_node, &t);
    } else if (state == KeyState::kArriving) {
      // The key is still on its way to us (chained relocation): defer the
      // hand-over until it lands.
      ctx_->QueueDeferred(k, SingleKeyCopy(msg, k));
    } else {
      LAPSE_LOG(Fatal) << "relocate instruct for key " << k << " at node "
                       << ctx_->node << " which does not hold it";
    }
  }
  if (!t.keys.empty()) {
    endpoint_->Send(std::move(t));
  } else {
    t.Recycle();
  }
}

void Server::HandleTransfer(Message& msg) {
  LAPSE_CHECK_EQ(msg.orig_node, ctx_->node)
      << "transfer must arrive at the requester";
  OpTracker& tracker = ctx_->TrackerFor(msg.orig_thread);
  // op_id == kImmediate marks an eviction: the home (this node) takes the
  // key back without any worker op waiting on it.
  const bool eviction = (msg.op_id == OpTracker::kImmediate);
  const int64_t now = NowNanos();
  const int64_t issue = eviction ? 0 : tracker.IssueNs(msg.op_id);
  const int64_t rt = issue > 0 ? now - issue : 0;
  const bool mirrored =
      ctx_->config->strategy == LocationStrategy::kBroadcastRelocations;

  size_t val_off = 0;
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    const Key k = msg.keys[i];
    const size_t len = ctx_->layout->Length(k);
    // The latch is held across the whole drain on purpose: deferred ops
    // must apply before any new fast-path access to the key (per-worker
    // read-your-writes through a relocation). Workers colliding on the
    // latch spin-with-yield for the (typically short) queue.
    LatchGuard latch(ctx_->latches->ForKey(k));
    ctx_->store->Put(k, msg.vals.data() + val_off);
    val_off += len;
    ctx_->SetState(k, KeyState::kOwned);
    if (ctx_->cache) ctx_->cache->Update(k, ctx_->node);
    if (eviction) {
      stats_->evictions_received.Add(1);
    } else {
      stats_->relocations.Add(rt);
    }
    if (mirrored) {
      ctx_->owners->SetOwnerAt(k, ctx_->node,
                               static_cast<uint32_t>(msg.aux[i]));
    }
    DrainArrived(k);
  }
  if (mirrored) {
    // Direct-mail the new location to all uninvolved nodes (Table 3): all
    // but this one and the old owner, which named us at the hand-over.
    for (NodeId n = 0; n < network_->num_nodes(); ++n) {
      if (n == ctx_->node || n == msg.src_node) continue;
      Message u;
      u.type = MsgType::kLocationUpdate;
      u.dst_node = n;
      u.orig_node = ctx_->node;
      u.keys = msg.keys;
      u.aux.push_back(ctx_->node);
      u.aux.insert(u.aux.end(), msg.aux.begin(), msg.aux.end());
      endpoint_->Send(std::move(u));
    }
  }
  // All keys of one transfer belong to the same localize op: complete them
  // in one tracker transaction.
  const bool done = tracker.CompleteKeys(msg.op_id, msg.keys.size());
  if (msg.traced && trace_ring_ != nullptr && !eviction) {
    // The localize op's whole round-trip is relocation time by definition.
    const uint64_t uid =
        obs::PackUid(msg.orig_node, msg.orig_thread, msg.op_id);
    if (rt > 0) {
      trace_ring_->TryPush(
          obs::TraceEvent::Dur(uid, obs::Phase::kRelocStall, rt, ctx_->node));
    }
    if (done) {
      trace_ring_->TryPush(obs::TraceEvent::Complete(uid, now, ctx_->node));
    }
  }
}

void Server::DrainArrived(Key k) {
  ArrivingKey entry;
  {
    NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(k);
    if (it == shard.map.end()) return;
    entry = std::move(it->second);
    shard.map.erase(it);
  }

  // Coalesced localize calls by local workers complete now.
  for (const auto& w : entry.localize_waiters) {
    const bool done = ctx_->TrackerFor(w.thread).CompleteKeys(w.op_id, 1);
    if (w.traced && trace_ring_ != nullptr) {
      const uint64_t uid = obs::PackUid(ctx_->node, w.thread, w.op_id);
      const int64_t now = NowNanos();
      trace_ring_->TryPush(obs::TraceEvent::Dur(
          uid, obs::Phase::kRelocStall, now - w.queued_ns, ctx_->node));
      if (done) {
        trace_ring_->TryPush(obs::TraceEvent::Complete(uid, now, ctx_->node));
      }
    }
  }

  const size_t len = ctx_->layout->Length(k);
  for (size_t i = 0; i < entry.queue.size(); ++i) {
    Deferred& item = entry.queue[i];
    if (std::holds_alternative<DeferredLocalOp>(item)) {
      DeferredLocalOp& op = std::get<DeferredLocalOp>(item);
      Val* slot = ctx_->store->GetOrCreate(k);
      if (op.is_push) {
        AddTo(slot, op.push_update.data(), len);
      } else {
        std::memcpy(op.pull_dst, slot, len * sizeof(Val));
      }
      const bool done =
          ctx_->TrackerFor(op.worker_thread).CompleteKeys(op.op_id, 1);
      if (op.traced && trace_ring_ != nullptr) {
        const uint64_t uid =
            obs::PackUid(ctx_->node, op.worker_thread, op.op_id);
        const int64_t now = NowNanos();
        trace_ring_->TryPush(obs::TraceEvent::Dur(
            uid, obs::Phase::kRelocStall, now - op.queued_ns, ctx_->node));
        if (done) {
          trace_ring_->TryPush(
              obs::TraceEvent::Complete(uid, now, ctx_->node));
        }
      }
      continue;
    }
    Message& m = std::get<Message>(item);
    if (m.type == MsgType::kBatchOp) {
      if (m.traced && trace_ring_ != nullptr) {
        // How long the queued entry sat behind the relocation (measured
        // from its delivery here; completion is recorded at its origin).
        RecordOpsPhase(m, obs::Phase::kRelocStall,
                       NowNanos() - m.deliver_ns);
      }
      const EnvelopeView in(m);
      RouteEntry(m, in, k, in.words[0], m.vals.data(), KeyState::kOwned);
      SendRouted(m, in);
      continue;
    }
    // A deferred hand-over (instruct, or direct localize under
    // broadcast-relocations): the key leaves again immediately.
    LAPSE_CHECK(m.type == MsgType::kRelocateInstruct ||
                m.type == MsgType::kLocalize);
    Message t = TransferFor(m);
    HandOver(k, m.requester_node, &t);
    stats_->localization_conflicts.Add(1);
    endpoint_->Send(std::move(t));
    // Everything queued after the hand-over chases the key over the
    // network, preserving per-worker order.
    for (size_t j = i + 1; j < entry.queue.size(); ++j) {
      ForwardDeferred(k, std::move(entry.queue[j]));
    }
    return;
  }
}

void Server::ForwardDeferred(Key k, Deferred item) {
  const NodeId dst = RouteDst(k);
  if (dst == ctx_->node) {
    // The owner view points back at this node: another transfer to us is in
    // flight (see RouteEntry's mid-relocation case). Keep the item queued
    // locally; that transfer's DrainArrived will pick it up.
    ctx_->QueueDeferred(k, std::move(item));
    return;
  }
  Message m;
  if (std::holds_alternative<DeferredLocalOp>(item)) {
    const DeferredLocalOp& op = std::get<DeferredLocalOp>(item);
    const int64_t op_word = OpWord(op.op_id, op.traced);
    m = OneEntry(ctx_->node, op.worker_thread, &op_word, k,
                 EntryWord(1, op.is_push), op.push_update.data(),
                 op.push_update.size());
  } else {
    m = std::move(std::get<Message>(item));
    m.hops += 1;
  }
  m.dst_node = dst;
  endpoint_->Send(std::move(m));
}

void Server::HandleLocalizeNoop(const Message& msg) {
  if (ctx_->TrackerFor(msg.orig_thread)
          .CompleteKeys(msg.op_id, msg.keys.size()) &&
      msg.traced && trace_ring_ != nullptr) {
    trace_ring_->TryPush(obs::TraceEvent::Complete(
        obs::PackUid(msg.orig_node, msg.orig_thread, msg.op_id), NowNanos(),
        ctx_->node));
  }
}

void Server::HandleLocationUpdate(const Message& msg) {
  LAPSE_CHECK_EQ(msg.aux.size(), 1 + msg.keys.size());
  const NodeId new_owner = static_cast<NodeId>(msg.aux[0]);
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    ctx_->owners->SetOwnerAt(msg.keys[i], new_owner,
                             static_cast<uint32_t>(msg.aux[1 + i]));
  }
}

void Server::HandleReplicaRegister(const Message& msg) {
  const NodeId holder = msg.requester_node;
  LAPSE_CHECK_GE(holder, 0);
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "replica registration for key " << k
        << " routed to non-home node";
    std::vector<NodeId>& holders = replica_holders_[k];
    if (std::find(holders.begin(), holders.end(), holder) ==
        holders.end()) {
      holders.push_back(holder);
    }
  }
}

void Server::HandleReplicaUnregister(const Message& msg) {
  const NodeId holder = msg.requester_node;
  LAPSE_CHECK_GE(holder, 0);
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "replica unregistration for key " << k
        << " routed to non-home node";
    auto it = replica_holders_.find(k);
    if (it == replica_holders_.end()) continue;
    std::vector<NodeId>& holders = it->second;
    const size_t before = holders.size();
    holders.erase(std::remove(holders.begin(), holders.end(), holder),
                  holders.end());
    if (holders.size() != before) stats_->replica_unregisters.Add(1);
    if (holders.empty()) replica_holders_.erase(it);
  }
}

void Server::HandleReplicaInvalidate(const Message& msg) {
  if (ctx_->replicas == nullptr) return;
  for (const Key k : msg.keys) {
    // Drain-before-drop: pending aggregated writes leave for the owner
    // before the copy is invalidated, so a flush racing the invalidation
    // can neither lose folds nor resurrect the dropped copy (flushes are
    // plain cumulative pushes; only a pull response installs).
    ForwardReplicaFolds(k);
    ctx_->replicas->Invalidate(k);
  }
}

void Server::ForwardReplicaFolds(Key k) {
  if (ctx_->replicas == nullptr) return;
  const size_t len = ctx_->layout->Length(k);
  if (val_buf_.size() < len) val_buf_.resize(len);
  if (!ctx_->replicas->DrainKey(k, val_buf_.data())) return;
  // A flush by sub-op kImmediate: no op waits on it, but its ack comes
  // back here (orig thread 0) and closes the epoch DrainKey opened.
  const int64_t op_word =
      OpWord(OpTracker::kImmediate, /*traced=*/false, /*flush=*/true);
  Message m = OneEntry(ctx_->node, 0, &op_word, k, EntryWord(1, true),
                       val_buf_.data(), len);
  // RouteDst may name this node itself (the invalidation raced our own
  // localize); the self-send delivers through the inbox and HandleRequest
  // applies or defers it like any other push.
  m.dst_node = RouteDst(k);
  endpoint_->Send(std::move(m));
}

void Server::InvalidateReplicaHolders(Key k) {
  auto it = replica_holders_.find(k);
  if (it == replica_holders_.end()) return;
  for (const NodeId holder : it->second) {
    if (holder == ctx_->node) {
      // The home itself holds a replica: drain + drop it directly.
      if (ctx_->replicas) {
        ForwardReplicaFolds(k);
        ctx_->replicas->Invalidate(k);
      }
      continue;
    }
    Message m;
    m.type = MsgType::kReplicaInvalidate;
    m.dst_node = holder;
    m.orig_node = ctx_->node;
    m.orig_thread = 0;
    m.op_id = OpTracker::kImmediate;
    m.keys.push_back(k);
    endpoint_->Send(std::move(m));
  }
}

}  // namespace ps
}  // namespace lapse
