#include "ps/worker.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"
#include "util/vec_ops.h"

namespace lapse {
namespace ps {

using net::Message;
using net::MsgType;

Worker::Worker(NodeContext* ctx, net::Network* network,
               ::lapse::Barrier* barrier,
               int32_t thread_slot, int global_id, uint64_t seed)
    : ctx_(ctx),
      barrier_(barrier),
      thread_(thread_slot),
      global_id_(global_id),
      endpoint_(network->CreateEndpoint(ctx->node, thread_slot)),
      tracker_(ctx->trackers[thread_slot].get()),
      rng_(seed),
      trace_ring_(ctx->obs != nullptr ? ctx->obs->Ring(thread_slot) : nullptr),
      coalescer_(ctx, endpoint_.get(), thread_slot, trace_ring_) {
  const Architecture arch = ctx_->config->arch;
  fast_local_ = (arch != Architecture::kClassic);
  dpa_enabled_ =
      (arch == Architecture::kLapse &&
       (ctx_->config->strategy == LocationStrategy::kHomeNode ||
        ctx_->config->strategy == LocationStrategy::kBroadcastRelocations));
  dense_base_ = ctx_->store->DenseBase();
  replicas_ = ctx_->replicas.get();
  if (ctx_->access_stats != nullptr) {
    sample_ring_ = ctx_->access_stats->Ring(thread_slot);
    sample_period_ = ctx_->config->adaptive.sample_period;
    // Stagger the first sample across workers so they don't record in
    // lockstep.
    sample_countdown_ =
        1 + static_cast<uint32_t>(global_id) % sample_period_;
  }
  if (trace_ring_ != nullptr) {
    trace_period_ = ctx_->config->obs.sample_every;
    trace_countdown_ =
        1 + static_cast<uint32_t>(global_id) % trace_period_;
  }
  num_shards_ = static_cast<NodeId>(ctx_->layout->num_shards());
  // One group slot per (destination node, server shard).
  scratch_.groups.Resize(static_cast<size_t>(ctx_->layout->num_nodes()) *
                         static_cast<size_t>(num_shards_));
}

Worker::~Worker() {
  // Flush any write folds the node's replica store still holds (ours or a
  // sibling worker's -- drains are idempotent) before draining tracked
  // ops, so a phase boundary never strands aggregated updates locally.
  FlushReplicas();
  // Releases any batch the coalescer still holds (its queued sub-ops can
  // never complete unsent) before waiting on them, and publishes the
  // access counters.
  WaitAll();
}

void Worker::PublishStats() {
  ServerStats& s = ctx_->stats;
  PendingStats& p = pending_;
  if (p.local_reads > 0) s.local_key_reads.Add(p.local_reads);
  if (p.remote_reads > 0) s.remote_key_reads.Add(p.remote_reads);
  if (p.replica_reads > 0) s.replica_key_reads.Add(p.replica_reads);
  if (p.local_writes > 0) s.local_key_writes.Add(p.local_writes);
  if (p.remote_writes > 0) s.remote_key_writes.Add(p.remote_writes);
  if (p.replica_writes > 0) s.replica_key_writes.Add(p.replica_writes);
  if (p.queued > 0) s.queued_local_ops.Add(p.queued);
  p = PendingStats();
  publish_countdown_ = kPublishEveryOps;
}

#ifndef NDEBUG
void Worker::CheckDistinct(const std::vector<Key>& keys) const {
  if (keys.size() <= 1) return;
  std::vector<Key> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    LAPSE_CHECK_NE(sorted[i - 1], sorted[i])
        << "duplicate key in one operation";
  }
}
#endif

void Worker::RecordTrace(obs::OpKind kind, uint64_t op, int64_t t_issue,
                         int64_t replica_misses) {
  const bool inline_done = op == kImmediate;
  const uint64_t raw =
      inline_done ? (obs::kInlineOpBit | ++trace_inline_seq_) : op;
  const uint64_t uid = obs::PackUid(ctx_->node, thread_, raw);
  const int64_t now = NowNanos();
  trace_ring_->TryPush(obs::TraceEvent::Issue(uid, kind, t_issue, ctx_->node));
  trace_ring_->TryPush(obs::TraceEvent::Dur(uid, obs::Phase::kLocal,
                                            now - t_issue, ctx_->node));
  for (int64_t i = 0; i < replica_misses; ++i) {
    trace_ring_->TryPush(
        obs::TraceEvent::Mark(uid, obs::Phase::kReplicaMiss, ctx_->node));
  }
  if (inline_done) {
    trace_ring_->TryPush(obs::TraceEvent::Complete(uid, now, ctx_->node));
  }
}

void Worker::RecordComplete(uint64_t op) {
  trace_ring_->TryPush(obs::TraceEvent::Complete(
      obs::PackUid(ctx_->node, thread_, op), NowNanos(), ctx_->node));
}

void Worker::RecordAccessSample(const std::vector<Key>& keys,
                                bool is_write) {
  for (const Key k : keys) {
    sample_ring_->TryPush(
        {k, adapt::SampleFlags(is_write,
                               ctx_->StateOf(k) == KeyState::kOwned)});
  }
}

NodeId Worker::RemoteDst(Key k) const {
  switch (ctx_->config->strategy) {
    case LocationStrategy::kHomeNode: {
      if (ctx_->cache) {
        const NodeId cached = ctx_->cache->Get(k);
        if (cached != LocationCache::kUnknown) return cached;
      }
      return ctx_->layout->Home(k);
    }
    case LocationStrategy::kStaticPartition:
      return ctx_->layout->Home(k);
    case LocationStrategy::kBroadcastRelocations: {
      const NodeId o = ctx_->owners->Owner(k);
      return o == ctx_->node ? ctx_->layout->Home(k) : o;
    }
    case LocationStrategy::kBroadcastOps:
      LAPSE_LOG(Fatal) << "broadcast-ops has no point-to-point destination";
  }
  return 0;
}

uint64_t Worker::PullAsync(const std::vector<Key>& keys, Val* dst) {
  CheckDistinct(keys);
  // Age/count check on every op -- including ones that turn out all-local,
  // so a worker gone local-only cannot strand a held batch past its delay.
  coalescer_.MaybeDrain();
  if (SampleThisOp()) RecordAccessSample(keys, /*is_write=*/false);
  const bool traced = TraceThisOp();
  const int64_t t_issue = traced ? NowNanos() : 0;
  int64_t trace_misses = 0;  // stale pinned replicas seen by this op
  const KeyLayout& layout = *ctx_->layout;

  // Fast path (shared-memory access, §3.3): optimistically serve each key
  // under its own latch -- the PS guarantees of Table 1 are per-key, so no
  // multi-key latch set is needed. Non-owned keys get one more local
  // chance: a fresh pinned replica (bounded-staleness copy of a contended
  // key) also serves from node memory. The first key neither can serve
  // hands the remaining suffix to the tracked slow path (the copied prefix
  // is final: a pull may scatter per key). Allocation- and tracker-free
  // when every key is served locally.
  size_t done = 0;            // keys completed optimistically
  size_t done_off = 0;        // Val offset right after the completed prefix
  int64_t replica_reads = 0;  // keys served from the replica store
  if (fast_local_) {
    for (; done < keys.size(); ++done) {
      const Key k = keys[done];
      Latch& latch = ctx_->latches->ForKey(k);
      latch.lock();
      if (ctx_->StateOf(k) != KeyState::kOwned) {
        latch.unlock();
        if (replicas_ != nullptr &&
            replicas_->TryRead(k, dst + done_off)) {
          ++replica_reads;
          done_off += layout.Length(k);
          continue;
        }
        if (traced && replicas_ != nullptr && replicas_->IsPinned(k)) {
          ++trace_misses;  // pinned but too stale to serve
        }
        break;
      }
      const size_t len = layout.Length(k);
      CopyVals(dst + done_off, Slot(k), len);
      latch.unlock();
      done_off += len;
    }
    if (done == keys.size()) {
      pending_.local_reads +=
          static_cast<int64_t>(keys.size()) - replica_reads;
      pending_.replica_reads += replica_reads;
      if (traced) {
        RecordTrace(obs::OpKind::kPull, kImmediate, t_issue, trace_misses);
      }
      CountFastOp();
      return kImmediate;
    }
  }

  // Slow path for keys[done..]: mixed local/remote, or classic
  // (message-only) architecture. Offsets stay absolute into `dst`.
  Scratch& sc = scratch_;
  sc.key_offsets.clear();
  {
    size_t off = done_off;
    for (size_t i = done; i < keys.size(); ++i) {
      sc.key_offsets.emplace_back(keys[i], off);
      off += layout.Length(keys[i]);
    }
  }
  const uint64_t op = tracker_->Create(dst, sc.key_offsets, NowNanos());
  coalescer_.BeginOp(OpWord(op, traced));

  size_t inline_done = 0;
  int64_t local_reads = static_cast<int64_t>(done) - replica_reads;
  int64_t remote_reads = 0, queued = 0;

  for (size_t i = 0; i < sc.key_offsets.size(); ++i) {
    const Key k = sc.key_offsets[i].first;
    const size_t off = sc.key_offsets[i].second;
    bool handled = false;
    if (fast_local_) {
      LatchGuard latch(ctx_->latches->ForKey(k));
      const KeyState state = ctx_->StateOf(k);
      if (state == KeyState::kOwned) {
        CopyVals(dst + off, Slot(k), layout.Length(k));
        ++inline_done;
        ++local_reads;
        handled = true;
      } else if (state == KeyState::kArriving && dpa_enabled_) {
        DeferredLocalOp d;
        d.pull_dst = dst + off;
        d.worker_thread = thread_;
        d.op_id = op;
        d.traced = traced;
        if (traced) d.queued_ns = NowNanos();
        ctx_->QueueDeferred(k, std::move(d));
        ++queued;
        ++local_reads;
        handled = true;
      }
    }
    // i == 0 is the key the fast-path prefix just broke on: its replica
    // was already tried (and missed) there, so don't pay the latch or
    // count a second stale miss for it.
    if (!handled && replicas_ != nullptr && i > 0) {
      if (replicas_->TryRead(k, dst + off)) {
        ++inline_done;
        ++replica_reads;
        handled = true;
      } else if (traced && replicas_->IsPinned(k)) {
        ++trace_misses;
      }
    }
    if (handled) continue;
    ++remote_reads;
    AddRemote(k, nullptr, 0);
  }

  pending_.local_reads += local_reads;
  pending_.replica_reads += replica_reads;
  pending_.remote_reads += remote_reads;
  pending_.queued += queued;
  PublishStats();
  if (traced) RecordTrace(obs::OpKind::kPull, op, t_issue, trace_misses);
  coalescer_.EndOp();
  if (tracker_->Release(op, inline_done) && traced) RecordComplete(op);
  return op;
}

uint64_t Worker::PushAsync(const std::vector<Key>& keys,
                           const Val* updates) {
  CheckDistinct(keys);
  coalescer_.MaybeDrain();
  // The age trigger drains before this push folds anything (FlushDue).
  if (replicas_ != nullptr && replicas_->FlushDue()) FlushReplicas();
  if (SampleThisOp()) RecordAccessSample(keys, /*is_write=*/true);
  const bool traced = TraceThisOp();
  const int64_t t_issue = traced ? NowNanos() : 0;
  const KeyLayout& layout = *ctx_->layout;

  // Fast path: optimistic per-key application under the key's own latch
  // (per-key guarantees, Table 1). An applied prefix is final -- cumulative
  // updates are applied exactly once -- and the suffix from the first
  // non-owned key falls through to the tracked slow path. Non-owned keys
  // get one more local chance: a pinned key's update folds into the
  // node's write accumulator (Petuum-style aggregation) instead of paying
  // an owner message; the fold is final too, and the flush that carries
  // it to the owner is issued after the op completes.
  size_t done = 0;
  size_t done_off = 0;
  int64_t replica_folds = 0;  // keys folded into the replica accumulators
  bool flush_due = false;
  if (fast_local_) {
    for (; done < keys.size(); ++done) {
      const Key k = keys[done];
      Latch& latch = ctx_->latches->ForKey(k);
      latch.lock();
      if (ctx_->StateOf(k) != KeyState::kOwned) {
        latch.unlock();
        if (replicas_ != nullptr) {
          const ReplicaManager::FoldOutcome fold =
              replicas_->FoldWrite(k, updates + done_off);
          if (fold != ReplicaManager::FoldOutcome::kNotPinned) {
            flush_due |=
                (fold == ReplicaManager::FoldOutcome::kFoldedFlushDue);
            ++replica_folds;
            done_off += layout.Length(k);
            continue;
          }
        }
        break;
      }
      const size_t len = layout.Length(k);
      AddTo(Slot(k), updates + done_off, len);
      latch.unlock();
      done_off += len;
    }
    if (done == keys.size()) {
      pending_.local_writes +=
          static_cast<int64_t>(keys.size()) - replica_folds;
      pending_.replica_writes += replica_folds;
      if (traced) {
        RecordTrace(obs::OpKind::kPush, kImmediate, t_issue,
                    /*replica_misses=*/0);
      }
      if (flush_due) FlushReplicas();
      CountFastOp();
      return kImmediate;
    }
  }

  // Slow path for keys[done..]; offsets stay absolute into `updates`.
  Scratch& sc = scratch_;
  sc.key_offsets.clear();
  {
    size_t off = done_off;
    for (size_t i = done; i < keys.size(); ++i) {
      sc.key_offsets.emplace_back(keys[i], off);
      off += layout.Length(keys[i]);
    }
  }
  const uint64_t op = tracker_->Create(nullptr, sc.key_offsets, NowNanos());
  coalescer_.BeginOp(OpWord(op, traced));

  size_t inline_done = 0;
  // The fast-path prefix mixes owned writes and replica folds; only the
  // former count as local.
  int64_t local_writes = static_cast<int64_t>(done) - replica_folds;
  int64_t remote_writes = 0, queued = 0;

  for (size_t i = 0; i < sc.key_offsets.size(); ++i) {
    const Key k = sc.key_offsets[i].first;
    const size_t off = sc.key_offsets[i].second;
    const size_t len = layout.Length(k);
    bool handled = false;
    if (fast_local_) {
      LatchGuard latch(ctx_->latches->ForKey(k));
      const KeyState state = ctx_->StateOf(k);
      if (state == KeyState::kOwned) {
        AddTo(Slot(k), updates + off, len);
        ++inline_done;
        ++local_writes;
        handled = true;
      } else if (state == KeyState::kArriving && dpa_enabled_) {
        DeferredLocalOp d;
        d.is_push = true;
        d.push_update.assign(updates + off, updates + off + len);
        d.worker_thread = thread_;
        d.op_id = op;
        d.traced = traced;
        if (traced) d.queued_ns = NowNanos();
        ctx_->QueueDeferred(k, std::move(d));
        ++queued;
        ++local_writes;
        handled = true;
      }
    }
    if (!handled && replicas_ != nullptr) {
      const ReplicaManager::FoldOutcome fold =
          replicas_->FoldWrite(k, updates + off);
      if (fold != ReplicaManager::FoldOutcome::kNotPinned) {
        // The fold is the whole operation for this key; the flush that
        // carries it to the owner is issued below.
        flush_due |= (fold == ReplicaManager::FoldOutcome::kFoldedFlushDue);
        ++inline_done;
        ++replica_folds;
        handled = true;
      }
    }
    if (handled) continue;
    ++remote_writes;
    AddRemote(k, updates + off, len);
  }

  pending_.local_writes += local_writes;
  pending_.remote_writes += remote_writes;
  pending_.replica_writes += replica_folds;
  pending_.queued += queued;
  PublishStats();
  if (traced) {
    RecordTrace(obs::OpKind::kPush, op, t_issue, /*replica_misses=*/0);
  }
  coalescer_.EndOp();
  if (tracker_->Release(op, inline_done) && traced) RecordComplete(op);
  // After the op's scope closed: the flush is an op of its own.
  if (flush_due) FlushReplicas();
  return op;
}

uint64_t Worker::LocalizeAsync(const std::vector<Key>& keys) {
  if (!dpa_enabled_) return kImmediate;
  // A relocation must not overtake this worker's held pushes to the same
  // key (the moved key's value would miss them until the forward chase
  // lands); localize is rare, so a full drain is the simple fix.
  coalescer_.DrainAll();
  const bool traced = TraceThisOp();
  const int64_t t_issue = traced ? NowNanos() : 0;

  // Unlike pull/push, localize accepts duplicates: dedupe and drop keys
  // this node already owns in a lock-free pre-pass, so repeated requests
  // (latency-hiding trainers, the adaptive placement engine) cost nothing
  // when the keys are already here. Survivors are re-verified under their
  // latches below.
  Scratch& sc = scratch_;
  sc.localize_keys.clear();
  for (const Key k : keys) {
    if (ctx_->StateOf(k) != KeyState::kOwned) sc.localize_keys.push_back(k);
  }
  if (sc.localize_keys.empty()) {
    if (traced) {
      RecordTrace(obs::OpKind::kLocalize, kImmediate, t_issue,
                  /*replica_misses=*/0);
    }
    return kImmediate;
  }
  std::sort(sc.localize_keys.begin(), sc.localize_keys.end());
  sc.localize_keys.erase(
      std::unique(sc.localize_keys.begin(), sc.localize_keys.end()),
      sc.localize_keys.end());

  sc.key_offsets.clear();
  for (const Key k : sc.localize_keys) sc.key_offsets.emplace_back(k, 0);
  const uint64_t op = tracker_->Create(nullptr, sc.key_offsets, NowNanos());

  size_t inline_done = 0;
  sc.groups.Begin();
  const bool broadcast_reloc =
      ctx_->config->strategy == LocationStrategy::kBroadcastRelocations;

  for (const Key k : sc.localize_keys) {
    LatchGuard latch(ctx_->latches->ForKey(k));
    const KeyState state = ctx_->StateOf(k);
    if (state == KeyState::kOwned) {
      ++inline_done;
      continue;
    }
    if (state == KeyState::kArriving) {
      // Coalesce onto the pending relocation.
      NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
      MutexLock lock(shard.mu);
      shard.map[k].localize_waiters.push_back(
          {thread_, op, traced, traced ? NowNanos() : 0});
      continue;
    }
    // Start a relocation: mark arriving, then ask the home (or, under
    // broadcast-relocations, the believed owner) for the key.
    ctx_->SetState(k, KeyState::kArriving);
    {
      NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
      MutexLock lock(shard.mu);
      shard.map.try_emplace(k);
    }
    const NodeId dst =
        broadcast_reloc ? RemoteDst(k) : ctx_->layout->Home(k);
    sc.groups.AddKey(GroupSlot(dst, k), k);
  }
  if (traced) {
    RecordTrace(obs::OpKind::kLocalize, op, t_issue, /*replica_misses=*/0);
  }

  // Under broadcast-relocations the new location is mailed to the other
  // nodes once the key arrived (Server::HandleTransfer).
  for (const NodeId slot : sc.groups.touched()) {
    Message m;
    m.type = MsgType::kLocalize;
    m.dst_node = GroupNode(slot);
    m.orig_node = ctx_->node;
    m.orig_thread = thread_;
    m.op_id = op;
    m.traced = traced;
    m.requester_node = ctx_->node;
    m.keys = sc.groups.TakeKeys(slot);
    endpoint_->Send(std::move(m));
  }

  if (tracker_->Release(op, inline_done) && traced) RecordComplete(op);
  return op;
}

void Worker::DedupKeysIntoScratch(const std::vector<Key>& keys) {
  Scratch& sc = scratch_;
  sc.localize_keys.assign(keys.begin(), keys.end());
  std::sort(sc.localize_keys.begin(), sc.localize_keys.end());
  sc.localize_keys.erase(
      std::unique(sc.localize_keys.begin(), sc.localize_keys.end()),
      sc.localize_keys.end());
}

size_t Worker::Evict(const std::vector<Key>& keys) {
  // Eviction synthesizes a localize on behalf of the key's home node: the
  // home receives a kLocalize with requester == home, flips its owner view
  // back to itself, and instructs this node to hand the key over via the
  // standard three-message relocation protocol. op_id is kImmediate, so
  // the transfer completes at the home without touching any tracker --
  // fire-and-forget by construction. Only meaningful under the home-node
  // strategy (broadcast-relocations would additionally need direct mail).
  if (!dpa_enabled_ ||
      ctx_->config->strategy != LocationStrategy::kHomeNode) {
    return 0;
  }

  Scratch& sc = scratch_;
  DedupKeysIntoScratch(keys);

  size_t issued = 0;
  sc.groups.Begin();
  for (const Key k : sc.localize_keys) {
    const NodeId home = ctx_->layout->Home(k);
    if (home == ctx_->node) continue;  // already where it belongs
    LatchGuard latch(ctx_->latches->ForKey(k));
    if (ctx_->StateOf(k) != KeyState::kOwned) continue;
    sc.groups.AddKey(GroupSlot(home, k), k);
    ++issued;
  }

  for (const NodeId slot : sc.groups.touched()) {
    const NodeId home = GroupNode(slot);
    Message m;
    m.type = MsgType::kLocalize;
    m.dst_node = home;
    m.orig_node = home;  // transfer completes at the home, not here
    m.orig_thread = 0;
    m.op_id = OpTracker::kImmediate;
    m.requester_node = home;
    m.keys = sc.groups.TakeKeys(slot);
    endpoint_->Send(std::move(m));
  }
  return issued;
}

size_t Worker::Replicate(const std::vector<Key>& keys) {
  if (replicas_ == nullptr) return 0;

  // Pin first, then register at the homes: a read between the two only
  // misses (the copy starts absent). The registration is fire-and-forget
  // like Evict, and it travels on this worker's endpoint while the
  // pull-through that installs the first copy may use another, so an
  // ownership move can race the registration: the home then invalidates
  // nobody and this node serves the pre-move owner's value until the tag
  // expires. That is exactly the bounded-staleness contract (staleness
  // expiry, not the invalidation directory, is the correctness backstop;
  // invalidation only makes convergence prompt), so the race is benign.
  Scratch& sc = scratch_;
  DedupKeysIntoScratch(keys);

  size_t pinned = 0;
  sc.groups.Begin();
  for (const Key k : sc.localize_keys) {
    if (replicas_->IsPinned(k)) continue;
    replicas_->Pin(k);
    sc.groups.AddKey(GroupSlot(ctx_->layout->Home(k), k), k);
    ++pinned;
  }

  SendReplicaControl(MsgType::kReplicaRegister);
  return pinned;
}

void Worker::AddRemote(Key k, const Val* update, size_t len) {
  auto add = [&](NodeId dst) {
    if (update == nullptr) {
      coalescer_.AddPull(GroupSlot(dst, k), k);
    } else {
      coalescer_.AddPush(GroupSlot(dst, k), k, update, len);
    }
  };
  if (ctx_->config->strategy != LocationStrategy::kBroadcastOps) {
    add(RemoteDst(k));
    return;
  }
  // Broadcast-ops keeps no location state: every peer gets the entry, and
  // only the owner serves it.
  for (NodeId n = 0; n < ctx_->layout->num_nodes(); ++n) {
    if (n != ctx_->node) add(n);
  }
}

uint64_t Worker::PushFolds() {
  Scratch& sc = scratch_;
  if (sc.flush_keys.empty()) return kImmediate;
  const bool traced = TraceThisOp();
  const int64_t t_issue = traced ? NowNanos() : 0;
  // Drained folds travel as cumulative pushes, tracked like any push: the
  // op completes when every owner acked, which is what makes WaitAll a
  // flush barrier. The flush bit makes each ack close its key's epoch at
  // this node. A key localized here since its last fold routes through
  // its home and comes straight back -- the relocation protocol already
  // handles that.
  sc.key_offsets.clear();
  for (const Key k : sc.flush_keys) sc.key_offsets.emplace_back(k, 0);
  const uint64_t op = tracker_->Create(nullptr, sc.key_offsets, NowNanos());
  if (traced) {
    RecordTrace(obs::OpKind::kFlush, op, t_issue, /*replica_misses=*/0);
  }
  coalescer_.BeginOp(OpWord(op, traced, /*flush=*/true));
  size_t off = 0;
  for (const Key k : sc.flush_keys) {
    const size_t len = ctx_->layout->Length(k);
    AddRemote(k, sc.flush_vals.data() + off, len);
    off += len;
  }
  coalescer_.EndOp(/*send_now=*/true);
  if (tracker_->Release(op, 0) && traced) RecordComplete(op);
  return op;
}

void Worker::SendReplicaControl(MsgType type) {
  Scratch& sc = scratch_;
  for (const NodeId slot : sc.groups.touched()) {
    Message m;
    m.type = type;
    // The home may be this node: self-sends deliver through the inbox.
    m.dst_node = GroupNode(slot);
    m.orig_node = ctx_->node;
    m.orig_thread = thread_;
    m.op_id = OpTracker::kImmediate;
    m.requester_node = ctx_->node;
    m.keys = sc.groups.TakeKeys(slot);
    endpoint_->Send(std::move(m));
  }
}

uint64_t Worker::FlushReplicas() {
  if (replicas_ == nullptr) return kImmediate;
  Scratch& sc = scratch_;
  sc.flush_keys.clear();
  sc.flush_vals.clear();
  replicas_->DrainDirty(&sc.flush_keys, &sc.flush_vals);
  return PushFolds();
}

size_t Worker::Unreplicate(const std::vector<Key>& keys) {
  if (replicas_ == nullptr) return 0;
  const KeyLayout& layout = *ctx_->layout;
  Scratch& sc = scratch_;
  DedupKeysIntoScratch(keys);

  // Pass 1: atomically drain-and-unpin each key (one latch hold inside
  // Unpin, so no fold can slip in between) and flush the drained folds.
  // localize_keys shrinks to the unpinned set for the unregister pass.
  sc.flush_keys.clear();
  sc.flush_vals.clear();
  size_t unpinned = 0;
  for (const Key k : sc.localize_keys) {
    if (!replicas_->IsPinned(k)) continue;
    const size_t off = sc.flush_vals.size();
    sc.flush_vals.resize(off + layout.Length(k));
    if (replicas_->Unpin(k, sc.flush_vals.data() + off)) {
      sc.flush_keys.push_back(k);
    } else {
      sc.flush_vals.resize(off);
    }
    sc.localize_keys[unpinned++] = k;
  }
  sc.localize_keys.resize(unpinned);
  PushFolds();

  // Pass 2: unregister at each key's home so the replica directory
  // shrinks and later ownership moves stop firing invalidations at this
  // node. Fire-and-forget, like the registration.
  sc.groups.Begin();
  for (const Key k : sc.localize_keys) {
    sc.groups.AddKey(GroupSlot(layout.Home(k), k), k);
  }
  SendReplicaControl(MsgType::kReplicaUnregister);
  return unpinned;
}

bool Worker::PullIfLocal(Key k, Val* dst) {
  if (!fast_local_) return false;
  // Sampled like a pull -- including misses, which come before the early
  // return: a miss is exactly the signal that tells the placement engine
  // this key is wanted here (w2v local-only negatives would otherwise
  // never get their output vectors localized in auto mode), and hits keep
  // owned keys warm so the engine does not evict what this path serves.
  const bool owned_hint = ctx_->StateOf(k) == KeyState::kOwned;
  if (SampleThisOp()) {
    sample_ring_->TryPush(
        {k, adapt::SampleFlags(/*is_write=*/false, owned_hint)});
  }
  if (owned_hint) {
    LatchGuard latch(ctx_->latches->ForKey(k));
    if (ctx_->StateOf(k) == KeyState::kOwned) {
      CopyVals(dst, Slot(k), ctx_->layout->Length(k));
      ++pending_.local_reads;
      CountFastOp();
      return true;
    }
  }
  // Not owned (or lost between check and latch): a fresh pinned replica
  // still counts as local -- w2v local-only negative sampling then keeps
  // using contended hot words instead of dropping them. Still
  // non-blocking: TryRead only takes the replica's own latch, the same
  // bounded spin as the owned path above.
  if (replicas_ != nullptr && replicas_->TryRead(k, dst)) {
    ++pending_.replica_reads;
    CountFastOp();
    return true;
  }
  return false;
}

bool Worker::IsLocal(Key k) const {
  if (!fast_local_) return false;
  return ctx_->StateOf(k) == KeyState::kOwned;
}

}  // namespace ps
}  // namespace lapse
