#include "ps/system.h"

#include <cstring>

#include "util/logging.h"
#include "util/rng.h"

namespace lapse {
namespace ps {
namespace {

KeyLayout MakeLayout(const Config& config) {
  if (!config.value_lengths.empty()) {
    return KeyLayout(config.value_lengths, config.num_nodes,
                     config.server_threads);
  }
  return KeyLayout(config.num_keys, config.uniform_value_length,
                   config.num_nodes, config.server_threads);
}

}  // namespace

PsSystem::PsSystem(Config config)
    : config_((config.Normalize(), std::move(config))),
      layout_(MakeLayout(config_)),
      network_(config_.num_nodes, config_.latency, config_.seed,
               config_.server_threads,
               [this](Key k) { return layout_.Shard(k); }),
      worker_barrier_(static_cast<size_t>(config_.total_workers())) {
  const int num_shards = config_.server_threads;
  nodes_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    auto ctx = std::make_unique<NodeContext>();
    ctx->node = n;
    ctx->config = &config_;
    ctx->layout = &layout_;
    ctx->store = CreateStorage(config_.storage, &layout_);
    // Partitioned by shard: each drain thread contends only for the slice
    // of latch slots covering its own shard's keys.
    ctx->latches =
        std::make_unique<LatchTable>(config_.num_latches, &layout_);
    // Sized once, before any Server is constructed (the Server constructor
    // takes the address of its shard's slot) and never resized after.
    ctx->shard_stats = std::vector<ServerStats>(num_shards);
    ctx->key_state = std::vector<std::atomic<uint8_t>>(layout_.num_keys());
    for (uint64_t k = 0; k < layout_.num_keys(); ++k) {
      const bool here = (layout_.Home(k) == n);
      ctx->key_state[k].store(
          static_cast<uint8_t>(here ? KeyState::kOwned
                                    : KeyState::kNotOwned),
          std::memory_order_relaxed);
    }
    ctx->owners = std::make_unique<LocationTable>(
        &layout_,
        config_.strategy == LocationStrategy::kBroadcastRelocations);
    if (config_.location_caches) {
      ctx->cache = std::make_unique<LocationCache>(layout_.num_keys());
    }
    // Slots: 0 = server, 1..W = workers, W+1 = the placement manager's
    // protocol worker (allocated unconditionally; it is one empty tracker).
    ctx->trackers.reserve(config_.workers_per_node + 2);
    for (int t = 0; t <= config_.workers_per_node + 1; ++t) {
      ctx->trackers.push_back(std::make_unique<OpTracker>());
    }
    if (config_.adaptive.enabled) {
      ctx->access_stats = std::make_unique<adapt::AccessStats>(
          config_.workers_per_node + 2, config_.adaptive.ring_capacity);
    }
    if (config_.replication) {
      ctx->replicas = std::make_unique<ReplicaManager>(
          &layout_, config_.replica_staleness_micros, config_.num_latches,
          config_.replica_flush_micros, config_.replica_flush_max_folds);
    }
    nodes_.push_back(std::move(ctx));
  }
  if (config_.obs.enabled) {
    // Before the servers: they grab their trace ring in their constructor.
    // Ring slots per node: 0 = shard-0 server, 1..W = workers, W+1 = the
    // placement manager's protocol worker, W+2.. = server shards 1..S-1.
    obs_ = std::make_unique<obs::Observability>(
        config_.obs, config_.num_nodes,
        config_.workers_per_node + 2 + (num_shards - 1));
    for (NodeId n = 0; n < config_.num_nodes; ++n) {
      nodes_[n]->obs = obs_->NodeRings(n);
      // Every (node, shard) inbox samples its own depth on each Put, so
      // the gauge covers all shards exactly once.
      for (int s = 0; s < num_shards; ++s) {
        network_.inbox(n, s).SetDepthHistogram(&obs_->InboxDepth());
      }
      if (nodes_[n]->replicas) {
        nodes_[n]->replicas->SetReadAgeHistogram(&obs_->ReplicaReadAge());
      }
      // All coalescers (one per worker) feed the same two histograms;
      // Histogram::Add is lock-free multi-producer-safe.
      nodes_[n]->coalesce_batch_size_hist = &obs_->CoalesceBatchSize();
      nodes_[n]->coalesce_wait_ns_hist = &obs_->CoalesceWaitNs();
    }
  }
  // One Server (and drain thread) per (node, shard), indexed n * S + s.
  servers_.reserve(static_cast<size_t>(config_.num_nodes) * num_shards);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    for (int s = 0; s < num_shards; ++s) {
      servers_.push_back(
          std::make_unique<Server>(nodes_[n].get(), &network_, s));
    }
  }
  server_threads_.reserve(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    server_threads_.emplace_back([this, i] { servers_[i]->Run(); });
  }
  if (config_.adaptive.enabled) {
    managers_.reserve(config_.num_nodes);
    for (NodeId n = 0; n < config_.num_nodes; ++n) {
      managers_.push_back(std::make_unique<adapt::PlacementManager>(
          nodes_[n].get(), &network_));
    }
  }
  if (obs_ != nullptr) {
    for (auto& m : managers_) m->SetTickHistogram(&obs_->AdaptTick());
    RegisterMetrics();
    obs_->Start();
  }
}

PsSystem::~PsSystem() {
  if (obs_ != nullptr) {
    // Final drain + auto-export while every counter and ring still lives.
    obs_->Stop();
    if (!config_.obs.metrics_json_path.empty()) {
      obs_->WriteMetricsJson(config_.obs.metrics_json_path);
    }
    if (!config_.obs.trace_path.empty()) {
      obs_->WriteChromeTrace(config_.obs.trace_path);
    }
  }
  // Managers first: stopping them drains their in-flight relocations,
  // which needs the servers still running.
  managers_.clear();
  network_.Shutdown();
  for (auto& t : server_threads_) t.join();
}

bool PsSystem::DumpMetrics(const std::string& path) {
  if (obs_ == nullptr) return false;
  obs_->Flush();
  return obs_->WriteMetricsJson(path);
}

bool PsSystem::DumpTrace(const std::string& path) {
  if (obs_ == nullptr) return false;
  obs_->Flush();
  return obs_->WriteChromeTrace(path);
}

void PsSystem::RegisterMetrics() {
  obs::MetricsRegistry& reg = obs_->registry();
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    const std::string p = "node" + std::to_string(n) + ".";
    // Worker-written fields stay node-level (all of the node's workers
    // share one ServerStats)...
    ServerStats& s = nodes_[n]->stats;
    reg.AddCounter(p + "local_key_reads", &s.local_key_reads);
    reg.AddCounter(p + "remote_key_reads", &s.remote_key_reads);
    reg.AddCounter(p + "local_key_writes", &s.local_key_writes);
    reg.AddCounter(p + "remote_key_writes", &s.remote_key_writes);
    reg.AddCounter(p + "queued_local_ops", &s.queued_local_ops);
    reg.AddCounter(p + "replica_key_reads", &s.replica_key_reads);
    reg.AddCounter(p + "replica_key_writes", &s.replica_key_writes);
    reg.AddCounter(p + "coalesced_ops", &s.coalesced_ops);
    reg.AddCounter(p + "coalesce_batches", &s.coalesce_batches);
    reg.AddCounter(p + "coalesce_forced_drains", &s.coalesce_forced_drains);
    // ...while server-written fields are per drain thread, registered under
    // node{n}.shard{s}.* so no shard's work is double-counted or sampled
    // only through shard 0. The per-message-type backlog counters: count =
    // messages, sum = total delivery-to-processing lag (ns).
    for (size_t sh = 0; sh < nodes_[n]->shard_stats.size(); ++sh) {
      const std::string sp = p + "shard" + std::to_string(sh) + ".";
      ServerStats& ss = nodes_[n]->shard_stats[sh];
      reg.AddCounter(sp + "relocations", &ss.relocations);
      reg.AddCounter(sp + "localization_conflicts",
                     &ss.localization_conflicts);
      reg.AddCounter(sp + "evictions_received", &ss.evictions_received);
      reg.AddCounter(sp + "replica_unregisters", &ss.replica_unregisters);
      for (size_t t = 0; t < static_cast<size_t>(net::MsgType::kNumTypes);
           ++t) {
        reg.AddCounter(sp + "backlog_ns." +
                           net::MsgTypeName(static_cast<net::MsgType>(t)),
                       &ss.backlog_ns[t]);
      }
    }
    if (nodes_[n]->replicas) {
      ReplicaManager* rm = nodes_[n]->replicas.get();
      reg.AddGauge(p + "replica.pinned",
                   [rm] { return rm->stats().pinned; });
      reg.AddGauge(p + "replica.stale_misses",
                   [rm] { return rm->stats().stale_misses; });
      reg.AddGauge(p + "replica.installs",
                   [rm] { return rm->stats().installs; });
      reg.AddGauge(p + "replica.invalidations",
                   [rm] { return rm->stats().invalidations; });
      reg.AddGauge(p + "replica.folds", [rm] { return rm->stats().folds; });
      reg.AddGauge(p + "replica.flushed_keys",
                   [rm] { return rm->stats().flushed_keys; });
      reg.AddGauge(p + "replica.unpins",
                   [rm] { return rm->stats().unpins; });
    }
  }
  for (auto& mp : managers_) {
    adapt::PlacementManager* m = mp.get();
    const std::string p = "node" + std::to_string(m->node()) + ".adapt.";
    reg.AddGauge(p + "ticks", [m] { return m->stats().ticks; });
    reg.AddGauge(p + "samples", [m] { return m->stats().samples; });
    reg.AddGauge(p + "dropped_samples",
                 [m] { return m->stats().dropped_samples; });
    reg.AddGauge(p + "localizes_issued",
                 [m] { return m->stats().localizes_issued; });
    reg.AddGauge(p + "evictions_issued",
                 [m] { return m->stats().evictions_issued; });
    reg.AddGauge(p + "replication_flags",
                 [m] { return m->stats().replication_flags; });
    reg.AddGauge(p + "replicas_pinned",
                 [m] { return m->stats().replicas_pinned; });
    reg.AddGauge(p + "replicas_unpinned",
                 [m] { return m->stats().replicas_unpinned; });
  }
  net::NetStats* ns = &network_.stats();
  reg.AddGauge("net.total_messages", [ns] { return ns->total_messages(); });
  reg.AddGauge("net.total_bytes", [ns] { return ns->total_bytes(); });
  reg.AddGauge("net.remote_messages",
               [ns] { return ns->remote_messages(); });
  reg.AddGauge("net.local_messages", [ns] { return ns->local_messages(); });
}

void PsSystem::SetReplicationHook(
    std::function<void(NodeId, const std::vector<Key>&)> hook) {
  for (auto& m : managers_) {
    const NodeId n = m->node();
    m->SetReplicationHook(
        [hook, n](const std::vector<Key>& keys) { hook(n, keys); });
  }
}

void PsSystem::Run(const std::function<void(Worker&)>& fn) {
  // The placement managers act only while workers run: on an idle system
  // the decaying stats would only issue evictions, and SetValue/GetValue
  // between phases rely on placement being stable.
  for (auto& m : managers_) m->Resume();
  std::vector<std::thread> threads;
  threads.reserve(config_.total_workers());
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    for (int t = 1; t <= config_.workers_per_node; ++t) {
      const int global_id = n * config_.workers_per_node + (t - 1);
      threads.emplace_back([this, n, t, global_id, &fn] {
        const uint64_t seed =
            Mix64(config_.seed ^ (0xabcdULL + static_cast<uint64_t>(
                                                  global_id + 1)));
        Worker worker(nodes_[n].get(), &network_, &worker_barrier_, t,
                      global_id, seed);
        fn(worker);
        worker.WaitAll();
      });
    }
  }
  for (auto& t : threads) t.join();
  // Park the managers (draining their tracked relocations) before
  // quiescing: Quiesce requires that nobody keeps injecting messages.
  for (auto& m : managers_) m->Pause();
  // Workers waited for all *tracked* ops, but fire-and-forget messages
  // (location updates, evictions, trailing forwards) may still be in
  // flight; drain them so stats and ownership views are settled when
  // Run() returns.
  network_.Quiesce([this](NodeId n) {
    return nodes_[n]->processed_msgs.load(std::memory_order_acquire);
  });
}

void PsSystem::SetValue(Key k, const Val* data) {
  const NodeId owner = OwnerOf(k);
  NodeContext& ctx = *nodes_[owner];
  LatchGuard latch(ctx.latches->ForKey(k));
  LAPSE_CHECK(ctx.StateOf(k) == KeyState::kOwned);
  ctx.store->Put(k, data);
}

void PsSystem::GetValue(Key k, Val* dst) {
  const NodeId owner = OwnerOf(k);
  NodeContext& ctx = *nodes_[owner];
  LatchGuard latch(ctx.latches->ForKey(k));
  LAPSE_CHECK(ctx.StateOf(k) == KeyState::kOwned);
  std::memcpy(dst, ctx.store->GetOrCreate(k),
              layout_.Length(k) * sizeof(Val));
}

NodeId PsSystem::OwnerOf(Key k) const {
  return nodes_[layout_.Home(k)]->owners->Owner(k);
}

int64_t PsSystem::TotalLocalReads() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.local_key_reads.sum();
  return total;
}

int64_t PsSystem::TotalReplicaReads() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.replica_key_reads.sum();
  return total;
}

int64_t PsSystem::TotalReplicaWrites() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.replica_key_writes.sum();
  return total;
}

int64_t PsSystem::TotalRemoteReads() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.remote_key_reads.sum();
  return total;
}

int64_t PsSystem::TotalLocalWrites() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.local_key_writes.sum();
  return total;
}

int64_t PsSystem::TotalRemoteWrites() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.remote_key_writes.sum();
  return total;
}

int64_t PsSystem::TotalRelocatedKeys() const {
  int64_t total = 0;
  for (const auto& n : nodes_) {
    for (const auto& ss : n->shard_stats) total += ss.relocations.count();
  }
  return total;
}

double PsSystem::MeanRelocationNs() const {
  int64_t count = 0, sum = 0;
  for (const auto& n : nodes_) {
    for (const auto& ss : n->shard_stats) {
      count += ss.relocations.count();
      sum += ss.relocations.sum();
    }
  }
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

int64_t PsSystem::NodeRelocatedKeys(NodeId n) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.relocations.count();
  }
  return total;
}

int64_t PsSystem::NodeLocalizationConflicts(NodeId n) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.localization_conflicts.count();
  }
  return total;
}

int64_t PsSystem::NodeEvictionsReceived(NodeId n) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.evictions_received.count();
  }
  return total;
}

int64_t PsSystem::NodeReplicaUnregisters(NodeId n) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.replica_unregisters.count();
  }
  return total;
}

int64_t PsSystem::NodeBacklogCount(NodeId n, net::MsgType t) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.backlog_ns[static_cast<size_t>(t)].count();
  }
  return total;
}

int64_t PsSystem::NodeBacklogSumNs(NodeId n, net::MsgType t) const {
  int64_t total = 0;
  for (const auto& ss : nodes_[n]->shard_stats) {
    total += ss.backlog_ns[static_cast<size_t>(t)].sum();
  }
  return total;
}

void PsSystem::ResetStats() {
  for (auto& n : nodes_) {
    n->stats.Reset();
    for (auto& ss : n->shard_stats) ss.Reset();
  }
  network_.stats().Reset();
}

}  // namespace ps
}  // namespace lapse
