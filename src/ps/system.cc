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

// The backlog counter of message type t, as a PsSystem::Sum field.
auto Backlog(net::MsgType t) {
  return [t](const ServerStats& s) -> const Counter& {
    return s.backlog_ns[static_cast<size_t>(t)];
  };
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
    ctx->values = std::vector<Val>(layout_.TotalVals(), 0.0f);
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
    // One per op-issuing slot; the placement manager's is allocated
    // unconditionally (it is one empty tracker).
    const int op_slots = config_.manager_slot() + 1;
    ctx->trackers.reserve(op_slots);
    for (int t = 0; t < op_slots; ++t) {
      ctx->trackers.push_back(std::make_unique<OpTracker>());
    }
    if (config_.adaptive.enabled) {
      ctx->access_stats = std::make_unique<adapt::AccessStats>(
          op_slots, config_.adaptive.ring_capacity);
    }
    if (config_.replication) {
      ctx->replicas = std::make_unique<ReplicaManager>(
          &layout_, config_.replica_staleness_micros, config_.num_latches,
          config_.replica_flush_micros, config_.replica_flush_max_folds);
    }
    nodes_.push_back(std::move(ctx));
  }
  if (config_.obs.sample_every > 0) {
    // Before the servers: they grab their trace ring in their constructor.
    obs_ = std::make_unique<obs::Observability>(
        config_.obs, config_.num_nodes, config_.num_thread_slots(),
        &registry_);
    for (NodeId n = 0; n < config_.num_nodes; ++n) {
      nodes_[n]->obs = obs_->NodeRings(n);
      // Every (node, shard) drain thread samples its own inbox's depth on
      // each message it takes, so the gauge covers all shards exactly once.
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
  RegisterMetrics();
  if (obs_ != nullptr) {
    for (auto& m : managers_) m->SetTickHistogram(&obs_->AdaptTick());
    obs_->Start();
  }
}

PsSystem::~PsSystem() {
  // Final drain + auto-export while every counter and ring still lives.
  if (obs_ != nullptr) obs_->Stop();
  if (!config_.obs.metrics_json_path.empty()) {
    registry_.WriteJson(config_.obs.metrics_json_path);
  }
  if (obs_ != nullptr && !config_.obs.trace_path.empty()) {
    obs_->WriteChromeTrace(config_.obs.trace_path);
  }
  // Managers first: stopping them drains their in-flight relocations,
  // which needs the servers still running.
  managers_.clear();
  network_.Shutdown();
  for (auto& t : server_threads_) t.join();
}

bool PsSystem::DumpMetrics(const std::string& path) {
  if (obs_ != nullptr) obs_->Flush();
  return registry_.WriteJson(path);
}

bool PsSystem::DumpTrace(const std::string& path) {
  if (obs_ == nullptr) return false;
  obs_->Flush();
  return obs_->WriteChromeTrace(path);
}

void PsSystem::RegisterMetrics() {
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    NodeContext& ctx = *nodes_[n];
    const std::string p = "node" + std::to_string(n) + ".";
    // A field's writer picks the copy and the name: the node's workers
    // share one ServerStats, while each drain thread has its own, so no
    // shard's work is double-counted or sampled only through shard 0.
    auto add = [this](const std::string& name, const auto& field) {
      ForEachCounter(field, [&](const std::string& suffix, const Counter& c) {
        registry_.AddCounter(name + suffix, &c);
      });
    };
    ServerStats::ForEachField([&](const char* name, auto get,
                                  StatWriter writer) {
      if (writer == StatWriter::kWorker) {
        add(p + name, get(ctx.stats));
        return;
      }
      for (size_t s = 0; s < ctx.shard_stats.size(); ++s) {
        add(p + "shard" + std::to_string(s) + "." + name,
            get(ctx.shard_stats[s]));
      }
    });
    if (ReplicaManager* rm = ctx.replicas.get()) {
      ReplicaManagerStats::ForEachField(
          [&](const char* name, auto get, StatKind) {
            registry_.AddGauge(p + "replica." + name,
                               [rm, get] { return get(rm->stats()); });
          });
    }
  }
  for (auto& mp : managers_) {
    adapt::PlacementManager* m = mp.get();
    const std::string p = "node" + std::to_string(m->node()) + ".adapt.";
    adapt::AdaptStats::ForEachField([&](const char* name, auto get, StatKind) {
      registry_.AddGauge(p + name, [m, get] { return get(m->stats()); });
    });
  }
  const net::NetStats* ns = &network_.stats();
  net::NetStats::ForEachTotal([&](const char* name, auto get) {
    registry_.AddGauge(std::string("net.") + name,
                       [ns, get] { return get(*ns); });
  });
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
  std::memcpy(ctx.Slot(k), data, layout_.Length(k) * sizeof(Val));
}

void PsSystem::GetValue(Key k, Val* dst) {
  const NodeId owner = OwnerOf(k);
  NodeContext& ctx = *nodes_[owner];
  LatchGuard latch(ctx.latches->ForKey(k));
  LAPSE_CHECK(ctx.StateOf(k) == KeyState::kOwned);
  std::memcpy(dst, ctx.Slot(k), layout_.Length(k) * sizeof(Val));
}

NodeId PsSystem::OwnerOf(Key k) const {
  return nodes_[layout_.Home(k)]->owners->Owner(k);
}

int64_t PsSystem::NodeBacklogCount(NodeId n, net::MsgType t) const {
  return Sum(Backlog(t), n).count;
}

int64_t PsSystem::NodeBacklogSumNs(NodeId n, net::MsgType t) const {
  return Sum(Backlog(t), n).sum;
}

void PsSystem::ResetStats() {
  for (auto& n : nodes_) {
    n->stats.Reset();
    for (auto& ss : n->shard_stats) ss.Reset();
    if (n->replicas != nullptr) n->replicas->ResetStats();
  }
  for (auto& m : managers_) m->ResetStats();
  network_.stats().Reset();
}

}  // namespace ps
}  // namespace lapse
