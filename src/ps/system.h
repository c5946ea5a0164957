#ifndef LAPSE_PS_SYSTEM_H_
#define LAPSE_PS_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/placement_manager.h"
#include "net/network.h"
#include "obs/observability.h"
#include "ps/config.h"
#include "ps/key_layout.h"
#include "ps/node_context.h"
#include "ps/server.h"
#include "ps/worker.h"
#include "util/barrier.h"

namespace lapse {
namespace ps {

// A simulated PS deployment: `num_nodes` logical nodes, each with
// `Config::server_threads` server drain threads (one per key-range shard)
// and `workers_per_node` worker threads, connected by the in-process
// network (Figure 2 of the paper).
//
// Sharded server: every key maps to one shard of its home range
// (KeyLayout::Shard, identical at every node), the network routes each
// keyed message to the (node, shard) inbox of its keys' shard, and one
// drain thread owns each shard's storage partition, latch partition, and
// replica-directory slice. Control messages without keys go to shard 0.
// The relocation/replication ordering guarantees are per key, so confining
// each key to one drain thread preserves them without cross-shard locks.
//
// Typical use:
//
//   ps::Config cfg;
//   cfg.num_nodes = 4;
//   cfg.num_keys = 1000;
//   cfg.uniform_value_length = 16;
//   ps::PsSystem system(cfg);
//   system.Run([&](ps::Worker& w) {
//     std::vector<Val> buf(16);
//     w.Localize({some_key});
//     w.Pull({some_key}, buf.data());
//     ...
//   });
//
// Server threads start in the constructor and stop in the destructor, so
// several Run() phases can share state. Run() blocks until every worker
// function returned (each worker's outstanding async ops are drained).
class PsSystem {
 public:
  explicit PsSystem(Config config);
  ~PsSystem();

  PsSystem(const PsSystem&) = delete;
  PsSystem& operator=(const PsSystem&) = delete;

  // Spawns all worker threads running `fn` and joins them.
  void Run(const std::function<void(Worker&)>& fn);

  // Direct value initialization, only valid while no workers run. Writes to
  // the key's current owner.
  void SetValue(Key k, const Val* data);
  // Reads the key's current value from its owner into `dst`. Only gives a
  // consistent answer while no workers run.
  void GetValue(Key k, Val* dst);
  // Current owner of key k (per its home's location table).
  NodeId OwnerOf(Key k) const;

  const Config& config() const { return config_; }
  const KeyLayout& layout() const { return layout_; }
  net::NetStats& net_stats() { return network_.stats(); }
  // Node-level stats: the kWorker fields (exact between two barriers and
  // after Run, see the RULES above ServerStats). kShard fields live in
  // shard_stats(n, s); Sum adds up either kind.
  ServerStats& node_stats(NodeId n) { return nodes_[n]->stats; }
  // Per-shard stats written by shard s's drain thread of node n.
  ServerStats& shard_stats(NodeId n, int s) {
    return nodes_[n]->shard_stats[s];
  }
  NodeContext& node_context(NodeId n) { return *nodes_[n]; }

  static constexpr NodeId kAllNodes = -1;
  // Count and sum of one ServerStats counter over node n, or over every
  // node for kAllNodes. `field` is a member pointer
  // (&ServerStats::relocations) or a callable from a const ServerStats& to
  // a const Counter&. It adds up the node's copy and every shard's; only
  // the copy of the field's writer ever counts.
  template <typename Field>
  CounterSum Sum(const Field& field, NodeId n = kAllNodes) const {
    CounterSum total;
    for (NodeId i = 0; i < config_.num_nodes; ++i) {
      if (n != kAllNodes && i != n) continue;
      total.Add(std::invoke(field, nodes_[i]->stats));
      for (const ServerStats& ss : nodes_[i]->shard_stats) {
        total.Add(std::invoke(field, ss));
      }
    }
    return total;
  }
  int64_t TotalLocalReads() const {
    return Sum(&ServerStats::local_key_reads).sum;
  }
  int64_t TotalRemoteReads() const {
    return Sum(&ServerStats::remote_key_reads).sum;
  }
  int64_t TotalReplicaReads() const {
    return Sum(&ServerStats::replica_key_reads).sum;
  }
  int64_t NodeLocalizationConflicts(NodeId n) const {
    return Sum(&ServerStats::localization_conflicts, n).count;
  }
  int64_t NodeBacklogCount(NodeId n, net::MsgType t) const;
  int64_t NodeBacklogSumNs(NodeId n, net::MsgType t) const;

  // --- adaptive placement engine (config.adaptive.enabled) --------------
  bool adaptive_enabled() const { return !managers_.empty(); }
  // Valid only when adaptive_enabled().
  adapt::PlacementManager& placement_manager(NodeId n) {
    return *managers_[n];
  }
  // Valid only when config.replication; null otherwise.
  ReplicaManager* replica_manager(NodeId n) {
    return nodes_[n]->replicas.get();
  }

  // --- observability ----------------------------------------------------
  // Every field of every stats list under its registry name, plus the
  // tracing histograms when tracing is on. Filled at construction.
  obs::MetricsRegistry& metrics() { return registry_; }
  // Tracing (config.obs.sample_every > 0): per-op timelines and latency
  // histograms. Null when tracing is off.
  obs::Observability* observability() { return obs_.get(); }
  // Write a registry snapshot as JSON / the buffered op timelines as a
  // chrome://tracing file, after flushing the collector if tracing is on.
  // Return false when the file could not be written; DumpTrace also when
  // tracing is off. Both also happen automatically at destruction for the
  // paths configured in ObsConfig.
  bool DumpMetrics(const std::string& path);
  bool DumpTrace(const std::string& path);

  // Zeroes every cumulative field of every stats list; levels (the
  // replica managers' pinned keys) keep their value. Only valid while no
  // worker runs (between Run calls): a running worker publishes its
  // batched counts later.
  void ResetStats();

 private:
  // Registers every field of every stats list in registry_ (called once at
  // construction, after managers exist).
  void RegisterMetrics();

  Config config_;
  KeyLayout layout_;
  net::Network network_;
  Barrier worker_barrier_;
  std::vector<std::unique_ptr<NodeContext>> nodes_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::thread> server_threads_;
  // Empty unless config.adaptive.enabled. Paused outside Run() phases.
  std::vector<std::unique_ptr<adapt::PlacementManager>> managers_;
  // Null unless tracing is on.
  std::unique_ptr<obs::Observability> obs_;
  // Declared last, so it goes first: its entries point into everything
  // above.
  obs::MetricsRegistry registry_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_SYSTEM_H_
