#ifndef LAPSE_PS_SYSTEM_H_
#define LAPSE_PS_SYSTEM_H_

#include <functional>
#include <memory>
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
  // Node-level stats: the worker-written fields (local/remote reads and
  // writes, queued ops, replica reads/writes; exact between two barriers
  // and after Run, see the RULES above ServerStats). Server-written fields
  // live in shard_stats(n, s); use the Node* aggregation helpers below.
  ServerStats& node_stats(NodeId n) { return nodes_[n]->stats; }
  // Per-shard stats written by shard s's drain thread of node n.
  ServerStats& shard_stats(NodeId n, int s) {
    return nodes_[n]->shard_stats[s];
  }
  NodeContext& node_context(NodeId n) { return *nodes_[n]; }

  // Server-written fields aggregated over node n's shards.
  int64_t NodeRelocatedKeys(NodeId n) const;
  int64_t NodeLocalizationConflicts(NodeId n) const;
  int64_t NodeEvictionsReceived(NodeId n) const;
  int64_t NodeReplicaUnregisters(NodeId n) const;
  int64_t NodeBacklogCount(NodeId n, net::MsgType t) const;
  int64_t NodeBacklogSumNs(NodeId n, net::MsgType t) const;

  // --- adaptive placement engine (config.adaptive.enabled) --------------
  bool adaptive_enabled() const { return !managers_.empty(); }
  // Valid only when adaptive_enabled().
  adapt::PlacementManager& placement_manager(NodeId n) {
    return *managers_[n];
  }
  // Installs the replication hook on every node's manager; called from the
  // manager threads with (node, newly flagged keys). No-op when the engine
  // is disabled. Flags that fired before the hook was installed are
  // replayed to it immediately, so late installation loses nothing. Note:
  // with config.replication on, flagged keys are additionally pinned into
  // the node's ReplicaManager automatically -- the hook is observability,
  // not the serving path.
  void SetReplicationHook(
      std::function<void(NodeId, const std::vector<Key>&)> hook);

  // Valid only when config.replication; null otherwise.
  ReplicaManager* replica_manager(NodeId n) {
    return nodes_[n]->replicas.get();
  }

  // --- observability (config.obs.enabled) -------------------------------
  // The collector: per-op timelines, latency histograms, and the metrics
  // registry. Null when config.obs.enabled is false.
  obs::Observability* observability() { return obs_.get(); }
  // Flushes the collector and writes a registry snapshot as JSON / the
  // buffered op timelines as a chrome://tracing file. Return false when
  // observability is off or the file could not be written. Both also
  // happen automatically at destruction for the paths configured in
  // ObsConfig.
  bool DumpMetrics(const std::string& path);
  bool DumpTrace(const std::string& path);

  // Sums a field over all nodes.
  int64_t TotalLocalReads() const;
  int64_t TotalReplicaReads() const;
  int64_t TotalReplicaWrites() const;
  int64_t TotalRemoteReads() const;
  int64_t TotalLocalWrites() const;
  int64_t TotalRemoteWrites() const;
  int64_t TotalRelocatedKeys() const;
  double MeanRelocationNs() const;

  // Zeroes every stats struct. Only valid while no worker runs (between
  // Run calls): a running worker publishes its batched counts later.
  void ResetStats();

 private:
  // Names every live counter/gauge/histogram in obs_'s registry (called
  // once at construction, after managers exist).
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
  // Null unless config.obs.enabled. Declared last: its registry reads
  // counters living in nodes_ and managers_, so it must be destroyed (and
  // its collector joined) before they are.
  std::unique_ptr<obs::Observability> obs_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_SYSTEM_H_
