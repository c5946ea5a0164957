#ifndef LAPSE_PS_CONFIG_H_
#define LAPSE_PS_CONFIG_H_

#include <cstdint>
#include <vector>

#include "net/latency_model.h"
#include "net/message.h"
#include "obs/obs_config.h"

namespace lapse {
namespace ps {

// Which parameter-server architecture the engine emulates (Section 4.6 of
// the paper runs all three as its ablation axes).
enum class Architecture {
  // Dynamic parameter allocation + shared-memory fast local access. This is
  // Lapse proper: localize() relocates parameters at runtime.
  kLapse,
  // Static allocation (localize is a no-op) but local parameters are still
  // accessed via shared memory ("Classic PS with fast local access").
  kClassicFastLocal,
  // Static allocation and *all* accesses -- including node-local ones -- go
  // through the message path, emulating PS-Lite's inter-process access.
  kClassic,
};

// Location-management strategies of Table 3.
enum class LocationStrategy {
  kStaticPartition,       // owner == home forever; no relocation support
  kHomeNode,              // Lapse's decentralized home-node strategy
  kBroadcastOps,          // no location state; ops broadcast to all nodes
  kBroadcastRelocations,  // every node mirrors all K locations (direct mail)
};

const char* ArchitectureName(Architecture a);
const char* LocationStrategyName(LocationStrategy s);

// Knobs of the adaptive placement engine (src/adapt): each node samples its
// workers' accesses, aggregates them over decaying windows, and relocates
// parameters automatically -- hot remote keys are localized, keys gone cold
// are evicted back to their home node, and contended read-mostly keys are
// flagged for replication. Requires Architecture::kLapse with the home-node
// strategy (relocation and eviction ride the standard protocol).
struct AdaptiveConfig {
  bool enabled = false;
  // Workers record the keys of every sample_period-th pull/push operation.
  uint32_t sample_period = 8;
  // Capacity of each worker's sample ring (rounded up to a power of two).
  // When the manager falls behind, excess samples are dropped, not blocked.
  size_t ring_capacity = 8192;
  // Interval between placement-manager ticks (drain + classify + act).
  int64_t tick_micros = 500;
  // Multiplicative per-tick decay of per-key access scores, in (0, 1).
  // Smaller = shorter memory = faster reaction and faster eviction.
  double decay = 0.6;
  // Decayed score at/above which a key counts as hot. Hot remote keys are
  // localize candidates; hot local keys are kept.
  double hot_threshold = 4.0;
  // Decayed score below which an owned away-from-home key counts as cold
  // (an eviction candidate). Must be < hot_threshold; the gap between the
  // two thresholds is what prevents localize/evict flapping.
  double cold_threshold = 0.5;
  // Consecutive cold ticks before an eviction is actually issued.
  int cold_ticks_to_evict = 3;
  // How many times a still-warm key may be taken away from this node after
  // we localized it before it is classified contended (stop relocating).
  int churn_limit = 3;
  // Every churn_forget_ticks ticks one unit of churn is forgiven, so
  // contended keys are eventually retried.
  int churn_forget_ticks = 64;
  // Read fraction at/above which a contended key is flagged for pinning
  // into the node's replica store (with Config::replication on).
  double replicate_read_fraction = 0.9;
  // A pinned key's replica "pays for itself" in a window when the key
  // stays warm (score >= cold_threshold) AND read-mostly (read fraction
  // >= this). Must be <= replicate_read_fraction; the gap is the
  // pin/unpin hysteresis band.
  double unreplicate_read_fraction = 0.5;
  // Consecutive closed windows a pin must fail to pay for itself --
  // cold, or warm but write-heavy (the mix shifted: every holder pays
  // flush traffic for reads nobody makes) -- before the key is unpinned.
  // Unpinned keys are eligible for localize/eviction again. Note the
  // policy can only unpin keys it has tracked samples for: a key pinned
  // manually and then never accessed again from a sampled operation
  // stays pinned.
  int unreplicate_cold_windows = 8;
  // Cap on localize requests issued per node per tick.
  size_t max_localizes_per_tick = 1024;
  // Minimum number of drained samples before a policy window closes.
  // Ticks that saw fewer samples neither classify nor decay, so the
  // window auto-stretches (in wall-clock time) to the observed sample
  // rate and hot_threshold is effectively expressed in samples per
  // window: the same config works on a 1-core CI box serving hundreds of
  // ops/s and a big machine serving millions. 0 closes a window on every
  // timer tick (the raw pre-auto-tune behaviour).
  uint32_t min_tick_samples = 32;
  // --- per-key adaptive flush sizing ------------------------------------
  // Scale each pinned key's replica flush cap (replica_flush_max_folds)
  // with its observed write rate: hot writers batch up to the global cap,
  // cold writers flush promptly at the floor. Requires replication; keys
  // with no tracked samples keep the global cap.
  bool adaptive_flush = false;
  // Lower bound of the per-key cap (what a write-cold pinned key gets).
  uint32_t flush_folds_floor = 4;
  // Decayed per-window write score at which a key's cap saturates at the
  // global replica_flush_max_folds; between 0 and this, the cap scales
  // linearly from flush_folds_floor.
  double flush_saturation_score = 32.0;
};

// Configuration of a PS instance (simulated cluster + engine behaviour).
struct Config {
  int num_nodes = 4;
  int workers_per_node = 4;

  uint64_t num_keys = 0;
  // Per-key value lengths. Leave empty and set `uniform_value_length` for
  // the common case of equal-length values.
  std::vector<size_t> value_lengths;
  size_t uniform_value_length = 1;

  Architecture arch = Architecture::kLapse;
  LocationStrategy strategy = LocationStrategy::kHomeNode;
  bool location_caches = false;
  size_t num_latches = 1000;  // paper default (Section 3.7)

  // Server drain threads per node. Each thread owns one key-range shard of
  // the node's responsibility (KeyLayout::Shard): its own inbox, storage
  // partition, and latch partition. Keyed messages are routed to the shard
  // of their keys; non-keyed control messages go to shard 0. All the per-key
  // protocol ordering guarantees hold within a shard, and no cross-shard
  // locks exist. Validate() rejects 0, caps at 64 (shard indices are bytes
  // in KeyLayout), and warns when it exceeds the host's hardware threads.
  int server_threads = 1;

  net::LatencyConfig latency = net::LatencyConfig::Lan();
  uint64_t seed = 1;

  AdaptiveConfig adaptive;

  // --- replication of contended read-mostly keys (ps::ReplicaManager) --
  // Master switch: keys flagged by the adaptive engine (or pinned manually
  // via Worker::Replicate) are served from node-local replicas with
  // bounded staleness instead of paying the message path on every read.
  // Requires Architecture::kLapse with the home-node strategy (the home's
  // replica directory rides the relocation protocol for invalidation).
  bool replication = false;
  // Staleness bound: a replica serves a read iff its copy was installed
  // within this many microseconds; otherwise the read falls through to
  // the message path, and the returning response refreshes the copy
  // (pull-through). A replica-served read therefore lags the owner by at
  // most this bound plus one fetch round-trip. Tuning: each node pays
  // roughly one refresh round-trip per pinned key per staleness window,
  // so the bound trades read freshness against residual message traffic;
  // keep it well above the interconnect round-trip time or replicas
  // thrash (see bench/micro_replication.cc).
  int64_t replica_staleness_micros = 2000;
  // Pushes to pinned keys fold into a per-key local accumulator (and the
  // node's copy) instead of paying one owner round trip each (Petuum-style
  // write aggregation). Accumulators are flushed to the owners in batches,
  // one envelope per destination (node, shard), on the two triggers
  // below; each flush is acked, and until that ack arrives the node holds
  // back owner snapshots of the key that might lack it, so the node's
  // reads always include its own writes (ReplicaManager).
  //
  // A flush is due once the oldest unflushed fold on the node is this
  // old. Must be <= replica_staleness_micros: folds older than the
  // staleness bound would make other nodes' replica-served reads lag the
  // contract. Flush triggers ride the push path (this one is checked
  // before a push folds), so a node that stops pushing entirely flushes
  // its last folds when its workers wind down (Worker teardown) rather
  // than on this timer.
  int64_t replica_flush_micros = 500;
  // A key's accumulator is flushed once it holds this many folds, even if
  // the age trigger has not fired yet. 1 flushes every push: one owner
  // message per write, as if every push were sent straight to the owner.
  uint32_t replica_flush_max_folds = 32;

  // --- bounded-delay request coalescing (ps::Coalescer) -----------------
  // Every remote pull/push travels in a per-(destination node, shard)
  // envelope (net::MsgType::kBatchOp); this switch only decides whether a
  // worker may hold an envelope for more async ops instead of sending it
  // when the op that filled it finishes issuing. A held batch is released
  // by a dual trigger -- coalesce_max_ops queued ops, or the oldest queued
  // op reaching coalesce_delay_micros -- and Wait/WaitAll force an
  // immediate drain, so barriers never stall on a held batch.
  bool coalescing = false;
  // Age trigger: a worker's queued batch is sent once its oldest op has
  // waited this long (checked at the next op issued by that worker). This
  // is the explicit batching-vs-latency contract: an async op's completion
  // may lag an uncoalesced run by up to this bound plus one batch's extra
  // service time. With replication it must not exceed
  // replica_staleness_micros, or held pulls could observe (and re-install)
  // replica copies older than the staleness contract implies.
  int64_t coalesce_delay_micros = 200;
  // Count trigger: a batch is sent as soon as it holds this many ops.
  // Bounded by 62 -- each batched key entry carries a referencing-op
  // bitmask packed next to a flag bit in one int64 aux word.
  uint32_t coalesce_max_ops = 16;

  // --- observability (src/obs) ------------------------------------------
  // Sampling per-op timeline tracing and latency histograms (opt-in), and
  // export of the always-on metrics registry (JSON) and the traces
  // (chrome://tracing): PsSystem::DumpMetrics, PsSystem::DumpTrace. Works
  // with every architecture and strategy.
  obs::ObsConfig obs;

  // Normalizes dependent options (classic architectures force the static
  // partition strategy and disable caches) and validates ranges. Dies with
  // a clear message on invalid configurations -- bad configs fail here, not
  // as crashes deep in system setup.
  void Normalize();

  // Range/consistency checks only (called by Normalize; exposed so tests
  // can exercise validation without the normalization side effects).
  void Validate() const;

  int total_workers() const { return num_nodes * workers_per_node; }

  // The thread slots of one node, which index its endpoints, op trackers
  // and sample and trace rings: 0 = the shard-0 server, 1..W = the workers
  // (W = workers_per_node), W+1 = the placement manager's protocol worker,
  // W+2.. = server shards 1..S-1 (S = server_threads). Slots
  // 0..manager_slot() issue ops; all num_thread_slots() of them send.
  int32_t manager_slot() const { return workers_per_node + 1; }
  int32_t server_slot(int shard) const {
    return shard == 0 ? 0 : manager_slot() + shard;
  }
  int num_thread_slots() const { return manager_slot() + server_threads; }
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_CONFIG_H_
