#ifndef LAPSE_OBS_OBSERVABILITY_H_
#define LAPSE_OBS_OBSERVABILITY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/obs_config.h"
#include "obs/timeline.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace obs {

// One sampled operation, stitched together from its phase events.
struct OpRecord {
  uint64_t uid = 0;
  OpKind kind = OpKind::kPull;
  int64_t issue_ns = 0;
  int64_t complete_ns = 0;
  int64_t local_ns = 0;   // worker-side latch/copy time
  int64_t queue_ns = 0;   // summed server inbox wait across hops
  int64_t net_ns = 0;     // summed simulated wire time across hops
  int64_t reloc_ns = 0;   // summed relocation-stall time
  int64_t coalesce_ns = 0;  // held in the request coalescer before send
  uint32_t hops = 0;      // server handlings this op's messages paid
  uint32_t replica_misses = 0;
  uint32_t replica_refreshes = 0;

  int64_t LatencyNs() const { return complete_ns - issue_ns; }
  NodeId node() const { return UidNode(uid); }
  int32_t thread() const { return UidThread(uid); }
};

// Tracing, the opt-in part of the observability layer: owns the per-node
// trace rings and the latency histograms, and runs the collector. A single
// thread drains all rings every snapshot_micros, joins events into
// OpRecords keyed by uid, and on completion feeds the op/phase histograms
// and the bounded trace buffer. Cross-node events of one op may be drained
// in different passes, so records finalize one full pass after their
// completion event (by then every earlier-recorded event has been drained:
// rings are FIFO and each pass drains all of them).
class Observability {
 public:
  // One trace ring per thread slot (ps::Config::num_thread_slots()) of
  // each node. Registers the histograms and the collector's own gauges in
  // `registry`, which must not be snapshot after this is destroyed.
  Observability(const ObsConfig& config, int num_nodes, int slots_per_node,
                MetricsRegistry* registry);
  ~Observability();

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  NodeObs* NodeRings(NodeId node) { return nodes_[node].get(); }

  // End-to-end latency histogram of one op kind (ns).
  Histogram& OpLatency(OpKind kind) {
    return op_latency_[static_cast<size_t>(kind)];
  }
  // Per-phase duration histograms (kLocal / kQueue / kNet / kRelocStall).
  Histogram& PhaseDuration(Phase phase) {
    return phase_duration_[static_cast<size_t>(phase)];
  }
  // Fed by hooks outside the op tracer: replica copy age at read time,
  // inbox depth after each Put, placement-manager tick duration, and the
  // per-batch size / per-sub-op wait of the request coalescers.
  Histogram& ReplicaReadAge() { return replica_read_age_; }
  Histogram& InboxDepth() { return inbox_depth_; }
  Histogram& AdaptTick() { return adapt_tick_; }
  Histogram& CoalesceBatchSize() { return coalesce_batch_size_; }
  Histogram& CoalesceWaitNs() { return coalesce_wait_ns_; }

  // Starts the collector thread (idempotent).
  void Start();
  // Stops it (idempotent; also runs final drain passes).
  void Stop();

  // Synchronously drains all rings and finalizes every joinable record.
  // Call before reading records or exporting, e.g. at a phase boundary
  // once in-flight ops have settled.
  void Flush();

  // Copy of the finalized records currently buffered (up to
  // max_trace_records).
  std::vector<OpRecord> FinalizedRecords() const;

  // Writes the buffered records as a chrome://tracing JSON array
  // (open chrome://tracing or https://ui.perfetto.dev and load the file).
  bool WriteChromeTrace(const std::string& path) const;

  // Collector self-metrics (exported as gauges too).
  int64_t finalized_ops() const {
    return finalized_ops_.load(std::memory_order_relaxed);
  }
  int64_t orphaned_ops() const {
    return orphaned_ops_.load(std::memory_order_relaxed);
  }
  int64_t dropped_events() const;
  int64_t trace_records_dropped() const {
    return trace_dropped_.load(std::memory_order_relaxed);
  }

  const ObsConfig& config() const { return config_; }

 private:
  void Loop();
  // One drain-join-finalize pass; caller holds collect_mu_ (the rings are
  // SPSC, so consumption must be serialized across threads).
  void DrainPassLocked() LAPSE_REQUIRES(collect_mu_);
  void ApplyEvent(const TraceEvent& ev) LAPSE_REQUIRES(collect_mu_);
  void FinalizeLocked() LAPSE_REQUIRES(collect_mu_);

  struct Pending {
    OpRecord rec;
    bool have_issue = false;
    bool have_complete = false;
    uint64_t complete_pass = 0;
    uint64_t last_pass = 0;
  };

  const ObsConfig config_;
  std::vector<std::unique_ptr<NodeObs>> nodes_;

  std::array<Histogram, static_cast<size_t>(OpKind::kNumKinds)> op_latency_;
  std::array<Histogram, static_cast<size_t>(Phase::kNumPhases)>
      phase_duration_;
  Histogram replica_read_age_;
  Histogram inbox_depth_;
  Histogram adapt_tick_;
  Histogram coalesce_batch_size_;
  Histogram coalesce_wait_ns_;

  // Collector state; everything below collect_mu_ is touched only while
  // holding it (collector thread, Flush, exports).
  mutable Mutex collect_mu_;
  std::vector<TraceEvent> events_scratch_ LAPSE_GUARDED_BY(collect_mu_);
  std::unordered_map<uint64_t, Pending> pending_
      LAPSE_GUARDED_BY(collect_mu_);
  std::vector<OpRecord> trace_buf_ LAPSE_GUARDED_BY(collect_mu_);
  uint64_t pass_ LAPSE_GUARDED_BY(collect_mu_) = 0;
  // GC bound for never-completing records (written once in the
  // constructor, before any concurrency).
  uint64_t stale_passes_ = 0;

  std::atomic<int64_t> finalized_ops_{0};
  std::atomic<int64_t> orphaned_ops_{0};
  std::atomic<int64_t> trace_dropped_{0};

  Mutex thread_mu_;
  CondVar cv_;
  bool stop_ LAPSE_GUARDED_BY(thread_mu_) = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace lapse

#endif  // LAPSE_OBS_OBSERVABILITY_H_
