#include "harness.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

lapse::net::LatencyConfig BenchLan() {
  lapse::net::LatencyConfig lat;
  lat.remote_base_ns = 30'000;
  lat.local_base_ns = 2'000;
  lat.per_byte_ns = 0.3;
  lat.jitter_fraction = 0.0;
  return lat;
}

Counters Counters::Read(ps::PsSystem& system) {
  using lapse::net::MsgType;
  Counters c;
  const lapse::net::NetStats& net = system.net_stats();
  c.msgs = net.total_messages();
  c.remote_msgs = net.remote_messages();
  c.bytes = net.total_bytes();
  for (const MsgType t : {MsgType::kLocalize, MsgType::kRelocateInstruct,
                          MsgType::kRelocateTransfer,
                          MsgType::kLocalizeNoop}) {
    c.reloc_msgs += net.MessagesOfType(t);
  }
  c.batch_msgs = net.MessagesOfType(MsgType::kBatchOp) +
                 net.MessagesOfType(MsgType::kBatchResp);

  const ps::Config& cfg = system.config();
  for (int n = 0; n < cfg.num_nodes; ++n) {
    for (size_t t = 0; t < static_cast<size_t>(MsgType::kNumTypes); ++t) {
      c.backlog_count += system.NodeBacklogCount(n, static_cast<MsgType>(t));
      c.backlog_sum_ns += system.NodeBacklogSumNs(n, static_cast<MsgType>(t));
    }
    for (int s = 0; s < cfg.server_threads; ++s) {
      const ps::ServerStats& ss = system.shard_stats(n, s);
      c.relocations += ss.relocations.count();
      c.reloc_sum_ns += ss.relocations.sum();
    }
    c.conflicts += system.NodeLocalizationConflicts(n);
    const ps::ServerStats& ns = system.node_stats(n);
    c.queued_ops += ns.queued_local_ops.sum();
    c.coalesce_batches += ns.coalesce_batches.count();
    c.coalesce_subops += ns.coalesce_batches.sum();
    c.forced_drains += ns.coalesce_forced_drains.count();
    if (ps::ReplicaManager* rm = system.replica_manager(n)) {
      const ps::ReplicaManagerStats rs = rm->stats();
      c.stale_misses += rs.stale_misses;
      c.folds += rs.folds;
      c.flushed_keys += rs.flushed_keys;
      c.pinned_keys += rs.pinned;
    }
    if (system.adaptive_enabled()) {
      const lapse::adapt::AdaptStats as =
          system.placement_manager(n).stats();
      c.adapt_localizes += as.localizes_issued;
      c.adapt_evictions += as.evictions_issued;
      c.adapt_samples += as.samples;
      c.adapt_dropped += as.dropped_samples;
    }
  }
  c.local_reads = system.TotalLocalReads();
  c.remote_reads = system.TotalRemoteReads();
  c.replica_reads = system.TotalReplicaReads();
  return c;
}

Counters Counters::Delta(const Counters& e, const Counters& s) {
  Counters d;
  d.msgs = e.msgs - s.msgs;
  d.remote_msgs = e.remote_msgs - s.remote_msgs;
  d.bytes = e.bytes - s.bytes;
  d.reloc_msgs = e.reloc_msgs - s.reloc_msgs;
  d.batch_msgs = e.batch_msgs - s.batch_msgs;
  d.backlog_count = e.backlog_count - s.backlog_count;
  d.backlog_sum_ns = e.backlog_sum_ns - s.backlog_sum_ns;
  d.relocations = e.relocations - s.relocations;
  d.reloc_sum_ns = e.reloc_sum_ns - s.reloc_sum_ns;
  d.conflicts = e.conflicts - s.conflicts;
  d.queued_ops = e.queued_ops - s.queued_ops;
  d.local_reads = e.local_reads - s.local_reads;
  d.remote_reads = e.remote_reads - s.remote_reads;
  d.replica_reads = e.replica_reads - s.replica_reads;
  d.stale_misses = e.stale_misses - s.stale_misses;
  d.folds = e.folds - s.folds;
  d.flushed_keys = e.flushed_keys - s.flushed_keys;
  d.coalesce_batches = e.coalesce_batches - s.coalesce_batches;
  d.coalesce_subops = e.coalesce_subops - s.coalesce_subops;
  d.forced_drains = e.forced_drains - s.forced_drains;
  d.adapt_localizes = e.adapt_localizes - s.adapt_localizes;
  d.adapt_evictions = e.adapt_evictions - s.adapt_evictions;
  d.adapt_samples = e.adapt_samples - s.adapt_samples;
  d.adapt_dropped = e.adapt_dropped - s.adapt_dropped;
  d.pinned_keys = e.pinned_keys;
  return d;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

StealSample StealSample::Read() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // aggregate line: user nice system idle iowait irq softirq
  StealSample s;  // steal guest guest_nice
  int64_t v = 0;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double StealSample::ShareSince(const StealSample& start) const {
  const int64_t total_delta = total - start.total;
  return total_delta > 0
             ? static_cast<double>(steal - start.steal) / total_delta
             : 0.0;
}

std::vector<const Slice*> CalmSlices(const WorkloadResult& r, bool traced) {
  std::vector<const Slice*> all, calm;
  for (const Slice& s : r.slices) {
    if (s.traced != traced || s.seconds <= 0) continue;
    all.push_back(&s);
    if (s.steal_share <= kCalmSteal) calm.push_back(&s);
  }
  return calm.size() >= 3 ? calm : all;
}

double SliceRate(const WorkloadResult& r, bool traced) {
  std::vector<double> rates;
  for (const Slice* s : CalmSlices(r, traced)) {
    rates.push_back(static_cast<double>(s->items) / s->seconds);
  }
  return Median(std::move(rates));
}

EpochLoop::EpochLoop(const EpochPlan& plan, int workers, int64_t epoch_items,
                     WorkloadResult* r)
    : plan_(plan),
      warmup_(plan.warmup_items >= 0),
      epoch_items_(epoch_items),
      r_(r),
      first_slice_(r->slices.size()),
      latency_(workers) {
  while (r->trace.logs.size() < static_cast<size_t>(1 + workers)) {
    r->trace.NewLog();
  }
}

bool EpochLoop::EndEpoch(ps::Worker& w, int epoch, int64_t t0, bool traced) {
  if (warmup_) return true;
  if (w.worker_id() == 0) {
    const int64_t t1 = Now();
    epochs_.push_back({static_cast<double>(t1 - t0) * 1e-9, epoch_items_,
                       traced, StealSample::Read().ShareSince(steal0_), {}});
    stop_.store((plan_.max_epochs > 0 && epoch + 1 >= plan_.max_epochs) ||
                    (plan_.deadline_ns > 0 && t1 >= plan_.deadline_ns),
                std::memory_order_relaxed);
  }
  w.Barrier();
  return stop_.load(std::memory_order_relaxed);
}

void EpochLoop::Finish() {
  if (warmup_) return;
  const int workers = static_cast<int>(latency_.size());
  for (size_t e = 0; e < epochs_.size(); ++e) {
    Slice& s = epochs_[e];
    for (auto& per_worker : latency_) {
      if (e < per_worker.size()) {
        s.latency_ns.insert(s.latency_ns.end(), per_worker[e].begin(),
                            per_worker[e].end());
        std::vector<int64_t>().swap(per_worker[e]);
      }
    }
    if (s.traced) {
      r_->trace.traced_items += s.items;
      r_->trace.traced_thread_seconds += s.seconds * workers;
    }
    r_->slices.push_back(std::move(s));
  }
}

int64_t WorkloadResult::items() const {
  int64_t n = 0;
  for (const Slice& s : slices) n += s.items;
  return n;
}

}  // namespace perfbench
