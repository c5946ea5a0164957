#include "obs/observability.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "util/timer.h"

namespace lapse {
namespace obs {

Observability::Observability(const ObsConfig& config, int num_nodes,
                             int slots_per_node, MetricsRegistry* registry)
    : config_(config) {
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    nodes_.push_back(
        std::make_unique<NodeObs>(slots_per_node, config_.ring_capacity));
  }
  // A record that never completes (dropped event, op abandoned at
  // teardown) is garbage-collected after ~2 seconds of passes.
  const int64_t snapshot_us = std::max<int64_t>(1, config_.snapshot_micros);
  stale_passes_ =
      static_cast<uint64_t>(std::max<int64_t>(16, 2'000'000 / snapshot_us));

  // The layer's own metrics, named like everything else in the registry.
  for (size_t k = 0; k < static_cast<size_t>(OpKind::kNumKinds); ++k) {
    registry->AddHistogram(
        std::string("obs.op.") + OpKindName(static_cast<OpKind>(k)) +
            ".latency_ns",
        &op_latency_[k]);
  }
  for (const Phase p : {Phase::kLocal, Phase::kQueue, Phase::kNet,
                        Phase::kRelocStall, Phase::kCoalesceWait}) {
    registry->AddHistogram(
        std::string("obs.phase.") + PhaseName(p) + ".ns",
        &phase_duration_[static_cast<size_t>(p)]);
  }
  registry->AddHistogram("obs.replica.read_age_ns", &replica_read_age_);
  registry->AddHistogram("obs.net.inbox_depth", &inbox_depth_);
  registry->AddHistogram("obs.adapt.tick_ns", &adapt_tick_);
  registry->AddHistogram("obs.coalesce.batch_size", &coalesce_batch_size_);
  registry->AddHistogram("obs.coalesce.wait_ns", &coalesce_wait_ns_);
  registry->AddGauge("obs.finalized_ops", [this] { return finalized_ops(); });
  registry->AddGauge("obs.orphaned_ops", [this] { return orphaned_ops(); });
  registry->AddGauge("obs.dropped_events", [this] { return dropped_events(); });
  registry->AddGauge("obs.trace_records_dropped",
                     [this] { return trace_records_dropped(); });
}

Observability::~Observability() { Stop(); }

void Observability::Start() {
  MutexLock lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void Observability::Stop() {
  {
    MutexLock lock(thread_mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
  Flush();
}

void Observability::Loop() {
  const auto period = std::chrono::microseconds(
      std::max<int64_t>(1, config_.snapshot_micros));
  MutexLock lock(thread_mu_);
  while (!stop_) {
    const auto deadline = std::chrono::steady_clock::now() + period;
    while (!stop_) {
      if (cv_.WaitUntil(thread_mu_, deadline)) break;  // timed out
    }
    lock.Unlock();
    {
      MutexLock collect(collect_mu_);
      DrainPassLocked();
    }
    lock.Lock();
  }
}

void Observability::Flush() {
  MutexLock collect(collect_mu_);
  // Two passes: the first drains everything recorded so far, the second
  // clears the one-pass finalization grace for records completed in the
  // first.
  DrainPassLocked();
  DrainPassLocked();
}

void Observability::DrainPassLocked() {
  ++pass_;
  events_scratch_.clear();
  for (auto& node : nodes_) node->DrainAll(&events_scratch_);
  for (const TraceEvent& ev : events_scratch_) ApplyEvent(ev);
  FinalizeLocked();
}

void Observability::ApplyEvent(const TraceEvent& ev) {
  Pending& p = pending_[ev.uid];
  p.rec.uid = ev.uid;
  p.last_pass = pass_;
  switch (ev.phase) {
    case Phase::kIssue:
      p.rec.issue_ns = ev.t_ns;
      p.rec.kind = ev.kind;
      p.have_issue = true;
      break;
    case Phase::kLocal:
      p.rec.local_ns += ev.t_ns;
      break;
    case Phase::kQueue:
      p.rec.queue_ns += ev.t_ns;
      ++p.rec.hops;  // one kQueue event per server handling
      break;
    case Phase::kNet:
      p.rec.net_ns += ev.t_ns;
      break;
    case Phase::kRelocStall:
      p.rec.reloc_ns += ev.t_ns;
      break;
    case Phase::kReplicaMiss:
      ++p.rec.replica_misses;
      break;
    case Phase::kReplicaRefresh:
      ++p.rec.replica_refreshes;
      break;
    case Phase::kCoalesceWait:
      p.rec.coalesce_ns += ev.t_ns;
      break;
    case Phase::kComplete:
      p.rec.complete_ns = ev.t_ns;
      p.have_complete = true;
      p.complete_pass = pass_;
      break;
    case Phase::kNumPhases:
      break;
  }
}

void Observability::FinalizeLocked() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.have_complete && pass_ > p.complete_pass) {
      if (p.have_issue) {
        const OpRecord& r = p.rec;
        op_latency_[static_cast<size_t>(r.kind)].Add(r.LatencyNs());
        if (r.local_ns > 0) {
          phase_duration_[static_cast<size_t>(Phase::kLocal)].Add(r.local_ns);
        }
        if (r.queue_ns > 0) {
          phase_duration_[static_cast<size_t>(Phase::kQueue)].Add(r.queue_ns);
        }
        if (r.net_ns > 0) {
          phase_duration_[static_cast<size_t>(Phase::kNet)].Add(r.net_ns);
        }
        if (r.reloc_ns > 0) {
          phase_duration_[static_cast<size_t>(Phase::kRelocStall)].Add(
              r.reloc_ns);
        }
        if (r.coalesce_ns > 0) {
          phase_duration_[static_cast<size_t>(Phase::kCoalesceWait)].Add(
              r.coalesce_ns);
        }
        if (trace_buf_.size() < config_.max_trace_records) {
          trace_buf_.push_back(r);
        } else {
          trace_dropped_.fetch_add(1, std::memory_order_relaxed);
        }
        finalized_ops_.fetch_add(1, std::memory_order_relaxed);
        it = pending_.erase(it);
        continue;
      }
      // Completed but its issue event never arrived (dropped): give the
      // grace window a little more room, then discard.
      if (pass_ > p.complete_pass + 2) {
        orphaned_ops_.fetch_add(1, std::memory_order_relaxed);
        it = pending_.erase(it);
        continue;
      }
    } else if (!p.have_complete && pass_ - p.last_pass > stale_passes_) {
      orphaned_ops_.fetch_add(1, std::memory_order_relaxed);
      it = pending_.erase(it);
      continue;
    }
    ++it;
  }
}

std::vector<OpRecord> Observability::FinalizedRecords() const {
  MutexLock lock(collect_mu_);
  return trace_buf_;
}

int64_t Observability::dropped_events() const {
  int64_t total = 0;
  for (const auto& n : nodes_) total += n->TotalDropped();
  return total;
}

bool Observability::WriteChromeTrace(const std::string& path) const {
  std::vector<OpRecord> records = FinalizedRecords();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event format, "X" (complete) events: one span per sampled
  // op, pid = node, tid = thread slot, timestamps in microseconds.
  std::fputs("[", f);
  bool first = true;
  for (const OpRecord& r : records) {
    std::fprintf(
        f,
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"local_us\": %.3f, "
        "\"queue_us\": %.3f, \"net_us\": %.3f, \"reloc_stall_us\": %.3f, "
        "\"coalesce_wait_us\": %.3f, "
        "\"hops\": %u, \"replica_misses\": %u, \"replica_refreshes\": %u}}",
        first ? "" : ",", OpKindName(r.kind), static_cast<int>(r.node()),
        static_cast<int>(r.thread()),
        static_cast<double>(r.issue_ns) / 1000.0,
        static_cast<double>(r.LatencyNs()) / 1000.0,
        static_cast<double>(r.local_ns) / 1000.0,
        static_cast<double>(r.queue_ns) / 1000.0,
        static_cast<double>(r.net_ns) / 1000.0,
        static_cast<double>(r.reloc_ns) / 1000.0,
        static_cast<double>(r.coalesce_ns) / 1000.0, r.hops,
        r.replica_misses, r.replica_refreshes);
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace obs
}  // namespace lapse
