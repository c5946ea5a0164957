// Tail latency of Zipf point-read serving (embeddings shape), and WHERE
// the tail comes from. Every node's workers hammer the same Zipf hot set
// (95% single-key pulls, 5% pushes) with the adaptive placement engine and
// replication on -- the serving configuration the other micro benches tune
// for throughput. This bench measures the latency DISTRIBUTION instead:
// per-op client latencies go into obs::Histogram (lock-free, mergeable),
// and the observability layer's sampled per-op timelines attribute the
// p99+ mass to its cause:
//
//   relocation   -- the op stalled behind an in-flight ownership transfer
//                   (kRelocStall phase events)
//   replica_miss -- a pinned replica was too stale to serve, so the op
//                   paid the message path (kReplicaMiss marks)
//   queueing     -- neither: the op waited in server inboxes / on the wire
//
// Writes BENCH_tail_latency.json:
//   p50_us / p99_us / p999_us    -- client pull+push latency percentiles
//   tail_frac_{queueing,relocation,replica_miss}
//                                -- fractions of sampled p99+ ops
//   finalized_ops                -- sampled timelines stitched end-to-end
//   p99_us_coalescing            -- p99 of a second pass with request
//                                   coalescing on; sync ops drain their
//                                   batch immediately, so this must stay
//                                   within the delay knob's 2x bound of
//                                   the uncoalesced p99 (its baseline)
//
// Side artifacts (consumed by CI and chrome://tracing):
//   BENCH_tail_latency_metrics.json -- full metrics-registry snapshot,
//                                      including the per-message-type
//                                      backlog_ns counters (top offenders
//                                      are printed below)
//   BENCH_tail_latency_trace.json   -- sampled op timelines; load into
//                                      chrome://tracing or ui.perfetto.dev

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/observability.h"
#include "ps/system.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace lapse {
namespace {

constexpr int kNodes = 4;
constexpr int kWorkersPerNode = 1;
constexpr uint64_t kKeys = 4096;  // power of two: hash scatter is a bijection
constexpr size_t kLen = 16;       // embedding-vector shape
constexpr double kZipfExponent = 1.2;
constexpr int kWarmupRounds = 3;  // detection + pinning converge here
constexpr int kMeasureRounds = 3;
constexpr int64_t kOpsPerRound = 20'000;
constexpr int kPushEvery = 20;  // 5% writes

// Shared rank->key hash (identical on every node): the hot set is common
// to all nodes and scattered uniformly across all homes.
Key KeyFor(uint64_t rank) { return (rank * 0x9E3779B1ULL) & (kKeys - 1); }

ps::Config BenchConfig() {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  // Zero simulated wire latency, wakeup-based hand-off: on the small
  // machines this runs on (CI), simulated-latency spin-waits would bury
  // the real tail signal under scheduler noise. The tail this bench
  // studies is the system's own: queueing, relocation stalls, replica
  // misses.
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  cfg.adaptive.enabled = true;
  cfg.adaptive.sample_period = 2;
  cfg.adaptive.tick_micros = 20'000;
  cfg.adaptive.decay = 0.8;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.2;
  cfg.adaptive.cold_ticks_to_evict = 20;
  cfg.adaptive.churn_limit = 1;
  cfg.adaptive.replicate_read_fraction = 0.9;
  cfg.replication = true;
  cfg.replica_staleness_micros = 100'000;
  cfg.obs.sample_every = 16;
  cfg.obs.ring_capacity = 1 << 14;
  cfg.obs.snapshot_micros = 2'000;
  cfg.obs.metrics_json_path = "BENCH_tail_latency_metrics.json";
  cfg.obs.trace_path = "BENCH_tail_latency_trace.json";
  return cfg;
}

// The serving workload: Zipf point reads with 5% writes, latency of each
// sync op into a per-worker histogram, merged after the run (the merge
// path is exactly what a sharded deployment would do). Shared between
// the primary pass and the coalescing-on comparison pass.
obs::HistogramSummary RunWorkload(ps::PsSystem& system) {
  const ZipfSampler zipf(kKeys, kZipfExponent);
  const int total_rounds = kWarmupRounds + kMeasureRounds;
  std::vector<obs::Histogram> lat(kNodes * kWorkersPerNode);

  system.Run([&](ps::Worker& w) {
    obs::Histogram& h = lat[static_cast<size_t>(w.worker_id())];
    Rng& rng = w.rng();
    std::vector<Val> buf(kLen);
    std::vector<Val> upd(kLen, 0.01f);
    std::vector<Key> one(1);

    for (int round = 0; round < total_rounds; ++round) {
      w.Barrier();
      const bool measured = round >= kWarmupRounds;
      const int64_t r0 = NowNanos();
      for (int64_t i = 0; i < kOpsPerRound; ++i) {
        one[0] = KeyFor(zipf.Sample(rng));
        const int64_t t0 = NowNanos();
        if (i % kPushEvery == 0) {
          w.Push(one, upd.data());
        } else {
          w.Pull(one, buf.data());
        }
        if (measured) h.Add(NowNanos() - t0);
      }
      w.Barrier();
      if (w.worker_id() == 0) {
        std::printf("  round %d (%s): %.0f ops/s/worker\n", round,
                    measured ? "measure" : "warmup",
                    static_cast<double>(kOpsPerRound) /
                        (static_cast<double>(NowNanos() - r0) * 1e-9));
        std::fflush(stdout);
      }
    }
  });

  obs::Histogram merged;
  for (const obs::Histogram& h : lat) merged.MergeFrom(h);
  return merged.Summarize();
}

void PrintBacklogOffenders(ps::PsSystem& system) {
  struct Offender {
    NodeId node;
    net::MsgType type;
    int64_t sum_ns;
    int64_t count;
  };
  std::vector<Offender> all;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (size_t t = 0; t < static_cast<size_t>(net::MsgType::kNumTypes);
         ++t) {
      const net::MsgType type = static_cast<net::MsgType>(t);
      const int64_t sum = system.NodeBacklogSumNs(n, type);
      if (sum > 0) {
        all.push_back({n, type, sum, system.NodeBacklogCount(n, type)});
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const Offender& a, const Offender& b) {
    return a.sum_ns > b.sum_ns;
  });
  std::printf("server backlog, top offenders (node/type, total wait):\n");
  for (size_t i = 0; i < all.size() && i < 5; ++i) {
    std::printf("  node%d %-18s %8.2f ms over %lld msgs (%.1f us avg)\n",
                all[i].node, net::MsgTypeName(all[i].type),
                static_cast<double>(all[i].sum_ns) * 1e-6,
                static_cast<long long>(all[i].count),
                static_cast<double>(all[i].sum_ns) /
                    static_cast<double>(all[i].count) * 1e-3);
  }
}

}  // namespace

int Main() {
  bench::PrintBanner(
      "micro_tail_latency: tail latency + attribution of Zipf serving",
      "observability layer demonstrator (paper reports means; tails are "
      "the serving-side story)",
      "4x1 workers, 4096 keys x 16, zipf 1.2, 95/5 read/write, adaptive + "
      "replication on, op sampling 1/16");

  ps::PsSystem system(BenchConfig());
  const obs::HistogramSummary cs = RunWorkload(system);
  std::printf(
      "client latency over %lld measured ops:\n"
      "  p50 %8.1f us   p95 %8.1f us   p99 %8.1f us   p999 %8.1f us   "
      "max %8.1f us\n",
      static_cast<long long>(cs.count), static_cast<double>(cs.p50) * 1e-3,
      static_cast<double>(cs.p95) * 1e-3, static_cast<double>(cs.p99) * 1e-3,
      static_cast<double>(cs.p999) * 1e-3,
      static_cast<double>(cs.max) * 1e-3);

  // Attribute the tail: take the slowest 1% of the sampled per-op
  // timelines and ask what they spent their time on. The threshold comes
  // from the timelines' own distribution, not the client histogram: the
  // client clock additionally contains worker wakeup time after the op
  // already finished, which no server-side phase can explain.
  obs::Observability* obs = system.observability();
  obs->Flush();
  const std::vector<obs::OpRecord> records = obs->FinalizedRecords();
  obs::Histogram rec_lat;
  for (const obs::OpRecord& r : records) rec_lat.Add(r.LatencyNs());
  const int64_t tail_cut = rec_lat.ValueAtQuantile(0.99);
  int64_t tail_ops = 0, tail_reloc = 0, tail_miss = 0, tail_queue = 0;
  for (const obs::OpRecord& r : records) {
    if (r.LatencyNs() < tail_cut) continue;
    ++tail_ops;
    if (r.reloc_ns > 0) {
      ++tail_reloc;  // stalled behind an ownership transfer
    } else if (r.replica_misses > 0) {
      ++tail_miss;  // stale pinned copy forced the message path
    } else {
      ++tail_queue;  // plain inbox/wire time
    }
  }
  const double denom = tail_ops > 0 ? static_cast<double>(tail_ops) : 1.0;
  const double frac_reloc = static_cast<double>(tail_reloc) / denom;
  const double frac_miss = static_cast<double>(tail_miss) / denom;
  const double frac_queue = static_cast<double>(tail_queue) / denom;
  std::printf(
      "sampled timelines: %zu finalized (%lld orphaned, %lld ring drops)\n"
      "tail attribution over %lld sampled ops at/above their own p99 "
      "(%.1f us):\n"
      "  queueing %.1f%%   relocation %.1f%%   replica_miss %.1f%%\n",
      records.size(), static_cast<long long>(obs->orphaned_ops()),
      static_cast<long long>(obs->dropped_events()),
      static_cast<long long>(tail_ops),
      static_cast<double>(tail_cut) * 1e-3, 100.0 * frac_queue,
      100.0 * frac_reloc, 100.0 * frac_miss);

  PrintBacklogOffenders(system);

  // Comparison pass: same workload with request coalescing on. Sync ops
  // Wait their own handle, which force-drains the held batch, so the
  // coalescer must not move the tail: the contract is p99 within the
  // uncoalesced p99 plus 2x the delay knob. Tracing and the exports stay
  // off here so this pass cannot clobber the primary pass's artifacts.
  constexpr int64_t kCoalesceDelayMicros = 200;
  ps::Config coal_cfg = BenchConfig();
  coal_cfg.coalescing = true;
  coal_cfg.coalesce_max_ops = 16;
  coal_cfg.coalesce_delay_micros = kCoalesceDelayMicros;
  coal_cfg.obs.sample_every = 0;
  coal_cfg.obs.metrics_json_path.clear();
  coal_cfg.obs.trace_path.clear();
  obs::HistogramSummary ccs;
  {
    ps::PsSystem coal_system(coal_cfg);
    ccs = RunWorkload(coal_system);
  }
  std::printf(
      "coalescing-on pass: p50 %8.1f us   p99 %8.1f us   (uncoalesced p99 "
      "%.1f us + 2x delay bound %.0f us)\n",
      static_cast<double>(ccs.p50) * 1e-3,
      static_cast<double>(ccs.p99) * 1e-3,
      static_cast<double>(cs.p99) * 1e-3,
      2.0 * static_cast<double>(kCoalesceDelayMicros));

  std::vector<bench::JsonMetric> metrics;
  metrics.push_back({"p50_us", static_cast<double>(cs.p50) * 1e-3, 0.0});
  metrics.push_back({"p99_us", static_cast<double>(cs.p99) * 1e-3, 0.0});
  metrics.push_back({"p999_us", static_cast<double>(cs.p999) * 1e-3, 0.0});
  metrics.push_back({"tail_frac_queueing", frac_queue, 0.0});
  metrics.push_back({"tail_frac_relocation", frac_reloc, 0.0});
  metrics.push_back({"tail_frac_replica_miss", frac_miss, 0.0});
  metrics.push_back(
      {"finalized_ops", static_cast<double>(records.size()), 0.0});
  metrics.push_back({"p99_us_coalescing", static_cast<double>(ccs.p99) * 1e-3,
                     static_cast<double>(cs.p99) * 1e-3});
  if (!bench::WriteBenchJson("BENCH_tail_latency.json", "micro_tail_latency",
                             metrics)) {
    return 1;
  }
  // The metrics snapshot and chrome trace are also auto-dumped at system
  // destruction (ObsConfig paths); dump the metrics now too so the file
  // reflects exactly the post-run state the printout used.
  system.DumpMetrics("BENCH_tail_latency_metrics.json");
  std::printf(
      "wrote BENCH_tail_latency.json, BENCH_tail_latency_metrics.json, "
      "BENCH_tail_latency_trace.json\n");
  return 0;
}

}  // namespace lapse

int main() { return lapse::Main(); }
