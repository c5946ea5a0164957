// Adaptive placement engine on a skewed workload with NO manual
// localization: every node's workers draw keys from a node-specific Zipf
// distribution over the whole (hash-scattered) key space, so under static
// allocation only ~1/N of accesses are local. The engine must discover
// each node's hot set from sampled accesses and relocate it, driving the
// local-hit ratio toward the Zipf mass of the relocated set -- the paper's
// dynamic-allocation-beats-static result (Figures 6-8), but self-tuned
// instead of hand-written.
//
// Reports the local-hit convergence trajectory round by round, then writes
// BENCH_adaptive.json:
//   local_hit_ratio  -- final-round adaptive ratio; baseline = the static
//                       run's ratio (speedup_vs_baseline >= 2 is the
//                       acceptance bar)
//   throughput       -- adaptive ops/s; baseline = static ops/s
//   relocated_keys   -- keys the engine moved (adaptive run only)
//   hardware_threads -- std::thread::hardware_concurrency()

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ps/system.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace lapse {
namespace {

constexpr int kNodes = 4;
constexpr int kWorkersPerNode = 1;
constexpr uint64_t kKeys = 8192;  // power of two: hash scatter is a bijection
constexpr size_t kLen = 16;
constexpr double kZipfExponent = 1.2;
constexpr int kRounds = 6;
constexpr int64_t kOpsPerRound = 25'000;
constexpr int kPushEvery = 4;  // 1 push per 4 ops: read-mostly workload

// Node n's Zipf rank r maps to a key via an odd-multiplier hash, so every
// node's hot set is disjoint from every other node's and scattered
// uniformly across all homes (static local-hit ~= 1/kNodes).
Key KeyFor(NodeId node, uint64_t rank) {
  const uint64_t x = rank * static_cast<uint64_t>(kNodes) +
                     static_cast<uint64_t>(node);
  return (x * 0x9E3779B1ULL) & (kKeys - 1);
}

ps::Config BenchConfig(bool adaptive) {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // wakeup-based hand-off on small machines
  cfg.adaptive.enabled = adaptive;
  // The windows must match the sampling rate: a worker bound by remote
  // round trips serves O(1k) ops/s on a small box, so a tick needs tens of
  // milliseconds before per-key scores mean anything. Sample every op (the
  // workload is message-path dominated; sampling cost is invisible), decay
  // slowly, and demand ~1s of cold before evicting.
  cfg.adaptive.sample_period = 1;
  cfg.adaptive.tick_micros = 50'000;
  cfg.adaptive.decay = 0.8;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.2;
  cfg.adaptive.cold_ticks_to_evict = 20;
  return cfg;
}

struct RunResult {
  std::vector<double> round_hit_ratio;  // per-round local-hit trajectory
  double final_hit_ratio = 0;
  double ops_per_sec = 0;
  int64_t relocated = 0;
};

RunResult RunWorkload(bool adaptive) {
  ps::PsSystem system(BenchConfig(adaptive));
  const ZipfSampler zipf(kKeys / kNodes, kZipfExponent);
  RunResult result;
  std::vector<int64_t> local_at_round(kRounds + 1, 0);
  std::vector<int64_t> remote_at_round(kRounds + 1, 0);
  Timer total;

  system.Run([&](ps::Worker& w) {
    const NodeId node = w.node();
    Rng& rng = w.rng();
    std::vector<Val> buf(kLen);
    std::vector<Val> upd(kLen, 0.01f);
    std::vector<Key> one(1);

    for (int round = 0; round < kRounds; ++round) {
      if (w.worker_id() % kWorkersPerNode == 0 && node == 0) {
        local_at_round[round] =
            system.TotalLocalReads() +
            system.Sum(&ps::ServerStats::local_key_writes).sum;
        remote_at_round[round] =
            system.TotalRemoteReads() +
            system.Sum(&ps::ServerStats::remote_key_writes).sum;
      }
      w.Barrier();
      for (int64_t i = 0; i < kOpsPerRound; ++i) {
        one[0] = KeyFor(node, zipf.Sample(rng));
        if (i % kPushEvery == 0) {
          w.Push(one, upd.data());
        } else {
          w.Pull(one, buf.data());
        }
      }
      w.Barrier();
    }
    if (w.worker_id() % kWorkersPerNode == 0 && node == 0) {
      local_at_round[kRounds] =
          system.TotalLocalReads() +
          system.Sum(&ps::ServerStats::local_key_writes).sum;
      remote_at_round[kRounds] =
          system.TotalRemoteReads() +
          system.Sum(&ps::ServerStats::remote_key_writes).sum;
    }
  });

  const double secs = total.ElapsedSeconds();
  for (int r = 0; r < kRounds; ++r) {
    const double local =
        static_cast<double>(local_at_round[r + 1] - local_at_round[r]);
    const double remote =
        static_cast<double>(remote_at_round[r + 1] - remote_at_round[r]);
    result.round_hit_ratio.push_back(
        local + remote == 0 ? 0.0 : local / (local + remote));
  }
  result.final_hit_ratio = result.round_hit_ratio.back();
  result.ops_per_sec = static_cast<double>(kRounds * kOpsPerRound *
                                           kNodes * kWorkersPerNode) /
                       secs;
  result.relocated = system.Sum(&ps::ServerStats::relocations).count;
  return result;
}

}  // namespace
}  // namespace lapse

int main() {
  using namespace lapse;
  bench::PrintBanner(
      "micro_adaptive: self-tuning placement on a skewed workload",
      "dynamic vs static allocation (Figs 6-8), via src/adapt instead of "
      "manual Localize",
      "per-node disjoint Zipf hot sets scattered over all homes; no "
      "manual localization anywhere");

  std::printf("static baseline (engine off)...\n");
  const RunResult st = RunWorkload(/*adaptive=*/false);
  std::printf("  local-hit %.3f, %.0f ops/s\n", st.final_hit_ratio,
              st.ops_per_sec);

  std::printf("adaptive engine on...\n");
  const RunResult ad = RunWorkload(/*adaptive=*/true);
  std::printf("  convergence:");
  for (const double r : ad.round_hit_ratio) std::printf(" %.3f", r);
  std::printf("\n  local-hit %.3f (%.1fx static), %.0f ops/s (%.2fx), "
              "%lld keys relocated\n",
              ad.final_hit_ratio, ad.final_hit_ratio / st.final_hit_ratio,
              ad.ops_per_sec, ad.ops_per_sec / st.ops_per_sec,
              static_cast<long long>(ad.relocated));

  const std::vector<bench::JsonMetric> metrics = {
      {"local_hit_ratio", ad.final_hit_ratio, st.final_hit_ratio},
      {"throughput", ad.ops_per_sec, st.ops_per_sec},
      {"relocated_keys", static_cast<double>(ad.relocated), 0.0},
      {"hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency()), 0.0},
  };
  if (!bench::WriteBenchJson("BENCH_adaptive.json", "micro_adaptive",
                             metrics)) {
    return 1;
  }
  std::printf("wrote BENCH_adaptive.json\n");
  return 0;
}
