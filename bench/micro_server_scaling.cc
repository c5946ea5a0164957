// Server-side scaling: remote_pull throughput vs Config::server_threads.
//
// Each node's server is sharded by key range: the network routes every
// keyed message to the (node, shard) inbox of its keys' shard and one
// drain thread owns each shard. This bench saturates node 1's server with
// single-key remote pulls from node 0 (a deep window of outstanding async
// ops per worker, keys strided so consecutive ops hit different shards)
// and measures completed pulls per second for server_threads in {1, 2, 4}.
//
// Server cost model: the primary series runs with
// LatencyConfig::server_ns_per_msg = 200us -- each receiving drain thread
// is a serial resource in simulated time, so a single-shard server caps at
// ~5k msgs/s and sharding multiplies that capacity on any host, including
// single-core CI boxes where real thread parallelism cannot show it. The
// acceptance bar (scaling_4v1 >= 2) is on this series. A secondary
// host-bound series (server_ns_per_msg = 0) records what real parallelism
// adds on this machine, labeled with its hardware thread count -- on a
// 1-core box it is expectedly flat. Its points run kHostPullsPerWorker
// pulls each, enough for about a second on a 4-core host: shorter points
// (a few ms) swing several-fold between runs with host scheduling.
//
// Writes BENCH_server_scaling.json:
//   remote_pull_s{1,2,4}  -- pulls/s, service-modeled; baseline = s1
//   scaling_4v1           -- remote_pull_s4 / remote_pull_s1 (bar >= 2)
//   hostbound_s{1,4}      -- pulls/s, no service model; baseline = s1
//   hardware_threads      -- std::thread::hardware_concurrency()

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ps/system.h"
#include "util/timer.h"

namespace lapse {
namespace {

constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 2;  // node 0's workers pull; node 1 idles
constexpr uint64_t kKeys = 4096;    // 2048 homed per node
constexpr size_t kLen = 8;
constexpr int kWindow = 64;          // outstanding async pulls per worker
constexpr int64_t kPullsPerWorker = 2'500;         // service-modeled points
constexpr int64_t kHostPullsPerWorker = 200'000;  // host-bound points
// 5k msgs/s per drain thread. Chosen well above the host's per-wakeup
// scheduling cost (tens of us on a loaded 1-core box): each paced
// delivery costs one timed wakeup of real time, so the modeled service
// time must dominate it or the host -- not the model -- sets the rate.
constexpr int64_t kServeNsPerMsg = 200'000;
// Key stride, coprime to the 2048-key home range: consecutive ops land in
// different shards (sequential keys would serialize on one shard -- shards
// are contiguous sub-ranges).
constexpr uint64_t kStride = 509;

ps::Config BenchConfig(int server_threads, int64_t serve_ns) {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // wakeup-based hand-off on small machines
  cfg.latency.server_ns_per_msg = serve_ns;
  cfg.server_threads = server_threads;
  return cfg;
}

double RunRemotePulls(int server_threads, int64_t serve_ns,
                      int64_t pulls_per_worker) {
  ps::PsSystem system(BenchConfig(server_threads, serve_ns));
  const uint64_t begin = system.layout().HomeBegin(1);
  const uint64_t range = system.layout().HomeEnd(1) - begin;
  double elapsed = 0.0;

  system.Run([&](ps::Worker& w) {
    std::vector<uint64_t> ops(kWindow, ps::Worker::kImmediate);
    std::vector<Val> bufs(static_cast<size_t>(kWindow) * kLen);
    std::vector<Key> one(1);
    Timer t;
    w.Barrier();
    if (w.node() == 0 && w.thread_slot() == 1) t.Restart();
    if (w.node() == 0) {
      for (int64_t i = 0; i < pulls_per_worker; ++i) {
        const size_t slot = static_cast<size_t>(i % kWindow);
        if (ops[slot] != ps::Worker::kImmediate) w.Wait(ops[slot]);
        // Per-worker offset so the two workers do not ride one key stream.
        const uint64_t r =
            (static_cast<uint64_t>(i + w.worker_id()) * kStride) % range;
        one[0] = begin + r;
        ops[slot] = w.PullAsync(one, bufs.data() + slot * kLen);
      }
      w.WaitAll();
    }
    w.Barrier();
    if (w.node() == 0 && w.thread_slot() == 1) {
      elapsed = t.ElapsedSeconds();
    }
  });

  const double total =
      static_cast<double>(pulls_per_worker) * kWorkersPerNode;
  return total / elapsed;
}

}  // namespace
}  // namespace lapse

int main() {
  using namespace lapse;
  bench::PrintBanner(
      "micro_server_scaling: remote_pull throughput vs server_threads",
      "sharded multi-threaded server drain (per-key-range shard inboxes "
      "and drain threads)",
      "primary series models 200us server CPU per message (each drain "
      "thread a serial resource in simulated time); secondary host-bound "
      "series shows real-parallelism gains only");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);

  std::printf("service-modeled series (%.0f us/msg per drain thread):\n",
              static_cast<double>(kServeNsPerMsg) / 1000.0);
  double modeled[3] = {0, 0, 0};
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    modeled[i] = RunRemotePulls(threads[i], kServeNsPerMsg, kPullsPerWorker);
    std::printf("  server_threads=%d: %.0f remote pulls/s\n", threads[i],
                modeled[i]);
  }
  const double scaling = modeled[2] / modeled[0];
  std::printf("scaling 4 threads vs 1: %.2fx (bar >= 2)\n", scaling);

  std::printf("host-bound series (no service model, %u hw threads):\n", hw);
  const double host1 = RunRemotePulls(1, 0, kHostPullsPerWorker);
  std::printf("  server_threads=1: %.0f remote pulls/s\n", host1);
  const double host4 = RunRemotePulls(4, 0, kHostPullsPerWorker);
  std::printf("  server_threads=4: %.0f remote pulls/s\n", host4);

  const std::vector<bench::JsonMetric> metrics = {
      {"remote_pull_s1", modeled[0], 0.0},
      {"remote_pull_s2", modeled[1], modeled[0]},
      {"remote_pull_s4", modeled[2], modeled[0]},
      {"scaling_4v1", scaling, 2.0},
      {"hostbound_s1", host1, 0.0},
      {"hostbound_s4", host4, host1},
      {"hardware_threads", static_cast<double>(hw), 0.0},
  };
  if (!bench::WriteBenchJson("BENCH_server_scaling.json",
                             "micro_server_scaling", metrics)) {
    return 1;
  }
  std::printf("wrote BENCH_server_scaling.json\n");
  return 0;
}
