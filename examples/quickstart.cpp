// Quickstart: the Lapse API in one file.
//
// Starts a simulated 4-node deployment, then exercises the three
// primitives of Table 2 -- pull, push (cumulative), and localize (dynamic
// parameter allocation) -- plus asynchronous operation handles.
//
//   ./examples/quickstart

#include <cstdio>
#include <vector>

#include "ps/system.h"

int main() {
  using namespace lapse;

  // 1. Configure a deployment: 4 logical nodes x 2 worker threads, 1000
  //    parameters, each a vector of 8 floats.
  ps::Config config;
  config.num_nodes = 4;
  config.workers_per_node = 2;
  config.num_keys = 1000;
  config.uniform_value_length = 8;
  config.arch = ps::Architecture::kLapse;  // dynamic parameter allocation
  config.latency = net::LatencyConfig::Lan();  // ~30us between nodes

  ps::PsSystem system(config);
  std::printf("started %d nodes x %d workers, %llu keys\n",
              config.num_nodes, config.workers_per_node,
              static_cast<unsigned long long>(config.num_keys));

  // 2. Run a worker function on every worker thread.
  system.Run([](ps::Worker& w) {
    std::vector<Val> value(8);
    std::vector<Val> update(8, 1.0f);

    // --- push: cumulative update --------------------------------------
    // Every worker adds 1.0 to each element of key 42.
    w.Push({42}, update.data());
    w.Barrier();

    // --- pull: read the current value ----------------------------------
    w.Pull({42}, value.data());
    if (w.worker_id() == 0) {
      std::printf("key 42 after 8 workers pushed 1.0: %.1f\n", value[0]);
    }

    // --- localize: relocate parameters to this node ---------------------
    // Subsequent accesses are served from local shared memory. (Manual
    // localization is one option; with config.adaptive.enabled the
    // placement engine issues these calls automatically from observed
    // access patterns -- see the --auto-placement mode of the other
    // examples.)
    const Key my_key = 100 + static_cast<Key>(w.worker_id());
    w.Localize({my_key});
    w.Pull({my_key}, value.data());  // local now
    std::printf("worker %d localized key %llu (local=%s)\n", w.worker_id(),
                static_cast<unsigned long long>(my_key),
                w.IsLocal(my_key) ? "yes" : "no");

    // --- asynchronous operations ----------------------------------------
    // Issue without blocking; Wait() on the handle when the result is
    // needed. Operations of one worker are executed in issue order.
    const uint64_t h1 = w.PushAsync({my_key}, update.data());
    const uint64_t h2 = w.PullAsync({my_key}, value.data());
    w.Wait(h1);
    w.Wait(h2);
    if (value[0] != 1.0f) std::printf("unexpected async result!\n");

    // --- grouped multi-key operations ------------------------------------
    std::vector<Key> keys = {1, 2, 3, 4};
    std::vector<Val> grouped(8 * keys.size());
    w.Pull(keys, grouped.data());  // one grouped message per server
  });

  std::printf("network traffic: %lld messages, %lld bytes\n",
              static_cast<long long>(system.net_stats().total_messages()),
              static_cast<long long>(system.net_stats().total_bytes()));
  const CounterSum relocations = system.Sum(&ps::ServerStats::relocations);
  std::printf("relocated keys: %lld (mean relocation time %.1f us)\n",
              static_cast<long long>(relocations.count),
              relocations.Mean() / 1e3);
  return 0;
}
