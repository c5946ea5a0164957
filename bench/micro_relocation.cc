// Micro-benchmark for the relocation protocol of Section 3.2: relocation
// latency (localize -> usable locally) and relocation throughput (the
// paper reports up to 0.3 million relocations per second cluster-wide).
//
// Pattern: one measured worker localizes keys while a "stealer" worker on
// another node keeps localizing them back, so the measured localize
// operations actually relocate. The reported counter `relocated_keys`
// (per second) counts true relocations observed by the engine.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "ps/system.h"

namespace lapse {
namespace {

constexpr uint64_t kKeys = 4096;
constexpr size_t kLen = 16;

std::unique_ptr<ps::PsSystem> MakeSystem(int64_t remote_ns) {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency.remote_base_ns = remote_ns;
  cfg.latency.local_base_ns = remote_ns / 10;
  cfg.latency.per_byte_ns = 0;
  return std::make_unique<ps::PsSystem>(cfg);
}

void RunContendedLocalize(benchmark::State& state, int64_t remote_ns,
                          size_t batch) {
  auto system = MakeSystem(remote_ns);
  std::atomic<bool> stop{false};
  std::vector<Key> all_keys(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) all_keys[k] = k;

  system->Run([&](ps::Worker& w) {
    if (w.node() == 0) {
      // Stealer: keep pulling every key back to node 0 so the measured
      // worker's localizes are real relocations.
      while (!stop.load(std::memory_order_relaxed)) {
        w.Localize(all_keys);
      }
      return;
    }
    std::vector<Key> batch_keys(batch);
    uint64_t base = 0;
    const int64_t reloc_before =
        system->Sum(&ps::ServerStats::relocations).count;
    for (auto _ : state) {
      for (size_t i = 0; i < batch; ++i) {
        batch_keys[i] = (base + i) % kKeys;
      }
      w.Localize(batch_keys);
      base += batch;
    }
    const int64_t reloc_after =
        system->Sum(&ps::ServerStats::relocations).count;
    stop.store(true, std::memory_order_relaxed);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * batch));
    state.counters["relocated_keys"] = benchmark::Counter(
        static_cast<double>(reloc_after - reloc_before),
        benchmark::Counter::kIsRate);
    state.counters["mean_RT_us"] =
        system->Sum(&ps::ServerStats::relocations).Mean() / 1e3;
  });
}

void BM_RelocateSingleKeyZeroLat(benchmark::State& state) {
  RunContendedLocalize(state, /*remote_ns=*/0, /*batch=*/1);
}
BENCHMARK(BM_RelocateSingleKeyZeroLat);

void BM_RelocateSingleKeyLan(benchmark::State& state) {
  RunContendedLocalize(state, /*remote_ns=*/30'000, /*batch=*/1);
}
BENCHMARK(BM_RelocateSingleKeyLan)->Iterations(2000);

void BM_RelocateBulkZeroLat(benchmark::State& state) {
  RunContendedLocalize(state, /*remote_ns=*/0,
                       static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_RelocateBulkZeroLat)->Arg(64)->Arg(512)->Arg(2048);

void BM_RelocateBulkLan(benchmark::State& state) {
  RunContendedLocalize(state, /*remote_ns=*/30'000,
                       static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_RelocateBulkLan)->Arg(512)->Iterations(100);

// Uncontended localize of an already-local key: the fast path that makes
// repeated localize calls in trainer inner loops cheap.
void BM_LocalizeAlreadyLocal(benchmark::State& state) {
  ps::Config cfg;
  cfg.num_nodes = 1;
  cfg.workers_per_node = 1;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  ps::PsSystem system(cfg);
  system.Run([&](ps::Worker& w) {
    uint64_t i = 0;
    for (auto _ : state) {
      w.Localize({i % kKeys});
      ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  });
}
BENCHMARK(BM_LocalizeAlreadyLocal);

}  // namespace
}  // namespace lapse

BENCHMARK_MAIN();
