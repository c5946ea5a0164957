// Hot-path microbenchmark: per-operation software overhead of the four PS
// primitives that dominate end-to-end training throughput (Section 3.3 of
// the paper argues the system's performance IS this per-op cost).
//
//   local_pull      -- Pull of owned keys (shared-memory fast path)
//   local_push      -- Push of owned keys (shared-memory fast path)
//   remote_pull     -- Pull of keys owned by another node (message path,
//                      zero simulated latency: isolates software overhead)
//   localize_rt     -- Localize round-trip for remote keys (3-message
//                      relocation protocol, zero simulated latency)
//
// Writes BENCH_hotpath.json (ops/sec per metric, and the host's
// hardware_threads) so the perf trajectory is tracked across PRs; a
// baseline for any row is a run of another commit's binary on the same
// host. Each operation covers kKeysPerOp keys.
//
// The local metrics are medians of kLocalReps single-binary runs, and
// their run-to-run noise band (max/min across reps) is recorded as
// local_{pull,push}_spread: single runs of these sub-microsecond loops
// swing by tens of percent with host load and code layout. (A recorded
// local_push "regression" -- 5.39M vs a historical 6.9M -- did not
// survive an interleaved A/B against the pre-coalescing binary on the
// same host: both binaries measured overlapping 4.4-5.3M bands and
// neither reached 6.9M, so compare local numbers only across runs of the
// same machine state and mind the spread metric.)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ps/system.h"
#include "util/timer.h"

namespace lapse {
namespace {

constexpr size_t kKeysPerOp = 8;
constexpr size_t kLen = 32;

ps::Config LocalConfig() {
  ps::Config cfg;
  cfg.num_nodes = 1;
  cfg.workers_per_node = 1;
  cfg.num_keys = 4096;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

ps::Config RemoteConfig(uint64_t num_keys) {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = num_keys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  // On machines with fewer cores than threads, idle spinning starves the
  // peer thread; the round-trip metrics disable it and measure the
  // wakeup-based hand-off, which is the deployment-realistic path.
  cfg.latency.idle_spin_ns = 0;
  return cfg;
}

// Fills `keys` with kKeysPerOp distinct keys from [begin, end), striding so
// consecutive ops touch different latch slots.
void FillBatch(uint64_t i, uint64_t begin, uint64_t end,
               std::vector<Key>* keys) {
  const uint64_t range = end - begin;
  keys->clear();
  for (size_t j = 0; j < kKeysPerOp; ++j) {
    keys->push_back(begin + (i * kKeysPerOp + j) % range);
  }
}

double MeasureLocalPull(int64_t ops) {
  ps::PsSystem system(LocalConfig());
  double secs = 0;
  system.Run([&](ps::Worker& w) {
    std::vector<Key> keys;
    std::vector<Val> buf(kKeysPerOp * kLen);
    // Warmup: touch all keys so storage slots exist.
    for (int64_t i = 0; i < 1000; ++i) {
      FillBatch(static_cast<uint64_t>(i), 0, 4096, &keys);
      w.Pull(keys, buf.data());
    }
    Timer t;
    for (int64_t i = 0; i < ops; ++i) {
      FillBatch(static_cast<uint64_t>(i), 0, 4096, &keys);
      w.Pull(keys, buf.data());
    }
    secs = t.ElapsedSeconds();
  });
  return static_cast<double>(ops) / secs;
}

double MeasureLocalPush(int64_t ops) {
  ps::PsSystem system(LocalConfig());
  double secs = 0;
  system.Run([&](ps::Worker& w) {
    std::vector<Key> keys;
    std::vector<Val> upd(kKeysPerOp * kLen, 0.5f);
    for (int64_t i = 0; i < 1000; ++i) {
      FillBatch(static_cast<uint64_t>(i), 0, 4096, &keys);
      w.Push(keys, upd.data());
    }
    Timer t;
    for (int64_t i = 0; i < ops; ++i) {
      FillBatch(static_cast<uint64_t>(i), 0, 4096, &keys);
      w.Push(keys, upd.data());
    }
    secs = t.ElapsedSeconds();
  });
  return static_cast<double>(ops) / secs;
}

double MeasureRemotePull(int64_t ops) {
  constexpr uint64_t kKeys = 4096;
  ps::PsSystem system(RemoteConfig(kKeys));
  double secs = 0;
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    // Keys in the upper half are homed (and stay owned) at node 1.
    std::vector<Key> keys;
    std::vector<Val> buf(kKeysPerOp * kLen);
    for (int64_t i = 0; i < 500; ++i) {
      FillBatch(static_cast<uint64_t>(i), kKeys / 2, kKeys, &keys);
      w.Pull(keys, buf.data());
    }
    Timer t;
    for (int64_t i = 0; i < ops; ++i) {
      FillBatch(static_cast<uint64_t>(i), kKeys / 2, kKeys, &keys);
      w.Pull(keys, buf.data());
    }
    secs = t.ElapsedSeconds();
  });
  return static_cast<double>(ops) / secs;
}

double MeasureLocalizeRoundTrip(int64_t ops) {
  // Every op localizes a fresh batch of keys currently owned by node 1, so
  // the key space must cover ops * kKeysPerOp upper-half keys.
  const uint64_t num_keys = static_cast<uint64_t>(2 * ops) * kKeysPerOp + 16;
  ps::Config cfg = RemoteConfig(num_keys);
  cfg.uniform_value_length = 8;  // keep every node's value array small
  ps::PsSystem system(cfg);
  double secs = 0;
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Key> keys;
    Timer t;
    for (int64_t i = 0; i < ops; ++i) {
      keys.clear();
      for (size_t j = 0; j < kKeysPerOp; ++j) {
        keys.push_back(num_keys / 2 +
                       static_cast<uint64_t>(i) * kKeysPerOp + j);
      }
      w.Localize(keys);
    }
    secs = t.ElapsedSeconds();
  });
  return static_cast<double>(ops) / secs;
}

constexpr int kLocalReps = 3;

struct RepResult {
  double median = 0;
  double spread = 0;  // max/min across reps
};

RepResult Repeat(double (*measure)(int64_t), int64_t ops) {
  std::vector<double> reps;
  for (int r = 0; r < kLocalReps; ++r) reps.push_back(measure(ops));
  std::sort(reps.begin(), reps.end());
  RepResult out;
  out.median = reps[reps.size() / 2];
  out.spread = reps.front() > 0 ? reps.back() / reps.front() : 0;
  return out;
}

}  // namespace
}  // namespace lapse

int main() {
  using namespace lapse;
  bench::PrintBanner(
      "micro_hotpath: per-op software overhead of pull/push/localize",
      "Section 3.3 (fast local access) + Section 3.2 (relocation)",
      "zero simulated latency; measures engine overhead, not the wire");

  const RepResult pull_reps = Repeat(MeasureLocalPull, 400'000);
  const double local_pull = pull_reps.median;
  std::printf("local_pull    %12.0f ops/s (median of %d, spread %.2fx)\n",
              local_pull, kLocalReps, pull_reps.spread);
  const RepResult push_reps = Repeat(MeasureLocalPush, 400'000);
  const double local_push = push_reps.median;
  std::printf("local_push    %12.0f ops/s (median of %d, spread %.2fx)\n",
              local_push, kLocalReps, push_reps.spread);
  const double remote_pull = MeasureRemotePull(30'000);
  std::printf("remote_pull   %12.0f ops/s\n", remote_pull);
  const double localize_rt = MeasureLocalizeRoundTrip(10'000);
  std::printf("localize_rt   %12.0f ops/s\n", localize_rt);

  const std::vector<bench::JsonMetric> metrics = {
      {"local_pull", local_pull, 0.0},
      {"local_push", local_push, 0.0},
      {"remote_pull", remote_pull, 0.0},
      {"localize_rt", localize_rt, 0.0},
      // Run-to-run noise bands (max/min over the reps behind the medians
      // above); deltas inside these bands are not regressions.
      {"local_pull_spread", pull_reps.spread, 0.0},
      {"local_push_spread", push_reps.spread, 0.0},
      {"hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency()), 0.0},
  };
  if (!bench::WriteBenchJson("BENCH_hotpath.json", "micro_hotpath",
                             metrics)) {
    return 1;
  }
  std::printf("wrote BENCH_hotpath.json\n");
  return 0;
}
