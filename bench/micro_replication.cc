// Replica-serving reads for contended read-mostly keys: every node's
// workers draw keys from the SAME Zipf distribution (multi-reader shared
// hot set, scattered over all homes), reading ~97% of the time. Dynamic
// allocation alone cannot win here: each hot key is hot on every node at
// once, so relocation just ping-pongs it and most accesses stay remote --
// exactly the workload the paper concedes to replication-based systems.
// The adaptive engine detects the ping-pong (churn -> contended ->
// read-mostly), pins the keys into each node's ReplicaManager, and from
// then on reads are node-local memory accesses refreshed within
// Config::replica_staleness_micros.
//
// Both runs have the adaptive engine ON; the only difference is
// Config::replication. Writes BENCH_replication.json:
//   throughput     -- steady-state ops/s with replication on; baseline =
//                     same workload with replication off
//                     (speedup_vs_baseline >= 2 is the acceptance bar)
//   replica_reads  -- reads served from replicas (replication run only)
//   remote_ops     -- steady-state remote key ops, on vs off
//   hardware_threads -- std::thread::hardware_concurrency()
//
// Tuning note (recorded next to the config fields in ps/config.h): the
// staleness bound trades freshness against residual traffic -- each node
// pays roughly one refresh round-trip per pinned key per staleness
// window, so keep the bound well above the interconnect round-trip time
// or replicas thrash.
//
// A second suite measures WRITE AGGREGATION on a write-heavy mix
// (--write-frac, default 0.5): the same pinned hot set, manual pinning
// (isolating aggregation from detection), the default flush cap vs a cap
// of 1 -- every fold flushed at once, one owner message per write, the
// message count of sending each push straight to the owner. The
// "owner-bound messages" rows count push envelopes (kBatchOp) on the wire
// during the measure phase -- Petuum-style accumulators must cut them by
// >= 2x. Pulls share the envelope type: every remote read here is one
// single-key sync pull and nothing relocates (no forwards), so push
// messages = delta kBatchOp - delta remote reads, plus the few pulls the
// origin re-requests because a flush of the key was in flight (the read-
// your-writes epoch). The cap-1 run checks the shape: each fold left in a
// flush of its own, and its messages cover its remote writes plus one
// flush per fold; the remainder is the re-requested pulls.
//
// A third suite measures ADAPTIVE FLUSH SIZING on a skewed-write mix:
// writes are Zipf-concentrated on the pinned hot set, so per-key write
// rates span two orders of magnitude. A flat flush cap must sit at the
// floor (a single cap serving the coldest writer's freshness), paying a
// flush per few folds even on the hottest keys; adaptive sizing scales
// each pinned key's cap with its observed write rate between the floor
// and the global cap, so hot writers batch deep while cold writers keep
// flushing promptly. Rows: owner-bound push messages, counted as above,
// flat-floor vs adaptive (reduction bar >= 1.5).

#include <cstdio>
#include <cstdlib>
#include <cstring>
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
constexpr uint64_t kKeys = 4096;  // power of two: hash scatter is a bijection
constexpr size_t kLen = 16;
constexpr double kZipfExponent = 1.2;
constexpr int kWarmupRounds = 4;   // detection + pinning converge here
// Steady state. Single rounds swing by 1.5x on a shared host, so the
// speedup averages eight of them.
constexpr int kMeasureRounds = 8;
constexpr int64_t kOpsPerRound = 20'000;
constexpr int kPushEvery = 32;  // ~3% writes: read-mostly, above the
                                // replicate_read_fraction = 0.9 bar

// Shared rank->key hash (identical on every node): the hot set is common
// to all nodes and scattered uniformly across all homes.
Key KeyFor(uint64_t rank) { return (rank * 0x9E3779B1ULL) & (kKeys - 1); }

ps::Config BenchConfig(bool replication) {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // wakeup-based hand-off on small machines
  cfg.adaptive.enabled = true;
  cfg.adaptive.sample_period = 1;
  cfg.adaptive.tick_micros = 20'000;
  cfg.adaptive.decay = 0.8;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.2;
  cfg.adaptive.cold_ticks_to_evict = 20;
  // Contention detection: one warm steal flags the key as contended (all
  // nodes fight over the same hot set, so churn accrues immediately).
  cfg.adaptive.churn_limit = 1;
  cfg.adaptive.replicate_read_fraction = 0.9;
  cfg.replication = replication;
  // ~10 refresh round-trips per pinned key per second -- invisible next
  // to the reads they replace, fresh enough for SGD-style consumers.
  cfg.replica_staleness_micros = 100'000;
  return cfg;
}

struct RunResult {
  std::vector<double> round_ops_per_sec;
  double steady_ops_per_sec = 0;  // measured rounds only
  int64_t steady_remote_ops = 0;
  int64_t replica_reads = 0;
  int64_t keys_pinned = 0;
};

RunResult RunWorkload(bool replication) {
  ps::PsSystem system(BenchConfig(replication));
  const ZipfSampler zipf(kKeys, kZipfExponent);
  const int total_rounds = kWarmupRounds + kMeasureRounds;
  RunResult result;
  std::vector<double> round_secs(total_rounds, 0.0);
  int64_t remote_at_measure_start = 0;

  system.Run([&](ps::Worker& w) {
    const NodeId node = w.node();
    Rng& rng = w.rng();
    std::vector<Val> buf(kLen);
    std::vector<Val> upd(kLen, 0.01f);
    std::vector<Key> one(1);
    Timer round_timer;

    for (int round = 0; round < total_rounds; ++round) {
      w.Barrier();
      if (round == kWarmupRounds) {
        // Snapshot between two barriers so no worker has started the
        // measure round yet -- sampling after a single barrier would
        // absorb the first measured pushes into the baseline.
        if (node == 0) {
          remote_at_measure_start =
              system.TotalRemoteReads() +
              system.Sum(&ps::ServerStats::remote_key_writes).sum;
        }
        w.Barrier();
      }
      if (node == 0) round_timer.Restart();
      for (int64_t i = 0; i < kOpsPerRound; ++i) {
        one[0] = KeyFor(zipf.Sample(rng));
        if (i % kPushEvery == 0) {
          w.Push(one, upd.data());
        } else {
          w.Pull(one, buf.data());
        }
      }
      w.Barrier();
      if (node == 0) round_secs[round] = round_timer.ElapsedSeconds();
    }
  });

  const double per_round_ops =
      static_cast<double>(kOpsPerRound * kNodes * kWorkersPerNode);
  double steady_secs = 0;
  for (int r = 0; r < total_rounds; ++r) {
    result.round_ops_per_sec.push_back(per_round_ops / round_secs[r]);
    if (r >= kWarmupRounds) steady_secs += round_secs[r];
  }
  result.steady_ops_per_sec = per_round_ops * kMeasureRounds / steady_secs;
  result.steady_remote_ops =
      system.TotalRemoteReads() +
      system.Sum(&ps::ServerStats::remote_key_writes).sum -
      remote_at_measure_start;
  result.replica_reads = system.TotalReplicaReads();
  for (NodeId n = 0; n < kNodes; ++n) {
    result.keys_pinned +=
        system.placement_manager(n).stats().replicas_pinned;
  }
  return result;
}

void PrintRun(const char* name, const RunResult& r) {
  std::printf("%s\n  rounds (ops/s):", name);
  for (const double v : r.round_ops_per_sec) std::printf(" %.0f", v);
  std::printf(
      "\n  steady %.0f ops/s, %lld remote key-ops in measure phase, "
      "%lld replica reads, %lld keys pinned\n",
      r.steady_ops_per_sec, static_cast<long long>(r.steady_remote_ops),
      static_cast<long long>(r.replica_reads),
      static_cast<long long>(r.keys_pinned));
}

// ---- write-heavy suite: aggregation on vs off --------------------------

constexpr uint64_t kPinnedRanks = 64;  // the shared hot set every node pins
constexpr int kWriteWarmupRounds = 1;
constexpr int kWriteMeasureRounds = 2;

// The counters behind the exact push message count (see the header).
struct WireCounts {
  int64_t batch_ops = 0;
  int64_t remote_reads = 0;
  int64_t remote_writes = 0;
};

WireCounts ReadWireCounts(ps::PsSystem& system) {
  return {system.net_stats().MessagesOfType(net::MsgType::kBatchOp),
          system.TotalRemoteReads(),
          system.Sum(&ps::ServerStats::remote_key_writes).sum};
}

struct WriteHeavyResult {
  double steady_ops_per_sec = 0;
  int64_t owner_push_msgs = 0;  // push messages during the measure phase
  int64_t remote_writes = 0;    // remote key writes in the measure phase
  int64_t measured_folds = 0;   // pushes folded in the measure phase
  int64_t folds = 0;            // pushes folded locally, whole run
  int64_t flushed_keys = 0;     // accumulators drained, whole run
};

int64_t TotalFolds(ps::PsSystem& system) {
  int64_t folds = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    folds += system.replica_manager(n)->stats().folds;
  }
  return folds;
}

WriteHeavyResult RunWriteHeavy(double write_frac, uint32_t max_folds) {
  ps::Config cfg = BenchConfig(/*replication=*/true);
  // Isolate aggregation from detection: no adaptive engine, the hot set
  // is pinned manually by every node before the measured rounds.
  cfg.adaptive.enabled = false;
  cfg.replica_flush_max_folds = max_folds;
  ps::PsSystem system(cfg);
  const ZipfSampler zipf(kKeys, kZipfExponent);
  const int total_rounds = kWriteWarmupRounds + kWriteMeasureRounds;
  WriteHeavyResult result;
  std::vector<double> round_secs(total_rounds, 0.0);
  WireCounts at_start;
  int64_t folds_at_start = 0;

  system.Run([&](ps::Worker& w) {
    const NodeId node = w.node();
    Rng& rng = w.rng();
    std::vector<Val> buf(kLen);
    std::vector<Val> upd(kLen, 0.01f);
    std::vector<Key> one(1);
    std::vector<Key> hot;
    for (uint64_t r = 0; r < kPinnedRanks; ++r) hot.push_back(KeyFor(r));
    w.Replicate(hot);
    w.Barrier();  // every node pinned before anyone measures
    Timer round_timer;

    for (int round = 0; round < total_rounds; ++round) {
      w.Barrier();
      if (round == kWriteWarmupRounds) {
        // Snapshot between two barriers: no worker is pushing while the
        // baseline counts are read, and every worker published its access
        // counters on entering the barrier.
        if (node == 0) {
          at_start = ReadWireCounts(system);
          folds_at_start = TotalFolds(system);
        }
        w.Barrier();
      }
      if (node == 0) round_timer.Restart();
      for (int64_t i = 0; i < kOpsPerRound; ++i) {
        one[0] = KeyFor(zipf.Sample(rng));
        if (rng.Bernoulli(write_frac)) {
          w.Push(one, upd.data());
        } else {
          w.Pull(one, buf.data());
        }
      }
      w.Barrier();
      if (node == 0) round_secs[round] = round_timer.ElapsedSeconds();
    }
  });

  const double per_round_ops =
      static_cast<double>(kOpsPerRound * kNodes * kWorkersPerNode);
  double steady_secs = 0;
  for (int r = kWriteWarmupRounds; r < total_rounds; ++r) {
    steady_secs += round_secs[r];
  }
  result.steady_ops_per_sec =
      per_round_ops * kWriteMeasureRounds / steady_secs;
  const WireCounts end = ReadWireCounts(system);
  result.owner_push_msgs = (end.batch_ops - at_start.batch_ops) -
                           (end.remote_reads - at_start.remote_reads);
  result.remote_writes = end.remote_writes - at_start.remote_writes;
  result.folds = TotalFolds(system);
  result.measured_folds = result.folds - folds_at_start;
  for (NodeId n = 0; n < kNodes; ++n) {
    result.flushed_keys += system.replica_manager(n)->stats().flushed_keys;
  }
  return result;
}

// ---- skewed-write suite: adaptive flush sizing vs flat floor -----------

constexpr uint32_t kFlushFloor = 4;
constexpr uint32_t kFlushGlobalCap = 32;

struct AdaptiveFlushResult {
  double steady_ops_per_sec = 0;
  int64_t owner_push_msgs = 0;  // push messages during the measure phase
  double hot_key_cap = 0;       // node 0's learned cap for the hottest key
};

AdaptiveFlushResult RunSkewedWrites(double write_frac, bool adaptive) {
  ps::Config cfg = BenchConfig(/*replication=*/true);
  // The adaptive engine runs ONLY as the flush-cap learner: localization
  // is priced out (hot_threshold astronomical) and pins never lapse
  // (cold_threshold 0 keeps every pinned key "warm",
  // unreplicate_read_fraction 0 makes any warm pin pay for itself), so
  // the manually pinned hot set stays exactly as placed and the two runs
  // differ only in adaptive_flush.
  cfg.adaptive.hot_threshold = 1e18;
  cfg.adaptive.cold_threshold = 0.0;
  cfg.adaptive.unreplicate_read_fraction = 0.0;
  cfg.adaptive.adaptive_flush = adaptive;
  cfg.adaptive.flush_folds_floor = kFlushFloor;
  // Flat run: the single global cap must serve the coldest pinned writer,
  // so it sits at the floor. Adaptive run: caps scale per key up to the
  // real global cap.
  cfg.replica_flush_max_folds = adaptive ? kFlushGlobalCap : kFlushFloor;
  // Age trigger well above the hot keys' fold cadence, so the count cap
  // under test -- not the timer -- sets their flush rate (identical in
  // both runs; cold keys hit the timer either way).
  cfg.replica_flush_micros = 50'000;
  ps::PsSystem system(cfg);
  // Reads roam the full Zipf key space; writes are Zipf over the pinned
  // hot set only (the skew the suite is about).
  const ZipfSampler read_zipf(kKeys, kZipfExponent);
  const ZipfSampler write_zipf(kPinnedRanks, kZipfExponent);
  const int total_rounds = kWriteWarmupRounds + kWriteMeasureRounds;
  AdaptiveFlushResult result;
  std::vector<double> round_secs(total_rounds, 0.0);
  WireCounts at_start;

  system.Run([&](ps::Worker& w) {
    const NodeId node = w.node();
    Rng& rng = w.rng();
    std::vector<Val> buf(kLen);
    std::vector<Val> upd(kLen, 0.01f);
    std::vector<Key> one(1);
    std::vector<Key> hot;
    for (uint64_t r = 0; r < kPinnedRanks; ++r) hot.push_back(KeyFor(r));
    w.Replicate(hot);
    w.Barrier();  // every node pinned before anyone measures
    Timer round_timer;

    for (int round = 0; round < total_rounds; ++round) {
      w.Barrier();
      if (round == kWriteWarmupRounds) {
        if (node == 0) at_start = ReadWireCounts(system);
        w.Barrier();
      }
      if (node == 0) round_timer.Restart();
      for (int64_t i = 0; i < kOpsPerRound; ++i) {
        if (rng.Bernoulli(write_frac)) {
          one[0] = KeyFor(write_zipf.Sample(rng));
          w.Push(one, upd.data());
        } else {
          one[0] = KeyFor(read_zipf.Sample(rng));
          w.Pull(one, buf.data());
        }
      }
      w.Barrier();
      if (node == 0) round_secs[round] = round_timer.ElapsedSeconds();
    }
  });

  const double per_round_ops =
      static_cast<double>(kOpsPerRound * kNodes * kWorkersPerNode);
  double steady_secs = 0;
  for (int r = kWriteWarmupRounds; r < total_rounds; ++r) {
    steady_secs += round_secs[r];
  }
  result.steady_ops_per_sec =
      per_round_ops * kWriteMeasureRounds / steady_secs;
  const WireCounts end = ReadWireCounts(system);
  result.owner_push_msgs = (end.batch_ops - at_start.batch_ops) -
                           (end.remote_reads - at_start.remote_reads);
  result.hot_key_cap =
      static_cast<double>(system.replica_manager(0)->FlushCap(KeyFor(0)));
  return result;
}

}  // namespace
}  // namespace lapse

int main(int argc, char** argv) {
  using namespace lapse;
  double write_frac = 0.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-frac") == 0 && i + 1 < argc) {
      write_frac = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--write-frac=", 13) == 0) {
      write_frac = std::atof(argv[i] + 13);
    } else {
      std::fprintf(stderr, "usage: %s [--write-frac F]\n", argv[0]);
      return 1;
    }
  }
  if (write_frac < 0.0 || write_frac > 1.0) {
    std::fprintf(stderr, "--write-frac must be in [0, 1]\n");
    return 1;
  }

  bench::PrintBanner(
      "micro_replication: contended hot set shared by all nodes",
      "closes the gap the paper concedes on contended keys: detection "
      "(contended/read-mostly) was PR 2, replica-served reads PR 3, "
      "aggregated writes PR 4",
      "read-mostly suite: shared Zipf hot set, adaptive engine on in both "
      "runs, only Config::replication differs. write-heavy suite: manual "
      "pinning, only Config::replica_flush_max_folds differs (1 vs 32)");

  std::printf("replication off (adaptive only)...\n");
  const RunResult off = RunWorkload(/*replication=*/false);
  PrintRun("  [off]", off);

  std::printf("replication on...\n");
  const RunResult on = RunWorkload(/*replication=*/true);
  PrintRun("  [on]", on);

  std::printf("steady-state speedup: %.2fx\n",
              on.steady_ops_per_sec / off.steady_ops_per_sec);

  std::printf("write-heavy mix (write-frac %.2f), flush cap 1...\n",
              write_frac);
  const WriteHeavyResult agg_off = RunWriteHeavy(write_frac, 1);
  // Every remote write is a sync push message and every fold a flush of
  // its own; what is left are pulls re-requested behind a flush.
  const int64_t rerequests = agg_off.owner_push_msgs -
                             agg_off.remote_writes - agg_off.measured_folds;
  std::printf(
      "  [cap 1] steady %.0f ops/s, %lld owner-bound push msgs "
      "(%lld re-requested pulls)\n",
      agg_off.steady_ops_per_sec,
      static_cast<long long>(agg_off.owner_push_msgs),
      static_cast<long long>(rerequests));
  if (agg_off.flushed_keys != agg_off.folds || rerequests < 0) {
    std::fprintf(stderr,
                 "cap-1 run: %lld flushed keys for %lld folds, %lld push "
                 "msgs for %lld remote writes + %lld folds\n",
                 static_cast<long long>(agg_off.flushed_keys),
                 static_cast<long long>(agg_off.folds),
                 static_cast<long long>(agg_off.owner_push_msgs),
                 static_cast<long long>(agg_off.remote_writes),
                 static_cast<long long>(agg_off.measured_folds));
    return 1;
  }
  std::printf("write-heavy mix, flush cap %u...\n",
              ps::Config().replica_flush_max_folds);
  const WriteHeavyResult agg_on =
      RunWriteHeavy(write_frac, ps::Config().replica_flush_max_folds);
  std::printf(
      "  [on]  steady %.0f ops/s, %lld owner-bound push msgs, "
      "%lld folds\n",
      agg_on.steady_ops_per_sec,
      static_cast<long long>(agg_on.owner_push_msgs),
      static_cast<long long>(agg_on.folds));
  const double reduction =
      agg_on.owner_push_msgs > 0
          ? static_cast<double>(agg_off.owner_push_msgs) /
                static_cast<double>(agg_on.owner_push_msgs)
          : 0.0;
  std::printf("owner-bound message reduction: %.2fx (bar >= 2)\n",
              reduction);

  std::printf(
      "skewed-write mix (write-frac %.2f on pinned hot set), flat "
      "cap=floor=%u...\n",
      write_frac, kFlushFloor);
  const AdaptiveFlushResult flat =
      RunSkewedWrites(write_frac, /*adaptive=*/false);
  std::printf("  [flat]     steady %.0f ops/s, %lld owner-bound push msgs\n",
              flat.steady_ops_per_sec,
              static_cast<long long>(flat.owner_push_msgs));
  std::printf("skewed-write mix, adaptive flush sizing (floor %u, cap %u)...\n",
              kFlushFloor, kFlushGlobalCap);
  const AdaptiveFlushResult adapt =
      RunSkewedWrites(write_frac, /*adaptive=*/true);
  std::printf(
      "  [adaptive] steady %.0f ops/s, %lld owner-bound push msgs, "
      "hottest key's learned cap %.0f\n",
      adapt.steady_ops_per_sec,
      static_cast<long long>(adapt.owner_push_msgs), adapt.hot_key_cap);
  const double flush_reduction =
      adapt.owner_push_msgs > 0
          ? static_cast<double>(flat.owner_push_msgs) /
                static_cast<double>(adapt.owner_push_msgs)
          : 0.0;
  std::printf("adaptive-flush message reduction: %.2fx (bar >= 1.5)\n",
              flush_reduction);

  const std::vector<bench::JsonMetric> metrics = {
      {"throughput", on.steady_ops_per_sec, off.steady_ops_per_sec},
      {"replica_reads", static_cast<double>(on.replica_reads), 0.0},
      {"remote_ops", static_cast<double>(on.steady_remote_ops),
       static_cast<double>(off.steady_remote_ops)},
      // Write-heavy rows: value = default flush cap, baseline = cap 1.
      // The owner-message acceptance bar is reduction (baseline/value)
      // >= 2, recorded explicitly as write_owner_msg_reduction.
      {"write_throughput", agg_on.steady_ops_per_sec,
       agg_off.steady_ops_per_sec},
      {"write_owner_msgs", static_cast<double>(agg_on.owner_push_msgs),
       static_cast<double>(agg_off.owner_push_msgs)},
      {"write_owner_msg_reduction", reduction, 2.0},
      // Skewed-write rows: value = adaptive flush sizing, baseline = flat
      // cap at the floor. The acceptance bar is reduction >= 1.5.
      {"adaptive_flush_owner_msgs",
       static_cast<double>(adapt.owner_push_msgs),
       static_cast<double>(flat.owner_push_msgs)},
      {"adaptive_flush_msg_reduction", flush_reduction, 1.5},
      {"adaptive_flush_hot_key_cap", adapt.hot_key_cap,
       static_cast<double>(kFlushGlobalCap)},
      {"hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency()), 0.0},
  };
  if (!bench::WriteBenchJson("BENCH_replication.json", "micro_replication",
                             metrics)) {
    return 1;
  }
  std::printf("wrote BENCH_replication.json\n");
  return 0;
}
