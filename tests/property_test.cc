#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ps/system.h"
#include "util/rng.h"
#include "util/timer.h"

// Property-style sweeps: randomized workloads across the full configuration
// matrix (node counts x architectures x latency x caches x shards x
// coalescing x strategies), all checking the same conservation invariants:
//
//   (P1) cumulative pushes are conserved: the final sum over all keys
//        equals exactly the sum of all issued updates;
//   (P2) ownership is a partition: after quiescing, every key is owned by
//        exactly the node its home's location table names;
//   (P3) synchronous read-your-writes holds on private keys, also when
//        they are pinned replicas whose writes are aggregated;
//   (P4) pulls never observe values outside [0, total issued updates].

namespace lapse {
namespace ps {
namespace {

struct SweepParam {
  int nodes;
  int workers;
  Architecture arch;
  bool caches;
  bool latency;  // zero vs small LAN latency
  int server_threads = 1;  // server drain threads (key-range shards)
  bool coalescing = false;  // bounded-delay request coalescing
  LocationStrategy strategy = LocationStrategy::kHomeNode;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string s = "n" + std::to_string(p.nodes) + "w" +
                  std::to_string(p.workers);
  s += ArchitectureName(p.arch);
  if (p.caches) s += "Cached";
  if (p.latency) s += "Lan";
  if (p.server_threads > 1) {
    s += "S" + std::to_string(p.server_threads);
  }
  if (p.coalescing) s += "Coal";
  if (p.strategy != LocationStrategy::kHomeNode) {
    s += LocationStrategyName(p.strategy);
  }
  return s;
}

class PsPropertyTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  Config MakeConfig(uint64_t keys, size_t len) const {
    const SweepParam& p = GetParam();
    Config cfg;
    cfg.num_nodes = p.nodes;
    cfg.workers_per_node = p.workers;
    cfg.num_keys = keys;
    cfg.uniform_value_length = len;
    cfg.arch = p.arch;
    cfg.location_caches = p.caches;
    if (p.latency) {
      cfg.latency.remote_base_ns = 3000;
      cfg.latency.local_base_ns = 500;
      cfg.latency.per_byte_ns = 0.1;
    } else {
      cfg.latency = net::LatencyConfig::Zero();
    }
    cfg.latency.idle_spin_ns = 20'000;  // keep test CPU usage sane
    cfg.server_threads = p.server_threads;
    cfg.coalescing = p.coalescing;
    cfg.strategy = p.strategy;
    return cfg;
  }
};

TEST_P(PsPropertyTest, UpdateConservationUnderRandomWorkload) {
  constexpr uint64_t kKeys = 24;
  PsSystem system(MakeConfig(kKeys, 2));
  const int kOps = 120;
  std::atomic<int64_t> issued{0};
  system.Run([&](Worker& w) {
    Rng& rng = w.rng();
    std::vector<Val> buf(2 * 4);
    for (int i = 0; i < kOps; ++i) {
      const int action = static_cast<int>(rng.Uniform(10));
      if (action < 4) {  // grouped push of 1-3 distinct keys
        const int n = 1 + static_cast<int>(rng.Uniform(3));
        std::vector<Key> keys;
        const Key base = rng.Uniform(kKeys);
        for (int j = 0; j < n; ++j) {
          keys.push_back((base + static_cast<Key>(j) * 7) % kKeys);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        std::vector<Val> update(2 * keys.size(), 1.0f);
        issued.fetch_add(static_cast<int64_t>(keys.size()));
        if (rng.Bernoulli(0.5)) {
          w.Push(keys, update.data());
        } else {
          w.PushAsync(keys, update.data());
        }
      } else if (action < 8) {  // pull, check bound (P4)
        const Key k = rng.Uniform(kKeys);
        w.Pull({k}, buf.data());
        ASSERT_GE(buf[0], 0.0f);
        ASSERT_LE(buf[0], static_cast<Val>(issued.load()) + 1.0f);
      } else {  // localize (no-op outside kLapse)
        const Key k = rng.Uniform(kKeys);
        if (rng.Bernoulli(0.5)) {
          w.Localize({k});
        } else {
          w.LocalizeAsync({k});
        }
      }
    }
    w.WaitAll();
  });
  // (P1) conservation.
  double total = 0;
  std::vector<Val> buf(2);
  for (Key k = 0; k < kKeys; ++k) {
    system.GetValue(k, buf.data());
    total += buf[0];
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(issued.load()));
  // (P2) ownership partition: exactly one node owns each key, and it is
  // the one the home names.
  for (Key k = 0; k < kKeys; ++k) {
    const NodeId owner = system.OwnerOf(k);
    int owners_found = 0;
    for (NodeId n = 0; n < system.config().num_nodes; ++n) {
      if (system.node_context(n).StateOf(k) == KeyState::kOwned) {
        ++owners_found;
        EXPECT_EQ(n, owner) << "key " << k;
      }
    }
    EXPECT_EQ(owners_found, 1) << "key " << k;
  }
}

TEST_P(PsPropertyTest, PrivateCounterReadYourWrites) {
  constexpr uint64_t kKeys = 64;
  PsSystem system(MakeConfig(kKeys, 1));
  system.Run([&](Worker& w) {
    const Key mine = static_cast<Key>(w.worker_id());
    Val v = 0;
    const std::vector<Val> one = {1.0f};
    for (int i = 1; i <= 40; ++i) {
      w.Push({mine}, one.data());
      if (i % 7 == 0) w.LocalizeAsync({mine});
      w.Pull({mine}, &v);
      ASSERT_EQ(v, static_cast<Val>(i));  // (P3)
    }
    w.WaitAll();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PsPropertyTest,
    ::testing::Values(
        SweepParam{1, 2, Architecture::kLapse, false, false},
        SweepParam{2, 2, Architecture::kLapse, false, false},
        SweepParam{3, 2, Architecture::kLapse, false, false},
        SweepParam{4, 2, Architecture::kLapse, true, false},
        SweepParam{4, 1, Architecture::kLapse, false, true},
        SweepParam{2, 2, Architecture::kClassicFastLocal, false, false},
        SweepParam{2, 2, Architecture::kClassic, false, false},
        SweepParam{3, 2, Architecture::kClassic, false, true},
        SweepParam{5, 2, Architecture::kLapse, false, false},
        SweepParam{8, 1, Architecture::kLapse, true, false},
        // Sharded-server sweeps: same invariants with 4 drain threads per
        // node (keyed messages fan out across per-shard inboxes).
        SweepParam{2, 2, Architecture::kLapse, false, false, 4},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4},
        SweepParam{4, 2, Architecture::kLapse, true, true, 4},
        SweepParam{2, 2, Architecture::kClassic, false, false, 4},
        // Coalescing sweeps: the same invariants must hold when remote ops
        // ride batched envelopes -- in {1,4}-shard configs (shard-pure
        // batches), and under kClassic where every op takes the coalesced
        // remote path.
        SweepParam{2, 2, Architecture::kLapse, false, false, 1, true},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4, true},
        SweepParam{2, 2, Architecture::kClassic, false, false, 1, true},
        // The other location strategies on the one envelope path: every
        // broadcast-ops entry fans out to all peers and only the owner
        // answers; broadcast-relocations routes by mirrored owner views.
        // Each at {1,4} shards x coalescing off/on.
        SweepParam{3, 2, Architecture::kLapse, false, false, 1, false,
                   LocationStrategy::kBroadcastOps},
        SweepParam{3, 2, Architecture::kLapse, false, false, 1, true,
                   LocationStrategy::kBroadcastOps},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4, false,
                   LocationStrategy::kBroadcastOps},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4, true,
                   LocationStrategy::kBroadcastOps},
        SweepParam{3, 2, Architecture::kLapse, false, false, 1, false,
                   LocationStrategy::kBroadcastRelocations},
        SweepParam{3, 2, Architecture::kLapse, false, false, 1, true,
                   LocationStrategy::kBroadcastRelocations},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4, false,
                   LocationStrategy::kBroadcastRelocations},
        SweepParam{3, 2, Architecture::kLapse, false, false, 4, true,
                   LocationStrategy::kBroadcastRelocations}),
    SweepName);

// Relocation-specific properties under a hostile interleaving: every node
// localizes overlapping key sets while pushing; afterwards the ownership
// partition (P2) and conservation (P1) must hold, and each key must be
// owned by *some* node that requested it (or its home).
TEST(RelocationPropertyTest, OwnershipPartitionAfterStorm) {
  Config cfg;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 2;
  cfg.num_keys = 6;
  cfg.uniform_value_length = 1;
  cfg.arch = Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 20'000;
  PsSystem system(cfg);
  const int kRounds = 60;
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f};
    std::vector<Key> all = {0, 1, 2, 3, 4, 5};
    for (int i = 0; i < kRounds; ++i) {
      w.LocalizeAsync(all);
      w.PushAsync({static_cast<Key>(i % 6)}, one.data());
    }
    w.WaitAll();
  });
  double total = 0;
  Val v = 0;
  for (Key k = 0; k < 6; ++k) {
    system.GetValue(k, &v);
    total += v;
    int owners_found = 0;
    for (NodeId n = 0; n < 4; ++n) {
      if (system.node_context(n).StateOf(k) == KeyState::kOwned) {
        ++owners_found;
      }
    }
    EXPECT_EQ(owners_found, 1);
  }
  EXPECT_DOUBLE_EQ(total, 8.0 * kRounds);
}

// Replica-lifecycle property: randomized push/pull/flush/invalidate/unpin
// schedules over 3 nodes with write aggregation on. Whatever the
// interleaving of folds, flushes (explicit and trigger-driven),
// invalidations (driven by localize/evict ownership moves), pins, and
// unpins, the owner's settled value must equal the sum of all acked
// pushes -- the flush-vs-invalidate race class (a drain that loses folds,
// or a flush that double-delivers after an invalidation) breaks exactly
// this equality. 100 consecutive schedules, each with fresh seeds.
TEST(ReplicaSchedulePropertyTest, AggregatedPushesConserveUnderRandomSchedules) {
  constexpr int kSchedules = 100;
  constexpr uint64_t kKeys = 8;
  constexpr int kOpsPerWorker = 30;
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    Config cfg;
    cfg.num_nodes = 3;
    cfg.workers_per_node = 1;
    cfg.num_keys = kKeys;
    cfg.uniform_value_length = 2;
    cfg.arch = Architecture::kLapse;
    cfg.latency = net::LatencyConfig::Zero();
    cfg.latency.idle_spin_ns = 0;
    // Half the schedules drain each node with 4 sharded server threads:
    // the fold/flush/invalidate races must conserve regardless of how
    // keys spread over drain threads.
    cfg.server_threads = (schedule % 2 == 0) ? 1 : 4;
    // Odd schedules also coalesce remote ops, so the flush/invalidate
    // churn interleaves with batched envelopes and their forced drains.
    cfg.coalescing = (schedule % 2 == 1);
    cfg.replication = true;
    cfg.replica_staleness_micros = 50'000'000;
    // Tight flush triggers so trigger-driven flushes interleave with the
    // schedule's explicit ones.
    cfg.replica_flush_micros = 1000;
    cfg.replica_flush_max_folds = 3;
    cfg.seed = 7000 + static_cast<uint64_t>(schedule);
    PsSystem system(cfg);
    std::atomic<int64_t> issued{0};
    system.Run([&](Worker& w) {
      Rng& rng = w.rng();  // seeded from cfg.seed: fresh per schedule
      std::vector<Val> buf(2);
      const std::vector<Val> one = {1.0f, 1.0f};
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const Key k = rng.Uniform(kKeys);
        switch (rng.Uniform(9)) {
          case 0:
          case 1:
          case 2:
            w.Push({k}, one.data());
            issued.fetch_add(1);
            break;
          case 3:
            w.Pull({k}, buf.data());
            break;
          case 4:
            w.Replicate({k});
            break;
          case 5:
            w.Unreplicate({k});
            break;
          case 6:
            w.Localize({k});
            break;
          case 7:
            w.Evict({k});
            break;
          case 8:
            w.FlushReplicas();
            break;
        }
      }
      w.WaitAll();
    });
    double total = 0;
    std::vector<Val> settled(2);
    for (Key k = 0; k < kKeys; ++k) {
      system.GetValue(k, settled.data());
      total += settled[0];
    }
    ASSERT_DOUBLE_EQ(total, static_cast<double>(issued.load()))
        << "schedule " << schedule << " lost or duplicated folds";
  }
}

// (P3) with replicas: each worker's private key is homed at the next node
// and pinned at the worker's own node, so every push folds into the
// node's accumulator and the 100 us copy often goes stale under the
// pulls. Two workers per node: one worker's flush trigger drains the
// other's folds, and its flush travels on a connection the other's pulls
// do not share. Every pull must still return the worker's own count --
// from the copy, or from an owner snapshot plus the pending folds, never
// from a snapshot that misses a flushed fold.
TEST(ReplicaReadYourWritesPropertyTest, PinnedPrivateCounterReadsOwnWrites) {
  constexpr int kSchedules = 20;
  constexpr int kRounds = 300;
  for (const int server_threads : {1, 4}) {
    for (const bool coalescing : {false, true}) {
      for (int schedule = 0; schedule < kSchedules; ++schedule) {
        SCOPED_TRACE("server_threads=" + std::to_string(server_threads) +
                     " coalescing=" + std::to_string(coalescing) +
                     " schedule=" + std::to_string(schedule));
        Config cfg;
        cfg.num_nodes = 3;
        cfg.workers_per_node = 2;
        cfg.num_keys = 12;
        cfg.uniform_value_length = 1;
        cfg.arch = Architecture::kLapse;
        cfg.latency = net::LatencyConfig::Zero();
        cfg.latency.idle_spin_ns = 0;
        cfg.server_threads = server_threads;
        cfg.coalescing = coalescing;
        cfg.coalesce_delay_micros = 50;
        cfg.replication = true;
        cfg.replica_staleness_micros = 100;
        cfg.replica_flush_micros = 100;
        cfg.replica_flush_max_folds = 3;
        cfg.seed = 9000 + static_cast<uint64_t>(schedule);
        PsSystem system(cfg);
        auto private_key = [&](NodeId node, int32_t slot) {
          const NodeId next = (node + 1) % cfg.num_nodes;
          return static_cast<Key>(system.layout().HomeBegin(next)) + slot - 1;
        };
        std::vector<int> pushed(cfg.total_workers(), 0);
        std::atomic<int> missed{0};  // workers whose pull lost a push
        system.Run([&](Worker& w) {
          const Key mine = private_key(w.node(), w.thread_slot());
          w.Replicate({mine});
          Val v = -1;
          const std::vector<Val> one = {1.0f};
          for (int i = 1; i <= kRounds; ++i) {
            w.Push({mine}, one.data());
            pushed[w.worker_id()] = i;
            if (w.rng().Bernoulli(0.1)) std::this_thread::yield();
            w.Pull({mine}, &v);
            if (v != static_cast<Val>(i)) {  // (P3)
              missed.fetch_add(1);
              return;
            }
          }
        });
        EXPECT_EQ(missed.load(), 0) << "pulls missed their worker's push";
        // (P1): every fold reached the owner exactly once.
        for (NodeId n = 0; n < cfg.num_nodes; ++n) {
          for (int32_t slot = 1; slot <= cfg.workers_per_node; ++slot) {
            Val settled = -1;
            system.GetValue(private_key(n, slot), &settled);
            EXPECT_EQ(settled, static_cast<Val>(
                                   pushed[n * cfg.workers_per_node + slot - 1]));
          }
        }
      }
    }
  }
}

// The network's shared-capacity model: a hot receiver serializes ingress.
TEST(BandwidthPropertyTest, IngressSerializesBulkTransfers) {
  net::LatencyConfig lat;
  lat.remote_base_ns = 0;
  lat.local_base_ns = 0;
  lat.per_byte_ns = 10.0;  // 100 MB/s
  net::Network net(3, lat);
  auto ep1 = net.CreateEndpoint(1, 1);
  auto ep2 = net.CreateEndpoint(2, 1);
  // Two senders each send 100 KB to node 0 at the same time: with 100 MB/s
  // ingress, the second delivery must wait for the first (~1 ms each).
  auto mk = [] {
    net::Message m;
    m.type = net::MsgType::kBatchOp;
    m.dst_node = 0;
    m.vals.resize(25'000);  // ~100 KB
    return m;
  };
  const int64_t start = NowNanos();
  ep1->Send(mk());
  ep2->Send(mk());
  net::Message a, b;
  ASSERT_TRUE(net.Recv(0, &a));
  ASSERT_TRUE(net.Recv(0, &b));
  const int64_t second_delivery = b.deliver_ns - start;
  EXPECT_GE(second_delivery, 1'800'000);  // ~2x one transfer time
}

}  // namespace
}  // namespace ps
}  // namespace lapse
