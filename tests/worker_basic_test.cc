#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "ps/system.h"

namespace lapse {
namespace ps {
namespace {

Config SmallConfig(Architecture arch, int nodes = 2, int workers = 1) {
  Config cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.num_keys = 20;
  cfg.uniform_value_length = 2;
  cfg.arch = arch;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

class WorkerArchTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(WorkerArchTest, PullInitialValuesAreZero) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([](Worker& w) {
    std::vector<Val> buf(2 * 3);
    w.Pull({0, 10, 19}, buf.data());
    for (const Val v : buf) EXPECT_EQ(v, 0.0f);
  });
}

TEST_P(WorkerArchTest, PushThenPullRoundTrip) {
  PsSystem system(SmallConfig(GetParam()));
  std::atomic<int> turn{0};
  system.Run([&](Worker& w) {
    // Only one worker (per node) writes; everyone reads after a barrier.
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {1.5f, -2.5f};
      w.Push({7}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({7}, buf.data());
    EXPECT_EQ(buf[0], 1.5f);
    EXPECT_EQ(buf[1], -2.5f);
    (void)turn;
  });
}

TEST_P(WorkerArchTest, PushIsCumulative) {
  PsSystem system(SmallConfig(GetParam(), 2, 2));
  system.Run([&](Worker& w) {
    const std::vector<Val> update = {1.0f, 2.0f};
    w.Push({3}, update.data());
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({3}, buf.data());
    // 4 workers each pushed {1,2}.
    EXPECT_EQ(buf[0], 4.0f);
    EXPECT_EQ(buf[1], 8.0f);
  });
}

TEST_P(WorkerArchTest, MultiKeyOpsKeepKeyOrder) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      // Write distinct values to keys spanning both nodes' home ranges.
      std::vector<Val> update = {1, 1, 2, 2, 3, 3};
      w.Push({2, 10, 18}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(6);
    w.Pull({2, 10, 18}, buf.data());
    EXPECT_EQ(buf[0], 1.0f);
    EXPECT_EQ(buf[2], 2.0f);
    EXPECT_EQ(buf[4], 3.0f);
  });
}

TEST_P(WorkerArchTest, ReadYourWritesSync) {
  PsSystem system(SmallConfig(GetParam(), 2, 2));
  system.Run([&](Worker& w) {
    // Each worker has a private key; sync ops must read-your-writes.
    const Key k = static_cast<Key>(w.worker_id());
    std::vector<Val> buf(2);
    for (int i = 1; i <= 10; ++i) {
      const std::vector<Val> update = {1.0f, 0.5f};
      w.Push({k}, update.data());
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf[0], static_cast<Val>(i));
      EXPECT_EQ(buf[1], 0.5f * static_cast<Val>(i));
    }
  });
}

TEST_P(WorkerArchTest, AsyncOpsCompleteOnWait) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    if (w.worker_id() != 0) return;
    const std::vector<Val> update = {2.0f, 4.0f};
    const uint64_t p1 = w.PushAsync({11}, update.data());
    std::vector<Val> buf(2);
    const uint64_t p2 = w.PullAsync({11}, buf.data());
    w.Wait(p1);
    w.Wait(p2);
    // FIFO per connection: the pull was issued after the push by the same
    // worker, so it must observe it.
    EXPECT_EQ(buf[0], 2.0f);
    EXPECT_EQ(buf[1], 4.0f);
  });
}

TEST_P(WorkerArchTest, WaitAllCompletesOutstanding) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    const std::vector<Val> update = {1.0f, 1.0f};
    for (int i = 0; i < 50; ++i) {
      w.PushAsync({static_cast<Key>(i % 20)}, update.data());
    }
    w.WaitAll();
  });
  // After Run, all updates must be applied: sum over all keys = workers *
  // 50 pushes * 2 elements... checked via GetValue on key 0 (pushed 3x by
  // each of 2 workers: i%20==0 for i=0,20,40).
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 2.0f * 3);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, WorkerArchTest,
                         ::testing::Values(Architecture::kLapse,
                                           Architecture::kClassicFastLocal,
                                           Architecture::kClassic),
                         [](const auto& info) {
                           return ArchitectureName(info.param);
                         });

TEST(WorkerTest, PerKeyValueLengths) {
  Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.value_lengths = {1, 3, 2, 4};
  cfg.latency = net::LatencyConfig::Zero();
  PsSystem system(cfg);
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      std::vector<Val> update = {9, /*k1*/ 1, 2, 3, /*k3*/ 5, 6, 7, 8};
      w.Push({0, 1, 3}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(8);
    w.Pull({0, 1, 3}, buf.data());
    EXPECT_EQ(buf[0], 9.0f);
    EXPECT_EQ(buf[1], 1.0f);
    EXPECT_EQ(buf[3], 3.0f);
    EXPECT_EQ(buf[7], 8.0f);
  });
}

TEST(WorkerTest, IsLocalReflectsHomeAllocation) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal));
  system.Run([&](Worker& w) {
    const KeyLayout& layout = w.layout();
    for (Key k = 0; k < 20; ++k) {
      EXPECT_EQ(w.IsLocal(k), layout.Home(k) == w.node());
    }
  });
}

TEST(WorkerTest, ClassicArchHidesLocality) {
  PsSystem system(SmallConfig(Architecture::kClassic));
  system.Run([&](Worker& w) {
    for (Key k = 0; k < 20; ++k) EXPECT_FALSE(w.IsLocal(k));
  });
}

TEST(WorkerTest, PullIfLocalOnlyServesOwnedKeys) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    int local = 0;
    for (Key k = 0; k < 20; ++k) {
      if (w.PullIfLocal(k, buf.data())) ++local;
    }
    EXPECT_EQ(local, 10);  // half the key space homed at each of 2 nodes
  });
}

TEST(WorkerTest, LocalStatsCountFastPath) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal, 1, 1));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    for (int i = 0; i < 100; ++i) w.Pull({5}, buf.data());
  });
  EXPECT_EQ(system.TotalLocalReads(), 100);
  EXPECT_EQ(system.TotalRemoteReads(), 0);
}

TEST(WorkerTest, ClassicCountsRemoteEvenOnSingleNode) {
  PsSystem system(SmallConfig(Architecture::kClassic, 1, 1));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    for (int i = 0; i < 10; ++i) w.Pull({5}, buf.data());
  });
  EXPECT_EQ(system.TotalLocalReads(), 0);
  EXPECT_EQ(system.TotalRemoteReads(), 10);
}

// Workers sum their access counters in plain integers and publish them at
// Barrier(), WaitAll(), on the slow path, every few thousand fast-path ops
// and at teardown. Node stats must then be exact between two barriers and
// after Run, for local, remote and queued (arriving-key) accesses alike.
TEST(WorkerTest, BatchedCountersExactAtBarrierAndAfterRun) {
  Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 2;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 2;
  cfg.arch = Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  // A relocation takes two 100 ms hops, so the pull and push issued right
  // after LocalizeAsync find their key arriving and queue behind it.
  cfg.latency.remote_base_ns = 100'000'000;
  cfg.latency.idle_spin_ns = 0;
  PsSystem system(cfg);
  const KeyLayout& layout = system.layout();

  // Per worker: more fast-path ops than one publication period, a few
  // remote ops, and one queued pull and push.
  constexpr int64_t kLocalPulls = 5000, kLocalPushes = 3000;
  constexpr int64_t kRemotePulls = 3, kRemotePushes = 2;
  constexpr int64_t kTailPulls = 100, kTailPushes = 50;
  constexpr int64_t kWorkers = 4;
  // Each node's home range: [0, 16) local traffic of its own workers,
  // [16, 24) remote traffic of the other node's, 24 + slot one key the
  // other node's worker `slot` localizes.
  auto home_key = [&](NodeId n, uint64_t i) {
    return static_cast<Key>(layout.HomeBegin(n) + i);
  };
  auto expect_totals = [&](int64_t tail_pulls, int64_t tail_pushes) {
    EXPECT_EQ(system.TotalLocalReads(),
              kWorkers * (kLocalPulls + 1 + tail_pulls));
    EXPECT_EQ(system.Sum(&ps::ServerStats::local_key_writes).sum,
              kWorkers * (kLocalPushes + 1 + tail_pushes));
    EXPECT_EQ(system.TotalRemoteReads(), kWorkers * kRemotePulls);
    EXPECT_EQ(system.Sum(&ps::ServerStats::remote_key_writes).sum,
              kWorkers * kRemotePushes);
    for (NodeId n = 0; n < 2; ++n) {
      // Two workers per node, one queued pull and push each.
      EXPECT_EQ(system.node_stats(n).queued_local_ops.sum(), 2 * 2);
    }
  };

  system.Run([&](Worker& w) {
    const NodeId own = w.node();
    const NodeId other = 1 - own;
    const uint64_t slot = static_cast<uint64_t>(w.worker_id() % 2);
    std::vector<Val> buf(2);
    const std::vector<Val> upd = {1.0f, 1.0f};
    std::vector<Val> remote_buf(2 * kRemotePulls);
    for (int64_t i = 0; i < kRemotePulls; ++i) {
      w.PullAsync({home_key(other, 16 + static_cast<uint64_t>(i))},
                  remote_buf.data() + 2 * i);
    }
    for (int64_t i = 0; i < kRemotePushes; ++i) {
      w.PushAsync({home_key(other, 20 + static_cast<uint64_t>(i))},
                  upd.data());
    }
    const Key arriving = home_key(other, 24 + slot);
    w.LocalizeAsync({arriving});
    w.PullAsync({arriving}, buf.data());
    w.PushAsync({arriving}, upd.data());
    w.WaitAll();
    // Fast-path ops between WaitAll and the barrier: the barrier is what
    // publishes the last of them.
    for (int64_t i = 0; i < kLocalPulls; ++i) {
      w.Pull({home_key(own, static_cast<uint64_t>(i) % 16)}, buf.data());
    }
    for (int64_t i = 0; i < kLocalPushes; ++i) {
      w.Push({home_key(own, static_cast<uint64_t>(i) % 16)}, upd.data());
    }

    w.Barrier();
    if (w.worker_id() == 0) expect_totals(0, 0);
    w.Barrier();

    // Fast-path ops after the last barrier: only the end of Run
    // publishes them.
    for (int64_t i = 0; i < kTailPulls; ++i) {
      w.Pull({home_key(own, static_cast<uint64_t>(i) % 16)}, buf.data());
    }
    for (int64_t i = 0; i < kTailPushes; ++i) {
      w.Push({home_key(own, static_cast<uint64_t>(i) % 16)}, upd.data());
    }
  });
  expect_totals(kTailPulls, kTailPushes);
  EXPECT_EQ(system.TotalReplicaReads(), 0);
  EXPECT_EQ(system.Sum(&ps::ServerStats::replica_key_writes).sum, 0);
}

TEST(WorkerTest, RemotePushVisibleToAllAfterBarrier) {
  // Key 13 is homed at node 1: worker 0 pushes it over the wire, then the
  // owner reads it locally and node 0 over the wire.
  PsSystem system(SmallConfig(Architecture::kLapse));
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {3.0f, 1.0f};
      w.Push({13}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({13}, buf.data());
    EXPECT_EQ(buf[0], 3.0f);
  });
}

// Keys within one operation must be distinct. Builds with debug checks
// die on a repeat (Worker::CheckDistinct); NDEBUG builds run the same
// statement as a plain pull, which serves the owned key twice.
TEST(WorkerDeathTest, PullRepeatingOwnedKey) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEBUG_DEATH(
      {
        PsSystem system(SmallConfig(Architecture::kLapse, 1, 1));
        system.Run([](Worker& w) {
          ASSERT_TRUE(w.IsLocal(3));
          std::vector<Val> buf(4, -1.0f);
          w.Pull({3, 3}, buf.data());
          for (const Val v : buf) EXPECT_EQ(v, 0.0f);
        });
      },
      "duplicate key in one operation");
}

TEST(SystemTest, SetAndGetValue) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  const std::vector<Val> v = {4.5f, -1.0f};
  system.SetValue(9, v.data());
  std::vector<Val> buf(2);
  system.GetValue(9, buf.data());
  EXPECT_EQ(buf[0], 4.5f);
  EXPECT_EQ(buf[1], -1.0f);
}

TEST(SystemTest, OwnerStartsAtHome) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  for (Key k = 0; k < 20; ++k) {
    EXPECT_EQ(system.OwnerOf(k), system.layout().Home(k));
  }
}

TEST(SystemTest, MultipleRunPhasesShareState) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {1.0f, 1.0f};
      w.Push({4}, update.data());
    }
  });
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    w.Pull({4}, buf.data());
    EXPECT_EQ(buf[0], 1.0f);
  });
}

}  // namespace
}  // namespace ps
}  // namespace lapse
