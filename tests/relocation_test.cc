#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "ps/system.h"

namespace lapse {
namespace ps {
namespace {

Config LapseConfig(int nodes, int workers, uint64_t keys = 32,
                   bool caches = false) {
  Config cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.num_keys = keys;
  cfg.uniform_value_length = 2;
  cfg.arch = Architecture::kLapse;
  cfg.location_caches = caches;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

TEST(RelocationTest, LocalizeMovesOwnership) {
  PsSystem system(LapseConfig(2, 1));
  // Key 0 is homed (and initially owned) at node 0.
  ASSERT_EQ(system.OwnerOf(0), 0);
  system.Run([&](Worker& w) {
    if (w.node() == 1) w.Localize({0});
  });
  EXPECT_EQ(system.OwnerOf(0), 1);
}

TEST(RelocationTest, ValueSurvivesRelocation) {
  PsSystem system(LapseConfig(2, 1));
  const std::vector<Val> v = {7.0f, -3.0f};
  system.SetValue(0, v.data());
  system.Run([&](Worker& w) {
    if (w.node() == 1) {
      w.Localize({0});
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
      EXPECT_EQ(buf[0], 7.0f);
      EXPECT_EQ(buf[1], -3.0f);
      EXPECT_TRUE(w.IsLocal(0));
    }
  });
}

TEST(RelocationTest, LocalizeAlreadyLocalIsImmediate) {
  PsSystem system(LapseConfig(2, 1));
  system.Run([&](Worker& w) {
    if (w.node() == 0) {
      // Key 0 is already here.
      const uint64_t op = w.LocalizeAsync({0});
      EXPECT_EQ(op, Worker::kImmediate);
    }
  });
}

TEST(RelocationTest, AccessAfterRelocationIsLocal) {
  PsSystem system(LapseConfig(2, 1));
  system.Run([&](Worker& w) {
    if (w.node() == 1) {
      w.Localize({0});
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  // The pull after localize must have been served locally.
  EXPECT_GE(system.node_stats(1).local_key_reads.count(), 1);
  EXPECT_EQ(system.node_stats(1).remote_key_reads.count(), 0);
}

TEST(RelocationTest, ThreeMessagesPerRelocation) {
  PsSystem system(LapseConfig(4, 1));
  // Move key 0 (home: node 0) to node 1 so that home != owner.
  system.Run([&](Worker& w) {
    if (w.node() == 1) w.Localize({0});
  });
  system.net_stats().Reset();
  system.Run([&](Worker& w) {
    // Requester 3, home 0, owner 1: localize, instruct, transfer (Fig. 4).
    if (w.node() == 3) w.Localize({0});
  });
  auto& s = system.net_stats();
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kLocalize), 1);
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kRelocateInstruct), 1);
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kRelocateTransfer), 1);
}

TEST(RelocationTest, TwoNodeRelocationSkipsInstructMessage) {
  PsSystem system(LapseConfig(2, 1));
  system.net_stats().Reset();
  system.Run([&](Worker& w) {
    // Key 0: home == old owner == node 0; requester node 1. The home hands
    // the key over directly (2 network messages; Table 5 note).
    if (w.node() == 1) w.Localize({0});
  });
  auto& s = system.net_stats();
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kLocalize), 1);
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kRelocateInstruct), 0);
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kRelocateTransfer), 1);
}

TEST(RelocationTest, UpdatesBeforeAndAfterRelocationAllSurvive) {
  PsSystem system(LapseConfig(2, 2));
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 0.0f};
    // Phase 1: everyone updates key 0 at its original location.
    w.Push({0}, one.data());
    w.Barrier();
    // Phase 2: node 1 localizes, then everyone updates again.
    if (w.node() == 1 && w.thread_slot() == 1) w.Localize({0});
    w.Barrier();
    w.Push({0}, one.data());
  });
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 8.0f);  // 4 workers x 2 pushes
  EXPECT_EQ(system.OwnerOf(0), 1);
}

TEST(RelocationTest, PingPongRelocations) {
  PsSystem system(LapseConfig(2, 1));
  const std::vector<Val> v = {1.0f, 2.0f};
  system.SetValue(5, v.data());
  for (int round = 0; round < 6; ++round) {
    const NodeId target = round % 2;
    system.Run([&](Worker& w) {
      if (w.node() == target) {
        w.Localize({5});
        std::vector<Val> buf(2);
        w.Pull({5}, buf.data());
        EXPECT_EQ(buf[0], 1.0f);
      }
    });
    EXPECT_EQ(system.OwnerOf(5), target);
  }
}

TEST(RelocationTest, GroupedLocalizeFromMultipleHomes) {
  PsSystem system(LapseConfig(4, 1));
  system.Run([&](Worker& w) {
    if (w.node() == 0) {
      // Keys spread over all 4 home ranges (32 keys / 4 nodes = 8 each).
      std::vector<Key> keys = {1, 9, 17, 25, 2, 10, 18, 26};
      w.Localize(keys);
      std::vector<Val> buf(2 * keys.size());
      w.Pull(keys, buf.data());
      for (const Key k : keys) EXPECT_TRUE(w.IsLocal(k));
    }
  });
  for (const Key k : {1, 9, 17, 25, 2, 10, 18, 26}) {
    EXPECT_EQ(system.OwnerOf(static_cast<Key>(k)), 0);
  }
}

TEST(RelocationTest, MessageGroupingCoalescesPerHome) {
  PsSystem system(LapseConfig(4, 1));
  system.net_stats().Reset();
  system.Run([&](Worker& w) {
    if (w.node() == 0) {
      // 4 keys homed at node 1 (keys 8..15), owned there too: one localize
      // message, one (local) instruct handled inline, one transfer back.
      w.Localize({8, 9, 10, 11});
    }
  });
  auto& s = system.net_stats();
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kLocalize), 1);
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kRelocateTransfer), 1);
}

TEST(RelocationTest, RelocationStatsRecorded) {
  PsSystem system(LapseConfig(2, 1));
  system.Run([&](Worker& w) {
    if (w.node() == 1) w.Localize({0, 1, 2});
  });
  EXPECT_EQ(system.Sum(&ps::ServerStats::relocations).count, 3);
  EXPECT_GE(system.Sum(&ps::ServerStats::relocations).Mean(), 0.0);
}

TEST(RelocationTest, ConcurrentLocalizeConflict) {
  // All nodes fight over the same small set of keys while reading and
  // writing them; no update may be lost and the system must quiesce.
  PsSystem system(LapseConfig(4, 2, /*keys=*/4));
  const int kIters = 50;
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 1.0f};
    std::vector<Val> buf(2);
    for (int i = 0; i < kIters; ++i) {
      const Key k = static_cast<Key>(i % 4);
      w.Localize({k});
      w.Push({k}, one.data());
      w.Pull({k}, buf.data());
    }
  });
  // 8 workers x kIters pushes, spread over 4 keys.
  double total = 0;
  std::vector<Val> buf(2);
  for (Key k = 0; k < 4; ++k) {
    system.GetValue(k, buf.data());
    total += buf[0];
  }
  EXPECT_EQ(total, 8.0 * kIters);
}

TEST(RelocationTest, ConflictCounterSeesContention) {
  PsSystem system(LapseConfig(4, 2, /*keys=*/2));
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 0.0f};
    for (int i = 0; i < 30; ++i) {
      w.Localize({0});
      w.Push({0}, one.data());
    }
  });
  // With 8 workers pounding one key, chained relocations (hand-over while
  // still arriving) are effectively certain.
  int64_t conflicts = 0;
  for (NodeId n = 0; n < 4; ++n) {
    conflicts += system.NodeLocalizationConflicts(n);
  }
  EXPECT_GE(conflicts, 0);  // smoke: counter exists and does not crash
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 8.0f * 30);
}

TEST(RelocationTest, AsyncOpsDuringRelocationPreserveProgramOrder) {
  PsSystem system(LapseConfig(2, 1));
  system.Run([&](Worker& w) {
    if (w.node() == 1) {
      // Issue localize + push + pull asynchronously back-to-back; the pull
      // must see the push (queued in order at the requester).
      const std::vector<Val> five = {5.0f, 5.0f};
      std::vector<Val> buf(2, -1.0f);
      const uint64_t l = w.LocalizeAsync({3});
      const uint64_t p = w.PushAsync({3}, five.data());
      const uint64_t q = w.PullAsync({3}, buf.data());
      w.Wait(l);
      w.Wait(p);
      w.Wait(q);
      EXPECT_EQ(buf[0], 5.0f);
    }
  });
}

TEST(RelocationTest, WithLocationCaches) {
  PsSystem system(LapseConfig(2, 2, 32, /*caches=*/true));
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 1.0f};
    std::vector<Val> buf(2);
    for (int i = 0; i < 20; ++i) {
      const Key k = static_cast<Key>(i % 8);
      if (w.node() == 1) w.Localize({k});
      w.Push({k}, one.data());
      w.Pull({k}, buf.data());
      w.Barrier();
    }
  });
  double total = 0;
  std::vector<Val> buf(2);
  for (Key k = 0; k < 8; ++k) {
    system.GetValue(k, buf.data());
    total += buf[0];
  }
  // 4 workers x 20 pushes.
  EXPECT_EQ(total, 80.0);
}

TEST(RelocationTest, StaleCacheDoubleForwardStillCorrect) {
  PsSystem system(LapseConfig(3, 1, 32, /*caches=*/true));
  const std::vector<Val> v = {42.0f, 0.0f};
  system.SetValue(1, v.data());
  // Warm node 2's cache for key 1 (owner node 0), then move the key to
  // node 1 and read again from node 2: its cache is stale, the read must
  // still return the value via double-forward.
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    if (w.node() == 2) w.Pull({1}, buf.data());
    w.Barrier();
    if (w.node() == 1) w.Localize({1});
    w.Barrier();
    if (w.node() == 2) {
      w.Pull({1}, buf.data());
      EXPECT_EQ(buf[0], 42.0f);
    }
  });
  EXPECT_EQ(system.OwnerOf(1), 1);
}

TEST(RelocationTest, ManyKeysBulkLocalize) {
  PsSystem system(LapseConfig(4, 1, /*keys=*/256));
  system.Run([&](Worker& w) {
    if (w.node() != 2) return;
    std::vector<Key> all(256);
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Key>(i);
    w.Localize(all);
    for (const Key k : all) EXPECT_TRUE(w.IsLocal(k));
  });
  for (Key k = 0; k < 256; ++k) EXPECT_EQ(system.OwnerOf(k), 2);
}

// With a single latch every key's arrival record sits in one list. 100
// keys move from node 2 to node 1 while ops queue on each of them: node 1's
// own pushes and pulls, a second worker's localize coalesced onto the same
// relocations, and pushes from every other worker that chase the keys.
// Every op must complete and every value must hold every push.
TEST(RelocationTest, OneLatchHoldsEveryArrivalRecord) {
  Config cfg = LapseConfig(3, 2, /*keys=*/300);
  cfg.num_latches = 1;
  // Slow hops: a relocation takes >= 10 ms, so ops issued right after a
  // localize find its keys still arriving.
  cfg.latency.remote_base_ns = 5'000'000;
  PsSystem system(cfg);
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < 100; ++k) {
    if (system.layout().Home(k) == 0) keys.push_back(k);
  }
  for (const Key k : keys) {
    const std::vector<Val> v = {static_cast<Val>(k), 0.0f};
    system.SetValue(k, v.data());
  }
  system.Run([&](Worker& w) {
    if (w.node() == 2 && w.thread_slot() == 1) w.Localize(keys);
  });
  ASSERT_EQ(system.OwnerOf(keys[0]), 2);

  std::atomic<int> unfinished{0};
  std::atomic<int> bad_pulls{0};
  system.Run([&](Worker& w) {
    const std::vector<Val> one = {1.0f, 1.0f};
    std::vector<Val> pulled(2 * keys.size(), -1.0f);
    std::vector<uint64_t> ops;
    if (w.node() == 1) ops.push_back(w.LocalizeAsync(keys));
    for (size_t i = 0; i < keys.size(); ++i) {
      ops.push_back(w.PushAsync({keys[i]}, one.data()));
      if (w.node() == 1) {
        ops.push_back(w.PullAsync({keys[i]}, pulled.data() + 2 * i));
      }
    }
    w.WaitAll();
    for (const uint64_t op : ops) {
      if (!w.IsDone(op)) unfinished.fetch_add(1);
    }
    if (w.node() != 1) return;
    for (size_t i = 0; i < keys.size(); ++i) {
      // The pull queued behind this worker's own push; at most all six
      // workers' pushes landed before it.
      const Val base = static_cast<Val>(keys[i]);
      const Val got = pulled[2 * i];
      if (got < base + 1.0f || got > base + 6.0f) bad_pulls.fetch_add(1);
    }
  });
  EXPECT_EQ(unfinished.load(), 0);
  EXPECT_EQ(bad_pulls.load(), 0);
  EXPECT_GE(system.node_stats(1).queued_local_ops.sum(), 100);
  std::vector<Val> buf(2);
  for (const Key k : keys) {
    EXPECT_EQ(system.OwnerOf(k), 1) << "key " << k;
    system.GetValue(k, buf.data());
    EXPECT_EQ(buf[0], static_cast<Val>(k) + 6.0f) << "key " << k;
    EXPECT_EQ(buf[1], 6.0f) << "key " << k;
  }
  // All records went through the one list, and every drain freed its own.
  NodeContext& ctx = system.node_context(1);
  ASSERT_EQ(ctx.latches->size(), 1u);
  EXPECT_GE(ctx.latches->ArrivalsAt(0).size(), 100u);
  for (const ArrivingKey& r : ctx.latches->ArrivalsAt(0)) {
    EXPECT_FALSE(r.active);
  }
}

}  // namespace
}  // namespace ps
}  // namespace lapse
