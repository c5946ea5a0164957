#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "ps/system.h"

namespace lapse {
namespace ps {
namespace {

// 2 nodes, range-partitioned 20-key space: keys 0..9 homed at node 0,
// 10..19 at node 1, so node 0's worker reaches keys >= 10 remotely.
Config CoalescingConfig(uint32_t max_ops = 4,
                        int64_t delay_micros = 500'000) {
  Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 20;
  cfg.uniform_value_length = 2;
  cfg.arch = Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.coalescing = true;
  cfg.coalesce_max_ops = max_ops;
  cfg.coalesce_delay_micros = delay_micros;
  return cfg;
}

TEST(CoalescerTest, CountTriggerReleasesBatch) {
  // Delay is huge: only the count trigger can release the batch.
  PsSystem system(CoalescingConfig(/*max_ops=*/4));
  for (Key k = 10; k < 14; ++k) {
    const std::vector<Val> v = {static_cast<Val>(k), 1.0f};
    system.SetValue(k, v.data());
  }
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    std::vector<std::vector<Val>> bufs(4, std::vector<Val>(2));
    std::vector<uint64_t> ops;
    for (int i = 0; i < 4; ++i) {
      ops.push_back(
          w.PullAsync({static_cast<Key>(10 + i)}, bufs[i].data()));
    }
    // The 4th enqueue hit coalesce_max_ops: the batch left without any
    // Wait forcing it.
    EXPECT_GE(system.net_stats().MessagesOfType(net::MsgType::kBatchOp), 1);
    for (const uint64_t op : ops) w.Wait(op);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(bufs[i][0], static_cast<Val>(10 + i));
      EXPECT_EQ(bufs[i][1], 1.0f);
    }
  });
  EXPECT_EQ(system.node_stats(0).coalesced_ops.count(), 4);
  // One batch of 4 sub-ops: count = batches, sum = sub-ops.
  EXPECT_EQ(system.node_stats(0).coalesce_batches.count(), 1);
  EXPECT_EQ(system.node_stats(0).coalesce_batches.sum(), 4);
}

TEST(CoalescerTest, AgeTriggerReleasesBatch) {
  // Count cap out of reach: only the age trigger (2 ms) can fire, checked
  // at the top of the next operation.
  PsSystem system(CoalescingConfig(/*max_ops=*/62, /*delay_micros=*/2000));
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf1(2), buf2(2);
    w.PullAsync({10}, buf1.data());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    w.PullAsync({11}, buf2.data());
    EXPECT_GE(system.net_stats().MessagesOfType(net::MsgType::kBatchOp), 1);
    w.WaitAll();
  });
  EXPECT_GE(system.node_stats(0).coalesce_batches.count(), 2);
}

TEST(CoalescerTest, SameKeyPullsDedupAndFanOut) {
  PsSystem system(CoalescingConfig());
  const std::vector<Val> v = {7.5f, -2.0f};
  system.SetValue(15, v.data());
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf1(2, 0.0f), buf2(2, 0.0f);
    w.PullAsync({15}, buf1.data());
    w.PullAsync({15}, buf2.data());
    w.WaitAll();  // forced drain; both ops fan out from one response entry
    EXPECT_EQ(buf1[0], 7.5f);
    EXPECT_EQ(buf1[1], -2.0f);
    EXPECT_EQ(buf2[0], 7.5f);
    EXPECT_EQ(buf2[1], -2.0f);
  });
  // Two sub-ops rode one batch (and one deduplicated key entry).
  EXPECT_EQ(system.node_stats(0).coalesce_batches.count(), 1);
  EXPECT_EQ(system.node_stats(0).coalesce_batches.sum(), 2);
  EXPECT_GE(system.node_stats(0).coalesce_forced_drains.count(), 1);
}

TEST(CoalescerTest, ReadYourWritesThroughBatch) {
  PsSystem system(CoalescingConfig());
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    const std::vector<Val> update = {3.0f, 4.0f};
    std::vector<Val> buf(2, 0.0f);
    // Push and pull of the same remote key share one batch; entry order
    // must make the pull observe the push.
    w.PushAsync({12}, update.data());
    w.PullAsync({12}, buf.data());
    w.WaitAll();
    EXPECT_EQ(buf[0], 3.0f);
    EXPECT_EQ(buf[1], 4.0f);
  });
}

TEST(CoalescerTest, WaitOnQueuedOpDrains) {
  // Wait(op) on an op still held in a batch must force the drain instead
  // of deadlocking on a message that never left.
  PsSystem system(CoalescingConfig(/*max_ops=*/62));
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(2);
    const uint64_t op = w.PullAsync({17}, buf.data());
    w.Wait(op);
    EXPECT_EQ(buf[0], 0.0f);
  });
  EXPECT_GE(system.node_stats(0).coalesce_forced_drains.count(), 1);
}

TEST(CoalescerTest, SyncOpsStayCorrect) {
  // Sync wrappers Wait their own handle, so every sync op drains its
  // batch immediately -- slow, but exactly the unbatched semantics.
  PsSystem system(CoalescingConfig());
  system.Run([&](Worker& w) {
    const Key k = static_cast<Key>(10 + w.node());
    std::vector<Val> buf(2);
    for (int i = 1; i <= 5; ++i) {
      const std::vector<Val> update = {1.0f, 2.0f};
      w.Push({k}, update.data());
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf[0], static_cast<Val>(i));
      EXPECT_EQ(buf[1], 2.0f * static_cast<Val>(i));
    }
  });
}

TEST(CoalescerTest, UnawaitedPushesFlushAtTeardown) {
  PsSystem system(CoalescingConfig(/*max_ops=*/62));
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    const std::vector<Val> update = {5.0f, 6.0f};
    w.PushAsync({18}, update.data());
    // No Wait: the run-loop barrier (WaitAll) and the worker destructor
    // both drain held batches; the push must not be lost.
  });
  std::vector<Val> buf(2);
  system.GetValue(18, buf.data());
  EXPECT_EQ(buf[0], 5.0f);
  EXPECT_EQ(buf[1], 6.0f);
}

TEST(CoalescerTest, MixedLocalAndRemoteKeysComplete) {
  PsSystem system(CoalescingConfig());
  const std::vector<Val> v = {1.0f, 2.0f};
  system.SetValue(3, v.data());
  system.SetValue(13, v.data());
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    // One op spanning a local and a remote key: the local half completes
    // inline, the remote half through the batch.
    std::vector<Val> buf(4, 0.0f);
    const uint64_t op = w.PullAsync({3, 13}, buf.data());
    w.Wait(op);
    EXPECT_EQ(buf[0], 1.0f);
    EXPECT_EQ(buf[2], 1.0f);
    EXPECT_EQ(buf[3], 2.0f);
  });
}

TEST(CoalescerTest, ShardPureBatchesAcrossFourShards) {
  Config cfg = CoalescingConfig(/*max_ops=*/8);
  cfg.num_keys = 64;
  cfg.server_threads = 4;
  PsSystem system(cfg);
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    const std::vector<Val> update = {1.0f, 1.0f};
    // Remote keys spread across all 4 shards of node 1.
    for (Key k = 32; k < 64; ++k) w.PushAsync({k}, update.data());
    w.WaitAll();
    std::vector<Val> buf(2);
    for (Key k = 32; k < 64; ++k) {
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf[0], 1.0f) << "key " << k;
    }
  });
  EXPECT_GT(system.node_stats(0).coalesce_batches.count(), 0);
}

TEST(CoalescerTest, DisabledNeverHolds) {
  Config cfg = CoalescingConfig();
  cfg.coalescing = false;
  PsSystem system(cfg);
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(2);
    for (int i = 0; i < 8; ++i) w.PullAsync({11}, buf.data());
    // Each op's envelope left as soon as the op finished issuing.
    EXPECT_EQ(system.net_stats().MessagesOfType(net::MsgType::kBatchOp), 8);
    w.WaitAll();
  });
  // Every batch carries one sub-op, and nothing was held for a drain.
  EXPECT_EQ(system.node_stats(0).coalesce_batches.count(), 8);
  EXPECT_EQ(system.node_stats(0).coalesce_batches.sum(), 8);
  EXPECT_EQ(system.node_stats(0).coalesce_forced_drains.count(), 0);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
