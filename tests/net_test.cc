#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/network.h"
#include "util/timer.h"

namespace lapse {
namespace net {
namespace {

Message MakeMsg(MsgType type, NodeId dst, uint64_t op_id = 0) {
  Message m;
  m.type = type;
  m.dst_node = dst;
  m.op_id = op_id;
  return m;
}

TEST(LatencyModelTest, ZeroConfigGivesZero) {
  LatencyModel model(LatencyConfig::Zero(), 1);
  EXPECT_EQ(model.DelayNs(1000, false), 0);
  EXPECT_EQ(model.DelayNs(1000, true), 0);
}

TEST(LatencyModelTest, RemoteSlowerThanLocal) {
  LatencyModel model(LatencyConfig::Lan(), 1);
  EXPECT_GT(model.DelayNs(100, false), model.DelayNs(100, true));
}

TEST(LatencyModelTest, BytesIncreaseDelay) {
  LatencyConfig cfg;
  cfg.per_byte_ns = 10.0;
  LatencyModel model(cfg, 1);
  EXPECT_GT(model.DelayNs(10000, false), model.DelayNs(10, false));
}

TEST(LatencyModelTest, JitterStaysInBounds) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 1000;
  cfg.per_byte_ns = 0;
  cfg.jitter_fraction = 0.5;
  LatencyModel model(cfg, 3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t d = model.DelayNs(0, false);
    EXPECT_GE(d, 500);
    EXPECT_LE(d, 1500);
  }
}

TEST(InboxTest, DeliversInDeliveryTimeOrder) {
  Inbox inbox;
  Message a = MakeMsg(MsgType::kBatchOp, 0, 1);
  a.deliver_ns = NowNanos() - 100;
  Message b = MakeMsg(MsgType::kBatchOp, 0, 2);
  b.deliver_ns = a.deliver_ns - 50;  // earlier
  inbox.Put(std::move(a));
  inbox.Put(std::move(b));
  Message out;
  ASSERT_TRUE(inbox.Take(&out));
  EXPECT_EQ(out.op_id, 2u);
  ASSERT_TRUE(inbox.Take(&out));
  EXPECT_EQ(out.op_id, 1u);
}

TEST(InboxTest, ShutdownDrainsThenReturnsFalse) {
  Inbox inbox;
  Message a = MakeMsg(MsgType::kBatchOp, 0, 1);
  a.deliver_ns = NowNanos() + 1'000'000'000;  // far future
  inbox.Put(std::move(a));
  inbox.Shutdown();
  Message out;
  EXPECT_TRUE(inbox.Take(&out));  // drained despite future delivery time
  EXPECT_FALSE(inbox.Take(&out));
}

TEST(InboxTest, TryTakeRespectsDeliveryTime) {
  Inbox inbox;
  Message a = MakeMsg(MsgType::kBatchOp, 0, 1);
  a.deliver_ns = NowNanos() + 500'000'000;
  inbox.Put(std::move(a));
  Message out;
  EXPECT_FALSE(inbox.TryTake(&out));
}

TEST(NetworkTest, EndpointStampsSourceFields) {
  Network net(2, LatencyConfig::Zero());
  auto ep = net.CreateEndpoint(0, 3);
  ep->Send(MakeMsg(MsgType::kBatchResp, 1, 7));
  Message out;
  ASSERT_TRUE(net.Recv(1, &out));
  EXPECT_EQ(out.src_node, 0);
  EXPECT_EQ(out.src_thread, 3);
  EXPECT_EQ(out.op_id, 7u);
}

TEST(NetworkTest, PerConnectionFifoUnderJitter) {
  // Heavy jitter would reorder messages if the endpoint did not enforce
  // monotone delivery times per destination.
  LatencyConfig cfg;
  cfg.remote_base_ns = 100'000;
  cfg.jitter_fraction = 0.9;
  Network net(2, cfg);
  auto ep = net.CreateEndpoint(0, 1);
  const int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    ep->Send(MakeMsg(MsgType::kBatchOp, 1, static_cast<uint64_t>(i + 1)));
  }
  Message out;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(net.Recv(1, &out));
    EXPECT_EQ(out.op_id, static_cast<uint64_t>(i + 1));
  }
}

TEST(NetworkTest, LatencyIsEnforced) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 20'000'000;  // 20ms
  cfg.per_byte_ns = 0;
  Network net(2, cfg);
  auto ep = net.CreateEndpoint(0, 1);
  Timer timer;
  ep->Send(MakeMsg(MsgType::kBatchOp, 1, 1));
  Message out;
  ASSERT_TRUE(net.Recv(1, &out));
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
}

TEST(NetworkTest, LocalLoopbackFasterThanRemote) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 50'000'000;
  cfg.local_base_ns = 0;
  cfg.per_byte_ns = 0;
  Network net(2, cfg);
  auto ep = net.CreateEndpoint(0, 1);
  Timer timer;
  ep->Send(MakeMsg(MsgType::kBatchOp, 0, 1));  // loop-back
  Message out;
  ASSERT_TRUE(net.Recv(0, &out));
  EXPECT_LT(timer.ElapsedMillis(), 40.0);
}

TEST(NetworkTest, StatsCountMessagesAndBytes) {
  Network net(2, LatencyConfig::Zero());
  auto ep = net.CreateEndpoint(0, 1);
  Message m = MakeMsg(MsgType::kBatchResp, 1);
  m.keys = {1, 2, 3};
  m.vals = {1.0f, 2.0f};
  const size_t bytes = m.WireBytes();
  ep->Send(std::move(m));
  EXPECT_EQ(net.stats().MessagesOfType(MsgType::kBatchResp), 1);
  EXPECT_EQ(net.stats().BytesOfType(MsgType::kBatchResp),
            static_cast<int64_t>(bytes));
  EXPECT_EQ(net.stats().total_messages(), 1);
  EXPECT_EQ(net.stats().remote_messages(), 1);
  EXPECT_EQ(net.stats().local_messages(), 0);
}

TEST(NetworkTest, StatsDistinguishLocalMessages) {
  Network net(2, LatencyConfig::Zero());
  auto ep = net.CreateEndpoint(0, 1);
  ep->Send(MakeMsg(MsgType::kBatchOp, 0));
  EXPECT_EQ(net.stats().local_messages(), 1);
  EXPECT_EQ(net.stats().remote_messages(), 0);
}

TEST(NetworkTest, ManyProducersOneConsumer) {
  Network net(2, LatencyConfig::Zero());
  const int kThreads = 8, kPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&net, t] {
      auto ep = net.CreateEndpoint(0, t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        ep->Send(MakeMsg(MsgType::kBatchResp, 1));
      }
    });
  }
  std::atomic<int> received{0};
  std::thread consumer([&] {
    Message out;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
      if (!net.Recv(1, &out)) break;
      received.fetch_add(1);
    }
  });
  for (auto& p : producers) p.join();
  consumer.join();
  EXPECT_EQ(received.load(), kThreads * kPerThread);
}

TEST(NetworkTest, ShutdownUnblocksReceivers) {
  Network net(1, LatencyConfig::Zero());
  std::thread receiver([&] {
    Message out;
    EXPECT_FALSE(net.Recv(0, &out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.Shutdown();
  receiver.join();
}

// Per-connection FIFO with many concurrent connections into one inbox: each
// of 8 producer threads has its own lane, and heavy jitter would reorder
// every one of them without the endpoint's clamp.
TEST(LaneInboxTest, PerConnectionFifoForEightProducersUnderJitter) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 20'000;
  cfg.local_base_ns = 20'000;
  cfg.per_byte_ns = 0;
  cfg.jitter_fraction = 0.9;
  Network net(2, cfg);
  const int kThreads = 8, kPerThread = 400;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&net, t] {
      auto ep = net.CreateEndpoint(t % 2, t + 1);  // remote and loop-back
      for (int i = 0; i < kPerThread; ++i) {
        ep->Send(MakeMsg(MsgType::kBatchOp, 1, static_cast<uint64_t>(i + 1)));
      }
    });
  }
  std::vector<uint64_t> last(kThreads + 1, 0);
  Message out;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(net.Recv(1, &out));
    EXPECT_EQ(out.op_id, last[out.src_thread] + 1) << "thread "
                                                   << out.src_thread;
    last[out.src_thread] = out.op_id;
    EXPECT_LE(out.deliver_ns, NowNanos());  // never early
  }
  for (auto& p : producers) p.join();
}

// A loop-back message due long before the remote message the drain thread
// is waiting out is taken first, as soon as it is due: the drain thread
// looks again when a lane grows instead of sleeping until the old head.
TEST(LaneInboxTest, LoopbackDueBeforePendingRemoteHeadIsTakenFirst) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 200'000'000;  // 200 ms
  cfg.local_base_ns = 0;
  cfg.per_byte_ns = 0;
  Network net(2, cfg);
  auto remote = net.CreateEndpoint(1, 1);
  auto local = net.CreateEndpoint(0, 1);
  remote->Send(MakeMsg(MsgType::kBatchOp, 0, 1));
  std::atomic<int64_t> first_taken_ns{0};
  std::vector<uint64_t> order;
  std::thread drain([&] {
    Message out;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(net.Recv(0, &out));
      if (i == 0) first_taken_ns.store(NowNanos());
      order.push_back(out.op_id);
    }
  });
  // Let the drain thread settle into waiting for the remote head.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t sent_ns = NowNanos();
  local->Send(MakeMsg(MsgType::kBatchOp, 0, 2));
  drain.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_LT(first_taken_ns.load() - sent_ns, 100'000'000);
}

// With no idle spin the drain thread parks as soon as its lanes run dry, so
// every one of these sends races with it parking. A lost wake-up leaves a
// message undelivered; the deadline turns that hang into a failure.
TEST(LaneInboxTest, ParkedDrainMissesNoWakeup) {
  LatencyConfig cfg = LatencyConfig::Zero();
  cfg.idle_spin_ns = 0;
  Network net(2, cfg);
  std::atomic<int> received{0};
  std::thread drain([&] {
    Message out;
    while (net.Recv(1, &out)) received.fetch_add(1);
  });
  auto ep = net.CreateEndpoint(0, 1);
  const int kMsgs = 3000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool stalled = false;
  for (int i = 0; i < kMsgs && !stalled; ++i) {
    if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    ep->Send(MakeMsg(MsgType::kBatchOp, 1, static_cast<uint64_t>(i + 1)));
    while (received.load() <= i) {
      if (std::chrono::steady_clock::now() > deadline) {
        stalled = true;
        break;
      }
      std::this_thread::yield();
    }
  }
  net.Shutdown();
  drain.join();
  EXPECT_FALSE(stalled);
  EXPECT_EQ(received.load(), kMsgs);
}

// Workers get a new endpoint on every PsSystem::Run. The successor on a
// (node, thread) slot continues its predecessor's lanes, so its messages
// queue behind the predecessor's even when its own (jittered) delays are
// shorter.
TEST(LaneInboxTest, RecreatedEndpointKeepsFifoBehindPredecessor) {
  LatencyConfig cfg;
  cfg.remote_base_ns = 5'000'000;
  cfg.per_byte_ns = 0;
  cfg.jitter_fraction = 0.9;
  Network net(2, cfg);
  const int kPerGeneration = 50;
  for (int gen = 0; gen < 2; ++gen) {
    std::thread sender([&net, gen] {
      auto ep = net.CreateEndpoint(0, 1);
      for (int i = 0; i < kPerGeneration; ++i) {
        ep->Send(MakeMsg(MsgType::kBatchOp, 1,
                         static_cast<uint64_t>(gen * kPerGeneration + i + 1)));
      }
    });
    sender.join();
  }
  Message out;
  for (int i = 0; i < 2 * kPerGeneration; ++i) {
    ASSERT_TRUE(net.Recv(1, &out));
    EXPECT_EQ(out.op_id, static_cast<uint64_t>(i + 1));
  }
}

TEST(LaneInboxTest, TwoLiveEndpointsOnOneSlotDie) {
  Network net(2, LatencyConfig::Zero());
  auto ep = net.CreateEndpoint(0, 1);
  EXPECT_DEATH(net.CreateEndpoint(0, 1), "two live endpoints");
}

// PutCount is what Quiesce compares against the servers' processed counts:
// it must count every send and, read concurrently, never go backwards.
TEST(LaneInboxTest, PutCountCountsEverySendAndNeverDecreases) {
  Network net(2, LatencyConfig::Zero());
  const int kThreads = 4, kPerThread = 2000;
  std::atomic<bool> done{false};
  std::atomic<int64_t> decreases{0};
  std::thread watcher([&] {
    int64_t prev = 0;
    while (!done.load()) {
      const int64_t now = net.inbox(1).PutCount();
      if (now < prev) decreases.fetch_add(1);
      prev = now;
    }
  });
  std::thread drain([&] {
    Message out;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
      ASSERT_TRUE(net.Recv(1, &out));
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&net, t] {
      auto ep = net.CreateEndpoint(t % 2, t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        ep->Send(MakeMsg(MsgType::kBatchOp, 1));
      }
    });
  }
  for (auto& p : producers) p.join();
  drain.join();
  done.store(true);
  watcher.join();
  EXPECT_EQ(decreases.load(), 0);
  EXPECT_EQ(net.inbox(1).PutCount(), kThreads * kPerThread);
  EXPECT_EQ(net.inbox(0).PutCount(), 0);
}

// Per-sender counters summed on read: exact after the sending threads
// exit, and counted from a new baseline after Reset.
TEST(LaneInboxTest, NetStatsExactAfterSendersExitAndAfterReset) {
  Network net(2, LatencyConfig::Zero());
  const int kThreads = 4, kPerThread = 300;
  auto run_senders = [&net] {
    std::vector<std::thread> senders;
    for (int t = 0; t < kThreads; ++t) {
      senders.emplace_back([&net, t] {
        auto ep = net.CreateEndpoint(t % 2, t + 1);
        for (int i = 0; i < kPerThread; ++i) {
          // Node 0's threads send remote kBatchOp with 2 keys; node 1's
          // send loop-back kBatchResp with 3 values.
          Message m = MakeMsg(t % 2 == 0 ? MsgType::kBatchOp
                                         : MsgType::kBatchResp,
                              1);
          if (t % 2 == 0) {
            m.keys = {1, 2};
          } else {
            m.vals = {1.0f, 2.0f, 3.0f};
          }
          ep->Send(std::move(m));
        }
      });
    }
    for (auto& s : senders) s.join();
  };
  Message op = MakeMsg(MsgType::kBatchOp, 1);
  op.keys = {1, 2};
  Message resp = MakeMsg(MsgType::kBatchResp, 1);
  resp.vals = {1.0f, 2.0f, 3.0f};
  const int64_t per_type = kThreads / 2 * kPerThread;
  const int64_t op_bytes = per_type * static_cast<int64_t>(op.WireBytes());
  const int64_t resp_bytes =
      per_type * static_cast<int64_t>(resp.WireBytes());
  auto expect_exact = [&](const NetStats& s) {
    EXPECT_EQ(s.MessagesOfType(MsgType::kBatchOp), per_type);
    EXPECT_EQ(s.MessagesOfType(MsgType::kBatchResp), per_type);
    EXPECT_EQ(s.MessagesOfType(MsgType::kLocalize), 0);
    EXPECT_EQ(s.BytesOfType(MsgType::kBatchOp), op_bytes);
    EXPECT_EQ(s.BytesOfType(MsgType::kBatchResp), resp_bytes);
    EXPECT_EQ(s.total_messages(), 2 * per_type);
    EXPECT_EQ(s.total_bytes(), op_bytes + resp_bytes);
    EXPECT_EQ(s.remote_messages(), per_type);
    EXPECT_EQ(s.local_messages(), per_type);
  };
  run_senders();
  expect_exact(net.stats());
  net.stats().Reset();
  EXPECT_EQ(net.stats().total_messages(), 0);
  EXPECT_EQ(net.stats().total_bytes(), 0);
  EXPECT_EQ(net.stats().BytesOfType(MsgType::kBatchOp), 0);
  // The same slots again, through new endpoints: counted from the reset.
  run_senders();
  expect_exact(net.stats());
}

TEST(MessageTest, WireBytesGrowsWithPayload) {
  Message a = MakeMsg(MsgType::kBatchOp, 0);
  Message b = MakeMsg(MsgType::kBatchOp, 0);
  b.keys.resize(10);
  b.vals.resize(100);
  EXPECT_GT(b.WireBytes(), a.WireBytes());
}

TEST(MessageTest, DebugStringContainsType) {
  Message m = MakeMsg(MsgType::kRelocateTransfer, 1);
  EXPECT_NE(m.DebugString().find("RelocateTransfer"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace lapse
