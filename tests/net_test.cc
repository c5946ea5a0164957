#include <gtest/gtest.h>

#include <atomic>
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
