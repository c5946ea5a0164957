#include <gtest/gtest.h>

#include <vector>

#include "ps/system.h"

// LocationCache stale-hint semantics (Section 3.3 / Figure 5): cache
// entries are hints, never invalidated. A stale hint must cost exactly one
// extra forward over the uncached path and must be opportunistically
// refreshed by the returning response -- never correctness.

namespace lapse {
namespace ps {
namespace {

Config CachedConfig() {
  Config cfg;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 1;
  cfg.num_keys = 32;
  cfg.uniform_value_length = 2;
  cfg.arch = Architecture::kLapse;
  cfg.strategy = LocationStrategy::kHomeNode;
  cfg.location_caches = true;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

// Moves key 0 (homed at node 0) to `target` via a worker there.
void MoveKeyTo(PsSystem& system, Key k, NodeId target) {
  system.Run([&](Worker& w) {
    if (w.node() == target) w.Localize({k});
  });
  ASSERT_EQ(system.OwnerOf(k), target);
}

TEST(LocationCacheTest, StaleHintCostsExactlyOneExtraForward) {
  PsSystem system(CachedConfig());
  // Warm node 3's cache: key 0 lives at node 1.
  MoveKeyTo(system, 0, 1);
  system.Run([&](Worker& w) {
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  ASSERT_EQ(system.node_context(3).cache->Get(0), 1);

  // Silently invalidate the hint: the key moves on to node 2.
  MoveKeyTo(system, 0, 2);

  // Uncached baseline (Figure 5b): requester -> home -> owner -> reply,
  // i.e. 2 request hops + 1 response. The stale hint adds exactly one
  // forward in front: requester -> stale owner -> home -> owner -> reply.
  system.net_stats().Reset();
  system.Run([&](Worker& w) {
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  auto& s = system.net_stats();
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kBatchOp), 3);  // uncached: 2
  EXPECT_EQ(s.MessagesOfType(net::MsgType::kBatchResp), 1);
  EXPECT_EQ(s.total_messages(), 4);  // one extra over the 3-message path
}

TEST(LocationCacheTest, ResponseRefreshesTheStaleHint) {
  PsSystem system(CachedConfig());
  MoveKeyTo(system, 0, 1);
  system.Run([&](Worker& w) {  // fill: hint -> node 1
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  MoveKeyTo(system, 0, 2);  // hint now stale

  system.Run([&](Worker& w) {  // stale access...
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  // ...whose response opportunistically updated the hint to the true owner.
  EXPECT_EQ(system.node_context(3).cache->Get(0), 2);

  // The refreshed hint makes the next access direct (Figure 5c): 2 msgs.
  system.net_stats().Reset();
  system.Run([&](Worker& w) {
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  EXPECT_EQ(system.net_stats().total_messages(), 2);
}

TEST(LocationCacheTest, StaleHintNeverCostsCorrectness) {
  PsSystem system(CachedConfig());
  const std::vector<Val> v = {42.0f, -7.0f};
  system.SetValue(0, v.data());
  MoveKeyTo(system, 0, 1);
  system.Run([&](Worker& w) {  // warm node 3's hint
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());
    }
  });
  MoveKeyTo(system, 0, 2);
  system.Run([&](Worker& w) {
    if (w.node() == 3) {
      std::vector<Val> buf(2);
      w.Pull({0}, buf.data());  // via the stale hint
      EXPECT_EQ(buf[0], 42.0f);
      EXPECT_EQ(buf[1], -7.0f);
      const std::vector<Val> upd = {1.0f, 1.0f};
      w.Push({0}, upd.data());  // writes chase the key the same way
    }
  });
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 43.0f);
  EXPECT_EQ(buf[1], -6.0f);
}

TEST(LocationCacheTest, RelocationPrimesTheRequestersCache) {
  PsSystem system(CachedConfig());
  MoveKeyTo(system, 5, 2);
  // The transfer's arrival installs the key's new location in the
  // requester's own cache.
  EXPECT_EQ(system.node_context(2).cache->Get(5), 2);
  EXPECT_EQ(system.node_context(2).cache->FillFraction(),
            1.0 / 32.0);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
