#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "adapt/placement_policy.h"
#include "ps/system.h"
#include "util/timer.h"

// Adaptive placement engine: policy decisions (decay windows,
// classification thresholds, eviction hysteresis, churn), and the
// end-to-end engine relocating parameters without manual Localize calls.

namespace lapse {
namespace adapt {
namespace {

// --------------------------------------------------------------- policy --

ps::AdaptiveConfig TestPolicyConfig() {
  ps::AdaptiveConfig cfg;
  cfg.enabled = true;
  cfg.decay = 0.5;
  cfg.hot_threshold = 4.0;
  cfg.cold_threshold = 1.0;
  cfg.cold_ticks_to_evict = 3;
  cfg.churn_limit = 2;
  cfg.churn_forget_ticks = 1000;  // effectively off for these tests
  cfg.replicate_read_fraction = 0.9;
  // These unit tests drive Tick() by hand and reason about one decay per
  // call; disable the sample-rate window gate (tested separately below).
  cfg.min_tick_samples = 0;
  return cfg;
}

// Ownership helpers: key -> owned flag via a mutable set-like vector.
struct FakeOwnership {
  std::vector<Key> owned_keys;
  bool Owned(Key k) const {
    for (Key o : owned_keys) {
      if (o == k) return true;
    }
    return false;
  }
};

TEST(PlacementPolicyTest, HotRemoteKeyIsLocalizedOnceUntilOwned) {
  PlacementPolicy policy(TestPolicyConfig(), /*node=*/0);
  FakeOwnership own;
  auto owned = [&](Key k) { return own.Owned(k); };
  auto home = [](Key) { return NodeId{1}; };

  for (int i = 0; i < 8; ++i) policy.Record(7, /*is_write=*/false);
  Decisions d;
  policy.Tick(owned, home, &d);
  ASSERT_EQ(d.localize.size(), 1u);
  EXPECT_EQ(d.localize[0], 7u);
  EXPECT_TRUE(d.evict.empty());

  // Still hot, still not owned (relocation in flight): no re-request.
  for (int i = 0; i < 8; ++i) policy.Record(7, false);
  Decisions d2;
  policy.Tick(owned, home, &d2);
  EXPECT_TRUE(d2.localize.empty());

  // Ownership arrives: the key settles as hot-local; still no request.
  own.owned_keys.push_back(7);
  for (int i = 0; i < 8; ++i) policy.Record(7, false);
  Decisions d3;
  policy.Tick(owned, home, &d3);
  EXPECT_TRUE(d3.localize.empty());
  EXPECT_EQ(policy.Classify(7, true), KeyClass::kHotLocal);
}

TEST(PlacementPolicyTest, ColdKeysAreNeverLocalized) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  policy.Record(3, false);  // one sample: score 1 < hot_threshold 4
  Decisions d;
  policy.Tick(owned, home, &d);
  EXPECT_TRUE(d.localize.empty());
  EXPECT_EQ(policy.Classify(3, false), KeyClass::kCold);
}

TEST(PlacementPolicyTest, DecayWindowForgetsOldAccesses) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  for (int i = 0; i < 8; ++i) policy.Record(5, false);
  EXPECT_DOUBLE_EQ(policy.Score(5), 8.0);
  Decisions d;
  policy.Tick(owned, home, &d);  // decays to 4 (and issues a localize)
  EXPECT_DOUBLE_EQ(policy.Score(5), 4.0);
  // With no further accesses the entry decays below epsilon and is
  // dropped -- but only after the in-flight request is settled; simulate
  // the relocation never happening by keeping it un-owned: the requested
  // marker pins the entry.
  for (int i = 0; i < 16; ++i) policy.Tick(owned, home, &d);
  EXPECT_LT(policy.Score(5), 0.01);
}

TEST(PlacementPolicyTest, EvictionNeedsConsecutiveColdTicks) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  // Key 9 is owned here but homed at node 1.
  auto owned = [](Key k) { return k == 9; };
  auto home = [](Key) { return NodeId{1}; };

  // Warm it up first so the entry exists and is hot-local.
  for (int i = 0; i < 16; ++i) policy.Record(9, true);
  Decisions d;
  policy.Tick(owned, home, &d);  // score 16 -> 8
  EXPECT_TRUE(d.evict.empty());

  // Cold ticks: 16*0.5^k < 1 from the 5th decay on. Hysteresis demands 3
  // consecutive cold ticks, so eviction must not fire before then.
  int tick_of_eviction = -1;
  for (int t = 0; t < 12 && tick_of_eviction < 0; ++t) {
    Decisions dt;
    policy.Tick(owned, home, &dt);
    if (!dt.evict.empty()) {
      ASSERT_EQ(dt.evict[0], 9u);
      tick_of_eviction = t;
    }
  }
  // Score after Tick #1 is 8; cold (< 1) from the tick where the pre-decay
  // score drops below 1, i.e. ticks seeing 4, 2, 1(no: 1 >= 1), 0.5 ...
  // first cold tick sees 0.5, so eviction fires two ticks later.
  EXPECT_GE(tick_of_eviction, 5);
  EXPECT_LE(tick_of_eviction, 8);
}

TEST(PlacementPolicyTest, WarmTickResetsEvictionHysteresis) {
  ps::AdaptiveConfig cfg = TestPolicyConfig();
  cfg.cold_ticks_to_evict = 2;
  PlacementPolicy policy(cfg, 0);
  auto owned = [](Key k) { return k == 9; };
  auto home = [](Key) { return NodeId{1}; };

  Decisions d;
  policy.Record(9, false);       // score 1
  policy.Tick(owned, home, &d);  // 1 >= cold_threshold: warm; decay -> 0.5
  policy.Tick(owned, home, &d);  // 0.5 is cold: cold tick 1 of 2
  EXPECT_TRUE(d.evict.empty());
  // Re-touch: the warm tick must reset the countdown.
  for (int i = 0; i < 4; ++i) policy.Record(9, false);
  policy.Tick(owned, home, &d);  // score 4.25: warm, countdown reset
  EXPECT_TRUE(d.evict.empty());
  policy.Tick(owned, home, &d);  // 2.125: warm
  policy.Tick(owned, home, &d);  // 1.06: warm
  policy.Tick(owned, home, &d);  // 0.53: cold tick 1 of 2
  EXPECT_TRUE(d.evict.empty());
  policy.Tick(owned, home, &d);  // cold tick 2 of 2 -> evict
  ASSERT_EQ(d.evict.size(), 1u);
  EXPECT_EQ(d.evict[0], 9u);
}

TEST(PlacementPolicyTest, HomeKeysAreNeverEvicted) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  auto owned = [](Key) { return true; };
  auto home = [](Key) { return NodeId{0}; };  // homed here
  policy.Record(2, false);
  Decisions d;
  for (int t = 0; t < 10; ++t) policy.Tick(owned, home, &d);
  EXPECT_TRUE(d.evict.empty());
}

TEST(PlacementPolicyTest, ChurnMakesKeyContendedAndFlagsReadMostly) {
  PlacementPolicy policy(TestPolicyConfig(), 0);  // churn_limit = 2
  auto home = [](Key) { return NodeId{1}; };
  bool we_own = false;
  auto owned = [&](Key) { return we_own; };

  Decisions all;
  for (int round = 0; round < 3; ++round) {
    // Hot while not owned: policy requests a localize.
    for (int i = 0; i < 16; ++i) policy.Record(4, false);
    Decisions d;
    policy.Tick(owned, home, &d);
    if (round < 2) {
      ASSERT_EQ(d.localize.size(), 1u) << "round " << round;
    } else {
      // churn_limit reached: contended, no more relocation attempts;
      // read-mostly -> flagged for replication exactly once.
      EXPECT_TRUE(d.localize.empty());
      ASSERT_EQ(d.replicate.size(), 1u);
      EXPECT_EQ(d.replicate[0], 4u);
      EXPECT_EQ(policy.Classify(4, false), KeyClass::kContended);
    }
    // The relocation lands...
    we_own = true;
    for (int i = 0; i < 16; ++i) policy.Record(4, false);
    policy.Tick(owned, home, &d);
    // ...and another node takes the key away while it is still warm.
    we_own = false;
  }

  // The flag is sticky: no second replicate decision.
  for (int i = 0; i < 16; ++i) policy.Record(4, false);
  Decisions again;
  policy.Tick(owned, home, &again);
  EXPECT_TRUE(again.replicate.empty());
}

TEST(PlacementPolicyTest, WriteHeavyContendedKeyIsNotFlagged) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  auto home = [](Key) { return NodeId{1}; };
  bool we_own = false;
  auto owned = [&](Key) { return we_own; };

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) policy.Record(4, /*is_write=*/true);
    Decisions d;
    policy.Tick(owned, home, &d);
    EXPECT_TRUE(d.replicate.empty());
    we_own = true;
    policy.Tick(owned, home, &d);
    we_own = false;
  }
  // The churn marker pins the entry, so after the score decays away the
  // key reads as cold; touching it again revives the contended class.
  Decisions idle;
  for (int t = 0; t < 10; ++t) policy.Tick(owned, home, &idle);
  EXPECT_TRUE(idle.replicate.empty());
  EXPECT_EQ(policy.Classify(4, false), KeyClass::kCold);
  for (int i = 0; i < 16; ++i) policy.Record(4, true);
  EXPECT_EQ(policy.Classify(4, false), KeyClass::kContended);
}

TEST(PlacementPolicyTest, OwnEvictionNeverCountsAsChurn) {
  ps::AdaptiveConfig cfg = TestPolicyConfig();
  cfg.churn_limit = 1;
  cfg.cold_ticks_to_evict = 1;
  PlacementPolicy policy(cfg, 0);
  auto home = [](Key) { return NodeId{1}; };
  bool we_own = true;
  auto owned = [&](Key) { return we_own; };

  // Owned away-from-home key goes cold -> policy decides to evict.
  policy.Record(9, false);
  Decisions d;
  policy.Tick(owned, home, &d);  // score 1: warm
  policy.Tick(owned, home, &d);  // score 0.5: cold tick 1 -> evict
  ASSERT_EQ(d.evict.size(), 1u);

  // The key warms up again in the same window the hand-over completes.
  for (int i = 0; i < 8; ++i) policy.Record(9, false);
  we_own = false;  // our eviction landed
  Decisions after;
  policy.Tick(owned, home, &after);
  // Warm + was_owned + lost -- but by our own eviction: no churn, so the
  // re-request must be a plain localize, not a contended flag.
  EXPECT_EQ(after.localize.size(), 1u);
  EXPECT_TRUE(after.replicate.empty());
  EXPECT_EQ(policy.Classify(9, false), KeyClass::kHotRemote);
}

// One simulated manager tick: `hot_per_tick` samples of the hot key plus
// the same number of scattered one-off noise keys, then a Tick() call.
// Models boxes whose workers push different op rates through the same
// wall-clock tick length.
int LocalizesOverTicks(PlacementPolicy* policy, int tick_calls,
                       int hot_per_tick, Key hot_key) {
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  int localizes = 0;
  Key noise = 1000;
  for (int t = 0; t < tick_calls; ++t) {
    for (int i = 0; i < hot_per_tick; ++i) {
      policy->Record(hot_key, /*is_write=*/false);
      policy->Record(noise++, /*is_write=*/false);
    }
    Decisions d;
    policy->Tick(owned, home, &d);
    for (const Key k : d.localize) {
      if (k == hot_key) ++localizes;
    }
  }
  return localizes;
}

TEST(PlacementPolicyTest, WindowsAutoTuneToObservedSampleRate) {
  // hot_threshold 4 with min_tick_samples 32: a window closes only after
  // 32 samples, so "hot" means >= 4 of 32 recent samples -- the same
  // classification whether those 32 samples took one tick or sixteen.
  ps::AdaptiveConfig cfg = TestPolicyConfig();
  cfg.min_tick_samples = 32;

  // Fast box: 16 hot + 16 noise samples per tick -- every tick closes.
  PlacementPolicy fast(cfg, /*node=*/0);
  EXPECT_GE(LocalizesOverTicks(&fast, 8, 16, 7), 1);

  // Slow box, 16x fewer samples: 1 hot + 1 noise per tick. Windows close
  // every 16 tick calls with the hot key at half the window mass, so the
  // key still classifies hot.
  PlacementPolicy slow(cfg, 0);
  EXPECT_GE(LocalizesOverTicks(&slow, 8 * 16, 1, 7), 1);

  // The same slow box WITHOUT the gate: each tick decays the single
  // sample before the score can ever reach hot_threshold -- the bug the
  // gate fixes (everything decays to noise; the hot key is never acted
  // on).
  ps::AdaptiveConfig raw = TestPolicyConfig();
  raw.min_tick_samples = 0;
  PlacementPolicy ungated(raw, 0);
  EXPECT_EQ(LocalizesOverTicks(&ungated, 8 * 16, 1, 7), 0);
}

TEST(PlacementPolicyTest, ReplicatedKeysAreNeverLocalized) {
  // A key served from a pinned replica must not be re-localized even
  // after churn forgiveness drops its churn below the limit -- relocating
  // it would invalidate every node's replica and restart the ping-pong.
  PlacementPolicy policy(TestPolicyConfig(), 0);
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };
  auto replicated = [](Key k) { return k == 7; };

  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 8; ++i) policy.Record(7, false);  // stays hot
    Decisions d;
    policy.Tick(owned, home, replicated, &d);
    EXPECT_TRUE(d.localize.empty()) << "tick " << t;
  }
}

TEST(PlacementPolicyTest, IdleNodeStillDecaysAndEvicts) {
  // With sample-gated windows, a node that stops issuing operations
  // records no samples -- the stretch cap must still close windows so
  // owned-but-cold keys decay toward eviction instead of being pinned
  // open forever.
  ps::AdaptiveConfig cfg = TestPolicyConfig();
  cfg.min_tick_samples = 32;
  cfg.cold_ticks_to_evict = 2;
  PlacementPolicy policy(cfg, 0);
  auto owned = [](Key k) { return k == 9; };
  auto home = [](Key) { return NodeId{1}; };

  // Warm the key up with one closed window, then go completely idle.
  for (int i = 0; i < 32; ++i) policy.Record(9, false);
  Decisions d;
  policy.Tick(owned, home, &d);
  ASSERT_EQ(policy.ticks(), 1);

  bool evicted = false;
  for (int t = 0; t < 64 * 16 && !evicted; ++t) {
    Decisions dt;
    policy.Tick(owned, home, &dt);
    for (const Key k : dt.evict) evicted |= (k == 9);
  }
  EXPECT_TRUE(evicted) << "idle node never evicted its cold key";
}

TEST(PlacementPolicyTest, StarvedTicksDoNotDecayScores) {
  ps::AdaptiveConfig cfg = TestPolicyConfig();
  cfg.min_tick_samples = 8;
  PlacementPolicy policy(cfg, 0);
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };

  for (int i = 0; i < 6; ++i) policy.Record(5, false);
  Decisions d;
  policy.Tick(owned, home, &d);  // 6 < 8: window stays open, no decay
  EXPECT_DOUBLE_EQ(policy.Score(5), 6.0);
  EXPECT_TRUE(d.localize.empty());
  EXPECT_EQ(policy.ticks(), 0);

  for (int i = 0; i < 2; ++i) policy.Record(5, false);
  policy.Tick(owned, home, &d);  // 8th sample closes the window
  EXPECT_EQ(policy.ticks(), 1);
  ASSERT_EQ(d.localize.size(), 1u);  // score 8 >= hot_threshold 4
  EXPECT_DOUBLE_EQ(policy.Score(5), 4.0);  // decayed exactly once
}

TEST(PlacementPolicyTest, StolenKeyIsReRequestedAfterRetryTicks) {
  PlacementPolicy policy(TestPolicyConfig(), 0);
  // The key never shows up as owned at any tick boundary: it was
  // relocated here and stolen again between ticks. The request marker
  // must expire so the node keeps competing.
  auto owned = [](Key) { return false; };
  auto home = [](Key) { return NodeId{1}; };

  int localizes = 0;
  for (int t = 0; t < 8; ++t) {
    for (int i = 0; i < 8; ++i) policy.Record(7, false);  // stays hot
    Decisions d;
    policy.Tick(owned, home, &d);
    localizes += static_cast<int>(d.localize.size());
  }
  // Initial request at tick 1, marker expires after 3 unanswered ticks,
  // re-request, expire, re-request: at least 2 requests over 8 ticks.
  EXPECT_GE(localizes, 2);
}

// ---------------------------------------------------------- integration --

ps::Config AdaptiveConfig2Nodes() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // few-core friendliness
  cfg.adaptive.enabled = true;
  cfg.adaptive.sample_period = 1;
  cfg.adaptive.tick_micros = 200;
  cfg.adaptive.decay = 0.5;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.5;
  cfg.adaptive.cold_ticks_to_evict = 2;
  return cfg;
}

TEST(AdaptiveEngineTest, HotRemoteKeysBecomeLocalWithoutManualLocalize) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  ps::PsSystem system(cfg);
  // Keys 40..47 are homed at node 1 (HomeBegin(1) == 32).
  const std::vector<Key> hot = {40, 41, 42, 43, 44, 45, 46, 47};
  std::atomic<bool> converged{false};

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(hot.size() * 4);
    Timer t;
    while (t.ElapsedSeconds() < 20.0) {
      w.Pull(hot, buf.data());
      bool all_local = true;
      for (const Key k : hot) all_local &= w.IsLocal(k);
      if (all_local) {
        converged.store(true);
        return;
      }
    }
  });

  EXPECT_TRUE(converged.load())
      << "engine did not localize the hot keys in time";
  for (const Key k : hot) EXPECT_EQ(system.OwnerOf(k), 0);
  const adapt::AdaptStats stats = system.placement_manager(0).stats();
  EXPECT_GT(stats.localizes_issued, 0);
  EXPECT_GT(stats.samples, 0);
  EXPECT_GT(stats.ticks, 0);
}

TEST(AdaptiveEngineTest, ColdKeysAreEvictedBackHome) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key hot_then_cold = 40;  // homed at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4);
    // Phase A: hammer until the engine localizes the key here.
    Timer t;
    while (!w.IsLocal(hot_then_cold) && t.ElapsedSeconds() < 20.0) {
      w.Pull({hot_then_cold}, buf.data());
    }
    ASSERT_TRUE(w.IsLocal(hot_then_cold));
    // Phase B: go cold on it (keep accessing a home-local key so the
    // worker stays busy); the engine must hand it back to node 1.
    t.Restart();
    while (system.OwnerOf(hot_then_cold) != 1 &&
           t.ElapsedSeconds() < 20.0) {
      w.Pull({Key{3}}, buf.data());
    }
  });

  EXPECT_EQ(system.OwnerOf(hot_then_cold), 1)
      << "engine did not evict the cold key back to its home";
  EXPECT_GT(system.placement_manager(0).stats().evictions_issued, 0);
  EXPECT_GT(system.Sum(&ps::ServerStats::evictions_received, 1).count, 0);
}

TEST(AdaptiveEngineTest, ContendedReadMostlyKeyIsFlaggedAndPinned) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  cfg.adaptive.churn_limit = 1;
  cfg.replication = true;
  ps::PsSystem system(cfg);
  const Key contended = 40;
  auto pinned_somewhere = [&] {
    for (NodeId n = 0; n < cfg.num_nodes; ++n) {
      if (system.replica_manager(n)->IsPinned(contended)) return true;
    }
    return false;
  };

  system.Run([&](ps::Worker& w) {
    // Both nodes read-hammer the same key: it ping-pongs, goes contended,
    // gets flagged on some node, and that node's manager pins it into the
    // node's replica store.
    std::vector<Val> buf(4);
    Timer t;
    while (!pinned_somewhere() && t.ElapsedSeconds() < 20.0) {
      w.Pull({contended}, buf.data());
    }
  });

  EXPECT_TRUE(pinned_somewhere()) << "no node pinned the contended key";
  int64_t flags = 0;
  int64_t pinned = 0;
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    const adapt::AdaptStats stats = system.placement_manager(n).stats();
    flags += stats.replication_flags;
    pinned += stats.replicas_pinned;
  }
  EXPECT_GT(flags, 0);
  EXPECT_GT(pinned, 0);
}

TEST(AdaptiveEngineTest, DisabledEngineChangesNothing) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  cfg.adaptive.enabled = false;
  ps::PsSystem system(cfg);
  EXPECT_FALSE(system.adaptive_enabled());
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4);
    for (int i = 0; i < 1000; ++i) w.Pull({40}, buf.data());
  });
  EXPECT_EQ(system.OwnerOf(40), 1);  // stayed at its home
}

// ------------------------------------------------- worker-level pieces --

TEST(LocalizeDedupeTest, DuplicateAndLocalKeysAreSkipped) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  cfg.adaptive.enabled = false;
  ps::PsSystem system(cfg);
  system.net_stats().Reset();
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    // Key 5 is already local (homed at node 0); 40 is requested 3 times.
    w.Localize({40, 5, 40, 40});
    EXPECT_TRUE(w.IsLocal(40));
    // Fully-local (after dedupe) request completes inline.
    EXPECT_EQ(w.LocalizeAsync({5, 5, 40}), ps::Worker::kImmediate);
  });
  // One relocation happened, with exactly one localize message.
  EXPECT_EQ(system.Sum(&ps::ServerStats::relocations).count, 1);
  EXPECT_EQ(system.net_stats().MessagesOfType(net::MsgType::kLocalize), 1);
  EXPECT_EQ(system.net_stats().MessagesOfType(net::MsgType::kLocalizeNoop),
            0);
}

TEST(EvictTest, EvictedKeyReturnsHomeWithValueIntact) {
  ps::Config cfg = AdaptiveConfig2Nodes();
  cfg.adaptive.enabled = false;
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed at node 1
  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Localize({k});
    const std::vector<Val> upd = {1.0f, 2.0f, 3.0f, 4.0f};
    w.Push({k}, upd.data());
    // Not owned / homed-here keys are skipped, owned remote-homed evicts.
    EXPECT_EQ(w.Evict({k, Key{3}, Key{60}}), 1u);
    Timer t;
    while (system.OwnerOf(k) != 1 && t.ElapsedSeconds() < 20.0) {
    }
  });
  EXPECT_EQ(system.OwnerOf(k), 1);
  std::vector<Val> buf(4);
  system.GetValue(k, buf.data());
  EXPECT_EQ(buf[0], 1.0f);
  EXPECT_EQ(buf[3], 4.0f);
  EXPECT_EQ(system.Sum(&ps::ServerStats::evictions_received, 1).count, 1);
}

TEST(EvictTest, EvictRacingLocalizeKeepsProtocolAliveAndUpdatesExact) {
  // An eviction's transfer is in flight toward the home while other nodes
  // keep localizing the same key: the home must queue those hand-overs
  // behind the arriving transfer (not crash, not drop updates).
  ps::Config cfg;
  cfg.num_nodes = 3;  // 0 and 2 fight over a key homed at 1
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  ps::PsSystem system(cfg);
  const Key k = 30;  // homed at node 1 (64 keys / 3 nodes: 22..42)
  ASSERT_EQ(system.layout().Home(k), 1);

  constexpr int kIters = 200;
  system.Run([&](ps::Worker& w) {
    std::vector<Val> one(4, 1.0f);
    for (int it = 0; it < kIters; ++it) {
      if (w.node() == 0) {
        w.Localize({k});
        w.Push({k}, one.data());
        w.Evict({k});
      } else if (w.node() == 2) {
        w.Localize({k});
        w.Push({k}, one.data());
      }
      w.Barrier();
    }
  });

  // Cumulative pushes survive every relocation/eviction interleaving.
  std::vector<Val> buf(4);
  system.GetValue(k, buf.data());
  EXPECT_EQ(buf[0], static_cast<Val>(2 * kIters));
  EXPECT_EQ(buf[3], static_cast<Val>(2 * kIters));
}

}  // namespace
}  // namespace adapt
}  // namespace lapse
